"""Smoke runs of the example scripts, which import the package's modules."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_two_marked_links_surveys_the_ellipse_links():
    out = run("two_marked_links.py", "--radius", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "27 untruncated rigid ellipses (of 32)"
    assert sum(line.startswith("n=5  link 5/5 vertices") for line in lines) == 14


def test_farey_svg_writes_both_models(tmp_path):
    out = run("farey_svg.py", "--radius", "3", "--budget", "4",
              "--outdir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    for model in ("halfplane", "disc"):
        svg = tmp_path / f"torus_farey_{model}.svg"
        assert svg.read_text(encoding="utf-8").startswith("<svg")
        assert f"wrote {svg} (4 faces)" in out.stdout
