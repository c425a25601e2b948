#!/usr/bin/env python3
"""Build the square-torus cell complex and render its tessellation.

The window's rigid conics are all strips, their half-plane images are
rational ideal points, and adjacent faces share Farey-neighbor fractions, so
the picture is a chunk of the Farey tessellation. Writes halfplane and disc
SVGs next to each other.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from flatconic.cellcomplex import build_complex
from flatconic.models import square_torus
from flatconic.render import render_svg
from flatconic.surface import develop
from flatconic.veech import tessellate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=int, default=6)
    ap.add_argument("--budget", type=int, default=20)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    chart = develop(square_torus(), radius=args.radius)
    window = build_complex(chart, budget=args.budget)
    tess = tessellate(window)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for model in ("halfplane", "disc"):
        path = outdir / f"torus_farey_{model}.svg"
        path.write_text(render_svg(tess, model=model), encoding="utf-8")
        print(f"wrote {path} ({len(tess.faces)} faces)")
    ideal = sorted(str(p) for p in tess.vertex_points.values())
    print("ideal points:", " ".join(ideal))


if __name__ == "__main__":
    main()
