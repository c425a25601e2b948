"""End-to-end checks of the command line interface."""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from flatconic.cli import main
from flatconic.models import square_torus, two_marked_torus
from flatconic.surface import surface_to_json


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus.tsurf"
    path.write_text(surface_to_json(square_torus()))
    return str(path)


@pytest.fixture()
def marked_file(tmp_path):
    path = tmp_path / "marked.tsurf"
    path.write_text(surface_to_json(two_marked_torus(marked=(F(1, 2), F(1, 4)))))
    return str(path)


def test_develop_lists_cone_points(torus_file, capsys):
    assert main(["develop", torus_file, "--radius", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["c0\t0,0\t-", "c0\t0,1\t-", "c0\t1,0\t-", "c0\t1,1\t-"]


def test_develop_tiny_radius_is_empty_but_ok(torus_file, capsys):
    assert main(["develop", torus_file, "--radius", "1/100"]) == 0
    assert capsys.readouterr().out == ""


def test_develop_records_path_words(torus_file, capsys):
    assert main(["develop", torus_file, "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "p0." in out   # distant points cross at least one edge


def test_missing_file_is_an_input_error(capsys):
    assert main(["develop", "/no/such/file.tsurf"]) == 2


MALFORMED = {
    "not-json": "{this is not json",
    # bad numbers: a zero denominator, and JSON infinities as a vertex
    # coordinate and as a gluing index
    "zero-denominator": (
        '{"polygons": [{"id": "p0", "vertices": '
        '[["0", "0"], ["1/0", "0"], ["1", "1"], ["0", "1"]]}], '
        '"gluings": [{"a": ["p0", 0], "b": ["p0", 2]}, '
        '{"a": ["p0", 1], "b": ["p0", 3]}]}'),
    "infinite-vertex": (
        '{"polygons": [{"id": "p0", "vertices": '
        '[[0, 0], [Infinity, 0], [1, 1], [0, 1]]}], '
        '"gluings": [{"a": ["p0", 0], "b": ["p0", 2]}, '
        '{"a": ["p0", 1], "b": ["p0", 3]}]}'),
    "infinite-gluing-index": (
        '{"polygons": [{"id": "p0", "vertices": '
        '[[0, 0], [1, 0], [1, 1], [0, 1]]}], '
        '"gluings": [{"a": ["p0", Infinity], "b": ["p0", 2]}, '
        '{"a": ["p0", 1], "b": ["p0", 3]}]}'),
}


def test_malformed_surface_is_an_input_error(tmp_path, capsys):
    for name, text in MALFORMED.items():
        bad = tmp_path / f"{name}.tsurf"
        bad.write_text(text)
        assert main(["develop", str(bad)]) == 2, name
        assert capsys.readouterr().err.startswith("error: "), name


def test_complex_default_run(torus_file, capsys):
    assert main(["complex", torus_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["faces"]) == 20
    assert {v["kind"] for v in doc["vertices"]} == {"strip"}


def test_complex_output_is_byte_deterministic(torus_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["complex", torus_file, "--out", str(a)]) == 0
    assert main(["complex", torus_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_complex_budget_one(torus_file, capsys):
    assert main(["complex", torus_file, "--budget", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["faces"]) == 1


def test_complex_explicit_seed(torus_file, capsys):
    assert main(["complex", torus_file, "--seed", "0,0;1,0;0,1",
                 "--budget", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["faces"]) == 3


def test_collinear_seed_is_infeasible(torus_file, capsys):
    assert main(["complex", torus_file, "--seed", "0,0;1,0;2,0"]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_seed_off_the_lattice_is_infeasible(torus_file, capsys):
    # the seed is read on the surface's lattice Z^2/1: (1/2, 0) is no cone
    # point
    assert main(["complex", torus_file, "--seed", "1/2,0;1,0;0,1"]) == 3
    assert capsys.readouterr().err == (
        "infeasible (not realizable): seed point 1/2,0 is not on the "
        "lattice Z^2/1\n")


def test_veech_check_member(torus_file, capsys):
    assert main(["veech-check", torus_file, "--matrix", "1,1,0,1",
                 "--radius", "4"]) == 0
    assert capsys.readouterr().out.strip() == "member-in-window (R=4)"


def test_veech_check_rejected(torus_file, capsys):
    assert main(["veech-check", torus_file, "--matrix", "1,1/2,0,1",
                 "--radius", "4"]) == 0
    assert capsys.readouterr().out.strip() == "rejected (R=4)"


def test_veech_check_non_unimodular(torus_file, capsys):
    assert main(["veech-check", torus_file, "--matrix", "2,0,0,1"]) == 2


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_veech_check_radius_must_be_positive(torus_file, radius, capsys):
    assert main(["veech-check", torus_file, "--matrix", "1,1,0,1",
                 "--radius", radius]) == 2
    assert capsys.readouterr().err == "error: radius must be positive\n"


# on the L, S is in the Veech group and T and [[0,-1],[1,1]] are not (the
# origami truth of oracles.py); the radius must not change a verdict
L_VERDICTS = {
    "S-R4": ("0,-1,1,0", "4", "member-in-window (R=4)"),
    "T-R3": ("1,1,0,1", "3", "rejected (R=3)"),
    "T-R4": ("1,1,0,1", "4", "rejected (R=4)"),
    "elliptic-R3": ("0,-1,1,1", "3", "rejected (R=3)"),
}


@pytest.mark.parametrize("case", sorted(L_VERDICTS))
def test_veech_check_on_the_l(case, capsys):
    matrix, radius, line = L_VERDICTS[case]
    assert main(["veech-check", str(STOCK / "l_shape.tsurf"), "--matrix",
                 matrix, "--radius", radius]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_veech_check_rotation_on_the_half_marked_torus(tmp_path, capsys):
    path = tmp_path / "marked.tsurf"
    path.write_text(surface_to_json(two_marked_torus(marked=(F(1, 2), F(1, 2)))))
    assert main(["veech-check", str(path), "--matrix", "0,-1,1,0",
                 "--radius", "2"]) == 0
    assert capsys.readouterr().out == "member-in-window (R=2)\n"


BAD_BUDGETS = [["complex", "--budget", "0"], ["complex", "--budget", "-3"],
               ["tessellate", "--budget", "0"],
               ["rebuild", "--budget", "0"],
               ["rebuild", "--target-budget", "0"],
               ["rebuild", "--budget", "-3", "--target-budget", "-3"]]


@pytest.mark.parametrize("argv", BAD_BUDGETS, ids=" ".join)
def test_budgets_below_one_are_input_errors(torus_file, argv, capsys):
    surfaces = [torus_file] * (2 if argv[0] == "rebuild" else 1)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *surfaces, "--radius", "2", *argv[1:]])
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["nan", "inf", "1e308", "-1", "0"])
def test_tessellate_horizon_must_be_finite_and_positive(torus_file, tmp_path,
                                                        horizon, capsys):
    svg = tmp_path / "tess.svg"
    with pytest.raises(SystemExit) as exc:
        main(["tessellate", torus_file, "--budget", "2", "--svg", str(svg),
              f"--horizon={horizon}"])
    assert exc.value.code == 2
    assert "error: argument --horizon" in capsys.readouterr().err
    assert not svg.exists()


def test_rebuild_prints_the_discovered_matrix(torus_file, tmp_path, capsys):
    sheared = tmp_path / "sheared.tsurf"
    sheared.write_text(surface_to_json(square_torus().mapped(((1, 1), (0, 1)))))
    assert main(["rebuild", torus_file, str(sheared),
                 "--budget", "6", "--target-budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "[[1,1],[0,1]]" in out
    assert "homothety: 1" in out


def test_rebuild_prints_an_irrational_homothety_exactly(torus_file, tmp_path,
                                                      capsys):
    # det [[2,0],[0,1]] = 2 is not a rational square, so the unimodular
    # part and the homothety are printed with sqrt(2) factored out
    stretched = tmp_path / "stretched.tsurf"
    stretched.write_text(surface_to_json(square_torus().mapped(((2, 0), (0, 1)))))
    assert main(["rebuild", torus_file, str(stretched), "--radius", "4",
                 "--budget", "4", "--target-budget", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["[[2,0],[0,1]]/sqrt(2)", "homothety: sqrt(2)",
                         "translation: (0,0)"]


@pytest.mark.parametrize("target", ["l_shape", "two_marked_torus"])
def test_rebuild_refuses_surfaces_with_different_cone_angles(target, capsys):
    # an affine map keeps every cone angle: the L has one 6pi cone point and
    # the two-marked torus two 2pi ones, the torus one 2pi cone point
    assert main(["rebuild", str(STOCK / "torus.tsurf"),
                 str(STOCK / f"{target}.tsurf"), "--radius", "3",
                 "--budget", "6", "--target-budget", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certification failure: no affine map "
                                   "relates the surfaces")


@pytest.mark.parametrize("command", ["develop", "complex", "tessellate"])
def test_unknown_base_polygon_is_an_input_error(torus_file, command, capsys):
    assert main([command, torus_file, "--base", "p9:1/2,1/2"]) == 2
    assert capsys.readouterr().err == \
        "error: base polygon 'p9' is not a polygon of the surface\n"


@pytest.mark.parametrize("command", ["complex", "tessellate"])
def test_repeated_seed_points_are_input_errors(torus_file, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, torus_file, "--radius", "3", "--budget", "2",
              "--seed", "0,0;0,0;1,1"])
    assert exc.value.code == 2
    assert "error: argument --seed: seed points must be distinct" in \
        capsys.readouterr().err


def test_tessellate_svg(torus_file, tmp_path, capsys):
    svg_path = tmp_path / "tess.svg"
    assert main(["tessellate", torus_file, "--budget", "8",
                 "--svg", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count('class="face"') == 8


def test_tessellate_json_summary(torus_file, capsys):
    assert main(["tessellate", torus_file, "--budget", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["faces"]) == 6
    for face in doc["faces"]:
        assert len(face["vertices"]) == 3


def test_tessellate_disc_model(torus_file, tmp_path):
    svg_path = tmp_path / "disc.svg"
    assert main(["tessellate", torus_file, "--budget", "6", "--model", "disc",
                 "--svg", str(svg_path)]) == 0
    assert svg_path.read_text().count('class="face"') == 6


STOCK = Path(__file__).resolve().parent.parent / "surfaces"

# sha256 of stdout on the stock surfaces, recorded with the Fraction
# unfolding; a faster kernel must reproduce these bytes exactly
PINNED = {
    "develop-torus-R3": (
        ["develop", "torus", "--radius", "3"],
        "eb354d51c3ad6bf34196e7cb2627176ba109217115e3f0d5b8636e1bf7058900"),
    "complex-torus-R4-b6": (
        ["complex", "torus", "--radius", "4", "--budget", "6"],
        "5de61d89ea9c286074767247fc07fd7af259fb824ae9d69058d57f56c73d413f"),
    "complex-l-R3-b5-base": (
        ["complex", "l_shape", "--radius", "3", "--budget", "5",
         "--base", "p0:3/2,1/3"],
        "640254474fb851a15715e3160cdd4bb9a97f8e16a3eba9fcc9af4f4e7b87614c"),
    "tessellate-torus-json": (
        ["tessellate", "torus", "--radius", "4", "--budget", "6"],
        "b3fa6484a5eb1a87524c05b2d6d60a00c8b15324f61b3f1e5cc2c3919b0caf1a"),
    "veech-check-l-S-R3": (
        ["veech-check", "l_shape", "--matrix", "0,-1,1,0", "--radius", "3"],
        "b221d22d5ae1c1e97de261bce8309801ca422aa72347b1923e199baba1d12e17"),
    "rebuild-torus-sheared-b6-t10": (
        ["rebuild", "torus", "sheared_torus", "--budget", "6",
         "--target-budget", "10"],
        "abd2b3f6b9ec93e753190ba1232e14f1097730284bf2cf206e7b696dbce7fad4"),
    # the (1/2, 1/4) marked point gives the window frame denominator 4
    "rebuild-marked-self-R3-b6-t8": (
        ["rebuild", "two_marked_torus", "two_marked_torus", "--radius", "3",
         "--budget", "6", "--target-budget", "8"],
        "8f17b569ad96a633ec279be9faf5bad955109c28745651c0cf8fada7181df85b"),
    # frame denominator 4: lattice keys differ from the frame's ints, and
    # cells carry flags
    "complex-marked-R2-b6": (
        ["complex", "two_marked_torus", "--radius", "2", "--budget", "6"],
        "419efba99c0f1d9d2d0ea69daa7a0a9189dcfcc06980805eaf64a1da11802603"),
    "complex-torus-R3-b6-seed": (
        ["complex", "torus", "--radius", "3", "--budget", "6",
         "--seed", "0,0;1,0;0,1"],
        "5fa120911a56da2af110bddd5c877def82629da2d347978dc034bdfbfcc264d2"),
}


@pytest.mark.parametrize("run", sorted(PINNED))
def test_output_bytes_are_pinned(run, capsys):
    argv, digest = PINNED[run]
    # every subcommand reads one stock surface, rebuild a source and a target
    n = 3 if argv[0] == "rebuild" else 2
    argv = [argv[0]] + [str(STOCK / f"{name}.tsurf")
                        for name in argv[1:n]] + argv[n:]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the SVG file `tessellate --svg` writes on the two-marked torus,
# whose face ids hold non-integral positions
PINNED_SVG = {
    "halfplane": "1c3b87996decb64cb9c55588634683b28dedd57c103e21920475271905ada7e5",
    "disc": "1ae18500831c9e242da2d16930645aeb9eceb75b69b8f745264729cb79cce1bb",
}


@pytest.mark.parametrize("model", sorted(PINNED_SVG))
def test_svg_bytes_are_pinned(model, tmp_path, capsys):
    svg = tmp_path / "tess.svg"
    assert main(["tessellate", str(STOCK / "two_marked_torus.tsurf"),
                 "--radius", "3", "--budget", "6", "--model", model,
                 "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == f"{svg}: 6 faces, 12 vertices ({model})\n"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == PINNED_SVG[model]
