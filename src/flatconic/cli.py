"""Command-line interface: develop charts, build cell complexes, decide Veech
membership, rebuild affine maps between surfaces, and render tessellations.

`veech-check` decides on the whole surface, by the Delaunay isomorphism of
`flatconic.delaunay`; its `--radius` is only checked to be positive and
echoed in the verdict line.

Exit codes: 0 success, 2 input error, 3 infeasible request (seed not
realizable, or the window is too small to decide), 4 certification
failure. Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cellcomplex import (NotRealizable, WindowTooSmall, build_complex,
                          complex_to_json)
from .linalg import fraction_str
from .render import render_svg
from .surface import SurfaceError, develop, parse_surface, to_lattice
from .veech import discover_affine, tessellate, veech_check


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _fmt_matrix(g) -> str:
    return "[[{},{}],[{},{}]]".format(*(fraction_str(x) for row in g for x in row))


def _parse_base(text: str):
    # "p0:1/2,1/2" -> ("p0", (1/2, 1/2))
    pid, _, coords = text.partition(":")
    parts = coords.split(",")
    if not pid or len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"base must look like POLY:X,Y, got {text!r}")
    return (pid, (_frac(parts[0]), _frac(parts[1])))


def _parse_seed(text: str):
    # "0,0;1,0;0,1" -> three points
    points = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"seed must look like X,Y;X,Y;X,Y, got {text!r}")
        points.append((_frac(parts[0]), _frac(parts[1])))
    if len(points) != 3:
        raise argparse.ArgumentTypeError("seed needs exactly three points")
    if len(set(points)) != 3:
        raise argparse.ArgumentTypeError(
            f"seed points must be distinct, got {text!r}")
    return tuple(points)


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, "
                                         f"got {budget}")
    return budget


# the half-plane SVG is at most 600 (horizon + 0.3) pixels high
_MAX_HORIZON = 10 ** 6


def _horizon(text: str) -> float:
    try:
        horizon = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < horizon <= _MAX_HORIZON:     # also false for nan
        raise argparse.ArgumentTypeError(
            f"horizon must be positive and at most {_MAX_HORIZON}, "
            f"got {text!r}")
    return horizon


def _parse_matrix(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"matrix must be four comma-separated rationals, got {text!r}")
    a, b, c, d = (_frac(p) for p in parts)
    return ((a, b), (c, d))


def _load_surface(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_surface(fh.read())


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_develop(args) -> int:
    surface = _load_surface(args.surface)
    chart = develop(surface, base=args.base, radius=args.radius)
    lines = []
    for dp in chart.points:
        word = ">".join(f"{pid}.{e}" for pid, e in dp.path) or "-"
        lines.append(f"{dp.cone_id}\t{fraction_str(dp.position[0])},"
                     f"{fraction_str(dp.position[1])}\t{word}")
    _emit(args, "".join(line + "\n" for line in lines))
    return 0


def _lattice_seed(surface, seed):
    """The --seed points as lattice points of the surface; a point off the
    lattice is no cone point."""
    if seed is None:
        return None
    try:
        return tuple(to_lattice(p, surface.scale) for p in seed)
    except ValueError as e:
        raise NotRealizable(f"seed point {e}") from None


def cmd_complex(args) -> int:
    surface = _load_surface(args.surface)
    chart = develop(surface, base=args.base, radius=args.radius)
    window = build_complex(chart, _lattice_seed(surface, args.seed),
                           budget=args.budget)
    _emit(args, complex_to_json(window) + "\n")
    return 0


def cmd_veech(args) -> int:
    surface = _load_surface(args.surface)
    (a, b), (c, d) = args.matrix
    if a * d - b * c != 1:
        print("error: matrix must have determinant 1", file=sys.stderr)
        return 2
    print(veech_check(surface, args.matrix, radius=args.radius))
    return 0


def cmd_rebuild(args) -> int:
    source = _load_surface(args.source)
    target = _load_surface(args.target)
    # an affine map carries each cone point to one of the same angle
    angles = [sorted(s.cone_angles.values()) for s in (source, target)]
    if angles[0] != angles[1]:
        raise ValueError("no affine map relates the surfaces: their cone "
                         "angles differ (in multiples of 2pi: "
                         f"{angles[0]} and {angles[1]})")
    chart_a = develop(source, radius=args.radius)
    chart_b = develop(target, radius=args.radius)
    A = build_complex(chart_a, budget=args.budget)
    B = build_complex(chart_b, budget=args.target_budget)
    rec, phi = discover_affine(A, B)
    if rec.homothety is None:   # irrational: g / sqrt(det g)
        root = f"sqrt({fraction_str(rec.det)})"
        print(f"{_fmt_matrix(rec.g)}/{root}")
        print(f"homothety: {root}")
    else:
        print(_fmt_matrix(rec.linear))
        print(f"homothety: {fraction_str(rec.homothety)}")
    print(f"translation: ({fraction_str(rec.translation[0])},"
          f"{fraction_str(rec.translation[1])})")
    print(f"matched: {len(phi.faces)} faces, {len(phi.edges)} edges, "
          f"{len(phi.vertices)} vertices")
    return 0


def cmd_tessellate(args) -> int:
    surface = _load_surface(args.surface)
    chart = develop(surface, base=args.base, radius=args.radius)
    window = build_complex(chart, _lattice_seed(surface, args.seed),
                           budget=args.budget)
    tess = tessellate(window)
    if args.svg:
        svg = render_svg(tess, model=args.model, horizon=args.horizon)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"{args.svg}: {len(tess.faces)} faces, "
              f"{len(tess.vertex_points)} vertices ({args.model})")
    else:
        doc = {
            "faces": [{"id": f.id,
                       "vertices": [None if p is None else str(p)
                                    for p in f.vertices],
                       "truncated": f.truncated} for f in tess.faces],
            "vertices": {str(i): str(p) for i, p in
                         enumerate(sorted(tess.vertex_points.values(),
                                          key=str))},
        }
        _emit(args, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flatconic",
        description="Cell complexes of immersed conics on translation "
                    "surfaces and their hyperbolic tessellations.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seed=False, budget=False, out=False):
        p.add_argument("--base", type=_parse_base, default=None,
                       metavar="POLY:X,Y",
                       help="chart base point (default: first polygon's "
                            "centroid)")
        p.add_argument("--radius", type=_frac, default=Fraction(6),
                       help="chart radius (default 6)")
        if seed:
            p.add_argument("--seed", type=_parse_seed, default=None,
                           metavar="X,Y;X,Y;X,Y",
                           help="seed triple (default: nearest realizable)")
        if budget:
            p.add_argument("--budget", type=_budget, default=20,
                           help="2-cell budget (default 20)")
        if out:
            p.add_argument("--out", default=None, help="output file "
                           "(default stdout)")

    p = sub.add_parser("develop", help="unfold a chart and list cone points")
    p.add_argument("surface")
    common(p, out=True)
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("complex", help="build the windowed cell complex")
    p.add_argument("surface")
    common(p, seed=True, budget=True, out=True)
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("veech-check",
                       help="decide Veech-group membership on the whole "
                            "surface")
    p.add_argument("surface")
    p.add_argument("--matrix", type=_parse_matrix, required=True,
                   metavar="A,B,C,D", help="candidate matrix, row major")
    p.add_argument("--radius", type=_frac, default=Fraction(6),
                   help="positive; only echoed in the verdict line")
    p.set_defaults(func=cmd_veech)

    p = sub.add_parser("rebuild",
                       help="recover the affine map between two surfaces")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--radius", type=_frac, default=Fraction(6))
    p.add_argument("--budget", type=_budget, default=12)
    p.add_argument("--target-budget", type=_budget, default=20,
                   dest="target_budget")
    p.set_defaults(func=cmd_rebuild)

    p = sub.add_parser("tessellate",
                       help="emit the hyperbolic tessellation of a window")
    p.add_argument("surface")
    common(p, seed=True, budget=True, out=True)
    p.add_argument("--svg", default=None, help="write an SVG file here")
    p.add_argument("--model", choices=("halfplane", "disc"),
                   default="halfplane")
    p.add_argument("--horizon", type=_horizon, default=4.0,
                   help="height cut for ideal vertices (halfplane model)")
    p.set_defaults(func=cmd_tessellate)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SurfaceError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NotRealizable as e:
        print(f"infeasible (not realizable): {e}", file=sys.stderr)
        return 3
    except WindowTooSmall as e:
        print(f"infeasible (window too small): {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
