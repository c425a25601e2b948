"""Seeded job generator for the three workloads.

A run is a sequence of rounds, and every round holds one job per stratum
(surface, radius, budget, coset of the Veech group), so every run sees the
same mix. In `veech` and `rebuild` a stratum fixes its job, the word being
the shortest of its coset: every round has the same jobs and the same
failures, and the seed sets their order. In `complex` the seed also draws
each job's base point and each round's marked point. The program sees only
the generated `.tsurf` files and the argv of each job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from oracles import marked_class, origami_class, word_matrix

F = Fraction

ROUNDS = 8          # distinct rounds per run; a run that finishes them cycles

# (radius, budget) levels; every surface gets each level once per round
COMPLEX_LEVELS = ((3, 4), (3, 6), (4, 3), (4, 5))
COMPLEX_VARIANTS = ("complex", "tess-json", "tess-halfplane", "tess-disc")
# (surface, radius, words): the shortest word of each coset of the Veech
# group, so both members and non-members are checked on every surface; the
# marked point (1/2, 1/2) makes the cone points a lattice, with strips only,
# while (1/3, 1/3) gives rigid ellipses and so five-point solves
VEECH_STRATA = ((("torus",), 3, 3), (("tm", (F(1, 2), F(1, 2))), 2, 3),
                (("tm", (F(1, 3), F(1, 3))), 2, 2),
                (("L",), 3, 3), (("L",), 4, 2))
REBUILD_SOURCES = (("torus",), ("sheared",), ("tm", (F(1, 2), F(1, 2))))
# (radius, budget, target budget); the two-marked torus takes one word from
# each coset of its Veech group, one per level. Rounds of an odd number of
# jobs keep the median and tail ranks inside a group of copies of one job.
REBUILD_LEVELS = ((2, 3, 5), (2, 4, 6), (3, 3, 5))


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    outputs: tuple      # files the job writes, relative to the work directory
    check: tuple        # what the oracle needs: (kind, ...)


def _frac_str(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def surface_file(spec, g=None) -> str:
    name = spec[0]
    if name == "tm":
        m = spec[1]
        name += "-" + "-".join(_frac_str(c).replace("/", "_") for c in m)
    if g is not None:
        name += "-g" + "_".join(_frac_str(x) for row in g for x in row)
    return name + ".tsurf"


def surface_desc(spec, g=None):
    """The flatconic surface for a spec, mapped by g when given."""
    from flatconic import models
    kind = spec[0]
    if kind == "torus":
        desc = models.square_torus()
    elif kind == "sheared":
        desc = models.square_torus().mapped(((1, 1), (0, 1)))
    elif kind == "L":
        desc = models.l_shape()
    else:
        desc = models.two_marked_torus(spec[1])
    return desc if g is None else desc.mapped(g)


def _base(rng: random.Random, spec) -> str:
    """A base point strictly inside the first polygon, so never a cone point."""
    i, j = rng.randint(1, 7), rng.randint(1, 7)
    kind = spec[0]
    if kind == "torus":
        x, y, pid = F(i, 8), F(j, 8), "p0"
    elif kind == "sheared":
        x, y, pid = F(i + j, 8), F(j, 8), "p0"
    elif kind == "L":
        dx, dy = rng.choice(((0, 0), (1, 0), (0, 1)))
        x, y, pid = dx + F(i, 8), dy + F(j, 8), "p0"
    else:
        # barycentric weights on t0 = (0,0), (1,0), m, all positive
        a = rng.randint(1, 6)
        b = rng.randint(1, 7 - a)
        c = 8 - a - b
        m = spec[1]
        x, y, pid = F(b, 8) + c * m[0] / 8, c * m[1] / 8, "t0"
    return f"{pid}:{_frac_str(x)},{_frac_str(y)}"


_WORDS = [w for n in (1, 2, 3) for w in map("".join, product("TtS", repeat=n))
          if not any(p in w for p in ("Tt", "tT", "SS"))]


def _catalogue(classify=None) -> list:
    """The words grouped by coset of the Veech group, the group of members
    first (one group when every word is a member), each in a fixed order."""
    key = classify or (lambda g: 0)
    member = key(((1, 0), (0, 1)))
    groups: dict = {}
    for w in _WORDS:
        groups.setdefault(key(word_matrix(w)), []).append(w)
    return [groups[k] for k in sorted(groups, key=lambda k: (k != member, k))]


def _firsts(spec, n: int) -> list:
    """The first word of each coset in turn, n words in all."""
    groups = _catalogue(_classifier(spec))
    return [groups[i % len(groups)][i // len(groups)] for i in range(n)]


def _classifier(spec):
    if spec[0] == "L":
        return origami_class
    if spec[0] == "tm":
        return lambda g, m=spec[1]: marked_class(g, m)
    return None


# det-1 matrices with a non-integral entry, never in a Veech group here,
# and the stratum each is checked on
NON_INTEGRAL = ((3, ((F(1), F(1, 2)), (F(0), F(1)))),
                (1, ((F(2), F(0)), (F(0), F(1, 2)))))


def _matrix_arg(g) -> str:
    return ",".join(_frac_str(x) for row in g for x in row)


def _complex_round(rng, r):
    specs = [("torus",), ("sheared",), ("L",),
             ("tm", (F(rng.randint(1, 2), 3), F(rng.randint(1, 2), 3)))]
    per_surface = []
    for spec in specs:
        levels = list(COMPLEX_LEVELS)
        variants = list(COMPLEX_VARIANTS)
        rng.shuffle(levels)
        rng.shuffle(variants)
        per_surface.append([(spec, lv, var) for lv, var in zip(levels, variants)])
    jobs = []
    for k in range(len(COMPLEX_LEVELS)):
        for spec, (radius, budget), variant in (s[k] for s in per_surface):
            jid = f"{r}.{len(jobs)}"
            argv = ["tessellate" if variant.startswith("tess") else "complex",
                    surface_file(spec), "--base", _base(rng, spec),
                    "--radius", str(radius), "--budget", str(budget)]
            outputs = ()
            if variant == "complex":
                outputs = (f"job{jid}.json",)
                argv += ["--out", outputs[0]]
            elif variant != "tess-json":
                model = variant.split("-")[1]
                outputs = (f"job{jid}.svg",)
                argv += ["--svg", outputs[0], "--model", model]
            jobs.append(Job(jid, tuple(argv), outputs, (variant, budget)))
    return jobs, {(spec, None) for spec in specs}


def _veech_round(rng, r):
    slots = [[(spec, radius, word_matrix(w)) for w in _firsts(spec, n)]
             for spec, radius, n in VEECH_STRATA]
    for k, g in NON_INTEGRAL:
        slots[k].append(VEECH_STRATA[k][:2] + (g,))
    for s in slots:
        rng.shuffle(s)
    jobs = []
    while any(slots):
        for s in slots:
            if s:
                spec, radius, g = s.pop()
                jobs.append(Job(f"{r}.{len(jobs)}",
                                ("veech-check", surface_file(spec),
                                 "--radius", str(radius),
                                 f"--matrix={_matrix_arg(g)}"),
                                (), ("veech", spec, g, radius)))
    return jobs, {(spec, None) for spec, _, _ in VEECH_STRATA}


def _rebuild_round(rng, r):
    per_source = []
    for spec in REBUILD_SOURCES:
        words = _firsts(spec, len(REBUILD_LEVELS))
        # non-members of the two-marked torus's group first: T at the
        # smallest level returns a map outside g Gamma at this commit
        words = words[1:] + words[:1]
        per_source.append([(spec, level, word_matrix(w))
                           for level, w in zip(REBUILD_LEVELS, words)])
        rng.shuffle(per_source[-1])
    jobs, files = [], set()
    for spec, (radius, budget, target_budget), g in \
            (job for both in zip(*per_source) for job in both):
        files |= {(spec, None), (spec, g)}
        jobs.append(Job(f"{r}.{len(jobs)}",
                        ("rebuild", surface_file(spec), surface_file(spec, g),
                         "--radius", str(radius), "--budget", str(budget),
                         "--target-budget", str(target_budget)),
                        (), ("rebuild", spec, g)))
    return jobs, files


_ROUND = {"complex": _complex_round, "veech": _veech_round,
          "rebuild": _rebuild_round}


def make_rounds(workload: str, seed: int):
    """(rounds, files): the job rounds, and the (spec, g) surfaces they read."""
    rng = random.Random(f"{workload}:{seed}")
    rounds, files = [], set()
    for r in range(ROUNDS):
        jobs, used = _ROUND[workload](rng, r)
        rounds.append(jobs)
        files |= used
    return rounds, sorted(files, key=lambda f: surface_file(*f))
