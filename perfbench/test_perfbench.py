"""Self-tests of the benchmark: the oracles agree with known facts, and a
minimal run of every workload prints every metric named in BENCHMARK.json
and the output digest.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from oracles import S, T, mat_mul, word_matrix  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
HALF = (Fraction(1, 2), Fraction(1, 2))


def test_l_veech_group_facts():
    assert not oracles.l_member(T)
    assert oracles.l_member(mat_mul(T, T))
    assert oracles.l_member(S)
    # Gamma(L) has index 3 in SL(2,Z): three origamis in the orbit
    classes = {oracles.origami_class(word_matrix(w))
               for w in ("", "T", "TT", "S", "TS", "ST", "TST", "STS")}
    assert len(classes) == 3


def test_two_marked_torus_veech_group_facts():
    assert oracles.two_marked_member(S, HALF)
    assert not oracles.two_marked_member(T, HALF)
    assert oracles.two_marked_member(mat_mul(T, T), HALF)


def test_non_integral_matrices_are_never_members():
    g = ((1, Fraction(1, 2)), (0, 1))
    assert not any(oracles.member(s, g) for s in
                   (("torus",), ("sheared",), ("L",), ("tm", HALF)))


def test_sl2z_words_multiply_back():
    rng = random.Random(0)
    for _ in range(500):
        w = "".join(rng.choice("TtS") for _ in range(rng.randint(0, 9)))
        g = word_matrix(w)
        assert word_matrix(oracles.sl2z_word(g)) == g


def test_rebuild_oracle_accepts_gamma_translates_only():
    g = word_matrix("TS")
    def fmt(m):
        rows = (",".join(str(x) for x in row) for row in m)
        return ("[[{}],[{}]]\nhomothety: 1\ntranslation: (0,0)\n"
                "matched: 1 faces, 3 edges, 2 vertices\n").format(*rows)

    assert oracles.judge_rebuild(fmt(g), ("torus",), g)[0] == "answered"
    assert oracles.judge_rebuild(fmt(mat_mul(g, S)), ("tm", HALF), g)[0] == "answered"
    assert oracles.judge_rebuild(fmt(mat_mul(g, T)), ("tm", HALF), g)[0] == "failed"


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric_and_the_digest(workload, trace):
    line, report = run.run(workload, seed=0, seconds=0, trace=trace, max_jobs=1)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in line["metrics"].items()}
    assert line["attempted"] == (2 if trace else 1)
    assert len(report["digest"]) == 64 and report["digest_jobs"] == 1
