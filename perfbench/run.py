"""The flatconic benchmark.

    python3 perfbench/run.py --workload complex|veech|rebuild --seed N \
        --seconds S --trace 0|1

Run from the repository root. Inputs come from the seed (`workloads.py`):
surface files are written to a scratch directory under `perfbench/out/`
before timing, and each job is one in-process call of the CLI entry point
`flatconic.cli.main(argv)`. Closed loop, one client, one job at a time,
BLAS/OpenMP pinned to one thread. Every output is checked against the
exact oracles in `oracles.py`.

With `--trace 0` the run prints the end-to-end metrics. Whole rounds of
jobs run until `--seconds` of (scaled, see `timed`) job time have passed
at the end of a round, and at least MIN_JOBS jobs; the determinism digest
covers the first round.

With `--trace 1` the first round runs untraced and then traced, in pairs,
while another pair fits in `--seconds` (at least one pair); the per-layer
metrics are medians over the traced passes, and the spans are written to
`perfbench/out/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A job fails when it raises, exits
outside the documented codes 0/2/3, or gives an answer that an oracle
contradicts; `correct` is false only when an output is malformed or
inconsistent in itself, or a job raises.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import oracles
from spans import Recorder, write_spans
from workloads import make_rounds, surface_desc, surface_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
# Seconds the reference kernel takes at nominal host speed. Reported times
# are wall times scaled by REFERENCE_S / (measured kernel time), the kernel
# being timed just before and just after each measured interval: on a host
# whose speed drifts, raw job times swing by a quarter within a minute,
# while the scaled ones stay within a few percent.
REFERENCE_S = 0.01
TAIL_ABOVE = 10     # the tail percentile keeps at least this many jobs above it
MIN_JOBS = 24       # a run has whole rounds of at least this many jobs

SETUP_CODE = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from flatconic import parse_surface\n"
              "for path in sys.argv[2:]:\n"
              "    with open(path, encoding='utf-8') as fh:\n"
              "        parse_surface(fh.read())\n")


# ---------------------------------------------------------------------------
# running and judging one job

class JobResult:
    __slots__ = ("job", "seconds", "wall", "rc", "status", "reason", "digest",
                 "malformed")

    def __init__(self, job, seconds, wall, rc, status, reason, digest,
                 malformed):
        self.job, self.seconds, self.wall, self.rc = job, seconds, wall, rc
        self.status, self.reason, self.digest = status, reason, digest
        self.malformed = malformed


def reference_kernel() -> float:
    """Wall time of a fixed piece of exact arithmetic and hashing, the kind
    of work flatconic does; it never changes with the program."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
    table: dict = {}
    for i in range(5000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def timed(fn):
    """(result, wall seconds, seconds scaled to nominal host speed)."""
    before = reference_kernel()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = reference_kernel()
    return result, wall, wall * 2 * REFERENCE_S / (before + after)


def _read(name: str) -> str:
    try:
        with open(name, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def _judge(job, rc, stdout, files):
    """(status, reason, malformed) for a job that exited with code rc."""
    kind = job.check[0]
    if rc == 2:
        return "neither", "input rejected (exit 2)", False
    if rc not in (0, 3):
        return "failed", f"exit {rc}", False
    if kind == "veech":
        _, spec, g, radius = job.check
        status, reason = oracles.judge_veech(stdout, rc, spec, g, radius)
    elif rc == 3:
        return "neither", "infeasible (exit 3)", False
    elif kind == "rebuild":
        status, reason = oracles.judge_rebuild(stdout, job.check[1], job.check[2])
    else:
        variant, budget = job.check
        if variant == "complex":
            reason = oracles.check_complex_json(files[job.outputs[0]], budget)
        elif variant == "tess-json":
            reason = oracles.check_tessellation_json(stdout, budget)
        else:
            name = job.outputs[0]
            reason = oracles.check_tessellation_svg(
                stdout, name, files[name], variant.split("-")[1], budget)
        return ("failed", reason, True) if reason else ("answered", None, False)
    return status, reason, reason is not None and reason.startswith("unexpected")


def run_job(job) -> JobResult:
    import flatconic.cli
    for name in job.outputs:
        if os.path.exists(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    crash = None

    def call():
        nonlocal crash
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return flatconic.cli.main(list(job.argv))
        except SystemExit as e:        # argparse rejects an argument
            return e.code if isinstance(e.code, int) else 2
        except Exception as e:         # a crash is a measured outcome
            crash = f"{type(e).__name__}: {e}"
            return None

    gc.collect()
    rc, wall, seconds = timed(call)
    stdout = out.getvalue()
    files = {name: _read(name) for name in job.outputs}
    h = hashlib.sha256(f"rc={rc}\n".encode())
    h.update(stdout.encode())
    for name in sorted(files):
        h.update(f"\0{name}\0".encode())
        h.update(files[name].encode())
    if crash is not None:
        status, reason, malformed = "failed", crash, True
    else:
        status, reason, malformed = _judge(job, rc, stdout, files)
    return JobResult(job, seconds, wall, rc, status, reason, h.hexdigest(),
                     malformed)


# ---------------------------------------------------------------------------
# set-up

def write_inputs(files, workdir: str) -> list[str]:
    from flatconic import surface_to_json
    names = []
    for spec, g in files:
        name = surface_file(spec, g)
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(surface_to_json(surface_desc(spec, g)))
        names.append(name)
    return names


def measure_setup(names: list[str], workdir: str) -> float:
    """Median scaled time of a fresh interpreter that imports flatconic and
    parses every surface file of the workload."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC, *names]
    times = [timed(lambda: subprocess.run(cmd, cwd=workdir, check=True))[2]
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def warm_up(name: str) -> None:
    import flatconic.cli
    with contextlib.redirect_stdout(io.StringIO()):
        flatconic.cli.main(["develop", name, "--radius", "2"])


# ---------------------------------------------------------------------------
# the two kinds of run

def round_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.job.id} {r.digest}\n".encode())
    return h.hexdigest()


def min_rounds(rounds) -> int:
    return -(-MIN_JOBS // len(rounds[0]))


def timed_loop(rounds, seconds: float, max_jobs=None):
    """Whole rounds, cycling, until `seconds` of scaled job time have
    passed at the end of a round, and at least `min_rounds`; returns the
    results and the number of rounds."""
    results, busy, n = [], 0.0, 0
    while n < min_rounds(rounds) or busy < seconds:
        for job in rounds[n % len(rounds)]:
            if max_jobs is not None and len(results) >= max_jobs:
                return results, n + 1
            results.append(run_job(job))
            busy += results[-1].seconds
        n += 1
    return results, n


def tail(latencies, percentile: float):
    """Nearest-rank percentile of the latencies."""
    xs = sorted(latencies)
    return xs[max(0, math.ceil(round(percentile / 100 * len(xs), 9)) - 1)]


def end_to_end(results, rounds, rounds_run, setup_s):
    lat = [r.seconds for r in results]
    n = len(results)
    failed = sum(r.status == "failed" for r in results)
    answered = sum(r.status == "answered" for r in results)
    # the highest percentile with TAIL_ABOVE jobs above it in the shortest
    # run, so it is the same percentile in every run of the workload
    least = min_rounds(rounds) * len(rounds[0])
    pct = 100.0 * (least - TAIL_ABOVE) / least
    tail_s = tail(lat, pct)
    above = sum(x > tail_s for x in lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        # add-one estimate per round run: never 0, and the same for any
        # number of rounds when every round fails alike
        "failed_ratio": ((failed + rounds_run) / (n + 2 * rounds_run), "ratio"),
        "answered_ratio": (answered / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    info = {"tail_percentile": pct, "tail_jobs_above": above, "completed": n,
            "rounds": rounds_run,
            "failed": failed, "answered": answered}
    return metrics, info


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters: dict, overhead_s: float) -> dict:
    def get(name, field):
        return summary[name][field]
    ellipses = counters.get("cellcomplex.rigid_conics.ellipses", 0)
    return {
        "cli.main.s": (get("cli.main", "s"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "surface.parse_surface.s": (get("surface.parse_surface", "s"), "s"),
        "surface.develop.calls": (get("surface.develop", "calls"), "count"),
        "surface.develop.self_s": (get("surface.develop", "self_s"), "s"),
        "surface.develop.placements":
            (counters.get("surface.develop.placements", 0), "count"),
        "surface.rebase.calls": (get("surface.rebase", "calls"), "count"),
        "surface.rebase.s": (get("surface.rebase", "s"), "s"),
        "surface.subconic_fits.calls":
            (get("surface.subconic_fits", "calls"), "count"),
        "cellcomplex.two_cell.calls": (get("cellcomplex.two_cell", "calls"), "count"),
        "cellcomplex.two_cell.self_s": (get("cellcomplex.two_cell", "self_s"), "s"),
        "cellcomplex.two_cell.accepted_ratio":
            (_ratio(get("cellcomplex.two_cell", "returned"),
                    get("cellcomplex.two_cell", "calls")), "ratio"),
        "cellcomplex.feasible_region.self_s":
            (get("cellcomplex.feasible_region", "self_s"), "s"),
        "cellcomplex.build_complex.s": (get("cellcomplex.build_complex", "s"), "s"),
        "cellcomplex.default_seed.s": (get("cellcomplex.default_seed", "s"), "s"),
        "cellcomplex.rigid_conics.calls":
            (get("cellcomplex.rigid_conics", "calls"), "count"),
        "cellcomplex.rigid_conics.s": (get("cellcomplex.rigid_conics", "s"), "s"),
        "cellcomplex.rigid_conics.ellipses": (ellipses, "count"),
        "cellcomplex.rigid_conics.strips":
            (counters.get("cellcomplex.rigid_conics.strips", 0), "count"),
        "cellcomplex.rigid_conics.ellipse_hit_ratio":
            (_ratio(ellipses, get("subconic.conic_through_five", "calls")), "ratio"),
        "subconic.conic_through_five.calls":
            (get("subconic.conic_through_five", "calls"), "count"),
        "subconic.strip_direction.calls":
            (get("subconic.strip_direction", "calls"), "count"),
        "veech.veech_check.self_s": (get("veech.veech_check", "self_s"), "s"),
        "geom.class_key.calls": (get("geom.class_key", "calls"), "count"),
        "quadform.transform_by_affine.calls":
            (get("quadform.transform_by_affine", "calls"), "count"),
        "veech.discover_affine.s": (get("veech.discover_affine", "s"), "s"),
        "veech.psi_of_quadruple.calls":
            (get("veech.psi_of_quadruple", "calls"), "count"),
        "cellcomplex.matching_from_affine.calls":
            (get("cellcomplex.matching_from_affine", "calls"), "count"),
        "cellcomplex.matching_from_affine.s":
            (get("cellcomplex.matching_from_affine", "s"), "s"),
        "veech.reconstruct.calls": (get("veech.reconstruct", "calls"), "count"),
        "veech.reconstruct.s": (get("veech.reconstruct", "s"), "s"),
        "cellcomplex.frontier_bijection.s":
            (get("cellcomplex.frontier_bijection", "s"), "s"),
        "veech.discover_affine.certified_ratio":
            (_ratio(get("veech.reconstruct", "returned"),
                    get("cellcomplex.matching_from_affine", "calls")), "ratio"),
        "cellcomplex.complex_to_json.s":
            (get("cellcomplex.complex_to_json", "s"), "s"),
        "veech.tessellate.s": (get("veech.tessellate", "s"), "s"),
        "render.render_svg.s": (get("render.render_svg", "s"), "s"),
    }


def traced_loop(jobs, seconds: float, trace_path: str, max_jobs=None):
    """Pairs of (untraced, traced) passes over `jobs` while another pair
    fits in `seconds` (at least one); returns the results and the
    per-layer metrics."""
    jobs = jobs[:max_jobs] if max_jobs else jobs
    results, recorders, overheads, scales = [], [], [], []
    t0 = time.perf_counter()
    pair_s = 0.0
    while not recorders or time.perf_counter() - t0 + pair_s <= seconds:
        start = time.perf_counter()
        plain = [run_job(j) for j in jobs]
        rec = Recorder()
        rec.install()
        try:
            traced = []
            for j in jobs:
                rec.job = f"{len(recorders)}:{j.id}"
                traced.append(run_job(j))
        finally:
            rec.restore()
        recorders.append(rec)
        results += plain + traced
        # per-job differences, whose median resists host drift during
        # the long jobs better than the difference of the two sums
        overheads.append(len(jobs) * statistics.median(
            t.seconds - p.seconds for t, p in zip(traced, plain)))
        scales.append(sum(r.seconds for r in traced)
                      / sum(r.wall for r in traced))
        pair_s = time.perf_counter() - start
    per_rep = []
    for rec, oh, scale in zip(recorders, overheads, scales):
        metrics = layer_metrics(rec.summary(), rec.counters, oh)
        per_rep.append({k: (v * scale if unit == "s" and k != "trace.overhead_s"
                            else v, unit) for k, (v, unit) in metrics.items()})
    metrics = {k: (statistics.median(m[k][0] for m in per_rep), unit)
               for k, (_, unit) in per_rep[0].items()}
    write_spans(trace_path, recorders, t0)
    return results, metrics


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, max_jobs=None):
    """Run one benchmark run; returns (result line dict, report dict)."""
    rounds, files = make_rounds(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cwd = os.getcwd()
    try:
        names = write_inputs(files, workdir)
        os.chdir(workdir)
        setup_s = None if trace else measure_setup(names, workdir)
        warm_up(names[0])
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        if trace:
            results, metrics = traced_loop(
                rounds[0], seconds, os.path.join(OUT, f"spans-{tag}.csv.gz"),
                max_jobs)
            info = {}
        else:
            results, rounds_run = timed_loop(rounds, seconds, max_jobs)
            metrics, info = end_to_end(results, rounds, rounds_run, setup_s)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    first = results[:min(len(rounds[0]), max_jobs or len(rounds[0]))]
    digest = round_digest(first)
    failed = sum(r.status == "failed" for r in results)
    line = {
        "correct": not any(r.malformed for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "digest": digest, "digest_jobs": len(first),
        **info, "result": line,
        "jobs": [{"id": r.job.id, "argv": list(r.job.argv),
                  "seconds": r.seconds, "wall_s": r.wall, "rc": r.rc, "status": r.status,
                  "reason": r.reason, "sha256": r.digest} for r in results],
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return line, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("complex", "veech", "rebuild"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flatconic", "cli.py")):
        print(f"error: no flatconic sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"job_tail_s is p{report['tail_percentile']:.1f} of "
              f"{report['completed']} jobs ({report['tail_jobs_above']} above)")
    for r in report["jobs"]:
        if r["status"] == "failed":
            print(f"failed {r['id']}: {' '.join(r['argv'])}: {r['reason']}")
    print(f"digest {args.workload} seed={args.seed} {report['digest']} "
          f"({report['digest_jobs']} jobs)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
