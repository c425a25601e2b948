"""Summarise benchmark runs: median and quartiles of every metric over runs,
the spread (Q3 - Q1) / median, and whether runs of one seed agree on the
output digest.

    python3 perfbench/summarize.py perfbench/out/result-*.json

Reads the result files that `run.py` writes; changes nothing.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths):
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        runs[(report["workload"], report["trace"])].append(report)
    lines = []
    for (workload, trace), reports in sorted(runs.items()):
        lines.append(f"{workload} trace={trace}: {len(reports)} runs, "
                     f"seeds {sorted(r['seed'] for r in reports)}")
        names = reports[0]["result"]["metrics"]
        for name, first in names.items():
            values = [r["result"]["metrics"][name]["value"] for r in reports]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            lines.append(f"  {name:45s} median {med:.6g} {first['unit']} "
                         f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        digests = defaultdict(set)
        for r in reports:
            digests[r["seed"]].add(r["digest"])
        split = [s for s, d in digests.items() if len(d) > 1]
        lines.append(f"  digests: {'differ for seeds ' + str(split) if split else 'agree per seed'}; "
                     f"failed {sum(r['result']['failed'] for r in reports)} of "
                     f"{sum(r['result']['attempted'] for r in reports)} jobs; "
                     f"correct {all(r['result']['correct'] for r in reports)}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(summarize(sys.argv[1:]))
