#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 examples/benchmark/compare.py A.json B.json [--bench BENCHMARK.json]

A and B are files written by `bash examples/benchmark/run.sh --runs N --out FILE`;
A is the baseline (the parent commit), B the candidate. For every end-to-end
metric in BENCHMARK.json and every workload present in both sets, the script
prints each side's median and quartiles and one verdict:

  ok          B's median is no worse than A's by more than the metric's bound
              (or A is too noisy to judge, but every run of B beats every run of A)
  regressed   B's median is worse than A's by more than the bound
  unresolved  A's own spread (quartile distance / median) is wider than the
              bound, so "no worse by more than the bound" cannot be shown

Exit status is 1 when any pair regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def summary(values):
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, bound, lower_is_better):
    """The verdict for baseline runs `a` against candidate runs `b`."""
    q1, med_a, q3 = summary(a)
    med_b = statistics.median(b)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (med_b - med_a) / med_a
    spread = (q3 - q1) / med_a
    if spread > bound:
        all_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
        return ("ok" if all_better else "unresolved"), worse, spread
    return ("regressed" if worse > bound else "ok"), worse, spread


def main():
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--bench", type=Path, default=here.parent.parent / "BENCHMARK.json")
    args = parser.parse_args()

    metrics = json.loads(args.bench.read_text())["end_to_end"]
    a_set = json.loads(args.baseline.read_text())["workloads"]
    b_set = json.loads(args.candidate.read_text())["workloads"]

    print(f"{'workload':<10} {'metric':<16} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'worse':>8} {'A spread':>9} {'bound':>6}  verdict")
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in sorted(set(a_set) & set(b_set)):
        for m in metrics:
            a = a_set[workload].get(m["name"])
            b = b_set[workload].get(m["name"])
            if not a or not b or len(a) < 2 or len(b) < 2:
                print(f"{workload:<10} {m['name']:<16} needs two or more runs on each side")
                counts["unresolved"] += 1
                continue
            result, worse, spread = verdict(a, b, m["bound"], m["better"] == "lower")
            counts[result] += 1
            cells = []
            for runs in (a, b):
                q1, med, q3 = summary(runs)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:<10} {m['name']:<16} {cells[0]:>30} {cells[1]:>30} "
                  f"{worse:>+8.1%} {spread:>9.1%} {m['bound']:>6.0%}  {result}")
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
