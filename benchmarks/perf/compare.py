"""Compare two result files: ``python -m benchmarks.perf.compare A.json B.json``.

Each file holds the runs ``run.py --out FILE`` appended.  Every (end-to-end
metric, workload) pairing gets its own row and one of three verdicts against
the metric's bound in ``BENCHMARK.json``:

* ``ok``         B's median is no worse than A's by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` a side's own runs spread (quartile distance over median)
  wider than the bound, so the difference cannot be told from noise — unless
  every run of B reads better than every run of A, which is ``ok``.

Both sides' ``bench.yardstick_ms`` medians are printed per workload, so a shift
of the machine is visible next to a shift of the code.  Exit code 1 when any
row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

from benchmarks.perf.run import load_contract

Runs = Dict[Tuple[str, str], List[float]]


def load_runs(path: str) -> Tuple[Runs, Dict[str, List[float]]]:
    """``(workload, metric) -> values`` of the untraced runs, and the yardstick per workload."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Runs = {}
    yard: Dict[str, List[float]] = {}
    for run in document["runs"]:
        yard.setdefault(run["workload"], []).append(run["yardstick_ms"])
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values, yard


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """The row's verdict and by what share of A's median B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a)
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("ok" if all_better else "unresolved"), worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    runs_a, yard_a = load_runs(path_a)
    runs_b, yard_b = load_runs(path_b)
    regressed = 0
    workloads = [w["name"] for w in contract["workloads"]]
    for workload in workloads:
        if workload not in yard_a or workload not in yard_b:
            continue
        print(
            f"\n{workload}   bench.yardstick_ms  A {statistics.median(yard_a[workload]):.2f}"
            f"  B {statistics.median(yard_b[workload]):.2f}"
        )
        print(
            f"  {'metric':<26}{'A median':>14}{'B median':>14}{'worse by':>10}"
            f"{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict"
        )
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in runs_a or key not in runs_b:
                continue
            a, b = runs_a[key], runs_b[key]
            row, worse_by = verdict(a, b, metric["better"], metric["bound"])
            regressed += row == "regressed"
            print(
                f"  {metric['name']:<26}{statistics.median(a):>14.6g}"
                f"{statistics.median(b):>14.6g}{worse_by:>+10.1%}"
                f"{metric['bound']:>7.0%}{spread(a):>10.1%}{spread(b):>10.1%}  {row}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    sys.exit(compare(sys.argv[1], sys.argv[2], load_contract()))
