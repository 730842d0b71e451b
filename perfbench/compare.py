"""Compare two sets of benchmark runs of the same workloads.

usage: python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run records as ``run.py`` writes them to
``.perfbench/runs/``.  The comparison refuses (exit 2) to pair runs whose
environments differ.  For every workload it first prints the failed and
attempted processes of each side: a change that fails a larger share of its
processes is a regression, and its metrics are not judged.  Otherwise it
prints, for every end-to-end metric, both medians, the quartile spreads and
the verdict against the metric's bound in BENCHMARK.json.  It also says
whether the reports of each command stayed byte-identical.  The exit code
is 1 if any workload regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob(
        "*.json"))]


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failures(runs: list) -> tuple[int, int]:
    """Failed and attempted processes over a set of runs."""
    return (sum(r["failed"] for r in runs),
            sum(r["attempted"] for r in runs))


def verdict(base: list, change: list, bound: float, lower: bool) -> str:
    sign = 1.0 if lower else -1.0
    worse = sign * (statistics.median(change) / statistics.median(base) - 1)
    if worse <= bound and spread(base) <= bound:
        return "ok"
    if all(sign * c < sign * b for c in change for b in base):
        return "ok (every run better)"
    return "unresolved" if spread(base) > bound else "REGRESSION"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = ([r for r in load(d) if r["trace"] == 0] for d in argv)
    envs = {json.dumps(r["environment"], sort_keys=True)
            for r in base + change}
    if len(envs) != 1:
        print("refusing to compare runs from different environments:",
              *sorted(envs), sep="\n  ", file=sys.stderr)
        return 2
    status = 0
    for workload in sorted({r["workload"] for r in base}):
        b = [r for r in base if r["workload"] == workload]
        c = [r for r in change if r["workload"] == workload]
        if not c:
            print(f"{workload}: no runs in {argv[1]}")
            continue
        print(f"{workload}: {len(b)} base runs, {len(c)} change runs")
        (bf, ba), (cf, ca) = failures(b), failures(c)
        print(f"  failed       {bf}/{ba} -> {cf}/{ca} processes")
        if cf * ba > bf * ca:
            print("  REGRESSION: the change fails a larger share of its "
                  "processes; its metrics are not judged")
            status = 1
            continue
        for row in spec["end_to_end"]:
            name = row["name"]
            bv = [r["metrics"][name] for r in b]
            cv = [r["metrics"][name] for r in c]
            judged = verdict(bv, cv, row["bound"], row["better"] == "lower")
            if judged == "REGRESSION":
                status = 1
            print(f"  {name:<12} {statistics.median(bv):>12.6g} -> "
                  f"{statistics.median(cv):<12.6g} {row['unit']:<6} "
                  f"spread {spread(bv):.3f}/{spread(cv):.3f} "
                  f"bound {row['bound']}: {judged}")
        pairs = [(rb, rc) for rb in b for rc in c
                 if rb["workload_seed"] == rc["workload_seed"]]
        moved = {label for rb, rc in pairs
                 for label, hashes in rb["reports"].items()
                 if hashes != rc["reports"].get(label)}
        if not pairs:
            print("  reports: no workload seed was run on both sides")
        else:
            print("  reports " + ("byte-identical" if not moved else
                                  "differ: " + ", ".join(sorted(moved))))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
