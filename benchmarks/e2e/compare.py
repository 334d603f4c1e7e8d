"""Compare end-to-end benchmark records of a parent and a change.

Usage::

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... --change C1.json ...

Each file is the ``repro-bench/v1`` record of one ``run.py`` full run;
list the runs of each side in the order they were made, so that the i-th
parent run and the i-th change run form a pair.  One row is printed per
(end-to-end metric, workload) pair of ``BENCHMARK.json``, marked:

``regression``
    the change's median is worse than the parent's by more than the
    metric's bound (a share of the parent's median);
``gain``
    the gain rule holds: the change wins at least 9 of every 10 pairs
    (at least 10 pairs, ties count for neither side) and the medians
    differ by more than the parent's interquartile range;
``unresolved``
    the parent runs spread wider than the bound (interquartile range over
    median), so "no worse by more than the bound" cannot be shown, and
    not every change run reads better than every parent run;
``unchanged``
    otherwise.

Each workload also gets an ``ops_failed_frac`` row, whose bound is an
absolute 0: a change that fails more operations than the parent is a
regression, and a gain does not count for a workload where that happens.
The exit status is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCHMARK_FILE = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: the gain rule: share of pairs the change must win, and pairs needed
GAIN_WIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10


def _spread(values: Sequence[float]) -> Tuple[float, float]:
    """(interquartile range, median); the range is 0 for fewer than 2 values."""
    if len(values) < 2:
        return 0.0, values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, statistics.median(values)


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The row's label and the change's median relative to the parent's
    (positive = better)."""
    sign = 1.0 if better == "higher" else -1.0
    iqr, parent_median = _spread(parent)
    change_median = statistics.median(change)
    gain = sign * (change_median - parent_median) / parent_median
    if -gain > bound:
        return "regression", gain
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        len(pairs) >= GAIN_MIN_PAIRS
        and wins >= GAIN_WIN_SHARE * len(pairs)
        and sign * (change_median - parent_median) > iqr
    ):
        return "gain", gain
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if iqr / parent_median > bound and not all_better:
        return "unresolved", gain
    return "unchanged", gain


def _values(records: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [float(r["workloads"][workload]["metrics"][metric]["value"]) for r in records]


def compare(
    parents: Sequence[Dict[str, Any]],
    changes: Sequence[Dict[str, Any]],
    definition: Dict[str, Any],
) -> List[Dict[str, Any]]:
    """One row per (metric, workload), in BENCHMARK.json order."""
    rows: List[Dict[str, Any]] = []
    for workload in (w["name"] for w in definition["workloads"]):
        failed_parent = max(_values(parents, workload, "ops_failed_frac"))
        failed_change = max(_values(changes, workload, "ops_failed_frac"))
        more_failures = failed_change > failed_parent
        for metric in definition["end_to_end"]:
            parent = _values(parents, workload, metric["name"])
            change = _values(changes, workload, metric["name"])
            label, gain = verdict(parent, change, metric["better"], metric["bound"])
            if label == "gain" and more_failures:
                label = "unchanged"
            rows.append({
                "metric": metric["name"],
                "workload": workload,
                "unit": metric["unit"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "relative": gain,
                "verdict": label,
            })
        rows.append({
            "metric": "ops_failed_frac",
            "workload": workload,
            "unit": "ratio",
            "bound": 0.0,
            "parent": _values(parents, workload, "ops_failed_frac"),
            "change": _values(changes, workload, "ops_failed_frac"),
            "relative": None,
            "verdict": "regression" if more_failures else "unchanged",
        })
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'metric':<16} {'workload':<15} {'parent':>12} {'change':>12} "
        f"{'better by':>10} {'bound':>6}  verdict"
    ]
    for row in rows:
        relative: Optional[float] = row["relative"]
        shown = "" if relative is None else f"{relative:+.2%}"
        lines.append(
            f"{row['metric']:<16} {row['workload']:<15} "
            f"{statistics.median(row['parent']):>12.6g} {statistics.median(row['change']):>12.6g} "
            f"{shown:>10} {row['bound']:>6.0%}  {row['verdict']}"
        )
    lines.append(
        "better by: the change's median against the parent's (negative: worse); "
        f"{len(rows[0]['parent'])} parent run(s), {len(rows[0]['change'])} change run(s)"
        if rows
        else "(nothing to compare)"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="records of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="records of the change")
    args = parser.parse_args(argv)
    definition = json.loads(BENCHMARK_FILE.read_text())
    parents = [json.loads(Path(p).read_text()) for p in args.parent]
    changes = [json.loads(Path(c).read_text()) for c in args.change]
    rows = compare(parents, changes, definition)
    print(render(rows))
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
