"""Compare two committed benchmark files, workload by workload.

    python scripts/bench_compare.py BENCH_before.json BENCH_after.json

Each file is a `BENCH_<label>.json` as committed at the repository root:
per workload, the `median` of every end-to-end metric over its runs.  For
each workload and each end-to-end metric of BENCHMARK.json, in that file's
order, this prints both medians and the relative change, after minus before
over before, and marks a change past the metric's bound: `WORSE` when the
metric moved in its worse direction by more than its bound, `better` when it
moved the other way by as much.  After a workload's metrics, a `passes`
row gives the median of its `runs[*].passes` in each file and their change,
unmarked, so that a `peak_rss_mb` move can be read against the number of
passes that fitted into a run.  A metric or workload missing from either
file, a file without runs, or a before median of 0, prints `-`.  The exit
status is 1 when any change is marked `WORSE`.  BENCHMARK.json is only
read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(before: dict, after: dict) -> tuple[list[list[str]], bool]:
    """The table rows (workload, metric, before, after, change, mark) and
    whether any change is worse than its bound."""
    benchmark = json.loads(BENCHMARK.read_text())
    rows = []
    worse = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        old = before.get("workloads", {}).get(workload, {})
        new = after.get("workloads", {}).get(workload, {})
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = old.get("median", {}).get(name), new.get("median", {}).get(name)
            rel, mark = _relative(a, b), ""
            if rel is not None:
                signed = -rel if metric["better"] == "higher" else rel
                if signed > metric["bound"]:
                    mark, worse = "WORSE", True
                elif signed < -metric["bound"]:
                    mark = "better"
            rows.append([workload, name, _fmt(a), _fmt(b), _fmt_change(rel), mark])
        a, b = _median_passes(old), _median_passes(new)
        rows.append([workload, "passes", _fmt(a), _fmt(b), _fmt_change(_relative(a, b)), ""])
    return rows, worse


def _median_passes(workload: dict) -> float | None:
    passes = [run["passes"] for run in workload.get("runs", [])]
    return statistics.median(passes) if passes else None


def _relative(a, b) -> float | None:
    return (b - a) / a if a and b is not None else None


def _fmt_change(rel: float | None) -> str:
    return "-" if rel is None else f"{rel:+.1%}"


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    args = ap.parse_args(argv)
    rows, worse = compare(json.loads(args.before.read_text()), json.loads(args.after.read_text()))
    header = ["workload", "metric", args.before.name, args.after.name, "change", ""]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for r in [header, *rows]:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
