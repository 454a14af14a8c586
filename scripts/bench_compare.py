"""Compare two committed benchmark files, workload by workload.

    python scripts/bench_compare.py BENCH_before.json BENCH_after.json

Each file is a `BENCH_<label>.json` as committed at the repository root:
per workload, the `median` of every end-to-end metric over its runs.  For
each workload and each end-to-end metric of BENCHMARK.json, in that file's
order, this prints both medians and the relative change, after minus before
over before, and marks a change past the metric's bound: `WORSE` when the
metric moved in its worse direction by more than its bound, `better` when it
moved the other way by as much.  A metric or workload missing from either
file, or a before median of 0, prints `-`.  The exit status is 1 when any
change is marked `WORSE`.  BENCHMARK.json is only read.
"""

from __future__ import annotations

import argparse
import json
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
        old = before.get("workloads", {}).get(workload, {}).get("median", {})
        new = after.get("workloads", {}).get(workload, {}).get("median", {})
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = old.get(name), new.get(name)
            change, mark = "-", ""
            if a and b is not None:
                rel = (b - a) / a
                change = f"{rel:+.1%}"
                if metric["better"] == "higher":
                    rel = -rel
                if rel > metric["bound"]:
                    mark, worse = "WORSE", True
                elif rel < -metric["bound"]:
                    mark = "better"
            rows.append([workload, name, _fmt(a), _fmt(b), change, mark])
    return rows, worse


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
