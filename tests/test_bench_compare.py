"""scripts/bench_compare.py on two tiny benchmark files: medians, relative
changes and the marks past each metric's bound in BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path as FilePath

import bench_compare

DATA = FilePath(__file__).resolve().parent / "data"
BEFORE = DATA / "bench_compare_before.json"
AFTER = DATA / "bench_compare_after.json"


def _table(capsys, *argv) -> tuple[int, dict[tuple[str, str], list[str]]]:
    code = bench_compare.main([str(a) for a in argv])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["workload", "metric"]
    rows = [line.split() for line in lines[1:]]
    return code, {(r[0], r[1]): r[2:] for r in rows}


def test_marks_changes_past_the_bound(capsys):
    code, rows = _table(capsys, BEFORE, AFTER)
    assert code == 1  # hub's peak_rss_mb is worse by more than 5 %
    assert rows["hub", "peak_rss_mb"] == ["39", "41.5", "+6.4%", "WORSE"]
    # lower is better for a time, higher for a rate; 25 % is past 20 %
    assert rows["random-deep", "solve_s_p50"] == ["0.01", "0.0075", "-25.0%", "better"]
    assert rows["random-deep", "solves_per_s"] == ["100", "125", "+25.0%", "better"]
    # within its 25 % bound: no mark
    assert rows["random-deep", "solve_s_tail"] == ["0.02", "0.021", "+5.0%"]
    assert rows["hub", "cover_size_sum"] == ["66", "66", "+0.0%"]
    # a workload neither file holds
    assert rows["oracle-sweep", "setup_s"] == ["-", "-", "-"]


def test_every_declared_pair_is_listed_and_nothing_worse_passes(capsys):
    code, rows = _table(capsys, BEFORE, BEFORE)
    assert code == 0
    declared = json.loads(bench_compare.BENCHMARK.read_text())
    metrics = [m["name"] for m in declared["end_to_end"]] + ["passes"]
    assert list(rows) == [(w["name"], m) for w in declared["workloads"] for m in metrics]
    assert all(r[-1] in ("+0.0%", "-") for r in rows.values())


def test_passes_are_the_median_of_the_runs(tmp_path, capsys):
    # hub has runs in both files, random-deep only in the after file
    runs = {"hub": [191, 230, 200], "random-deep": []}
    before = {w: {"median": {}, "runs": [{"passes": k} for k in ks]} for w, ks in runs.items()}
    after = {
        "hub": {"median": {}, "runs": [{"passes": k} for k in (240, 250, 252, 260)]},
        "random-deep": {"median": {}, "runs": [{"passes": 371}]},
    }
    paths = []
    for name, data in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"workloads": data}))
    code, rows = _table(capsys, *paths)
    assert code == 0
    assert rows["hub", "passes"] == ["200", "251", "+25.5%"]
    assert rows["random-deep", "passes"] == ["-", "371", "-"]
    assert rows["oracle-sweep", "passes"] == ["-", "-", "-"]
