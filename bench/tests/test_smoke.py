"""Smoke test of the benchmark at tiny n.

    python -m pytest bench/tests

Checks that every metric is emitted, that the last stdout line follows the
result format, that a planted invalid cover is counted as a failure, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from monopath import core, solver  # noqa: E402

END_TO_END = {
    "solves_per_s", "solve_s_p50", "solve_s_tail", "cover_size_sum",
    "fail_ratio", "setup_s", "peak_rss_mb",
}
PER_LAYER = {
    "core.induced.calls", "core.induced.self_s", "core.induced.pairs",
    "core.colour.calls",
    "construct.rotate_or_extend.calls", "construct.rotate_or_extend.self_s",
    "construct.rotate_or_extend.extend_ratio",
    "construct.refine_path.calls", "construct.refine_path.self_s",
    "construct.maximal_path.calls",
    "construct.find_long_path_structure.calls",
    "construct.find_long_path_structure.self_s",
    "construct.two_path_cover.self_s",
    "solver.solve.self_s", "solver.cover_sqrt.self_s",
    "solver.cover_bounded.calls", "solver.cover_bounded.self_s",
    "solver.reduce.calls", "solver.cover_from_structure.self_s",
    "solver.pick.oracle", "solver.pick.sqrt", "solver.pick.bounded",
    "solver.pick.greedy",
    "oracle.exact_f.calls", "oracle.exact_f.self_s",
    "oracle.min_cover_colour.calls", "oracle.min_cover_colour.self_s",
    "bipartite.decompose_full.calls", "bipartite.decompose_full.self_s",
    "bipartite.decompose.calls",
    "bipartite.ramsey_path.calls", "bipartite.ramsey_path.self_s",
    "bipartite.from_colouring.self_s",
    "gen.random_colouring.self_s", "gen.build.self_s",
    "codec.encode.self_s", "codec.decode.self_s",
    "core.from_edge_bits.self_s", "cli.run_sweep.self_s",
    "trace_overhead",
}
TINY_N = {"hub": 40, "random-deep": 60, "oracle-sweep": 8}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_N))
def test_every_metric_is_emitted(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "-n", str(TINY_N[workload]),
            "--results", str(tmp_path)]
    assert run.main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in declared[kind]}
    (report_file,) = tmp_path.glob("*.json")
    report = json.loads(report_file.read_text())
    if trace:
        assert PER_LAYER <= set(line["metrics"])
    else:
        assert END_TO_END <= set(report["summary"])
        assert report["summary"]["fail_ratio"] == 0
    assert report["picks"] and report["tags"]
    assert set(report["metadata"]) >= {"python", "nproc", "cpu_model", "git_commit", "seed"}


def test_planted_invalid_cover_is_a_failure(monkeypatch):
    real_solve = solver.solve

    def one_vertex_cover(g, cfg=None):
        res = real_solve(g, cfg)
        colour = res.cover.colour
        bad = core.PathCover(colour, (core.Path((1,), colour),), g.n)
        return replace(res, cover=bad)

    monkeypatch.setattr(solver, "solve", one_vertex_cover)
    report = run.run_benchmark("hub", 3, 0, False, n=TINY_N["hub"])
    assert report["summary"]["fail_ratio"] > 0
    assert report["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hub", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
