"""What solve, cover_bounded and cover_sqrt return, pinned by one file:
tests/data/same_covers.txt, the stdout of scripts/same_covers.py on the
committed plan.  Replaying the plan against it fails on any cover or trace
that differs, and the failure gives the command that re-pins the file.

Also: the script on a tiny plan, so the command and the replay check keep
working, the committed plan's shape (its last rows above the oracle's
threshold), two solves far above the plan's n, and the oracle's covers at
n <= 14."""

from __future__ import annotations

import json
from pathlib import Path as FilePath

import pytest

import same_covers
from conftest import SAVED_COVERS as SAVED
from conftest import red_hub
from monopath import solver
from monopath.core import Colouring
from monopath.gen import indexed_colouring, random_colouring
from monopath.oracle import DEFAULT_ORACLE_THRESHOLD, exact_f
from monopath.solver import SolverConfig, solve

def _run(capsys, *argv) -> tuple[int, list[str]]:
    code = same_covers.main([str(a) for a in argv])
    return code, capsys.readouterr().out.splitlines()


def _differences(out: list[str], saved: FilePath) -> list[str]:
    """The replay check on the stdout of a run --against saved: [] when the
    run printed saved line for line, else the run's `against` lines, which
    count the differing records, name the first one and count the tags
    added and removed.  The script exits 0 on a trace-only difference, so
    the check reads the lines, not the exit status."""
    report = [line for line in out if line.startswith("against")]
    same = out[: len(out) - len(report)] == saved.read_text().splitlines()
    return [] if same else report


def test_committed_plan_replays_the_saved_output(replay):
    report = _differences(replay, SAVED)
    if report:
        pytest.fail("\n".join([
            f"the plan's replay differs from {SAVED.name}; re-pin a change made on purpose "
            f"with: PYTHONPATH=src python scripts/same_covers.py > tests/data/{SAVED.name}",
            *report,
        ]))


@pytest.mark.parametrize("entry", sorted(same_covers.ENTRIES))
def test_committed_plan_covers_match_pinned_digest(replay, entry):
    # the cover parts alone: these pass on a change that moves only traces
    plan = json.loads(same_covers.PLAN.read_text())
    saved = same_covers._read(SAVED)
    records = [line.split(" ") for line in replay if line[:1].isdigit()]
    got = [row for row in records if row[1] == entry]
    assert len(got) == len(plan) * len(same_covers.CONFIGS)
    differ = [" ".join(row[:3]) for row in got if saved[" ".join(row[:3])][0] != row[3]]
    assert differ == [], f"{len(differ)} {entry} covers differ, first: {differ[:1]}"


def test_committed_plan_is_the_drawn_one():
    plan = json.loads(same_covers.PLAN.read_text())
    assert plan == same_covers.make_plan()
    ns = [n for n, _ in plan]
    assert len(plan) >= 300 and all(2 <= n <= 200 for n in ns)
    assert sum(16 <= n <= 29 for n in ns) >= 100
    # the second seed's rows lie above the oracle's threshold, so the
    # constructive branches decide solve's covers there
    (count, _, _), = same_covers.BLOCKS[1][1]
    assert min(ns[-count:]) > DEFAULT_ORACLE_THRESHOLD


def test_tiny_plan_digests_and_compares(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([[4, "0x2b"], [16, hex(3**70)]]))
    code, out = _run(capsys, "--plan", plan)
    assert code == 0
    per_instance = len(same_covers.ENTRIES) * len(same_covers.CONFIGS)
    assert len(out) == 2 * per_instance + 2
    assert [line.split()[0] for line in out[-2:]] == ["covers", "traces"]
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(out) + "\n")

    code, again = _run(capsys, "--plan", plan, "--against", saved)
    assert code == 0
    assert again[: len(out)] == out
    counts = [line for line in again if line.endswith("traces differ")]
    assert len(counts) == per_instance
    assert all(", 0 covers differ, 0 traces differ" in line for line in counts)
    assert again[-2:] == [
        "against first cover difference: none",
        "against first trace difference: none",
    ]
    assert _differences(again, saved) == []

    # a changed cover digest in the saved run is reported, and fails the gate
    key, cover, whole, trace = out[per_instance + 1].rsplit(" ", 3)
    out[per_instance + 1] = f"{key} {'0' * len(cover)} {whole} {trace}"
    saved.write_text("\n".join(out) + "\n")
    code, diff = _run(capsys, "--plan", plan, "--against", saved)
    assert code == 1
    assert diff[-2] == f"against first cover difference: instance {key} (n=16)"
    assert diff[-2] in _differences(diff, saved)


def test_cover_only_difference_counts_no_trace(tmp_path, capsys):
    # a cover change moves the cover digest and the whole-record one, and
    # leaves the trace: traces are compared as traces, not by digest
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([[16, hex(3**70)]]))
    _, out = _run(capsys, "--plan", plan)
    key, cover, whole, trace = out[0].rsplit(" ", 3)
    out[0] = f"{key} {'0' * len(cover)} {'0' * len(whole)} {trace}"
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(out) + "\n")

    code, diff = _run(capsys, "--plan", plan, "--against", saved)
    assert code == 1
    assert f"against {key.split(' ', 1)[1]}: 1 records, 1 covers differ, 0 traces differ" in diff
    assert diff[-2:] == [
        f"against first cover difference: instance {key} (n=16)",
        "against first trace difference: none",
    ]
    assert not any(line.startswith("against tag") for line in diff)


def test_trace_differences_are_counted_per_tag(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([[16, hex(3**70)]]))
    _, out = _run(capsys, "--plan", plan)
    # two saved records: one with a tag renamed, one with an entry more
    for i, edit in ((0, lambda t: t.replace("sqrt:y-exit", "sqrt:old")), (1, lambda t: t + "|x:y")):
        key, cover, whole, trace = out[i].rsplit(" ", 3)
        assert "sqrt:y-exit" in trace.split("|")
        out[i] = f"{key} {cover} {'0' * len(whole)} {edit(trace)}"
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(out) + "\n")

    code, diff = _run(capsys, "--plan", plan, "--against", saved)
    assert code == 0
    tags = [line for line in diff if line.startswith("against tag")]
    assert tags == [
        "against tag sqrt:old: +0 -1",
        "against tag sqrt:y-exit: +1 -0",
        "against tag x:y: +0 -1",
    ]
    # the script passes a trace-only difference; the replay check fails it
    report = _differences(diff, saved)
    assert set(tags) < set(report)
    assert "against first trace difference: instance 0 solve default (n=16)" in report

    # a record line without its trace is refused, not skipped
    out[1] = out[1].rsplit(" ", 1)[0]
    saved.write_text("\n".join(out) + "\n")
    assert same_covers.main(["--plan", str(plan), "--against", str(saved)]) == 2
    assert capsys.readouterr().err == f"{saved} line 2: 5 fields, not 6: {out[1]}\n"


# same_covers._digest of the whole record ([cover part, trace]) of a dense
# n = 1000 colouring under (2, 2, 2), far above the plan's n <= 200.  Its
# sqrt pipeline returns a reduction witness, but the red structure cover is a
# single path, which a reduce cover (two paths at least) cannot beat, so the
# sqrt stage is skipped before its reduce runs; RED_HUB_REDUCE_DIGEST pins a
# reduce cover at this scale
LARGE_REDUCE_DIGEST = "45f47c2eee245a619ec676c515a06914ae0c618ef41b46ff6a17dc2df7e0481c"


def test_large_reduce_matches_pinned_digest():
    part, trace = same_covers.record(
        solve, random_colouring(1000, 0.5, 7), SolverConfig(2.0, 2.0, 2.0)
    )
    assert trace[:2] == ["base:structure-R", "sqrt:skipped"]
    assert trace[-1] == "pick:base:structure-R"
    assert same_covers._digest([part, trace]) == LARGE_REDUCE_DIGEST


# the same for red_hub(2000, 1201) under (2, 2, 2): every base cover has
# more than one path, and both pipelines return one reduction witness.  The
# sqrt reduce cover (2 paths) is built and wins; the structure covers (201
# and 801 paths) and the bounded reduce, which could only tie it, are not
RED_HUB_REDUCE_DIGEST = "d583b56e43c65d8599fe2fa045d2a42d6fde8d6d5c297c3725a00b8af2c7c5e8"


def test_red_hub_reduce_is_built_once(monkeypatch):
    g = red_hub(2000, 1201)
    copies, heads = [], []
    real_induced, real_pipeline = Colouring.induced, solver.long_path_pipeline

    def induced(h, keep):
        copies.append(h)
        return real_induced(h, keep)

    def pipeline(h, refined):
        heads.append(h)
        return real_pipeline(h, refined)

    monkeypatch.setattr(Colouring, "induced", induced)
    monkeypatch.setattr(solver, "long_path_pipeline", pipeline)
    part, trace = same_covers.record(solve, g, SolverConfig(2.0, 2.0, 2.0))
    assert {"bounded:pipeline", "sqrt:reduce", "bounded:skipped"} <= set(trace)
    assert trace[-1] == "pick:sqrt"
    # one induced copy and one pipeline head for the top-level colouring
    assert sum(h is g for h in copies) == 1
    assert sum(h is g for h in heads) == 1
    assert same_covers._digest([part, trace]) == RED_HUB_REDUCE_DIGEST


@pytest.mark.parametrize("c1, c2", [(0.0, 0.0), (2.0, 2.0), (5.0, 1.0), (160000.0, 0.0)])
def test_c1_and_c2_are_read_by_nothing(c1, c2):
    # the pipelines take their one slack from c (0 for the bounded pipeline,
    # c for the sqrt one), so c1 and c2 change no record of solve under
    # c = 2: each equals the saved 2,0,2 one.  The plan rows reach
    # sqrt:decompose, its failure, bounded:reduce and bounded:strip's failure
    plan = json.loads(same_covers.PLAN.read_text())
    saved = same_covers._read(SAVED)
    cfg = SolverConfig(c1=c1, c2=c2, c=2.0)
    for i in (313, 320, 340, 360):
        n, index = plan[i]
        part, trace = same_covers.record(solve, indexed_colouring(n, int(index, 16)), cfg)
        whole = same_covers._digest([part, trace])[:16]
        assert (whole, trace) == saved[f"{i} solve 2,0,2"][1:], i


def test_small_plan_colourings_pick_the_oracle():
    # what the sweep's oracle column relies on: at n <= 14 solve picks the
    # oracle's own cover, so its size is exact_f's value
    plan = json.loads(same_covers.PLAN.read_text())
    small = [indexed_colouring(n, int(index, 16)) for n, index in plan if n <= 14]
    assert len(small) == 16
    for g in small:
        value = exact_f(g).value
        for cfg in same_covers.CONFIGS.values():
            res = solve(g, cfg)
            assert res.branch_trace[-1] == "pick:base:oracle"
            assert res.cover.size == value
