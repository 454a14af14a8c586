"""scripts/same_covers.py on a tiny plan, so the command keeps working, the
committed plan's shape, and the covers that solve and cover_bounded return on
it, the oracle's at n <= 14."""

from __future__ import annotations

import json
import sys
from pathlib import Path as FilePath

import pytest

from monopath.gen import indexed_colouring
from monopath.oracle import exact_f
from monopath.solver import solve

sys.path.insert(0, str(FilePath(__file__).resolve().parent.parent / "scripts"))

import same_covers  # noqa: E402


def _run(capsys, *argv) -> tuple[int, list[str]]:
    code = same_covers.main([str(a) for a in argv])
    return code, capsys.readouterr().out.splitlines()


def test_committed_plan_is_the_drawn_one():
    plan = json.loads(same_covers.PLAN.read_text())
    assert plan == same_covers.make_plan()
    ns = [n for n, _ in plan]
    assert len(plan) >= 300 and all(2 <= n <= 200 for n in ns)
    assert sum(16 <= n <= 29 for n in ns) >= 100


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

    # a changed cover digest in the saved run is reported, and fails the gate
    key, cover, whole, trace = out[per_instance + 1].rsplit(" ", 3)
    out[per_instance + 1] = f"{key} {'0' * len(cover)} {whole} {trace}"
    saved.write_text("\n".join(out) + "\n")
    code, diff = _run(capsys, "--plan", plan, "--against", saved)
    assert code == 1
    assert diff[-2] == f"against first cover difference: instance {key} (n=16)"


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

    # a saved run without the trace column still compares by digest
    saved.write_text("\n".join(line.rsplit(" ", 1)[0] for line in out[:-2]) + "\n")
    code, diff = _run(capsys, "--plan", plan, "--against", saved)
    assert code == 0
    assert "against tags: 2 differing records saved without traces" in diff
    assert not any(line.startswith("against tag ") for line in diff)


# same_covers._digest of the list of cover parts (cover and guarantee, or the
# exception raised) of every committed plan record, in plan order, per entry
# point: a change of trace alone leaves them as they are
PLAN_COVERS = {
    "solve": "9fc39377bfca3cc67f02b94e6bb8adefa9530643347bfaa86490d58c0cf7c784",
    "cover_bounded": "20855c84157f440a0f03bf96bb8b0c12f5e73aec3c15ec928a7badbe6126982b",
}


@pytest.mark.parametrize("entry", sorted(PLAN_COVERS))
def test_committed_plan_covers_match_pinned_digest(monkeypatch, entry):
    monkeypatch.setattr(same_covers, "ENTRIES", {entry: same_covers.ENTRIES[entry]})
    plan = json.loads(same_covers.PLAN.read_text())
    parts = [part for _, part, _ in same_covers.records(plan)]
    assert len(parts) == len(plan) * len(same_covers.CONFIGS)
    assert same_covers._digest(parts) == PLAN_COVERS[entry]


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
