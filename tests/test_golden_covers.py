"""Golden covers: solve's exact output on a fixed set of fuzzed colourings.

tests/data/golden_covers.json holds one line per colouring: n, the colouring
as its gen.indexed_colouring index in hex and, for each of three configs,
solve's cover colour, path sequence, guarantee and ordered branch_trace.  Every n lies in 15..80, above the
oracle threshold, so the constructive branches decide the covers.

A change that alters a cover, guarantee or trace on purpose regenerates
the file and says so:

    PYTHONPATH=src python tests/test_golden_covers.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path as FilePath

import pytest

from monopath import solver
from monopath.core import Colouring
from monopath.gen import indexed_colouring, random_colouring
from monopath.solver import SolverConfig, solve

GOLDEN = FilePath(__file__).parent / "data" / "golden_covers.json"
CONFIGS = {
    "default": SolverConfig(),
    "2,0,2": SolverConfig(c1=2.0, c2=0.0, c=2.0),
    "1,0,1": SolverConfig(c1=1.0, c2=0.0, c=1.0),
}
SEED = 20240903
COUNT = 80


def _record(g, cfg: SolverConfig) -> dict:
    res = solve(g, cfg)
    return {
        "colour": res.cover.colour.value,
        "paths": [list(p.vertices) for p in res.cover.paths],
        "guarantee": res.guarantee.value,
        "trace": list(res.branch_trace),
    }


def _generate() -> list[dict]:
    from conftest import noisy_colouring

    rng = random.Random(SEED)
    entries = []
    for i in range(COUNT):
        g = noisy_colouring(rng, rng.randint(15, 80))
        results = {name: _record(g, cfg) for name, cfg in CONFIGS.items()}
        index = "".join("1" if red else "0" for red in reversed(g.edge_bits()))
        entries.append(
            {"instance": i, "n": g.n, "index": hex(int(index, 2)), "results": results}
        )
    return entries


def test_solve_matches_golden_covers():
    entries = json.loads(GOLDEN.read_text())
    assert len(entries) == COUNT
    for entry in entries:
        g = indexed_colouring(entry["n"], int(entry["index"], 16))
        for name, cfg in CONFIGS.items():
            got = _record(g, cfg)
            want = entry["results"][name]
            assert got == want, (
                f"instance {entry['instance']} (n={g.n}), config {name}: "
                f"solve differs from the golden file in "
                f"{[k for k in want if got[k] != want[k]]}"
            )


def _digest(rec: dict) -> str:
    blob = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# sha256 of _record as sorted compact JSON for a dense n = 1000 colouring
# under (2, 2, 2), far above the golden file's n <= 80.  Its sqrt pipeline
# returns a reduction witness, but the red structure cover is a single path,
# which a reduce cover (two paths at least) cannot beat, so the sqrt stage is
# skipped before its reduce runs; RED_HUB_REDUCE_DIGEST pins a reduce cover
# at this scale
LARGE_REDUCE_DIGEST = "f55f3ee4b2b68831558df8ff876050866821b3a65489ba0351168f1a4adbbd43"


def test_large_reduce_matches_pinned_digest():
    rec = _record(random_colouring(1000, 0.5, 7), SolverConfig(2.0, 2.0, 2.0))
    assert rec["trace"][:2] == ["base:structure-R", "sqrt:skipped"]
    assert rec["trace"][-1] == "pick:base:structure-R"
    assert _digest(rec) == LARGE_REDUCE_DIGEST


# the same for red_hub(2000, 1201) under (2, 2, 2): every base cover has
# more than one path, and both pipelines return one reduction witness.  The
# sqrt reduce cover (2 paths) is built and wins; the structure covers (201
# and 801 paths) and the bounded reduce, which could only tie it, are not
RED_HUB_REDUCE_DIGEST = "3f043efee6646a7cec8b4fcfdaa4325073df3742d101caa0913c1a1a5b129f2d"


def test_red_hub_reduce_is_built_once(monkeypatch):
    from conftest import red_hub

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
    rec = _record(g, SolverConfig(2.0, 2.0, 2.0))
    assert {"bounded:pipeline", "sqrt:reduce", "bounded:skipped"} <= set(rec["trace"])
    assert rec["trace"][-1] == "pick:sqrt"
    # one induced copy and one pipeline head for the top-level colouring
    assert sum(h is g for h in copies) == 1
    assert sum(h is g for h in heads) == 1
    assert _digest(rec) == RED_HUB_REDUCE_DIGEST


@pytest.mark.parametrize("c1, c2", [(0.0, 0.0), (2.0, 2.0), (5.0, 1.0), (160000.0, 0.0)])
def test_c1_and_c2_are_read_by_nothing(c1, c2):
    # the pipelines take their one slack from c (0 for the bounded pipeline,
    # c for the sqrt one), so c1 and c2 change no cover; the instances reach
    # sqrt:decompose, its failure, bounded:reduce and bounded:strip's failure
    entries = json.loads(GOLDEN.read_text())
    cfg = SolverConfig(c1=c1, c2=c2, c=2.0)
    for i in (13, 20, 40, 60):
        g = indexed_colouring(entries[i]["n"], int(entries[i]["index"], 16))
        assert _record(g, cfg) == entries[i]["results"]["2,0,2"], i


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(entry) for entry in _generate())
    GOLDEN.write_text(f"[\n{lines}\n]\n")
