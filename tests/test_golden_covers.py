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


# sha256 of _record as sorted compact JSON for a dense n = 1000 colouring
# under (2, 2, 2), whose sqrt:reduce recurses on an induced copy: far above
# the golden file's n <= 80
LARGE_REDUCE_DIGEST = "8d904a5e4bd6bf189ceb3d1abbd50883451a4d61bc5ca2b088686445d744fceb"


def test_large_reduce_matches_pinned_digest():
    rec = _record(random_colouring(1000, 0.5, 7), SolverConfig(2.0, 2.0, 2.0))
    assert rec["trace"][0] == "sqrt:reduce"
    blob = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == LARGE_REDUCE_DIGEST


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
