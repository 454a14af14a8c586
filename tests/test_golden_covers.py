"""Golden covers: solve's exact output on the 80 colourings that
scripts/same_covers.py draws from its second seed (plan rows 300..379, n in
15..80, above the oracle threshold, so the constructive branches decide the
covers).  Their cover, guarantee and ordered branch trace under each config
are the saved lines of tests/data/same_covers.txt; a change that alters them
on purpose re-pins that file as its docstring says."""

from __future__ import annotations

import json

import same_covers
from conftest import SAVED_COVERS


def test_solve_matches_golden_covers(replay):
    plan = json.loads(same_covers.PLAN.read_text())
    (count, lo, hi), = same_covers.BLOCKS[1][1]
    rows = range(len(plan) - count, len(plan))
    assert all(lo <= plan[i][0] <= hi for i in rows)
    saved = {line.rsplit(" ", 3)[0]: line for line in SAVED_COVERS.read_text().splitlines()}
    records = [line for line in replay if line[:1].isdigit()]
    golden = [line for line in records
              if int(line.split(" ")[0]) in rows and line.split(" ")[1] == "solve"]
    assert len(golden) == count * len(same_covers.CONFIGS)
    for line in golden:
        key = line.rsplit(" ", 3)[0]
        assert line == saved[key], f"{key} (n={plan[int(key.split()[0])][0]}): solve differs"
