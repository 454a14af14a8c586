"""Same covers: replay a fixed plan of colourings and digest what the solver
returns, so two versions of the package can be compared with one command.

    PYTHONPATH=src python scripts/same_covers.py > before.txt
    PYTHONPATH=src python scripts/same_covers.py --against before.txt

Each colouring of the plan (scripts/same_covers_plan.json: n and the
colouring's gen.indexed_colouring index in hex, so replay draws no random
numbers) goes through solve, cover_bounded and cover_sqrt under each of
CONFIGS.  Every call gives one record: the cover's colour and paths and the
guarantee, or the name of the exception raised, and the branch trace.

stdout holds one line per record (instance, entry point, config, a digest of
the cover part, one of the whole record and the trace, its entries joined
by `|`, or `-` when empty), then two digests over all records in order:
`covers`, over covers, guarantees and exception types alone, and `traces`,
which adds the traces.  With --against, a saved stdout of an earlier run,
it also prints, per entry point and config, how many records differ from
it in the cover part and in the trace, and the first record that differs
in each; then, per tag, how many trace entries the records whose traces
differ added and removed against it, summed over all records, so that a
change which only swaps one tag for another shows as one line each.  A
record counts under traces only when its saved trace differs from the new
one, so a cover-only change reads "1 covers differ, 0 traces differ".  The
exit status is 1 when a cover part differs, and 2 when a record line of the
saved run does not hold those six fields.

The committed plan holds 380 colourings, drawn from two seeds (BLOCKS).
From the first: 100 at n = 16..29, 150 at n = 2..100 and 50 at n =
101..200.  From the second: 80 at n = 15..80 (rows 300..379), above the
oracle's threshold, so the constructive branches decide solve's covers.
Each is with probability 1/2 a random colouring of random density, else a
red hub of random width on random labels with 0, 2 or 10 % of its edges
flipped.  `--write-plan` draws it again.

tests/data/same_covers.txt holds this script's stdout on the committed
plan, and Tier-1 replays the plan --against it: any cover or trace that
differs fails.  A change that alters them on purpose re-pins the file with

    PYTHONPATH=src python scripts/same_covers.py > tests/data/same_covers.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from monopath.core import edge_count, iter_edges
from monopath.gen import indexed_colouring
from monopath.solver import SolverConfig, cover_bounded, cover_sqrt, solve

PLAN = Path(__file__).with_name("same_covers_plan.json")
# (seed, its blocks in turn), a block being (count, lowest n, highest n)
BLOCKS = (
    (20260916, ((100, 16, 29), (150, 2, 100), (50, 101, 200))),
    (20240903, ((80, 15, 80),)),
)
CONFIGS = {
    "default": SolverConfig(),
    "2,2,2": SolverConfig(2.0, 2.0, 2.0),
    "1,0,1": SolverConfig(1.0, 0.0, 1.0),
    "2,0,2": SolverConfig(2.0, 0.0, 2.0),
}
ENTRIES = {"solve": solve, "cover_bounded": cover_bounded, "cover_sqrt": cover_sqrt}


def _draw(rng: random.Random, n: int) -> int:
    """One colouring's index: random of random density, or a noisy red hub."""
    if rng.random() < 0.5:
        p = rng.random()
        bits = [rng.random() < p for _ in range(edge_count(n))]
    else:
        hub = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        flip = rng.choice((0.0, 0.02, 0.1))
        bits = [(u in hub or v in hub) != (rng.random() < flip) for u, v in iter_edges(n)]
    return sum(1 << i for i, red in enumerate(bits) if red)


def make_plan() -> list[list]:
    plan = []
    for seed, blocks in BLOCKS:
        rng = random.Random(seed)
        for count, lo, hi in blocks:
            for _ in range(count):
                n = rng.randint(lo, hi)
                plan.append([n, hex(_draw(rng, n))])
    return plan


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def record(fn, g, cfg) -> tuple[list, list[str]]:
    """(cover part, trace) of one call: the cover's colour and paths and the
    guarantee, or the name of the exception raised, and the branch trace."""
    try:
        res = fn(g, cfg)
    except Exception as exc:  # an exception type is part of the outcome
        return ["raised", type(exc).__name__], []
    cover = [res.cover.colour.value, [list(p.vertices) for p in res.cover.paths]]
    return [cover, res.guarantee.value], list(res.branch_trace)


def records(plan):
    """(key, cover part, trace) for every instance, entry point and config."""
    for i, (n, index) in enumerate(plan):
        g = indexed_colouring(n, int(index, 16))
        for entry, fn in ENTRIES.items():
            for name, cfg in CONFIGS.items():
                yield f"{i} {entry} {name}", *record(fn, g, cfg)


def _read(saved: Path) -> dict[str, tuple[str, str, list[str]]]:
    """key -> (cover digest, record digest, trace).  ValueError names the
    first record line without six fields."""
    rows = {}
    for lineno, line in enumerate(saved.read_text().splitlines(), 1):
        parts = line.split(" ")
        if parts[0].isdigit():
            if len(parts) != 6:
                raise ValueError(f"{saved} line {lineno}: {len(parts)} fields, not 6: {line}")
            trace = [] if parts[5] == "-" else parts[5].split("|")
            rows[" ".join(parts[:3])] = (parts[3], parts[4], trace)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", type=Path, default=PLAN,
                    help="plan file (default: the committed one)")
    ap.add_argument("--against", type=Path, help="saved stdout of an earlier run to compare with")
    ap.add_argument("--write-plan", action="store_true",
                    help="draw the plan from its seeds and write it to --plan")
    args = ap.parse_args(argv)
    if args.write_plan:
        lines = ",\n".join(json.dumps(row) for row in make_plan())
        args.plan.write_text(f"[\n{lines}\n]\n")
        return 0

    plan = json.loads(args.plan.read_text())
    try:
        saved = _read(args.against) if args.against else {}
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    covers, whole = hashlib.sha256(), hashlib.sha256()
    # (entry, config) -> [records, cover parts differing, traces differing]
    counts: dict[str, list[int]] = {}
    first: dict[str, str] = {}
    added: Counter[str] = Counter()
    removed: Counter[str] = Counter()
    for key, part, trace in records(plan):
        c, w = _digest(part), _digest([part, trace])
        covers.update(c.encode())
        whole.update(w.encode())
        print(key, c[:16], w[:16], "|".join(trace) or "-")
        if key in saved:
            tally = counts.setdefault(key.split(" ", 1)[1], [0, 0, 0])
            tally[0] += 1
            old_c, _, old = saved[key]
            for slot, kind, differs in ((1, "cover", old_c != c[:16]), (2, "trace", old != trace)):
                if differs:
                    tally[slot] += 1
                    n = plan[int(key.split()[0])][0]
                    first.setdefault(kind, f"instance {key} (n={n})")
            added += Counter(trace) - Counter(old)
            removed += Counter(old) - Counter(trace)
    print("covers", covers.hexdigest())
    print("traces", whole.hexdigest())
    if args.against:
        for name, (total, c, t) in counts.items():
            print(f"against {name}: {total} records, {c} covers differ, {t} traces differ")
        for tag in sorted(added.keys() | removed.keys()):
            print(f"against tag {tag}: +{added[tag]} -{removed[tag]}")
        for kind in ("cover", "trace"):
            print(f"against first {kind} difference:", first.get(kind, "none"))
        return 1 if "cover" in first else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
