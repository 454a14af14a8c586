"""Command line surface and the sweep harness.

Exit codes: 0 success, 1 invalid input or usage, 2 verification failure.
Sweep output is a pure function of the plan except for the wall_time_ms
column; rows are computed (possibly in parallel) from a pre-sorted task
list so the CSV ordering never depends on completion order.  With --oracle,
each row runs exact_f once: at n <= 14 the oracle_value column is the size
of solve's own base:oracle pick, above 14 the sweep runs exact_f itself.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from dataclasses import dataclass

from . import codec
from .core import (
    BLUE,
    RED,
    Colouring,
    MonopathError,
    Path,
    PathCover,
    validate_cover,
)
from .gen import MAX_N, PARAMS, GenSpec, build
from .oracle import DEFAULT_ORACLE_THRESHOLD, exact_f
from .solver import solve

SWEEP_COLUMNS = (
    "n",
    "generator",
    "seed",
    "solver_size",
    "solver_colour",
    "guarantee",
    "oracle_value",
    "branch_trace",
    "wall_time_ms",
    "error",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the whole surface reserves 2 for
    # verification failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _spec_for(tag: str, n: int, seed: int) -> GenSpec:
    """Translate a generator tag like "random:p=0.25" into a GenSpec.  The
    tag sets the kind's parameters other than the seed, in gen.PARAMS's
    types; the seed is the caller's, for a kind that reads one."""
    head, *parts = tag.split(":")
    kv: dict[str, str] = {}
    for part in parts:
        key, sep, val = part.partition("=")
        if not sep or not key:
            raise ValueError(f"bad generator parameter {part!r} in {tag!r}")
        if key in kv:
            raise ValueError(f"repeated generator parameter {key!r} in {tag!r}")
        kv[key] = val
    if head not in PARAMS:
        raise ValueError(f"unknown generator kind {head!r}")
    params = PARAMS[head]
    args = {k: t(kv.pop(k)) for k, t in params.items() if k != "seed" and k in kv}
    if kv:
        raise ValueError(f"unknown parameters {sorted(kv)} for generator {head!r}")
    if "seed" in params:
        args["seed"] = seed
    return GenSpec(head, n, **args)


def _load_colouring(args) -> Colouring:
    if getattr(args, "gen", None):
        if args.n is None:
            raise ValueError("--gen requires -n")
        return build(_spec_for(args.gen, args.n, args.seed))
    if args.file is None:
        raise ValueError("need a colouring file or --gen")
    with open(args.file, "r", encoding="ascii") as fh:
        return codec.decode(fh.read())


def _print_cover(cover: PathCover, out) -> None:
    for p in cover.paths:
        print(p.colour.value, *p.vertices, file=out)


def _cmd_gen(args) -> int:
    text = codec.encode(build(_spec_for(args.tag, args.n, args.seed)))
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _invalid(g: Colouring, cover: PathCover, what: str) -> bool:
    """Whether cover fails validation; if so, say so on stderr."""
    report = validate_cover(g, cover)
    if not report.valid:
        print(
            f"internal error: {what} failed validation: "
            f"{report.failure_kind.value} {report.detail}",
            file=sys.stderr,
        )
    return not report.valid


def _cmd_solve(args) -> int:
    g = _load_colouring(args)
    result = solve(g)
    if _invalid(g, result.cover, "solver cover"):
        return 2
    _print_cover(result.cover, sys.stdout)
    return 0


def _cmd_oracle(args) -> int:
    g = _load_colouring(args)
    result = exact_f(g, threshold=args.threshold)
    if _invalid(g, result.witness, "oracle witness"):
        return 2
    print(result.value)
    _print_cover(result.witness, sys.stdout)
    return 0


def _parse_cover_file(text: str, n: int) -> PathCover:
    paths = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if tokens[0] not in ("R", "B") or len(tokens) < 2:
            raise ValueError(f"cover line {lineno}: expected 'R v1 v2 ...'")
        colour = RED if tokens[0] == "R" else BLUE
        try:
            vertices = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise ValueError(f"cover line {lineno}: bad vertex id") from None
        paths.append(Path(vertices, colour))
    if not paths:
        raise ValueError("cover file has no paths")
    return PathCover(paths[0].colour, tuple(paths), n)


def _cmd_verify(args) -> int:
    with open(args.colouring, "r", encoding="ascii") as fh:
        g = codec.decode(fh.read())
    with open(args.cover, "r", encoding="ascii") as fh:
        cover = _parse_cover_file(fh.read(), g.n)
    report = validate_cover(g, cover)
    if report.valid:
        print(f"VALID {cover.size} {cover.colour.value}-paths cover K_{g.n}")
        return 0
    print(f"INVALID {report.failure_kind.value}: {report.detail}")
    return 2


# the most rows a sweep may plan, n x generators x seeds, counted from the
# range ends before any range is expanded: every row's task and result are
# held until the CSV is written
MAX_SWEEP_ROWS = 10**5


def _parse_ranges(text: str, most: int | None = None) -> list[range]:
    """Comma-separated integers, items may be inclusive ranges "a..b", as
    unexpanded ranges.  With `most`, every number and range end must lie in
    1..most."""
    ends: list[tuple[int, int]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        lo, sep, hi = item.partition("..")
        ends.append((int(lo), int(hi)) if sep else (int(item), int(item)))
    if most is not None:
        for end in (e for pair in ends for e in pair):
            if not 1 <= end <= most:
                raise ValueError(f"need 1 <= n <= {most}, got {end}")
    return [range(lo, hi + 1) for lo, hi in ends]


def _count(ranges: list[range]) -> int:
    # from the ends: len() of a range longer than sys.maxsize overflows
    return sum(max(0, r.stop - r.start) for r in ranges)


@dataclass(frozen=True)
class SweepPlan:
    ns: tuple[int, ...]
    generators: tuple[str, ...]
    seeds: tuple[int, ...]
    oracle: bool = False
    oracle_threshold: int = DEFAULT_ORACLE_THRESHOLD
    workers: int = 1

    def tasks(self) -> list[tuple[int, str, int, bool, int]]:
        tasks = set()
        for n in self.ns:
            for tag in self.generators:
                head = tag.split(":", 1)[0]
                # a kind without a seed gives one row; any other bad tag
                # gives one row per seed, each with the error
                seeds = (0,) if head in PARAMS and "seed" not in PARAMS[head] else self.seeds
                for seed in seeds:
                    tasks.add((n, tag, seed, self.oracle, self.oracle_threshold))
        return sorted(tasks)


def _sweep_row(task: tuple[int, str, int, bool, int]) -> dict[str, object]:
    n, tag, seed, want_oracle, threshold = task
    row: dict[str, object] = {c: "" for c in SWEEP_COLUMNS}
    row.update(n=n, generator=tag, seed=seed)
    start = time.perf_counter()
    try:
        g = build(_spec_for(tag, n, seed))
        result = solve(g)
        report = validate_cover(g, result.cover)
        if not report.valid:
            raise MonopathError(
                f"solver cover failed validation: {report.failure_kind.value}"
            )
        row["solver_size"] = result.cover.size
        row["solver_colour"] = result.cover.colour.value
        row["guarantee"] = result.guarantee.value
        row["branch_trace"] = "|".join(result.branch_trace)
        if want_oracle and n <= threshold:
            # at n <= DEFAULT_ORACLE_THRESHOLD solve lists base:oracle first,
            # an exact minimum over both colours and valid, so it wins the
            # pick and its size is exact_f's value: run the oracle only when
            # solve did not pick it (n above 14 under a higher threshold)
            if result.branch_trace[-1:] == ("pick:base:oracle",):
                row["oracle_value"] = result.cover.size
            else:
                row["oracle_value"] = exact_f(g, threshold=threshold).value
    except Exception as exc:  # a bad row must not abort the sweep
        row["error"] = f"{type(exc).__name__}: " + " ".join(str(exc).split())
    row["wall_time_ms"] = int((time.perf_counter() - start) * 1000)
    return row


def run_sweep(plan: SweepPlan) -> str:
    """Execute the plan and return the CSV text."""
    tasks = plan.tasks()
    # the pool starts all its workers at once, so never more than rows or CPUs
    workers = min(plan.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules cost every other run about 2 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks, chunksize=8))
    else:
        rows = [_sweep_row(t) for t in tasks]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValueError(f"need workers >= 1, got {args.workers}")
    for tag in args.generators:
        _spec_for(tag, 1, 0)  # reject malformed tags before spawning work
    ns = _parse_ranges(args.ns, MAX_N)
    seeds = _parse_ranges(args.seeds)
    rows = _count(ns) * len(args.generators) * _count(seeds)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(
            f"{rows} sweep rows (n x generators x seeds), over {MAX_SWEEP_ROWS}"
        )
    plan = SweepPlan(
        ns=tuple(v for r in ns for v in r),
        generators=tuple(args.generators),
        seeds=tuple(v for r in seeds for v in r),
        oracle=args.oracle,
        oracle_threshold=args.threshold,
        workers=args.workers,
    )
    text = run_sweep(plan)
    if args.output:
        with open(args.output, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="monopath", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_source(p):
        p.add_argument("file", nargs="?", help="colouring file")
        p.add_argument("--gen", metavar="TAG", help="generate instead of reading a file")
        p.add_argument("-n", type=int, help="vertex count for --gen")
        p.add_argument("--seed", type=int, default=0, help="seed for --gen (index for enumerate)")

    p = sub.add_parser("gen", help="write a colouring file")
    p.add_argument("tag", help="generator tag, e.g. extremal or random:p=0.3")
    p.add_argument("-n", type=int, required=True, help=f"vertex count, at most {MAX_N}")
    p.add_argument("--seed", type=int, default=0, help="seed (colouring index for enumerate)")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="print a same-colour path cover")
    add_gen_source(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="print the exact cover number and a witness")
    add_gen_source(p)
    p.add_argument("--threshold", type=int, default=DEFAULT_ORACLE_THRESHOLD)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check a cover file against a colouring")
    p.add_argument("colouring")
    p.add_argument("cover")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run a plan and emit CSV")
    p.add_argument("--ns", required=True, help="e.g. 50,100 or 4..16")
    p.add_argument(
        "--generators",
        required=True,
        type=lambda s: [t for t in s.split(",") if t],
        help="comma list of tags: extremal random:p=0.5 adversarial:iters=8 enumerate",
    )
    p.add_argument("--seeds", default="0", help="e.g. 0..9 or 0,3,7")
    p.add_argument("--oracle", action="store_true", help="add exact values where feasible")
    p.add_argument("--threshold", type=int, default=DEFAULT_ORACLE_THRESHOLD)
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (OSError, ValueError, MonopathError) as exc:
        print(f"monopath: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
