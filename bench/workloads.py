"""The benchmark's workloads: instance sets drawn from the workload seed,
their set-up, the units a closed-loop pass is made of, and the checks on each
result.

A pass solves one instance at a time in this process, and the next solve
starts only after the previous one returns.  The program receives only the
generated colourings; for oracle-sweep it receives the sweep plan that
`monopath sweep` would build.

Why the instances look as they do:

* hub: the two ends of the range of hub widths w: the paper's extremal
  hub, w = isqrt(n) - 1, and the wide hub w = 2 isqrt(n) that takes
  sqrt:decompose.  The seed permutes the vertex labels of both.  It does not
  draw w: near 2 isqrt(n) the solve time moves by about 4 % per unit of w
  (4.1 s at w = 84, 4.8 s at w = 88 for n = 2000, at the reference speed of
  hostspeed.py), and a w drawn from 84..88 spread the run medians by 9-14 %.
* random-deep: one draw at p = 0.5 and one at p = 0.1; their solve times
  differ by less than a tenth between seeds.
* oracle-sweep: n stays at 14, since mixing n = 10..14 made row p50 swing
  from 48 to 76 ms.
"""

from __future__ import annotations

import csv
import io
import math
import random
import time
from dataclasses import dataclass

from monopath import cli, codec, core, gen, solver


@dataclass(frozen=True)
class Instance:
    generator: str
    n: int
    seed: int
    w: int | None = None
    p: float | None = None


@dataclass(frozen=True)
class Solve:
    """One solve, or one sweep row, as the benchmark saw it."""

    instance: int  # index into the workload's instance list
    start: float  # perf_counter when it started
    seconds: float
    size: int | None
    result: tuple  # everything that must repeat exactly across passes
    trace: tuple[str, ...]
    error: str | None
    cover: core.PathCover | None = None


def _round_trip(g: core.Colouring) -> tuple[core.Colouring, str | None]:
    back = codec.decode(codec.encode(g))
    return back, None if back == g else "decode(encode(g)) != g"


def hub_colouring(n: int, w: int, rng: random.Random) -> core.Colouring:
    """A blue clique on n - w vertices; every edge touching the other w
    vertices is red.  The hub vertices are a random choice of labels."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    hub = bytearray(n + 1)
    for v in labels[:w]:
        hub[v] = 1
    return core.Colouring.from_edge_bits(
        n, (hub[u] or hub[v] for u, v in core.iter_edges(n))
    )


class SolveWorkload:
    """Colourings built at set-up, each passed to `solver.solve`."""

    name = ""
    config = solver.SolverConfig()
    probe = "solver"  # host speed kernel, see hostspeed.PROBES

    def __init__(self, seed: int, n: int):
        self.instances = self.draw(random.Random(seed), n)

    def draw(self, rng: random.Random, n: int) -> list[Instance]:
        raise NotImplementedError

    def generate(self, inst: Instance) -> core.Colouring:
        raise NotImplementedError

    def prepare(self, i: int) -> tuple[core.Colouring, str | None]:
        """Set up instance i: generate it and round-trip it through the codec."""
        return _round_trip(self.generate(self.instances[i]))

    @property
    def units(self) -> int:
        return len(self.instances)

    def solve_unit(self, j: int, inputs: list[core.Colouring]) -> list[Solve]:
        """Solve instance j."""
        start = time.perf_counter()
        try:
            res = solver.solve(inputs[j], self.config)
        except Exception as exc:  # a failed solve is counted, not fatal
            return [Solve(j, start, time.perf_counter() - start, None, (), (),
                          f"{type(exc).__name__}: {exc}")]
        seconds = time.perf_counter() - start
        cover = res.cover
        key = (cover.colour.value, tuple(p.vertices for p in cover.paths),
               res.branch_trace)
        return [Solve(j, start, seconds, cover.size, key, res.branch_trace, None, cover)]

    def check(self, inputs: list[core.Colouring], s: Solve) -> str | None:
        report = core.validate_cover(inputs[s.instance], s.cover)
        if not report.valid:
            return f"invalid cover: {report.failure_kind.value} {report.detail}"
        return None


class Hub(SolveWorkload):
    """Default SolverConfig, the `monopath solve` path."""

    name = "hub"

    def draw(self, rng, n):
        root = math.isqrt(n)
        return [Instance("hub", n, rng.randrange(2**32), w=w)
                for w in (root - 1, 2 * root)]

    def generate(self, inst):
        return hub_colouring(inst.n, inst.w, random.Random(inst.seed))

    def check(self, inputs, s):
        err = super().check(inputs, s)
        inst = self.instances[s.instance]
        root = math.isqrt(inst.n)
        if err is None and inst.w == root - 1 and s.size != root:
            err = f"extremal hub (w={inst.w}) got {s.size} paths, want {root}"
        return err


class RandomDeep(SolveWorkload):
    """Small constants, so the sqrt:reduce and bounded:reduce recursion runs."""

    name = "random-deep"
    config = solver.SolverConfig(c1=2.0, c2=2.0, c=2.0)

    def draw(self, rng, n):
        return [Instance("random", n, rng.randrange(2**32), p=p) for p in (0.5, 0.1)]

    def generate(self, inst):
        return gen.build(gen.GenSpec("random", inst.n, p=inst.p, seed=inst.seed))


class OracleSweep:
    """`cli.run_sweep` with the oracle on, one worker, threshold 14.

    A pass is one sweep; each of its rows is one solve."""

    name = "oracle-sweep"
    probe = "oracle"
    seeds_per_generator = 20
    units = 1

    def __init__(self, seed: int, n: int):
        seeds = random.Random(seed).sample(range(10**6), self.seeds_per_generator)
        self.plan = cli.SweepPlan(
            ns=(n,), generators=("extremal", "random:p=0.5", "random:p=0.2"),
            seeds=tuple(sorted(seeds)), oracle=True, oracle_threshold=14, workers=1,
        )
        self.instances = []  # in CSV row order
        for n_, tag, s, _, _ in self.plan.tasks():
            head, _, p = tag.partition(":p=")
            self.instances.append(Instance(head, n_, s, p=float(p) if p else None))

    def prepare(self, i):
        inst = self.instances[i]
        spec = gen.GenSpec(inst.generator, inst.n,
                           p=0.5 if inst.p is None else inst.p, seed=inst.seed)
        return _round_trip(gen.build(spec))

    def solve_unit(self, j, inputs):
        """Run the sweep; each row is one Solve timed by its wall_time_ms.

        Rows run back to back, so each starts where the one before ended."""
        start = time.perf_counter()
        text = cli.run_sweep(self.plan)
        out = []
        for i, row in enumerate(csv.DictReader(io.StringIO(text))):
            result = tuple(v for k, v in row.items() if k != "wall_time_ms")
            trace = tuple(row["branch_trace"].split("|")) if row["branch_trace"] else ()
            size = int(row["solver_size"]) if row["solver_size"] else None
            seconds = int(row["wall_time_ms"]) / 1000
            out.append(Solve(i, start, seconds, size, result, trace, row["error"] or None))
            start += seconds
        return out

    def check(self, inputs, s):
        row = dict(zip((c for c in cli.SWEEP_COLUMNS if c != "wall_time_ms"), s.result))
        inst = self.instances[s.instance]
        if (int(row["n"]), int(row["seed"])) != (inst.n, inst.seed):
            return f"row {s.instance} is for n={row['n']} seed={row['seed']}"
        if row["solver_size"] != row["oracle_value"]:
            return (f"solver_size {row['solver_size']} != "
                    f"oracle_value {row['oracle_value']}")
        return None


WORKLOADS = {w.name: w for w in (Hub, RandomDeep, OracleSweep)}
DEFAULT_N = {"hub": 2000, "random-deep": 2000, "oracle-sweep": 14}
