"""Per-layer call counts and self times, recorded from outside the program.

`Tracer` replaces each public function or method named in TIMED or COUNTED
with a wrapper at every place that binds it: the class for methods, and for
functions the defining module plus every other `monopath` module that
imported the name.  Calls that go through a module global, such as the
solver's recursive `cover_bounded`, are therefore wrapped too.  Leaving the
`with` block puts the originals back, so no file of the program changes.

A layer's self time is the time inside its wrapper minus the time spent in
wrapped calls it made.  `Colouring.colour` runs millions of times per hub
solve, so it is only counted, never timed; its time stays in its caller.
Work that a function hands over as a generator runs where the generator is
consumed: the draws of `gen.random_colouring` count under
`core.from_edge_bits`.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

from monopath import bipartite, cli, codec, construct, core, gen, oracle, solver

# layer metric prefix -> (owner, attribute); owner is a class or a module
TIMED = {
    "core.induced": (core.Colouring, "induced"),
    "core.from_edge_bits": (core.Colouring, "from_edge_bits"),
    "core.validate_cover": (core, "validate_cover"),
    "construct.rotate_or_extend": (construct, "rotate_or_extend"),
    "construct.refine_path": (construct, "refine_path"),
    "construct.maximal_path": (construct, "maximal_path"),
    "construct.find_long_path_structure": (construct, "find_long_path_structure"),
    "construct.two_path_cover": (construct, "two_path_cover"),
    "solver.solve": (solver, "solve"),
    "solver.cover_sqrt": (solver, "cover_sqrt"),
    "solver.cover_bounded": (solver, "cover_bounded"),
    "solver.reduce": (solver, "reduce"),
    "solver.cover_from_structure": (solver, "cover_from_structure"),
    "oracle.exact_f": (oracle, "exact_f"),
    "oracle.min_cover_colour": (oracle, "min_cover_colour"),
    "bipartite.decompose_full": (bipartite, "decompose_full"),
    "bipartite.decompose": (bipartite, "decompose"),
    "bipartite.ramsey_path": (bipartite, "ramsey_path"),
    "bipartite.from_colouring": (bipartite.BipartiteView, "from_colouring"),
    "gen.random_colouring": (gen, "random_colouring"),
    "gen.build": (gen, "build"),
    "codec.encode": (codec, "encode"),
    "codec.decode": (codec, "decode"),
    "cli.run_sweep": (cli, "run_sweep"),
}
COUNTED = {"core.colour": (core.Colouring, "colour")}


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    # induced: sum of k*k over induced sets of k vertices (its inner loop);
    # rotate_or_extend: calls that returned a LongerPath
    work: int = 0


def _count_pairs(stat: Stat, result) -> None:
    stat.work += result[0].n ** 2


def _count_extensions(stat: Stat, result) -> None:
    stat.work += isinstance(result, construct.LongerPath)


ON_RESULT = {
    "core.induced": _count_pairs,
    "construct.rotate_or_extend": _count_extensions,
}


class Tracer:
    """Install with `with tracer:`; read `metrics()` afterwards."""

    def __init__(self):
        self.stats = {name: Stat() for name in (*TIMED, *COUNTED)}
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn):
        stat, stack, clock = self.stats[name], self._stack, time.perf_counter_ns
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]  # time spent in wrapped callees
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_ns += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(stat, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args):
            stat.calls += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, wrap) -> None:
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        new = wrap(raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "monopath" and not mod_name.startswith("monopath."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._restore.append((mod, key, raw))
                    setattr(mod, key, new)

    def __enter__(self) -> "Tracer":
        for name, (owner, attr) in TIMED.items():
            self._patch(owner, attr, functools.partial(self._timed, name))
        for name, (owner, attr) in COUNTED.items():
            self._patch(owner, attr, functools.partial(self._counted, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program, such as a host probe that
        interrupted it, out of the running layer's self time."""
        if self._stack:
            self._stack[-1][0] += int(seconds * 1e9)

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Counts, and self times in seconds multiplied by time_scale."""
        out: dict[str, float] = {}
        for name in TIMED:
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_ns / 1e9 * time_scale
        for name in COUNTED:
            out[f"{name}.calls"] = self.stats[name].calls
        out["core.induced.pairs"] = self.stats["core.induced"].work
        rot = self.stats["construct.rotate_or_extend"]
        out["construct.rotate_or_extend.extend_ratio"] = (
            rot.work / rot.calls if rot.calls else 0.0
        )
        return out
