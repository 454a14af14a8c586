"""monopath benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload hub --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  Set-up (generation plus the codec round trip) is repeated, and
setup_s is the median round.  The untraced run (`--trace 0`) then repeats
closed-loop passes over the instance set until at least --seconds have
passed and at least two passes are done, and prints every end-to-end
metric.  The traced run (`--trace 1`) makes one untraced and one traced
pass over the same instances and prints the per-layer metrics.  Every
result is checked: covers must be valid and repeat exactly from pass to
pass, and a traced result must equal the untraced one.  All times are
scaled to the reference host speed of hostspeed.py; the report keeps the
unscaled ones too.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  The full report, with run metadata, the instance list, every
end-to-end figure (fail_ratio, the tail's percentile and sample count too),
pick counts and the trace tags reached, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-up is repeated at least SETUP_ROUNDS times and for at least SETUP_MIN_S
# seconds, so that a set-up of a few milliseconds still gives a steady median
SETUP_ROUNDS = 3
SETUP_MIN_S = 1.0
MIN_PASSES = 2
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
UNREACHED_NOTE = (
    "No workload reaches bounded:strip or sqrt:fallback. bounded:strip is "
    "reachable with SolverConfig(c1=2.0, c2=0.0, c=2.0) on a wide hub "
    "(n=1100, w=40; n=2000, w=60); it is left out because the default "
    "config is the user path."
)


def _load():
    if not (SRC / "monopath" / "__init__.py").is_file():
        sys.exit(f"bench: no monopath sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hostspeed
    import tracer
    import workloads

    return hostspeed, tracer, workloads


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it.  With too few samples for that, the maximum at percentile 100."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND
    return s[k - 1], 100.0 * k / len(s)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _setup_round(wl, clock) -> tuple[float, float, list, list]:
    """Set up every instance once: (scaled seconds, raw seconds, inputs, errors)."""
    gc.collect()
    scaled = raw = 0.0
    inputs, errors = [], []
    for i in range(len(wl.instances)):
        start = time.perf_counter()
        try:
            g, err = wl.prepare(i)
        except Exception as exc:  # counted against every solve of instance i
            g, err = None, f"set-up failed: {type(exc).__name__}: {exc}"
        net, scaled_s = clock.scale(start, time.perf_counter() - start)
        scaled += scaled_s
        raw += net
        inputs.append(g)
        errors.append(err)
    return scaled, raw, inputs, errors


def _pass(wl, inputs, clock) -> tuple[list, float, float]:
    """One closed-loop pass: (solves with scaled times, scaled wall, raw wall)."""
    gc.collect()
    out = []
    scaled = raw = 0.0
    for j in range(wl.units):
        start = time.perf_counter()
        solves = wl.solve_unit(j, inputs)
        net, scaled_s = clock.scale(start, time.perf_counter() - start)
        scaled += scaled_s
        raw += net
        out += [replace(s, seconds=clock.scale(s.start, s.seconds)[1]) for s in solves]
    return out, scaled, raw


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  n: int | None = None) -> dict:
    """Run one workload and return the full report."""
    hostspeed, tracer, workloads = _load()
    n = workloads.DEFAULT_N[name] if n is None else n
    wl = workloads.WORKLOADS[name](seed, n)
    clock = hostspeed.ScaledClock(wl.probe)

    setups, raw_setups, passes, walls, raw_walls = [], [], [], [], []
    layers = None

    def record_setup():
        setup_s, raw_s, inputs, errors = _setup_round(wl, clock)
        setups.append(setup_s)
        raw_setups.append(raw_s)
        return inputs, errors

    def record_pass():
        solves, wall, raw = _pass(wl, inputs, clock)
        passes.append(solves)
        walls.append(wall)
        raw_walls.append(raw)

    def merge(more_errors):
        return [a or b for a, b in zip(errors, more_errors)]

    with clock:
        inputs, errors = record_setup()
        if trace:
            record_pass()
            tr = tracer.Tracer()
            first_probe = len(clock.durations)
            clock.on_probe = tr.exclude
            with tr:
                errors = merge(_setup_round(wl, clock)[3])
                record_pass()
            clock.on_probe = None
            layers = tr.metrics(
                clock.reference_s / statistics.fmean(clock.durations[first_probe - 1 :])
            )
            layers["trace_overhead"] = walls[1] / walls[0] - 1
        else:
            while len(setups) < SETUP_ROUNDS or sum(raw_setups) < SETUP_MIN_S:
                errors = merge(record_setup()[1])
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                record_pass()

    # checks run outside the timed passes and outside the tracer
    failures: list[str] = []
    first = {s.instance: s for s in passes[0]}
    for p_index, solves in enumerate(passes):
        for s in solves:
            err = errors[s.instance] or s.error or wl.check(inputs, s)
            if err is None and s.result != first[s.instance].result:
                err = "result differs from the first pass"
                if trace:
                    err = "traced result differs from the untraced one"
            if err is not None:
                failures.append(f"pass {p_index} instance {s.instance}: {err}")

    times = [s.seconds for solves in passes for s in solves]
    tail_s, tail_pct = tail(times)
    attempted = len(times)
    summary = {
        "solves_per_s": attempted / sum(walls),
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": tail_s,
        "solve_s_tail_percentile": tail_pct,
        "solve_s_samples": attempted,
        "cover_size_sum": sum(s.size or 0 for s in passes[0]),
        "fail_ratio": len(failures) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    picks = Counter(s.trace[-1].removeprefix("pick:") for s in passes[0] if s.trace)
    tags = Counter(t for s in passes[0] for t in s.trace)
    if layers is not None:
        for strategy in ("oracle", "sqrt", "bounded", "greedy"):
            layers[f"solver.pick.{strategy}"] = picks[strategy]
    return {
        "workload": name,
        "trace": int(trace),
        "metadata": _metadata(seed),
        "instances": [vars(inst) for inst in wl.instances],
        "passes": len(passes),
        "summary": summary,
        "unscaled": {
            "solves_per_s": attempted / sum(raw_walls),
            "setup_s": statistics.median(raw_setups),
            "probe_s_median": statistics.median(clock.durations),
            "reference_s": clock.reference_s,
        },
        "solve_seconds": [[round(s.seconds, 4) for s in solves] for solves in passes],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "picks": dict(sorted(picks.items())),
        "tags": dict(sorted(tags.items())),
        "unreached": [t for t in ("bounded:strip", "sqrt:fallback") if t not in tags],
        "unreached_note": UNREACHED_NOTE,
        "layers": layers,
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(report: dict) -> dict:
    """The contract's last stdout line: the end-to-end metrics of an
    untraced run, or the per-layer metrics of a traced one."""
    declared = _declared()
    if report["trace"]:
        specs, values = declared["per_layer"], report["layers"]
    else:
        specs, values = declared["end_to_end"], report["summary"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("hub", "random-deep", "oracle-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("-n", type=int, default=None,
                    help="vertex count (default: the workload's; small n for smoke tests)")
    ap.add_argument("--results", type=Path, default=ROOT / "bench" / "results",
                    help="directory for the full report")
    args = ap.parse_args(argv)

    report = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.n)
    line = result_line(report)
    args.results.mkdir(parents=True, exist_ok=True)
    out = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={report['passes']} "
          f"report={out}")
    units = {"solve_s_tail_percentile": "%", "solve_s_samples": "count",
             "fail_ratio": "ratio"}
    units.update({m["name"]: m["unit"] for m in _declared()["end_to_end"]})
    if report["trace"]:
        for m in _declared()["per_layer"]:
            print(f"{m['name']} = {report['layers'][m['name']]:.6g} {m['unit']}")
    else:
        for key, value in report["summary"].items():
            print(f"{key} = {value:.6g} {units[key]}")
    print(f"picks = {report['picks']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
