"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every check recounts results with the naive helpers from conftest where a
second opinion is possible; none of the expected values are produced by
the code under test alone.
"""

import csv
import io
import math
import random

from conftest import (
    all_colourings,
    alternating_in_view,
    from_int,
    has_mono_path_with_edges,
    long_path_instance,
    decompose_instance,
    decompose_full_instance,
    path_ok,
    random_colouring_with,
    _view,
)
from monopath.bipartite import ramsey_path
from monopath.cli import SweepPlan, run_sweep
from monopath.codec import decode, encode
from monopath.construct import (
    LongerPath,
    RedCliqueCertificate,
    SmallDegree,
    maximal_path,
    rotate_or_extend,
    two_path_cover,
)
from monopath.core import BLUE, RED, validate_cover
from monopath.gen import extremal
from monopath.oracle import exact_f
from monopath.solver import solve


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_extremal_lower_bound():
    got = {n: exact_f(extremal(n), threshold=16).value for n in (4, 9, 16)}
    ok = got == {4: 2, 9: 3, 16: 4}
    ok = ok and all(got[n] == math.isqrt(n) for n in got)
    _report(1, "extremal lower bound", ok)


def test_criterion_02_exhaustive_small_n():
    ok = True
    for n in (3, 4, 5):
        bound = math.floor(2 * math.sqrt(n))
        for g in all_colourings(n):
            res = exact_f(g)
            sol = solve(g)
            ok = ok and res.value <= bound
            ok = ok and validate_cover(g, sol.cover).valid
            ok = ok and sol.cover.size >= res.value
            ok = ok and validate_cover(g, res.witness).valid
            if not ok:
                break
        if not ok:
            break
    _report(2, "exhaustive small-n soundness", ok)


def test_criterion_03_long_path_suite():
    from monopath.bipartite import long_path

    rng = random.Random(103)
    ok = True
    for _ in range(1000):
        v = long_path_instance(rng, max_side=30)
        p = long_path(v)
        ok = ok and len(p.vertices) == 2 * len(v.Y)
        ok = ok and alternating_in_view(v, p)
        ok = ok and set(v.Y) <= set(p.vertices)
        if not ok:
            break
    _report(3, "alternating long path suite", ok)


def test_criterion_04_decompose_suite():
    from monopath.bipartite import decompose

    rng = random.Random(104)
    ok = True
    for _ in range(1000):
        v = decompose_instance(rng)
        paths = decompose(v)
        covered_x: set[int] = set()
        y_covered = bool(paths)
        for p in paths:
            ok = ok and alternating_in_view(v, p)
            y_covered = y_covered and set(v.Y) <= set(p.vertices)
            covered_x |= set(p.vertices) - set(v.Y)
        ok = ok and y_covered
        ok = ok and len(paths) <= len(v.X) // len(v.Y)
        ok = ok and len(set(v.X) - covered_x) <= len(v.Y) + 2 * v.m
        if not ok:
            break
    _report(4, "stripping decomposition suite", ok)


def test_criterion_05_decompose_full_suite():
    from monopath.bipartite import decompose_full

    rng = random.Random(105)
    ok = True
    for _ in range(500):
        v = decompose_full_instance(rng)
        paths = decompose_full(v)
        seen: set[int] = set()
        for p in paths:
            ok = ok and alternating_in_view(v, p)
            seen |= set(p.vertices)
        ok = ok and seen == set(v.X) | set(v.Y)
        ok = ok and len(paths) == -(-len(v.X) // (len(v.Y) + 1))
        if not ok:
            break
    _report(5, "full decomposition suite", ok)


def _ramsey_exhaustive(side: int, k: int, l: int) -> bool:
    xs = tuple(range(1, side + 1))
    ys = tuple(range(side + 1, 2 * side + 1))
    xset, yset = set(xs), set(ys)
    verts = [*xs, *ys]
    # bit i of a colouring is the cell (ys[i // side], xs[i % side]), so
    # y's red neighbours are one `side`-bit row of it
    row = [frozenset(x for x in xs if r >> (x - 1) & 1) for r in range(1 << side)]
    full = (1 << side) - 1
    for bits in range(1 << (side * side)):
        # red edges, listed at both ends; the view reads only the ys' rows
        adj = {y: row[bits >> (side * j) & full] for j, y in enumerate(ys)}
        adj.update({x: {y for y in ys if x in adj[y]} for x in xs})
        v = _view(side, side, adj)
        out = ramsey_path(v, k, l)
        p = out.path
        vs = p.vertices
        if len(set(vs)) != len(vs):
            return False
        # every step must alternate sides and carry the claimed colour
        for s, t in zip(vs, vs[1:]):
            x, y = (s, t) if s in xset else (t, s)
            if x not in xset or y not in yset:
                return False
            if (x in adj[y]) != (out.colour is RED):
                return False
        if p.length < (k if out.colour is RED else l):
            return False
        # independent recount: the disjunction itself, by threshold DFS over
        # the red edges above and their bipartite complement
        blue_adj = {w: (yset if w in xset else xset) - adj[w] for w in verts}
        if not (
            has_mono_path_with_edges(adj, verts, k)
            or has_mono_path_with_edges(blue_adj, verts, l)
        ):
            return False
    return True


def test_criterion_06_ramsey_exhaustive():
    ok = _ramsey_exhaustive(3, 2, 3) and _ramsey_exhaustive(4, 3, 4)
    _report(6, "bipartite path disjunction", ok)


def test_criterion_07_two_path_cover():
    ok = True
    for n in range(1, 6):
        for g in all_colourings(n):
            tpc = two_path_cover(g)
            ok = ok and path_ok(g, tpc.red) and path_ok(g, tpc.blue)
            ok = ok and not (set(tpc.red.vertices) & set(tpc.blue.vertices))
            ok = ok and set(tpc.red.vertices) | set(tpc.blue.vertices) == set(
                range(1, n + 1)
            )
            if not ok:
                break
    rng = random.Random(107)
    for _ in range(1000):
        n = rng.randint(1, 200)
        g = random_colouring_with(rng, n, rng.random())
        tpc = two_path_cover(g)
        ok = ok and path_ok(g, tpc.red) and path_ok(g, tpc.blue)
        ok = ok and not (set(tpc.red.vertices) & set(tpc.blue.vertices))
        ok = ok and len(tpc.red.vertices) + len(tpc.blue.vertices) == n
        if not ok:
            break
    _report(7, "disjoint two-path cover", ok)


def test_criterion_08_rotation_certificates():
    rng = random.Random(108)
    ok = True
    for _ in range(500):
        n = rng.randint(2, 60)
        g = random_colouring_with(rng, n, rng.random())
        gamma = RED if rng.random() < 0.5 else BLUE
        p = maximal_path(g, gamma)
        ok = ok and path_ok(g, p)
        on = set(p.vertices)
        for end in (p.vertices[0], p.vertices[-1]):
            ok = ok and not any(
                g.colour(end, w) is gamma for w in range(1, n + 1) if w not in on
            )
        bound = rng.choice([0, 1, 2, 5])
        for y in range(1, n + 1):
            if y in on:
                continue
            out = rotate_or_extend(g, p, y, degree_bound=bound)
            if isinstance(out, LongerPath):
                ok = ok and len(out.path.vertices) == len(p.vertices) + 1
                ok = ok and path_ok(g, out.path)
            elif isinstance(out, RedCliqueCertificate):
                vs = out.vertices
                ok = ok and len(vs) > bound
                ok = ok and all(
                    g.colour(a, b) is gamma.complement
                    for i, a in enumerate(vs)
                    for b in vs[i + 1 :]
                )
            else:
                ok = ok and isinstance(out, SmallDegree) and out.degree <= bound
            if not ok:
                break
        if not ok:
            break
    _report(8, "rotation engine certificates", ok)


def test_criterion_09_sweep_regression():
    ns = (50, 100, 200, 500, 1000)
    plans = [
        SweepPlan(ns, ("extremal",), (0,)),
        SweepPlan(ns, ("random:p=0.5",), tuple(range(10))),
        SweepPlan(ns, ("adversarial:iters=6",), (0, 1)),
    ]
    ok = True
    for plan in plans:
        rows = list(csv.DictReader(io.StringIO(run_sweep(plan))))
        ok = ok and len(rows) == len(plan.tasks())
        for r in rows:
            ok = ok and not r["error"]
            ok = ok and int(r["solver_size"]) <= math.isqrt(int(r["n"])) + 10
            if not ok:
                break
        if not ok:
            break
    _report(9, "solver size regression sweep", ok)


def test_criterion_10_ceiling_arithmetic():
    ok = True
    for n in range(1, 10**6 + 1):
        r = math.isqrt(n)
        y = r - 1 if r * r == n else r  # ceil(sqrt(n)) - 1
        got = -(-(n + 1) // (y + 1)) - 1
        if got > r:
            ok = False
            break
    _report(10, "cover count ceiling arithmetic", ok)


def test_criterion_11_round_trip_and_determinism():
    rng = random.Random(111)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 50)
        g = random_colouring_with(rng, n, rng.random())
        ok = ok and decode(encode(g)) == g
        if not ok:
            break
    plan = SweepPlan((10, 25, 40), ("extremal", "random:p=0.5"), (0, 1, 2), True, 14, 1)

    def strip_time(text: str) -> list[tuple]:
        return [
            tuple(c for i, c in enumerate(line.split(",")) if i != 8)
            for line in text.strip().split("\n")
        ]

    ok = ok and strip_time(run_sweep(plan)) == strip_time(run_sweep(plan))
    _report(11, "round trip and determinism", ok)
