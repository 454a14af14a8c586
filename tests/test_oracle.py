import dataclasses
import math
import random
import tracemalloc
from itertools import combinations

import pytest

from conftest import (
    all_colourings,
    from_int,
    longest_mono_path,
    naive_min_cover,
    path_ok,
    random_colouring_with,
)
from monopath import cli, oracle
from monopath.core import BLUE, RED, Colouring, Path, validate_cover
from monopath.core import mask_vertices, vertex_mask
from monopath.gen import extremal, random_colouring
from monopath.oracle import (
    DEFAULT_ORACLE_THRESHOLD,
    OracleResult,
    TooLarge,
    _ends_table,
    _spanning_path,
    exact_f,
    min_cover_colour,
)


class TestTraceableFamily:
    # the traceable family of a colour is the nonzero entries of its
    # endpoint table; _spanning_path walks a witness out of it
    def test_matches_definition_exhaustively(self):
        # a set is traceable iff some ordering is a monochromatic path;
        # recount by brute longest-path DFS on each induced subset
        for g in all_colourings(4):
            ends, _ = _ends_table(g, RED)
            for size in range(1, 5):
                for sub in combinations(range(1, 5), size):
                    ind, back = g.induced(sub)
                    expected = longest_mono_path(ind, RED) == size
                    assert bool(ends[vertex_mask(sub)]) == expected

    def test_witness_paths_are_real(self, rng):
        for _ in range(30):
            g = random_colouring_with(rng, 7)
            ends, adj = _ends_table(g, BLUE)
            for m in range(1, 1 << 7):
                if not ends[m]:
                    continue
                p = Path(tuple(_spanning_path(ends, adj, m)), BLUE)
                assert path_ok(g, p)
                assert set(p.vertices) == set(mask_vertices(m))


class TestMinCoverColour:
    def test_monochromatic_single_path(self):
        g = Colouring.monochromatic(6, RED)
        size, cover = min_cover_colour(g, RED)
        assert size == 1
        assert validate_cover(g, cover).valid
        size_b, cover_b = min_cover_colour(g, BLUE)
        assert size_b == 6  # blue graph is empty: singletons only
        assert validate_cover(g, cover_b).valid

    def test_star_needs_two(self):
        # red star centred at 1: two overlapping red paths suffice
        g = Colouring.hub(5, [1])
        size, cover = min_cover_colour(g, RED)
        assert size == 2
        assert validate_cover(g, cover).valid


class TestExactF:
    def test_against_naive_reference_k3_k4(self):
        for n in (3, 4):
            for g in all_colourings(n):
                res = exact_f(g)
                assert res.value == naive_min_cover(g)
                assert validate_cover(g, res.witness).valid
                assert res.witness.size == res.value
                assert res.witness.colour is res.colour

    def test_against_naive_reference_k5_sample(self, rng):
        for _ in range(120):
            g = from_int(5, rng.getrandbits(10))
            res = exact_f(g)
            assert res.value == naive_min_cover(g)
            assert validate_cover(g, res.witness).valid

    def test_red_wins_ties(self):
        g = Colouring.monochromatic(2, RED)
        assert exact_f(g).colour is RED
        # flip: only blue achieves 1, red needs 2 singletons
        res = exact_f(g.flipped())
        assert res.value == 1 and res.colour is BLUE

    def test_extremal_values(self):
        assert exact_f(extremal(4)).value == 2
        assert exact_f(extremal(9)).value == 3

    def test_too_large_guard(self):
        with pytest.raises(TooLarge):
            exact_f(extremal(15))
        with pytest.raises(TooLarge):
            min_cover_colour(extremal(20), RED)

    def test_ceiling_rejects_before_allocating(self):
        # a threshold above the ceiling must not buy a 2**n-entry table
        g = extremal(40)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                exact_f(g, threshold=40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_ceiling_instance_fits_in_two_megabytes(self):
        # raising the threshold unlocks bigger instances; neither colour of
        # extremal(16) spans, so all three tables and both set covers run
        tracemalloc.start()
        try:
            res = exact_f(extremal(16), threshold=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.value == 4
        assert peak < 2_000_000

    def test_one_table_alive_at_a_time(self):
        # red does not span and blue does, without passing Dirac's test, so
        # exact_f builds both tables; red's must be gone before blue's is
        # built, which would add 8 bytes a mask
        n = 12
        g = random_colouring(n, 0.3, 4)
        assert not _passes_dirac(g, BLUE)
        alone = _peak(lambda: min_cover_colour(g, BLUE))
        assert _peak(lambda: exact_f(g)) < alone + 4 * 2**n
        # here blue passes Dirac's test and builds no table at all, so
        # exact_f's peak is red's table alone
        g = random_colouring(n, 0.15, 3)
        assert _passes_dirac(g, BLUE)
        red = _peak(lambda: _ends_table(g, RED))
        assert _peak(lambda: exact_f(g)) < red + 4 * 2**n

    def test_result_shape(self):
        res = exact_f(extremal(6))
        assert isinstance(res, OracleResult)
        assert res.value >= 1
        assert DEFAULT_ORACLE_THRESHOLD == 14

    def test_result_is_frozen_and_compares_by_value(self):
        res = exact_f(extremal(6))
        assert res == exact_f(extremal(6))
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.value = 0
        assert repr(res) == f"OracleResult(value={res.value}, colour={res.colour!r})"


def _peak(call):
    """call's peak traced allocation in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _passes_dirac(g, gamma):
    return g.n >= 3 and 2 * min(a.bit_count() for a in g.rows(gamma)) >= g.n


def _reference_ends(g, gamma):
    """ends[m] by growing every gamma-path one edge at a time from each
    start vertex.  A (vertex set, end) state is expanded once: what it
    extends to depends on nothing else."""
    n = g.n
    nbrs = [[w for w in range(n) if w != v and g.colour(v + 1, w + 1) is gamma]
            for v in range(n)]
    ends = [0] * (1 << n)
    todo = [(1 << v, v) for v in range(n)]
    while todo:
        m, v = todo.pop()
        if ends[m] >> v & 1:
            continue
        ends[m] |= 1 << v
        todo.extend((m | 1 << w, w) for w in nbrs[v] if not m >> w & 1)
    return ends


def _builder_tables(g, gamma):
    """The table from each builder run over all of [n]."""
    n = g.n
    adj = [g.mask(v, gamma) for v in range(1, n + 1)]
    out = []
    for build in (oracle._pull_ends, oracle._push_ends):
        ends = [0] * (1 << n)
        build(adj, (1 << n) - 1, ends)
        out.append(ends)
    return adj, out


class TestEndpointTable:
    def test_builders_match_the_reference_exhaustively(self):
        for n in range(1, 6):
            for g in all_colourings(n):
                for gamma in (RED, BLUE):
                    ref = _reference_ends(g, gamma)
                    _, tables = _builder_tables(g, gamma)
                    assert tables == [ref, ref]
                    assert oracle._ends_table(g, gamma)[0] == ref

    @pytest.mark.parametrize(
        "n, p",
        # red densities on both sides of the 3/8 cut up to n = 14; at 15 and
        # 16 the sparse side only, where the reference search stays cheap
        [(10, 0.2), (10, 0.7), (11, 0.35), (12, 0.6), (13, 0.45),
         (14, 0.25), (14, 0.42), (15, 0.3), (16, 0.2)],
    )
    def test_builders_match_the_reference_fuzzed(self, n, p):
        g = random_colouring(n, p, seed=n)
        ref = _reference_ends(g, RED)
        _, tables = _builder_tables(g, RED)
        assert tables == [ref, ref]

    @pytest.mark.parametrize("n", [2, 5, 8, 9, 11])
    def test_builders_match_the_reference_on_parts(self, n):
        # the pull reads each mask's members from one list per half, low
        # (vertices 1..ceil(n/2)) and high: parts inside either half alone,
        # and across both with gaps, fill exactly the masks inside them
        rng = random.Random(n)
        full = (1 << n) - 1
        low = (1 << (n + 1) // 2) - 1
        parts = [low, full ^ low, full & ~(2 | low + 1), vertex_mask(range(1, n + 1, 3))]
        for p in (0.5, 0.8):
            g = random_colouring_with(rng, n, p)
            for gamma in (RED, BLUE):
                ref = _reference_ends(g, gamma)
                adj = g.rows(gamma)
                for part in parts:
                    want = [ref[m] if m & part == m else 0 for m in range(1 << n)]
                    for build in (oracle._pull_ends, oracle._push_ends):
                        ends = [0] * (1 << n)
                        build(adj, part, ends)
                        assert ends == want, (build.__name__, bin(part))

    def test_spanning_path_walks_out_a_real_path(self):
        rng = random.Random(7)
        for n in range(1, 8):
            for _ in range(6):
                g = random_colouring_with(rng, n, rng.choice((0.2, 0.5, 0.8)))
                for gamma in (RED, BLUE):
                    adj, tables = _builder_tables(g, gamma)
                    for ends in tables:
                        for m in range(1, 1 << n):
                            if not ends[m]:
                                continue
                            vs = oracle._spanning_path(ends, adj, m)
                            assert sorted(vs) == mask_vertices(m)
                            assert path_ok(g, Path(tuple(vs), gamma))


DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)


def _loop_maximal_masks(ends, n):
    """Maximal traceable masks by the plain per-mask superset loop."""
    size = 1 << n
    anysup = [1 if ends[m] else 0 for m in range(size)]
    for i in range(n):
        for m in range(size):
            if not m >> i & 1 and anysup[m | 1 << i]:
                anysup[m] = 1
    return [
        m
        for m in range(1, size)
        if ends[m] and not any(not m >> i & 1 and anysup[m | 1 << i] for i in range(n))
    ]


class TestMaximalMasks:
    def test_match_the_loop_reference(self):
        rng = random.Random(5)
        colourings = [extremal(n) for n in range(1, 13)]
        colourings += [
            random_colouring_with(rng, rng.randint(1, 12), rng.choice(DENSITIES))
            for _ in range(40)
        ]
        for g in colourings:
            for gamma in (RED, BLUE):
                ends = oracle._ends_table(g, gamma)[0]
                got = oracle._maximal_masks(ends, g.n)
                assert got == _loop_maximal_masks(ends, g.n)


@pytest.fixture
def calls(monkeypatch):
    """The colours whose endpoint tables get built, and how many times the
    maximal masks are listed, from here on."""
    calls = {"tables": [], "maximal": 0}
    table, maximal = oracle._ends_table, oracle._maximal_masks

    def counted_table(g, gamma):
        calls["tables"].append(gamma)
        return table(g, gamma)

    def counted_maximal(ends, n):
        calls["maximal"] += 1
        return maximal(ends, n)

    monkeypatch.setattr(oracle, "_ends_table", counted_table)
    monkeypatch.setattr(oracle, "_maximal_masks", counted_maximal)
    return calls


class TestShortCircuit:
    def test_red_spans(self, calls):
        # red passes Dirac's test: no table; then red spans without passing it
        for p, seed, tables in ((0.7, 1, []), (0.5, 1, [RED])):
            calls["tables"].clear()
            g = random_colouring(12, p, seed)
            assert _passes_dirac(g, RED) == (not tables)
            res = exact_f(g)
            assert (res.value, res.colour) == (1, RED)
            assert calls == {"tables": tables, "maximal": 0}

    def test_only_blue_spans(self, calls):
        # blue passes Dirac's test and needs no table; then it spans without
        # passing it
        for p, seed, tables in ((0.15, 1, [RED]), (0.3, 4, [RED, BLUE])):
            calls["tables"].clear()
            g = random_colouring(12, p, seed)
            assert _passes_dirac(g, BLUE) == (tables == [RED])
            res = exact_f(g)
            assert (res.value, res.colour) == (1, BLUE)
            assert calls == {"tables": tables, "maximal": 0}
            assert validate_cover(g, res.witness).valid

    def test_neither_spans(self, calls):
        # red's table is dropped while blue's is built, then built again
        res = exact_f(extremal(9))
        assert res.value == 3
        assert calls == {"tables": [RED, BLUE, RED], "maximal": 2}

    def test_matches_min_cover_colour_with_red_winning_ties(self):
        rng = random.Random(99)
        colourings = [
            random_colouring_with(rng, rng.randint(1, 11), rng.choice(DENSITIES))
            for _ in range(200)
        ]
        # the extremal family is where neither colour spans
        for n in range(4, 12):
            colourings += [extremal(n), extremal(n).flipped()]
        seen = set()
        for g in colourings:
            red = min_cover_colour(g, RED)
            blue = min_cover_colour(g, BLUE)
            colour, (value, cover) = (BLUE, blue) if blue[0] < red[0] else (RED, red)
            assert exact_f(g) == OracleResult(value, colour, cover)
            seen.add((colour, value == 1, red[0] == blue[0]))
        # every branch of the short-circuit, and a tie, came up
        assert {(RED, True), (BLUE, True), (RED, False), (BLUE, False)} <= {
            k[:2] for k in seen
        }
        assert any(k[2] for k in seen)


def _table_cover(g, gamma):
    """min_cover_colour read off gamma's endpoint table alone."""
    return oracle._min_cover(*_ends_table(g, gamma), g.n, gamma)


def _table_exact_f(g):
    """exact_f from the two tables alone: red if it spans, else the smaller
    cover, red winning ties."""
    red = _table_cover(g, RED)
    blue = _table_cover(g, BLUE) if red[0] > 1 else red
    colour, (value, cover) = (BLUE, blue) if blue[0] < red[0] else (RED, red)
    return OracleResult(value, colour, cover)


def _relabelled(g, rng):
    """g with its vertices renamed by a random permutation."""
    name = list(range(1, g.n + 1))
    rng.shuffle(name)
    return Colouring.from_function(g.n, lambda u, v: g.colour(name[u - 1], name[v - 1]))


def _halves_colouring(n, red_matching):
    """Red: two cliques on 1..n/2 and the rest, with the perfect matching
    v ~ v + n/2 if red_matching; blue: the other pairs, K_{n/2,n/2} less
    that matching."""
    h = n // 2

    def colour(u, v):
        if (u <= h) == (v <= h) or (red_matching and v - u == h):
            return RED
        return BLUE

    return Colouring.from_function(n, colour)


class TestDiracShortcut:
    # a colour whose least degree is at least n/2 (n >= 3) is answered
    # without a table; its value and witness must be the table's
    def _check(self, g, threshold=DEFAULT_ORACLE_THRESHOLD):
        assert exact_f(g, threshold) == _table_exact_f(g)
        for gamma in (RED, BLUE):
            assert min_cover_colour(g, gamma, threshold) == _table_cover(g, gamma)

    def test_matches_the_table_exhaustively(self):
        dirac = 0
        for n in range(1, 6):
            for g in all_colourings(n):
                self._check(g)
                dirac += _passes_dirac(g, RED) + _passes_dirac(g, BLUE)
        assert dirac == 74  # colours passing the test, over all colourings

    def test_matches_the_table_fuzzed(self):
        rng = random.Random(44)
        dirac = 0
        for n in range(3, 17):
            for _ in range(3 if n <= 14 else 1):
                p = rng.choice((0.1, 0.2, 0.25, 0.75, 0.8, 0.9))
                g = random_colouring_with(rng, n, p)
                self._check(g, threshold=16)
                dirac += _passes_dirac(g, RED) or _passes_dirac(g, BLUE)
        assert dirac >= 20

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
    def test_matches_the_table_on_structured_colourings(self, n):
        # blue K_{n/2,n/2} (least degree n/2) beside two red cliques, and two
        # red cliques joined by a perfect matching (least degree n/2),
        # each relabelled and flipped
        rng = random.Random(n)
        for red_matching, dense in ((False, BLUE), (True, RED)):
            g = _relabelled(_halves_colouring(n, red_matching), rng)
            for h, gamma in ((g, dense), (g.flipped(), dense.complement)):
                assert 2 * min(a.bit_count() for a in h.rows(gamma)) == n
                self._check(h, threshold=16)

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_one_below_dirac_builds_its_table(self, n, calls):
        # blue K_{(n-1)/2,(n+1)/2}: its least degree is (n-1)/2, so 2 * least
        # degree = n - 1 and the test fails, though blue spans
        g = Colouring.from_function(
            n, lambda u, v: BLUE if (u <= n // 2) != (v <= n // 2) else RED)
        assert 2 * min(a.bit_count() for a in g.rows(BLUE)) == n - 1
        assert min_cover_colour(g, BLUE)[0] == 1
        assert calls["tables"] == [BLUE]
        assert exact_f(g).colour is BLUE
        assert calls["tables"] == [BLUE, RED, BLUE]


class TestWorkCounts:
    # how many 2**n endpoint tables the oracle builds over fixed plans; a
    # change that builds more or fewer re-pins these and says why
    def test_oracle_sweep_plan(self, calls):
        # the oracle-sweep benchmark's plan for seed 4401: n = 14, 41 rows
        seeds = random.Random(4401).sample(range(10**6), 20)
        plan = cli.SweepPlan(
            ns=(14,), generators=("extremal", "random:p=0.5", "random:p=0.2"),
            seeds=tuple(sorted(seeds)), oracle=True, oracle_threshold=14, workers=1,
        )
        assert len(plan.tasks()) == 41
        cli.run_sweep(plan)
        assert len(calls["tables"]) == 44

    def test_replay_plan(self, replay_tables):
        # scripts/same_covers.py's committed plan, every entry and config
        assert replay_tables == 48
