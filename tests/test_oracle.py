import dataclasses
import math
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
from monopath.core import BLUE, RED, Colouring, mask_vertices, validate_cover
from monopath.gen import extremal
from monopath.oracle import (
    DEFAULT_ORACLE_THRESHOLD,
    ORACLE_MAX_N,
    OracleResult,
    TooLarge,
    TraceableFamily,
    exact_f,
    min_cover_colour,
)


class TestTraceableFamily:
    def test_matches_definition_exhaustively(self):
        # a set is traceable iff some ordering is a monochromatic path;
        # recount by brute longest-path DFS on each induced subset
        for g in all_colourings(4):
            fam = TraceableFamily(g, RED)
            for size in range(1, 5):
                for sub in combinations(range(1, 5), size):
                    ind, back = g.induced(sub)
                    expected = longest_mono_path(ind, RED) == size
                    assert (sub in fam) == expected

    def test_witness_paths_are_real(self, rng):
        for _ in range(30):
            g = random_colouring_with(rng, 7)
            fam = TraceableFamily(g, BLUE)
            for m in range(1, 1 << 7):
                s = mask_vertices(m)
                if s not in fam:
                    continue
                p = fam.witness_path(s)
                assert path_ok(g, p)
                assert set(p.vertices) == set(s)
                assert p.colour is BLUE

    def test_contains(self):
        g = Colouring.monochromatic(3, RED)
        fam = TraceableFamily(g, RED)
        assert frozenset({1, 2, 3}) in fam
        blue = TraceableFamily(g, BLUE)
        assert frozenset({1, 2}) not in blue
        assert frozenset({2}) in blue
        assert frozenset() not in fam
        assert {1, 4} not in fam and (0,) not in fam  # outside 1..n


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
        g = Colouring.from_function(5, lambda u, v: RED if u == 1 else BLUE)
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
        # raising the threshold unlocks bigger instances
        assert exact_f(extremal(16), threshold=16).value == 4

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
        with pytest.raises(TooLarge):
            TraceableFamily(extremal(ORACLE_MAX_N + 1), RED, threshold=64)

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
