import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopath.core import BLUE, RED, Colouring, iter_edges
from monopath.gen import (
    GENERATOR_NAME,
    MAX_N,
    GenSpec,
    adversarial_search,
    build,
    extremal,
    indexed_colouring,
    random_colouring,
)
from monopath.oracle import exact_f


class TestExtremal:
    @given(st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_shape(self, n):
        g = extremal(n)
        a = n - max(0, math.isqrt(n) - 1)
        for u, v in iter_edges(n):
            assert g.colour(u, v) is (RED if v > a else BLUE)

    def test_masks_match_the_per_edge_build(self):
        # every n up to 64, then the hub width changes at squares
        sizes = set(range(1, 65)) | {300}
        sizes |= {k * k + d for k in range(8, 18) for d in (-1, 0, 1)}
        for n in sorted(sizes):
            a = n - max(0, math.isqrt(n) - 1)
            ref = Colouring.from_edge_bits(n, [v > a for _, v in iter_edges(n)])
            g = extremal(n)
            assert (g._red, g._blue) == (ref._red, ref._blue), n

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            extremal(0)


class TestRandomColouring:
    def test_deterministic_per_seed(self):
        assert random_colouring(8, 0.5, 1) == random_colouring(8, 0.5, 1)
        assert random_colouring(8, 0.5, 1) != random_colouring(8, 0.5, 2)

    def test_probability_extremes(self):
        m = 5 * 4 // 2
        assert random_colouring(5, 1.0, 0) == indexed_colouring(5, (1 << m) - 1)
        assert random_colouring(5, 0.0, 0) == indexed_colouring(5, 0)

    def test_frozen_stream(self):
        # regression pin for GENERATOR_NAME: the (n, p, seed) -> colouring map
        # must never change silently
        assert GENERATOR_NAME == "monopath-rng-v1"
        g = random_colouring(6, 0.5, 42)
        bits = "".join("R" if b else "B" for b in g.edge_bits())
        assert bits == "BRRRBBBRRRRBRRB"

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            random_colouring(5, 1.5, 0)


class TestIndexedColouring:
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bits_round_trip(self, n, data):
        m = n * (n - 1) // 2
        index = data.draw(st.integers(0, (1 << m) - 1))
        g = indexed_colouring(n, index)
        assert sum(1 << i for i, b in enumerate(g.edge_bits()) if b) == index

    def test_range_guard(self):
        with pytest.raises(ValueError):
            indexed_colouring(3, 8)
        with pytest.raises(ValueError):
            indexed_colouring(3, -1)


class TestAdversarialSearch:
    def test_zero_iters_is_extremal(self):
        g, score = adversarial_search(9, 0, 7)
        assert g == extremal(9)
        assert score == 3

    def test_never_below_extremal(self):
        base = exact_f(extremal(9)).value
        for seed in range(4):
            g, score = adversarial_search(9, 20, seed, restarts=2)
            assert score >= base
            assert exact_f(g).value == score

    def test_deterministic(self):
        a = adversarial_search(8, 15, 3)
        b = adversarial_search(8, 15, 3)
        assert a == b

    def test_single_vertex(self):
        g, score = adversarial_search(1, 5, 0)
        assert g.n == 1 and score == 1


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec("weird", 5)
        with pytest.raises(ValueError):
            GenSpec("random", 0)
        with pytest.raises(ValueError):
            GenSpec("random", 5, p=-0.1)

    def test_ceiling(self):
        assert GenSpec("random", MAX_N).n == MAX_N  # a spec builds nothing
        with pytest.raises(ValueError, match=f"^need 1 <= n <= {MAX_N}, got"):
            GenSpec("random", MAX_N + 1)

    def test_build_dispatch(self):
        assert build(GenSpec("extremal", 9)) == extremal(9)
        assert build(GenSpec("random", 6, p=0.3, seed=5)) == random_colouring(6, 0.3, 5)
        assert build(GenSpec("enumerate", 4, seed=13)) == indexed_colouring(4, 13)
        assert build(GenSpec("adversarial", 6, seed=2, iters=4)) == (
            adversarial_search(6, 4, 2)[0]
        )
