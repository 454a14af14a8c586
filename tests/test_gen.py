import math
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_colouring_with
from monopath import gen
from monopath.core import BLUE, RED, Colouring, edge_count, iter_edges
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


# the ends of [0, 1], the halving point, a value with no short binary
# expansion, and the draws next to 0 and to 1
STREAM_PS = (0.0, 1.0, 0.5, 1 / 3, 2**-53, 1 - 2**-53)


class _CountingWordPair:
    """Stands in for gen._WORD_PAIR and counts the draws settled in full."""

    def __init__(self):
        self.calls = 0

    def unpack_from(self, buffer, offset):
        self.calls += 1
        return struct.unpack_from("<2I", buffer, offset)


class TestRandomStream:
    """random_colouring reads Random(seed).random() in bulk; the reference is
    the per-draw loop, one rng.random() < p per edge."""

    @pytest.mark.parametrize("p", STREAM_PS)
    def test_matches_the_per_draw_loop(self, p):
        for n in range(1, 65):
            for seed in (0, n, 2**40 + n):
                ref = random_colouring_with(random.Random(seed), n, p)
                assert random_colouring(n, p, seed) == ref, (n, p, seed)

    @given(st.integers(1, 64), st.floats(0, 1), st.integers(0, 2**64))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_draw_loop_drawn(self, n, p, seed):
        ref = random_colouring_with(random.Random(seed), n, p)
        assert random_colouring(n, p, seed) == ref

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        monkeypatch.setattr(gen, "_CHUNK", chunk)
        for n in (2, 12, 20, 37):  # 1, 66, 190 and 666 edges
            for p in (0.5, 1 / 3, 0.9):
                ref = random_colouring_with(random.Random(n), n, p)
                assert random_colouring(n, p, n) == ref, (chunk, n, p)

    def test_ties_on_the_top_byte_are_settled_in_full(self, monkeypatch):
        # p set to a draw, or next to it, puts that draw on bound's top byte,
        # where only the full 53-bit comparison tells the colours apart
        counter = _CountingWordPair()
        monkeypatch.setattr(gen, "_WORD_PAIR", counter)
        n = 30
        for seed in range(5):
            rng = random.Random(seed)
            draws = [rng.random() for _ in range(edge_count(n))]
            x = draws[seed * 37]
            for p in (x, math.nextafter(x, 0), math.nextafter(x, 1)):
                calls = counter.calls
                ref = random_colouring_with(random.Random(seed), n, p)
                assert random_colouring(n, p, seed) == ref, (seed, p)
                assert counter.calls > calls

    def test_no_ties_when_p_ends_a_byte_range(self, monkeypatch):
        counter = _CountingWordPair()
        monkeypatch.setattr(gen, "_WORD_PAIR", counter)
        for p in (0.0, 0.5, 0.25, 1.0):
            random_colouring(40, p, 3)
        assert counter.calls == 0

    def test_peak_memory_has_no_per_edge_list(self):
        # a list of m bools peaked at about 6 MB; the digits, one chunk of
        # generator output and then _from_digits's n*n matrix peak at 1.9 MB
        tracemalloc.start()
        try:
            g = random_colouring(1000, 0.5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 1000
        assert peak < 3_000_000


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
