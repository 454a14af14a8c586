"""Row-at-a-time colouring I/O against the per-edge code it replaced.

The reference functions below are the edge-by-edge implementations of
`Colouring.from_edge_bits`, `Colouring.edge_bits`, `codec.encode`,
`codec.decode` and the generators, kept here so the row builders are
checked against them: identical masks, bit lists and strings, and the same
errors for the same bad input.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopath import codec
from monopath.cli import _build_parser
from monopath.codec import BadCharacter, BadLength, MalformedHeader, decode, encode
from monopath.core import RED, Colouring, edge_count
from monopath.gen import MAX_N, extremal, indexed_colouring, random_colouring


def ref_edges(n):
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            yield (u, v)


def ref_from_edge_bits(n, red_bits):
    """Red masks, one edge at a time, with the old errors."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    bits = list(red_bits)
    if len(bits) != edge_count(n):
        raise ValueError(f"expected {edge_count(n)} edge bits, got {len(bits)}")
    rows = [bytearray((n + 7) >> 3) for _ in range(n)]
    i = 0
    for u in range(1, n + 1):
        ub_idx, ub_bit = (u - 1) >> 3, 1 << ((u - 1) & 7)
        row_u = rows[u - 1]
        for v in range(u + 1, n + 1):
            if bits[i]:
                row_u[(v - 1) >> 3] |= 1 << ((v - 1) & 7)
                rows[v - 1][ub_idx] |= ub_bit
            i += 1
    return [int.from_bytes(r, "little") for r in rows]


def ref_edge_bits(n, masks):
    return [masks[u - 1] & (1 << (v - 1)) != 0 for u, v in ref_edges(n)]


def ref_encode(n, masks):
    chars = "".join("R" if bit else "B" for bit in ref_edge_bits(n, masks))
    return f"{n}\n{chars}"


def ref_decode(text):
    """(n, red masks), or the old error for the same text."""
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedHeader("empty input")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise MalformedHeader(f"header is not an integer: {lines[0]!r}") from None
    if n < 1:
        raise MalformedHeader(f"need n >= 1, got {n}")
    if len(lines) > 2:
        raise MalformedHeader(f"expected 2 lines, got {len(lines)}")
    body = lines[1] if len(lines) == 2 else ""
    m = edge_count(n)
    if len(body) != m:
        raise BadLength(m, len(body))
    for i, ch in enumerate(body):
        if ch not in "RB":
            raise BadCharacter(2, i + 1, ch)
    return n, ref_from_edge_bits(n, (ch == "R" for ch in body))


def masks(g):
    return [g.mask(v, RED) for v in range(1, g.n + 1)]


def decoded(text):
    g = decode(text)
    return g.n, masks(g)


def outcome(fn, *args):
    """A comparable record of what fn returned or raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, codec.CodecError) as exc:
        return "raised", type(exc), str(exc), vars(exc)


# bools and other truthy or falsy values; the hub workload passes ints
TRUTH_VALUES = (False, True, 0, 1, 2, None, "", "x", 0.0, -1)


@st.composite
def truth_list(draw, n=st.integers(1, 40), delta=st.just(0)):
    """(n, values): edge_count(n) + delta values from one palette."""
    n = draw(n)
    m = edge_count(n) + draw(delta)
    rng = random.Random(draw(st.integers(0, 2**32)))
    palette = draw(st.sampled_from((
        (False, True), TRUTH_VALUES, (0, 1, 2), (None, ""), (1, "x", -1),
    )))
    return n, [rng.choice(palette) for _ in range(m)]


class TestFromEdgeBits:
    @given(truth_list(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_reference(self, case, as_generator):
        n, values = case
        bits = (v for v in values) if as_generator else values
        g = Colouring.from_edge_bits(n, bits)
        assert masks(g) == ref_from_edge_bits(n, values)

    @given(truth_list(n=st.integers(3, 40), delta=st.integers(-3, 3).filter(bool)))
    @settings(max_examples=100, deadline=None)
    def test_wrong_length_error_matches(self, case):
        n, values = case
        got = outcome(lambda: Colouring.from_edge_bits(n, iter(values)))
        assert got[0] == "raised"
        assert got == outcome(ref_from_edge_bits, n, values)

    def test_bad_n_error_matches(self):
        for n in (0, -3):
            assert outcome(Colouring.from_edge_bits, n, []) == outcome(
                ref_from_edge_bits, n, []
            )


class TestEdgeBitsAndEncode:
    @given(truth_list())
    @settings(max_examples=200, deadline=None)
    def test_match_per_edge_reference(self, case):
        n, values = case
        g = Colouring.from_edge_bits(n, values)
        ref = ref_from_edge_bits(n, values)
        bits = g.edge_bits()
        assert bits == ref_edge_bits(n, ref)
        assert all(type(b) is bool for b in bits)
        assert encode(g) == ref_encode(n, ref)


def _bad_texts(rng, n):
    """Valid encodings with one character replaced, first, last or inside."""
    bits = [rng.random() < 0.5 for _ in range(edge_count(n))]
    text = ref_encode(n, ref_from_edge_bits(n, bits))
    head, body = text.split("\n")
    out = [text]
    if body:
        for bad in ("X", "r", "\r", "é", "☃", " ", "\t", "0", "\x00"):
            i = rng.choice((0, len(body) - 1, rng.randrange(len(body))))
            out.append(f"{head}\n{body[:i]}{bad}{body[i + 1:]}")
        out.append(f"{head}\n{body[:-1]}é")
        out.append(f"{head}\n\r{body[1:]}")
    return out


class TestDecode:
    @given(st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_edge_reference(self, n, seed):
        for text in _bad_texts(random.Random(seed), n):
            assert outcome(decoded, text) == outcome(ref_decode, text), text

    def test_bad_character_positions(self):
        for text, where in (
            ("3\nXRB", (2, 1, "X")),
            ("3\nRBX", (2, 3, "X")),
            ("3\nRéB", (2, 2, "é")),
            ("3\nRB\r", (2, 3, "\r")),
            ("4\nRRBRB☃", (2, 6, "☃")),
        ):
            with pytest.raises(BadCharacter) as e:
                decode(text)
            assert (e.value.line, e.value.column, e.value.char) == where
            assert outcome(decoded, text) == outcome(ref_decode, text)

    @pytest.mark.parametrize("text", [
        "3\nRR", "3\nRRBB", "", "\n", "x\nRRB", "0\n", "-2\n", "3\nRRB\nRRB",
        "3\nRXB", "3\nrrb", "3\nRRB", "3\nRRB\n", "3\nRRB\n\n\n", "1", "1\n",
        " 3 \nRRB", "2\n", "1\nR", "2\nR\nR",
    ])
    def test_codec_cases_match_reference(self, text):
        assert outcome(decoded, text) == outcome(ref_decode, text)


class TestGenerators:
    """Each generator gives the colouring its per-edge original gave."""

    def test_extremal(self):
        for n in range(1, 61):
            a_size = n - max(0, math.isqrt(n) - 1)
            assert masks(extremal(n)) == ref_from_edge_bits(
                n, (v > a_size for u, v in ref_edges(n))
            )

    def test_random_colouring(self):
        for n in range(1, 61):
            for p, seed in ((0.5, n), (0.1, 7 * n), (1, 3), (0, 3)):
                rng = random.Random(seed)
                ref = ref_from_edge_bits(
                    n, (rng.random() < p for _ in range(edge_count(n)))
                )
                assert masks(random_colouring(n, p, seed)) == ref

    def test_indexed_colouring(self):
        rng = random.Random(5)
        for n in range(1, 61):
            m = edge_count(n)
            for index in {0, (1 << m) - 1, (1 << m) >> 1, rng.getrandbits(m)}:
                ref = ref_from_edge_bits(n, (bool(index >> i & 1) for i in range(m)))
                assert masks(indexed_colouring(n, index)) == ref


def _peak_bytes(fn, exc):
    """Peak traced allocation while fn raises exc."""
    tracemalloc.start()
    try:
        with pytest.raises(exc):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeChecksComeFirst:
    """A huge declared n with a short body is rejected before anything of
    size n*n, or even n, is allocated."""

    def test_decode_header(self):
        assert _peak_bytes(lambda: decode("100000\nRB"), BadLength) < 64 * 1024

    def test_from_edge_bits(self):
        build = lambda: Colouring.from_edge_bits(100000, [True])  # noqa: E731
        assert _peak_bytes(build, ValueError) < 64 * 1024

    def test_gen_n_above_the_ceiling(self, tmp_path):
        # unchecked, gen extremal at this n peaks at about 400 MB under
        # tracemalloc, most of it the encoded text
        out = str(tmp_path / "big.k2c")
        argv = ["gen", "extremal", "-n", str(MAX_N + 1), "-o", out]
        args = _build_parser().parse_args(argv)
        assert _peak_bytes(lambda: args.func(args), ValueError) < 64 * 1024
