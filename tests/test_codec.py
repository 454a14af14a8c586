import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_int
from monopath.codec import (
    BadCharacter,
    BadLength,
    CodecError,
    MalformedHeader,
    decode,
    encode,
)
from monopath.core import BLUE, RED, Colouring, edge_count
from monopath.gen import extremal, random_colouring


class TestEncode:
    def test_all_red_k3(self):
        assert encode(Colouring.monochromatic(3, RED)) == "3\nRRR"

    def test_no_trailing_newline(self):
        assert not encode(extremal(5)).endswith("\n")

    def test_single_vertex(self):
        assert encode(Colouring.monochromatic(1, RED)) == "1\n"


class TestDecode:
    def test_spec_shape(self):
        g = decode("3\nRRB")
        assert g.colour(1, 2) is RED
        assert g.colour(1, 3) is RED
        assert g.colour(2, 3) is BLUE

    def test_trailing_newlines_tolerated(self):
        g = decode("3\nRRB")
        assert decode("3\nRRB\n") == g
        assert decode("3\nRRB\n\n\n") == g

    def test_single_vertex_forms(self):
        assert decode("1").n == 1
        assert decode("1\n").n == 1

    def test_header_whitespace(self):
        assert decode(" 3 \nRRB").n == 3

    def test_bad_length(self):
        with pytest.raises(BadLength) as e:
            decode("3\nRR")
        assert e.value.expected == 3 and e.value.got == 2
        with pytest.raises(BadLength):
            decode("3\nRRBB")

    def test_bad_character_position(self):
        with pytest.raises(BadCharacter) as e:
            decode("3\nRXB")
        assert (e.value.line, e.value.column, e.value.char) == (2, 2, "X")
        with pytest.raises(BadCharacter):
            decode("3\nrrb")  # lower case is not tolerated

    @pytest.mark.parametrize(
        "body, column, char",
        [
            ("XRRBRRBBRR", 1, "X"),  # first column
            ("RRBRRBBRRx", 10, "x"),  # last column
            ("RR\u00e9RBBRRBR", 3, "\u00e9"),  # not ASCII
            ("RRBR\udcffBBRRB", 5, "\udcff"),  # a lone surrogate
            ("RB1xBR\u00e9RR0", 3, "1"),  # several: the first is named
            ("RBRB\u00e9xRRRB", 5, "\u00e9"),  # non-ASCII before ASCII
            ("RBRB\tRRRRB", 5, "\t"),
        ],
    )
    def test_bad_character_names_the_first(self, body, column, char):
        with pytest.raises(BadCharacter) as e:
            decode(f"5\n{body}")
        assert (e.value.line, e.value.column, e.value.char) == (2, column, char)
        assert str(e.value) == f"bad character {char!r} at line 2, column {column}"

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bad_character_matches_a_scan(self, n, data):
        m = edge_count(n)
        chars = st.sampled_from("RB") | st.characters(exclude_characters="\n")
        body = "".join(data.draw(st.lists(chars, min_size=m, max_size=m)))
        first = next((i for i, c in enumerate(body) if c not in "RB"), None)
        if first is None:
            assert encode(decode(f"{n}\n{body}")) == f"{n}\n{body}"
        else:
            with pytest.raises(BadCharacter) as e:
                decode(f"{n}\n{body}")
            assert (e.value.line, e.value.column) == (2, first + 1)
            assert e.value.char == body[first]

    def test_bad_length_wins_over_a_bad_character(self):
        for text in ("3\nRX", "3\nXRBB", "3\n\u00e9\u00e9", "1\nX"):
            with pytest.raises(BadLength):
                decode(text)

    def test_peak_memory_at_n_1000(self):
        # the digits and _from_digits's n*n matrix, about 1.85 MB; a regex
        # scan beside an encoded copy of the body peaked at about 2.3 MB
        n = 1000
        g = random_colouring(n, 0.5, 1)
        text = encode(g)
        tracemalloc.start()
        try:
            back = decode(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == g
        assert peak < 2_240_000

    def test_malformed_headers(self):
        for text in ("", "\n", "x\nRRB", "0\n", "-2\n", "3\nRRB\nRRB"):
            with pytest.raises(MalformedHeader):
                decode(text)

    def test_errors_share_a_base(self):
        for exc in (MalformedHeader, BadLength, BadCharacter):
            assert issubclass(exc, CodecError)


class TestRoundTrip:
    @given(st.integers(1, 30), st.data())
    @settings(max_examples=120, deadline=None)
    def test_identity(self, n, data):
        bits = data.draw(st.integers(0, (1 << edge_count(n)) - 1))
        g = from_int(n, bits)
        assert decode(encode(g)) == g
