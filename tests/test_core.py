import copy
import dataclasses
import pickle
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import from_int, random_colouring_with
from monopath.core import (
    BLUE,
    RED,
    Colouring,
    CoverReport,
    FailureKind,
    InvalidEdge,
    Path,
    PathCover,
    edge_count,
    iter_edges,
    mask_vertices,
    validate_cover,
    vertex_mask,
)


def test_colour_complement():
    assert RED.complement is BLUE
    assert BLUE.complement is RED
    assert RED.value == "R" and BLUE.value == "B"


def test_iter_edges_order_and_count():
    assert list(iter_edges(4)) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert list(iter_edges(1)) == []
    for n in range(1, 12):
        assert len(list(iter_edges(n))) == edge_count(n) == n * (n - 1) // 2


def _induced_reference(g, keep):
    """Red masks and label map of the induced sub-colouring, pair by pair."""
    old = sorted(set(keep))
    masks = [0] * len(old)
    for i, u in enumerate(old):
        for j, v in enumerate(old):
            if u != v and g.colour(u, v) is RED:
                masks[i] |= 1 << j
    return masks, {i + 1: v for i, v in enumerate(old)}


@st.composite
def _colouring_and_keep(draw):
    """A colouring on n <= 130, so rows of every width mod 8 and of more
    than one machine word, and a keep list: unsorted with repeats, one
    vertex, every vertex in shuffled order, or a subset without the top
    label."""
    n = draw(st.integers(1, 130))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_colouring_with(rng, n, draw(st.floats(0, 1)))
    vertex = st.integers(1, n)
    keeps = [
        st.lists(vertex, min_size=1, max_size=2 * n),
        vertex.map(lambda v: [v]),
        st.permutations(range(1, n + 1)),
    ]
    if n > 1:
        keeps.append(st.lists(st.integers(1, n - 1), min_size=1, max_size=n))
    return g, draw(st.one_of(keeps))


_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda vs: (v for v in vs),
    "dict keys": dict.fromkeys,
}


def _round_trips(vertices: list[int], form: str) -> None:
    mask = vertex_mask(_FORMS[form](vertices))
    assert mask == sum(1 << (v - 1) for v in set(vertices))
    assert mask_vertices(mask) == sorted(set(vertices))
    assert vertex_mask(mask_vertices(mask)) == mask


def _pop_reference(mask: int) -> list[int]:
    """mask_vertices by one bit test per position."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def _masks_around_the_cut(draw):
    """A mask t bits wide, t in 0..3000, with k set bits on either side of
    the digit pass's cut: below t/8, or from t/8 up to t."""
    top = draw(st.integers(0, 3000))
    if not top:
        return 0
    cut = -(-top // 8)  # the fewest set bits that one in 8 allows
    k = draw(st.one_of(st.integers(1, max(1, cut - 1)), st.integers(cut, top)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return 1 << (top - 1) | sum(1 << i for i in rng.sample(range(top - 1), k - 1))


class TestMaskHelpers:
    """vertex_mask parses one digit string for k vertices of top vertex t when
    (k - 28) * 28 >= t, and ORs one bit per vertex otherwise; both must give
    the mask of the vertex set.  mask_vertices lists it back in ascending
    order on one of two paths: a mask t > 64 bits wide with k * 8 >= t set
    bits through one pass over bin()'s digits, any other by popping its low
    bit once per vertex.  Both must equal a bit-by-bit reference."""

    @given(_masks_around_the_cut())
    @settings(max_examples=300, deadline=None)
    def test_listing_matches_the_bit_by_bit_reference(self, mask):
        assert mask_vertices(mask) == _pop_reference(mask)

    @pytest.mark.parametrize(
        "mask",
        [
            0,
            1,
            1 << 2999,
            (1 << 3000) - 1,
            (1 << 64) - 1,  # full, but 64 bits wide: pops
            1 << 64 | 0xFF,  # 65 wide, 9 set: digit pass
            1 << 64 | 0x7F,  # 65 wide, 8 set: pops
            1 << 1999 | (1 << 249) - 1,  # 2000 wide, 250 set: digit pass
            1 << 1999 | (1 << 248) - 1,  # 2000 wide, 249 set: pops
        ],
    )
    def test_listing_fixed_cases(self, mask):
        assert mask_vertices(mask) == _pop_reference(mask)

    @given(st.integers(max_value=-1))
    def test_negative_mask_raises(self, mask):
        with pytest.raises(ValueError):
            mask_vertices(mask)

    @given(st.data(), st.integers(1, 3000), st.sampled_from(sorted(_FORMS)))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, data, n, form):
        _round_trips(data.draw(st.lists(st.integers(1, n), max_size=200)), form)

    @pytest.mark.parametrize("form", sorted(_FORMS))
    @pytest.mark.parametrize(
        "k, top",
        [(29, 28), (30, 56), (100, 2016), (30, 57), (100, 2017), (28, 1)],
    )
    def test_round_trip_either_side_of_the_cut(self, k, top, form):
        # the first three parse, the last three take the loop; unsorted, and
        # repeated where k exceeds top
        vertices = [top - i % top for i in range(k)]
        _round_trips(vertices, form)

    @given(st.integers(0, 200), st.integers(-3000, 0), st.data())
    @settings(max_examples=200, deadline=None)
    def test_vertex_below_one_raises(self, length, bad, data):
        vertices = list(range(1, length + 1))
        vertices.insert(data.draw(st.integers(0, length)), bad)
        with pytest.raises(ValueError):
            vertex_mask(vertices)
        with pytest.raises(ValueError):
            vertex_mask(v for v in vertices)


class TestColouring:
    def test_round_trips_edge_bits(self):
        bits = [True, False, True, True, False, False]
        g = Colouring.from_edge_bits(4, bits)
        assert g.edge_bits() == bits
        assert g.colour(1, 2) is RED
        assert g.colour(2, 1) is RED
        assert g.colour(1, 3) is BLUE
        assert g.colour(2, 3) is RED

    def test_from_function_matches_from_edge_bits(self):
        g = Colouring.from_function(5, lambda u, v: RED if (u + v) % 2 else BLUE)
        for u, v in iter_edges(5):
            assert g.colour(u, v) is (RED if (u + v) % 2 else BLUE)

    def test_monochromatic(self):
        r = Colouring.monochromatic(4, RED)
        b = Colouring.monochromatic(4, BLUE)
        assert all(r.colour(u, v) is RED for u, v in iter_edges(4))
        assert all(b.colour(u, v) is BLUE for u, v in iter_edges(4))
        assert r.flipped() == b

    def test_rejects_bad_masks(self):
        with pytest.raises(ValueError):
            Colouring(3, [2, 1, 7])  # vertex 3 claims a loop
        with pytest.raises(ValueError):
            Colouring(3, [2, 0, 0])  # 1-2 red one way only
        with pytest.raises(ValueError):
            Colouring(2, [4, 0])  # neighbour out of range
        with pytest.raises(ValueError):
            Colouring.from_edge_bits(0, [])
        with pytest.raises(ValueError):
            Colouring.monochromatic(0, RED)

    @given(st.integers(2, 40), st.integers(0, 2**32), st.data())
    @settings(max_examples=80, deadline=None)
    def test_asymmetry_names_the_first_pair(self, n, seed, data):
        # flipped bits break symmetry; the message names the first broken
        # pair in iter_edges order
        masks = list(random_colouring_with(random.Random(seed), n).rows(RED))
        pair = st.tuples(st.integers(1, n), st.integers(1, n))
        pair = pair.filter(lambda t: t[0] != t[1])
        flips = data.draw(st.lists(pair, min_size=1, max_size=3, unique=True))
        for u, v in flips:
            masks[u - 1] ^= 1 << (v - 1)
        broken = [
            (u, v) for u, v in iter_edges(n)
            if (masks[u - 1] >> (v - 1) & 1) != (masks[v - 1] >> (u - 1) & 1)
        ]
        if not broken:  # flipped both ways, symmetric again
            assert Colouring(n, masks).rows(RED) == tuple(masks)
            return
        u, v = broken[0]
        with pytest.raises(ValueError) as e:
            Colouring(n, masks)
        assert str(e.value) == f"asymmetric red adjacency at ({u}, {v})"

    @pytest.mark.parametrize(
        "masks, message",
        [
            ([2, 1, 7], "vertex 3: red mask contains a loop"),
            ([2, 3, 0], "vertex 2: red mask contains a loop"),
            ([2, 1, 8], "vertex 3: red mask exceeds vertex range"),
            ([-1, 0, 0], "vertex 1: red mask contains a loop"),
            ([6, 1, 0], "asymmetric red adjacency at (1, 3)"),
            ([0, 4, 0], "asymmetric red adjacency at (2, 3)"),
        ],
    )
    def test_bad_mask_messages(self, masks, message):
        with pytest.raises(ValueError) as e:
            Colouring(3, masks)
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "n, masks, message",
        [
            (0, [], "need n >= 1, got 0"),
            (-2, [], "need n >= 1, got -2"),
            (3, [0, 0], "expected 3 masks, got 2"),
            (2, [2, 1, 0], "expected 2 masks, got 3"),
        ],
    )
    def test_bad_size_messages(self, n, masks, message):
        with pytest.raises(ValueError) as e:
            Colouring(n, masks)
        assert str(e.value) == message

    def test_symmetric_masks_are_accepted(self):
        n = 2000
        ref = from_int(n, random.Random(n).getrandbits(edge_count(n)))
        g = Colouring(n, ref.rows(RED))
        assert g == ref
        assert g.rows(BLUE) == ref.rows(BLUE)

    def test_wrong_bit_count(self):
        with pytest.raises(ValueError):
            Colouring.from_edge_bits(4, [True] * 5)

    def test_colour_rejects_loops_and_range(self):
        g = Colouring.monochromatic(3, RED)
        with pytest.raises(Exception):
            g.colour(2, 2)
        with pytest.raises(Exception):
            g.colour(1, 4)

    def test_with_edge(self):
        g = Colouring.monochromatic(4, BLUE)
        h = g.with_edge(2, 4, RED)
        assert h.colour(2, 4) is RED
        assert h.colour(4, 2) is RED
        assert g.colour(2, 4) is BLUE  # original untouched
        assert h.with_edge(2, 4, BLUE) == g

    def test_flipped_involution(self, rng):
        g = random_colouring_with(rng, 9)
        assert g.flipped().flipped() == g
        assert all(
            g.colour(u, v) is not g.flipped().colour(u, v) for u, v in iter_edges(9)
        )

    def test_induced_relabels_and_preserves_colours(self, rng):
        g = random_colouring_with(rng, 8)
        keep = [7, 2, 5]
        sub, back = g.induced(keep)
        assert sub.n == 3
        assert sorted(back) == [1, 2, 3]
        assert sorted(back.values()) == [2, 5, 7]
        for u, v in iter_edges(3):
            assert sub.colour(u, v) is g.colour(back[u], back[v])

    @given(_colouring_and_keep())
    @example((random_colouring_with(random.Random(129), 129), range(1, 129)))
    @example((random_colouring_with(random.Random(72), 72), range(2, 72, 3)))
    @settings(max_examples=200, deadline=None)
    def test_induced_matches_pairwise_reference(self, case):
        g, keep = case
        sub, back = g.induced(keep)
        masks, ref_back = _induced_reference(g, keep)
        ref = Colouring(len(masks), masks)  # the checked constructor
        assert back == ref_back
        assert sub == ref
        for v in range(1, sub.n + 1):
            assert sub.mask(v, RED) == masks[v - 1]
            assert sub.mask(v, BLUE) == ref.mask(v, BLUE)

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_rejects_empty_and_out_of_range(self, n, data):
        g = random_colouring_with(random.Random(n), n)
        with pytest.raises(ValueError):
            g.induced([])
        bad = data.draw(st.one_of(st.integers(-3, 0), st.integers(n + 1, n + 3)))
        keep = data.draw(st.permutations([*data.draw(st.lists(st.integers(1, n))), bad]))
        with pytest.raises(InvalidEdge, match=f"vertex {bad} outside"):
            g.induced(keep)

    @pytest.mark.parametrize(
        "keep, bad", [([1, 9, 3, 7], 7), ([2, 0, 9, -2], -2), ([6], 6)]
    )
    def test_induced_names_the_lowest_out_of_range_vertex(self, keep, bad):
        g = random_colouring_with(random.Random(5), 5)
        with pytest.raises(InvalidEdge, match=f"^vertex {bad} outside 1..5$"):
            g.induced(keep)

    @given(st.integers(1, 130), st.integers(0, 2**32), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_masks(self, n, seed, p):
        g = random_colouring_with(random.Random(seed), n, p)
        for colour in (RED, BLUE):
            rows = g.rows(colour)
            assert len(rows) == n
            for v in range(1, n + 1):
                assert rows[v - 1] == g.mask(v, colour)

    def test_induced_peak_memory_is_one_digit_matrix(self):
        # the kept rows go into one k x n bytearray in place; joining them
        # into a str and encoding that peaked at about 4.1 MB, twice as much
        n, k = 2000, 1000
        g = from_int(n, random.Random(2000).getrandbits(edge_count(n)))
        keep = random.Random(1000).sample(range(1, n + 1), k)
        tracemalloc.start()
        try:
            sub, _ = g.induced(keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.n == k
        assert peak < 1.25 * k * n

    def test_degree_and_mask(self):
        g = Colouring.from_edge_bits(3, [True, True, False])
        assert g.degree(1, RED) == 2
        assert g.degree(1, BLUE) == 0
        assert g.degree(2, RED) == 1
        assert g.mask(2, RED) == 1  # bit 0 is vertex 1

    def test_equality_and_hash(self):
        g = from_int(4, 0b101010)
        h = from_int(4, 0b101010)
        assert g == h and hash(g) == hash(h)
        assert g != from_int(4, 0b101011)
        assert g != "not a colouring"

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_trusted_paths_stay_symmetric(self, n, data):
        bits = data.draw(st.lists(st.booleans(), min_size=edge_count(n), max_size=edge_count(n)))
        g = Colouring.from_edge_bits(n, bits)
        for u, v in iter_edges(n):
            assert g.colour(u, v) is g.colour(v, u)


class TestPath:
    def test_length_and_reversed(self):
        p = Path((3, 1, 2), RED)
        assert p.length == 2
        assert len(p) == 3
        assert p.reversed() == Path((2, 1, 3), RED)
        assert Path((7,), BLUE).length == 0
        assert Path((), BLUE).length == 0

    def test_slots_copies_equality_and_hash(self):
        p = Path([3, 1, 2], RED)
        cover = PathCover(RED, [p, Path((4,), RED)], 4)
        assert not hasattr(p, "__dict__") and not hasattr(cover, "__dict__")
        copies = (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, dataclasses.replace)
        for value in (p, cover):
            for make in copies:
                twin = make(value)
                assert twin == value and hash(twin) == hash(value)
        # fields compare and hash as one tuple, and lists still become tuples
        assert hash(p) == hash(((3, 1, 2), RED)) and p != Path((3, 1, 2), BLUE)
        assert hash(cover) == hash((RED, (p, Path((4,), RED)), 4))
        assert dataclasses.replace(p, vertices=[2, 1]).vertices == (2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.colour = BLUE


def _validate_reference(g, cover):
    """validate_cover with one Colouring.colour query per edge."""
    covered = set()
    for idx, p in enumerate(cover.paths):
        if p.colour is not cover.colour:
            return CoverReport(False, FailureKind.COLOUR_MISMATCH_ACROSS_PATHS, idx)
        in_path = set()
        prev = None
        for v in p.vertices:
            if not 1 <= v <= g.n:
                return CoverReport(False, FailureKind.OUT_OF_RANGE_VERTEX, v)
            if v in in_path:
                return CoverReport(False, FailureKind.DUPLICATE_VERTEX_IN_PATH, v)
            in_path.add(v)
            if prev is not None and g.colour(prev, v) is not cover.colour:
                return CoverReport(False, FailureKind.WRONG_COLOUR_EDGE, (prev, v))
            prev = v
        covered |= in_path
    for v in range(1, g.n + 1):
        if v not in covered:
            return CoverReport(False, FailureKind.MISSING_VERTEX, v)
    return CoverReport(True)


@st.composite
def _cover_failing_first_with(draw, kind):
    """A colouring on n <= 40 and a cover whose first failure is `kind`: a
    valid cover (same-colour runs of a shuffled vertex order, some of them
    listed twice) with one defect put into it."""
    n = draw(st.integers(2, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_colouring_with(rng, n, draw(st.floats(0.05, 0.95)))
    gamma = draw(st.sampled_from((RED, BLUE)))
    paths = []
    for v in draw(st.permutations(range(1, n + 1))):
        if paths and g.colour(paths[-1][-1], v) is gamma:
            paths[-1].append(v)
        else:
            paths.append([v])
    colours = [gamma] * len(paths)
    j = draw(st.integers(0, len(paths) - 1))
    p = paths[j]
    if kind is FailureKind.NONE:
        paths += draw(st.lists(st.sampled_from(paths), max_size=3))
        colours = [gamma] * len(paths)
    elif kind is FailureKind.MISSING_VERTEX:
        del paths[j], colours[j]  # the paths are disjoint: p's vertices go missing
    elif kind is FailureKind.COLOUR_MISMATCH_ACROSS_PATHS:
        colours[j] = gamma.complement
    elif kind is FailureKind.OUT_OF_RANGE_VERTEX:
        bad = draw(st.sampled_from((-1, 0, n + 1, n + 2)))
        p.insert(draw(st.integers(0, len(p))), bad)
    elif kind is FailureKind.DUPLICATE_VERTEX_IN_PATH:
        i = draw(st.integers(1, len(p)))
        p.insert(i, p[draw(st.integers(0, i - 1))])
    else:  # WRONG_COLOUR_EDGE
        wrong = [(u, v) for u, v in iter_edges(n) if g.colour(u, v) is not gamma]
        assume(wrong)
        paths.insert(j, list(draw(st.sampled_from(wrong))))
        colours.insert(j, gamma)
    cover = PathCover(gamma, tuple(map(Path, paths, colours)), n)
    return g, cover


@st.composite
def _any_cover(draw):
    """A colouring on n <= 12 and paths of arbitrary labels and colours."""
    n = draw(st.integers(1, 12))
    g = random_colouring_with(random.Random(draw(st.integers(0, 2**32))), n)
    colour = st.sampled_from((RED, BLUE))
    path = st.builds(Path, st.lists(st.integers(-1, n + 2), max_size=6), colour)
    return g, PathCover(draw(colour), tuple(draw(st.lists(path, max_size=5))), n)


class TestValidateCoverReference:
    @pytest.mark.parametrize("kind", list(FailureKind), ids=lambda k: k.value)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_first_failure_matches_per_edge_reference(self, kind, data):
        g, cover = data.draw(_cover_failing_first_with(kind))
        want = _validate_reference(g, cover)
        assert want.failure_kind is kind
        assert validate_cover(g, cover) == want

    @given(_any_cover())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_covers_match_per_edge_reference(self, case):
        g, cover = case
        assert validate_cover(g, cover) == _validate_reference(g, cover)


class TestValidateCover:
    def g(self):
        # edges at vertex 4 red, triangle 1-2-3 blue
        return Colouring.from_function(4, lambda u, v: RED if v == 4 else BLUE)

    def test_valid_blue_plus_red(self):
        g = self.g()
        cover = PathCover(BLUE, (Path((1, 2, 3), BLUE), Path((4,), BLUE)), 4)
        report = validate_cover(g, cover)
        assert report.valid and report.failure_kind is FailureKind.NONE

    def test_overlap_between_paths_is_legal(self):
        g = self.g()
        cover = PathCover(RED, (Path((1, 4, 2), RED), Path((3, 4), RED)), 4)
        assert validate_cover(g, cover).valid

    def test_missing_vertex_reports_lowest(self):
        g = self.g()
        cover = PathCover(BLUE, (Path((3,), BLUE),), 4)
        report = validate_cover(g, cover)
        assert not report.valid
        assert report.failure_kind is FailureKind.MISSING_VERTEX
        assert report.detail == 1

    def test_duplicate_inside_path(self):
        g = self.g()
        cover = PathCover(BLUE, (Path((1, 2, 1), BLUE), Path((3, 4), BLUE)), 4)
        report = validate_cover(g, cover)
        assert report.failure_kind is FailureKind.DUPLICATE_VERTEX_IN_PATH
        assert report.detail == 1

    def test_wrong_colour_edge(self):
        g = self.g()
        cover = PathCover(RED, (Path((1, 2, 3, 4), RED),), 4)
        report = validate_cover(g, cover)
        assert report.failure_kind is FailureKind.WRONG_COLOUR_EDGE
        assert report.detail == (1, 2)

    def test_colour_mismatch_across_paths(self):
        g = self.g()
        cover = PathCover(BLUE, (Path((1, 2, 3), BLUE), Path((4,), RED)), 4)
        report = validate_cover(g, cover)
        assert report.failure_kind is FailureKind.COLOUR_MISMATCH_ACROSS_PATHS
        assert report.detail == 1  # index of the offending path

    def test_out_of_range(self):
        g = self.g()
        cover = PathCover(BLUE, (Path((1, 2, 3), BLUE), Path((9,), BLUE)), 4)
        report = validate_cover(g, cover)
        assert report.failure_kind is FailureKind.OUT_OF_RANGE_VERTEX
        assert report.detail == 9

    def test_singletons_cover(self):
        g = self.g()
        cover = PathCover(RED, tuple(Path((v,), RED) for v in range(1, 5)), 4)
        assert validate_cover(g, cover).valid
