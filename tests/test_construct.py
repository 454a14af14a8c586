import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_colourings,
    noisy_colouring,
    path_ok,
    random_colouring_with,
    red_hub,
)
from monopath.construct import (
    LongPathStructure,
    LongerPath,
    RedCliqueCertificate,
    ReductionWitness,
    SmallDegree,
    TwoPathCover,
    find_long_path_structure,
    maximal_path,
    refine_path,
    rotate_or_extend,
    two_path_cover,
)
from monopath import arith, bipartite, construct, solver
from monopath.bipartite import PreconditionViolated
from monopath.core import BLUE, RED, Colouring, GuardFailed, Path
from monopath.core import InvalidEdge, mask_vertices, validate_cover, vertex_mask
from monopath.gen import extremal, indexed_colouring, random_colouring
from monopath.solver import SolverConfig, solve


class TestTwoPathCover:
    def test_exhaustive_small(self):
        for n in range(1, 5):
            for g in all_colourings(n):
                tpc = two_path_cover(g)
                assert isinstance(tpc, TwoPathCover)
                r, b = tpc.red, tpc.blue
                assert r.colour is RED and b.colour is BLUE
                assert path_ok(g, r) and path_ok(g, b)
                assert not (set(r.vertices) & set(b.vertices))
                assert set(r.vertices) | set(b.vertices) == set(range(1, n + 1))

    def test_random_larger(self, rng):
        for _ in range(60):
            n = rng.randint(2, 120)
            g = random_colouring_with(rng, n, rng.random())
            tpc = two_path_cover(g)
            assert path_ok(g, tpc.red) and path_ok(g, tpc.blue)
            assert not (set(tpc.red.vertices) & set(tpc.blue.vertices))
            assert len(tpc.red.vertices) + len(tpc.blue.vertices) == n

    def test_monochromatic_extremes(self):
        g = Colouring.monochromatic(6, RED)
        tpc = two_path_cover(g)
        assert len(tpc.red.vertices) == 6 and len(tpc.blue.vertices) == 0


class TestMaximalPath:
    def test_output_is_maximal(self, rng):
        for _ in range(80):
            n = rng.randint(1, 40)
            g = random_colouring_with(rng, n)
            colour = RED if rng.random() < 0.5 else BLUE
            p = maximal_path(g, colour)
            assert path_ok(g, p)
            on = set(p.vertices)
            for end in (p.vertices[0], p.vertices[-1]):
                fresh = [
                    v
                    for v in range(1, n + 1)
                    if v not in on and g.colour(end, v) is colour
                ]
                assert not fresh

    def test_alive_mask_matches_induced(self, rng):
        # the path on the alive vertices is the induced sub-colouring's
        # path, mapped back to the old labels
        for _ in range(80):
            n = rng.randint(1, 30)
            g = noisy_colouring(rng, n)
            gamma = rng.choice((RED, BLUE))
            keep = rng.sample(range(1, n + 1), rng.randint(1, n))
            sub, back = g.induced(keep)
            want = tuple(back[v] for v in maximal_path(sub, gamma).vertices)
            alive = sum(1 << (v - 1) for v in keep)
            assert construct._grow(g, gamma, [], alive)[0].vertices == want

    def test_respects_seed(self):
        g = Colouring.monochromatic(5, RED)
        p = maximal_path(g, RED, seed_path=Path((3, 2), RED))
        assert {3, 2} <= set(p.vertices)
        assert len(p.vertices) == 5  # complete red graph extends to everything

    @pytest.mark.parametrize("grow", [maximal_path, refine_path])
    @pytest.mark.parametrize("seed", [(1, 9, 2), (0,), (2, 0)])
    def test_seed_vertex_outside_range(self, grow, seed):
        with pytest.raises(InvalidEdge):
            grow(Colouring.monochromatic(5, RED), RED, Path(seed, RED))

    @pytest.mark.parametrize("grow", [maximal_path, refine_path])
    def test_seed_repeating_a_vertex(self, grow):
        with pytest.raises(ValueError, match="repeats 1"):
            grow(Colouring.monochromatic(5, RED), RED, Path((1, 2, 1), RED))

    @pytest.mark.parametrize("grow", [maximal_path, refine_path])
    def test_seed_edge_of_the_other_colour(self, grow):
        g = Colouring.from_function(5, lambda u, v: BLUE if {u, v} == {2, 3} else RED)
        with pytest.raises(ValueError, match="into 3 is not red"):
            grow(g, RED, Path((1, 2, 3), RED))


def _two_path_cover_by_colour(g):
    """two_path_cover with one Colouring.colour query per edge test."""
    red, blue = [], []
    for v in range(1, g.n + 1):
        if red and g.colour(red[-1], v) is RED:
            red.append(v)
        elif blue and g.colour(blue[-1], v) is BLUE:
            blue.append(v)
        elif not red:
            red.append(v)
        elif not blue:
            blue.append(v)
        else:
            x, y = red[-1], blue[-1]
            if g.colour(x, y) is RED:
                blue.pop()
                red.append(y)
                red.append(v)
            else:
                red.pop()
                blue.append(x)
                blue.append(v)
    return TwoPathCover(Path(tuple(red), RED), Path(tuple(blue), BLUE))


def _grow_alternating(g, gamma, verts, free):
    """construct._grow as one loop that looks up both ends through g.mask
    after every step, trying the right end first."""
    if not verts:
        low = free & -free
        verts, free = [low.bit_length()], free ^ low
    grown = True
    while grown:
        grown = False
        cand = g.mask(verts[-1], gamma) & free
        if cand:
            w = (cand & -cand).bit_length()
            verts.append(w)
            free ^= 1 << (w - 1)
            grown = True
            continue
        cand = g.mask(verts[0], gamma) & free
        if cand:
            w = (cand & -cand).bit_length()
            verts.insert(0, w)
            free ^= 1 << (w - 1)
            grown = True
    return Path(tuple(verts), gamma), free


def _grow_rotate_dict(adj, start):
    """bipartite._grow_rotate over an adjacency dict keyed by vertex, taking
    the complement of the used mask at every step and copying the path at
    every rotation."""
    path = [start]
    used = 1 << (start - 1)
    flipped_once = False
    while True:
        tail = path[-1]
        cand = adj[tail] & ~used
        if cand:
            w = (cand & -cand).bit_length()
            path.append(w)
            used |= 1 << (w - 1)
            flipped_once = False
            continue
        rotated = False
        on_path = adj[tail] & used
        for i in range(len(path) - 2):
            if not on_path & (1 << (path[i] - 1)):
                continue
            pivot = path[i + 1]
            if adj[pivot] & ~used:
                path = path[: i + 1] + path[i + 1 :][::-1]
                rotated = True
                break
        if rotated:
            continue
        if not flipped_once:
            path.reverse()
            flipped_once = True
            continue
        return path


def _best_greedy_dict(adj, verts):
    """bipartite._best_greedy over an adjacency dict keyed by vertex."""
    starts = [v for v in verts if adj[v]]
    if not starts:
        return [verts[0]] if verts else []
    return _grow_rotate_dict(adj, starts[0])


def _rotate_or_extend_full_scan(g, path, y, degree_bound=None, pmask=None):
    """rotate_or_extend listing all of B's positions before it looks for
    two consecutive ones."""
    p = path.vertices
    gamma = path.colour
    if pmask is None:
        pmask = vertex_mask(p)
    if pmask >> (y - 1) & 1:
        raise ValueError(f"{y} already on the path")
    bmask = g.mask(y, gamma) & pmask
    if not bmask:
        return SmallDegree(0)
    if bmask & (1 << (p[0] - 1)):
        return LongerPath(Path((y, *p), gamma))
    if bmask & (1 << (p[-1] - 1)):
        return LongerPath(Path((*p, y), gamma))
    bits = format(bmask, f"0{g.n}b")[::-1]
    bpos = [i for i, v in enumerate(p) if bits[v - 1] == "1"]
    for a, b in zip(bpos, bpos[1:]):
        if b == a + 1:
            return LongerPath(Path((*p[: a + 1], y, *p[a + 1 :]), gamma))
    preds = [i - 1 for i in bpos]
    later = vertex_mask(p[i] for i in preds)
    for ai, i in enumerate(preds):
        later ^= 1 << (p[i] - 1)
        hit = g.mask(p[i], gamma) & later
        if hit:
            j = next(j for j in preds[ai + 1 :] if hit >> (p[j] - 1) & 1)
            verts = (*p[: i + 1], *p[i + 1 : j + 1][::-1], y, *p[j + 1 :])
            return LongerPath(Path(verts, gamma))
    if degree_bound is not None and len(bpos) > degree_bound:
        return RedCliqueCertificate(tuple(sorted(p[i] for i in preds)))
    return SmallDegree(len(bpos))


@st.composite
def _colouring_and_colour(draw, least=1):
    """A colouring on least..130 vertices, so masks of more than one machine
    word, of drawn density, and a colour."""
    n = draw(st.integers(least, 130))
    g = random_colouring_with(random.Random(draw(st.integers(0, 2**32))), n,
                              draw(st.floats(0, 1)))
    return g, draw(st.sampled_from((RED, BLUE)))


@st.composite
def _bipartite_sides(draw):
    """A bipartite graph on 1..n, n <= 60, split into two drawn sides, with
    each cross pair an edge with a drawn probability of at least 0.8 (1:
    complete bipartite), so that grow-and-rotate often spans it.  n = 1 is
    the single vertex, whose path spans from the start."""
    n = draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from((1.0, 1.0, 0.95, 0.8)))
    xs = set(rng.sample(range(1, n + 1), draw(st.integers(0, n))))
    adj = {v: 0 for v in range(1, n + 1)}
    for x in xs:
        for y in adj.keys() - xs:
            if rng.random() < p:
                adj[x] |= 1 << (y - 1)
                adj[y] |= 1 << (x - 1)
    return adj


@st.composite
def _adjacency(draw):
    """One colour class as an adjacency dict keyed by vertex and as the rows
    list bipartite's path search reads: either its edges between two drawn
    halves q and w, as the pipeline's probe reads them, or all of it."""
    g, gamma = draw(_colouring_and_colour(least=2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        order = rng.sample(range(1, g.n + 1), g.n)
        half = g.n // 2
        q, w = order[:half], sorted(order[half : 2 * half])
        qmask, wmask = vertex_mask(q), vertex_mask(w)
        adj = {v: g.mask(v, gamma) & wmask for v in q}
        adj.update((v, g.mask(v, gamma) & qmask) for v in w)
    else:
        adj = {v: g.mask(v, gamma) for v in range(1, g.n + 1)}
    return adj, [adj.get(v, 0) for v in range(1, g.n + 1)]


@st.composite
def _rotation_case(draw):
    """A colouring, a gamma path and a vertex y off it.  Unless `free_ends`,
    y's edges to the path's ends are recoloured to the other colour, so the
    scan for B's positions runs; with `apart`, so is every edge from y to a
    path vertex whose predecessor is in B, so B has no two consecutive
    members and the scan reads the whole path."""
    g, gamma = draw(_colouring_and_colour(least=2))
    order = draw(st.permutations(range(1, g.n + 1)))
    size = draw(st.integers(1, g.n - 1))
    p, y = order[:size], order[size]
    other = gamma.complement
    if not draw(st.booleans()):  # free_ends
        for end in {p[0], p[-1]}:
            g = g.with_edge(y, end, other)
    if draw(st.booleans()):  # apart
        for prev, v in zip(p, p[1:]):
            if g.colour(y, prev) is gamma and g.colour(y, v) is gamma:
                g = g.with_edge(y, v, other)
    return g, Path(tuple(p), gamma), y


def _assert_path_search_matches(adj, rows, data):
    """bipartite's greedy path search on rows equals the dict loops on adj,
    for the best greedy path and from three drawn starts."""
    verts = sorted(adj)
    assert bipartite._best_greedy(rows, verts) == _best_greedy_dict(adj, verts)
    starts = data.draw(st.lists(st.sampled_from(verts), min_size=3, max_size=3))
    for start in starts:
        assert bipartite._grow_rotate(rows, start) == _grow_rotate_dict(adj, start)


class TestKernelReferences:
    """The rewritten kernels against the loops they replaced."""

    @given(_colouring_and_colour(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_grow_matches_alternating_ends(self, case, data):
        g, gamma = case
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        start = rng.sample(range(1, g.n + 1), rng.choice((0, 1, rng.randint(0, g.n))))
        free = rng.getrandbits(g.n) & ~vertex_mask(start)
        if not start:
            free |= 1 << rng.randrange(g.n)  # the start is free's lowest vertex
        want = _grow_alternating(g, gamma, list(start), free)
        assert construct._grow(g, gamma, list(start), free) == want

    @given(_adjacency(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_grow_rotate_matches_dict_reference(self, case, data):
        adj, rows = case
        _assert_path_search_matches(adj, rows, data)

    @given(_bipartite_sides(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_grow_rotate_matches_dict_reference_when_spanning(self, adj, data):
        _assert_path_search_matches(adj, [adj[v] for v in range(1, len(adj) + 1)], data)

    @pytest.mark.parametrize(
        "rows, start, want",
        [
            ([0], 1, [1]),  # a single vertex spans from the start
            ([0b10, 0b101, 0b10], 1, [3, 2, 1]),  # spans before any flip
            ([0b10, 0b101, 0b10], 2, [3, 2, 1]),  # spans after one flip
        ],
    )
    def test_spanning_path_ends_as_the_reference(self, rows, start, want):
        adj = {v: row for v, row in enumerate(rows, 1)}
        assert bipartite._grow_rotate(rows, start) == _grow_rotate_dict(adj, start) == want

    @given(_colouring_and_colour())
    @settings(max_examples=100, deadline=None)
    def test_two_path_cover_matches_colour_queries(self, case):
        g, _ = case
        assert two_path_cover(g) == _two_path_cover_by_colour(g)

    @given(_rotation_case(), st.sampled_from((None, 0, 1, 2, 4)))
    @settings(max_examples=200, deadline=None)
    def test_rotate_or_extend_matches_full_scan(self, case, bound):
        g, path, y = case
        want = _rotate_or_extend_full_scan(g, path, y, bound)
        assert rotate_or_extend(g, path, y, bound) == want
        pmask = vertex_mask(path.vertices)
        assert rotate_or_extend(g, path, y, bound, pmask) == want


def _blue_except(n, red_pairs):
    pairs = {frozenset(p) for p in red_pairs}
    return Colouring.from_function(
        n, lambda u, v: RED if frozenset((u, v)) in pairs else BLUE
    )


def _rotate_or_extend_pairwise(g, path, y, degree_bound=None):
    """rotate_or_extend with the chord search as a loop over predecessor
    pairs, one colour query each: the reference for the mask version."""
    p = list(path.vertices)
    gamma = path.colour
    if y in p:
        raise ValueError(f"{y} already on the path")
    bpos = [i for i, v in enumerate(p) if g.colour(y, v) is gamma]
    if not bpos:
        return SmallDegree(0)
    if bpos[0] == 0:
        return LongerPath(Path((y, *p), gamma))
    if bpos[-1] == len(p) - 1:
        return LongerPath(Path((*p, y), gamma))
    for a, b in zip(bpos, bpos[1:]):
        if b == a + 1:
            return LongerPath(Path((*p[: a + 1], y, *p[a + 1 :]), gamma))
    preds = [i - 1 for i in bpos]
    for ai in range(len(preds)):
        for bi in range(ai + 1, len(preds)):
            if g.colour(p[preds[ai]], p[preds[bi]]) is gamma:
                i, j = preds[ai], preds[bi]
                verts = (*p[: i + 1], *p[i + 1 : j + 1][::-1], y, *p[j + 1 :])
                return LongerPath(Path(verts, gamma))
    if degree_bound is not None and len(bpos) > degree_bound:
        return RedCliqueCertificate(tuple(sorted(p[i] for i in preds)))
    return SmallDegree(len(bpos))


class TestRotateOrExtend:
    def test_matches_pairwise_chord_reference(self, rng):
        # random vertex sequences reach every exit; maximal paths make the
        # chord search and the certificate common
        for _ in range(300):
            n = rng.randint(2, 30)
            g = noisy_colouring(rng, n)
            gamma = rng.choice((RED, BLUE))
            if rng.random() < 0.5:
                path = Path(rng.sample(range(1, n + 1), rng.randint(1, n - 1)), gamma)
            else:
                path = maximal_path(g, gamma, Path((rng.randint(1, n),), gamma))
            bound = rng.choice((None, 0, 1, 2, 4))
            on = set(path.vertices)
            for y in range(1, n + 1):
                if y not in on:
                    got = rotate_or_extend(g, path, y, bound)
                    assert got == _rotate_or_extend_pairwise(g, path, y, bound)

    def test_endpoint_extension(self):
        g = Colouring.monochromatic(5, BLUE)
        out = rotate_or_extend(g, Path((1, 2, 3, 4), BLUE), 5)
        assert isinstance(out, LongerPath)
        assert out.path.vertices in ((5, 1, 2, 3, 4), (1, 2, 3, 4, 5))
        assert path_ok(g, out.path)

    def test_consecutive_insertion(self):
        # y=5 blue to 2 and 3 only
        g = _blue_except(5, [(1, 5), (4, 5), (1, 3), (2, 4), (1, 4)])
        out = rotate_or_extend(g, Path((1, 2, 3, 4), BLUE), 5)
        assert isinstance(out, LongerPath)
        assert out.path.vertices == (1, 2, 5, 3, 4)
        assert path_ok(g, out.path)

    def test_rotation_surgery(self):
        # y=7 blue to interior 3 and 5; their predecessors 2, 4 joined blue
        g = _blue_except(7, [(1, 7), (2, 7), (4, 7), (6, 7)])
        out = rotate_or_extend(g, Path((1, 2, 3, 4, 5, 6), BLUE), 7)
        assert isinstance(out, LongerPath)
        q = out.path
        assert len(q.vertices) == 7 and set(q.vertices) == set(range(1, 8))
        assert path_ok(g, q)

    def test_certificate_when_degree_bound_hit(self):
        # same shape but the predecessor chord 2-4 is red: no surgery, and
        # |B| = 2 exceeds the bound, so the red clique pops out
        g = _blue_except(7, [(1, 7), (2, 7), (4, 7), (6, 7), (2, 4)])
        out = rotate_or_extend(g, Path((1, 2, 3, 4, 5, 6), BLUE), 7, degree_bound=1)
        assert isinstance(out, RedCliqueCertificate)
        assert out.vertices == (2, 4)
        for i, u in enumerate(out.vertices):
            for v in out.vertices[i + 1 :]:
                assert g.colour(u, v) is RED

    def test_small_degree_report(self):
        g = _blue_except(7, [(1, 7), (2, 7), (4, 7), (6, 7), (2, 4)])
        out = rotate_or_extend(g, Path((1, 2, 3, 4, 5, 6), BLUE), 7, degree_bound=5)
        assert isinstance(out, SmallDegree)
        assert out.degree == 2  # blue to 3 and 5 only

    def test_no_neighbours_on_path(self):
        g = _blue_except(4, [(1, 4), (2, 4), (3, 4)])
        out = rotate_or_extend(g, Path((1, 2, 3), BLUE), 4)
        assert out == SmallDegree(0)

    def test_rejects_vertex_on_path(self):
        g = Colouring.monochromatic(4, BLUE)
        with pytest.raises(ValueError):
            rotate_or_extend(g, Path((1, 2, 3), BLUE), 2)

    @pytest.mark.parametrize("y", [0, -1, 5])
    def test_rejects_vertex_outside_range(self, y):
        g = Colouring.monochromatic(4, BLUE)
        with pytest.raises(InvalidEdge):
            rotate_or_extend(g, Path((1, 2, 3), BLUE), y)


def _refine_path_uncached(g, gamma, seed_path=None, bound=None):
    """refine_path without the memo: one rotate_or_extend call per outside
    vertex on every scan of the path."""
    p = maximal_path(g, gamma, seed_path)
    everyone = (1 << g.n) - 1
    while True:
        degs = {}
        for y in mask_vertices(everyone & ~vertex_mask(p.vertices)):
            res = rotate_or_extend(g, p, y, bound)
            if isinstance(res, LongerPath):
                p = maximal_path(g, gamma, res.path)
                break
            if isinstance(res, RedCliqueCertificate):
                return p, res
            degs[y] = res.degree
        else:
            return p, degs


class TestRefinePath:
    def test_memo_matches_uncached_reference(self, rng):
        for _ in range(300):
            g = noisy_colouring(rng, rng.randint(2, 60))
            for gamma in (RED, BLUE):
                for seed in (None, maximal_path(g, gamma)):
                    for bound in (None, 0, 2, 4):
                        want = _refine_path_uncached(g, gamma, seed, bound)
                        assert refine_path(g, gamma, seed, bound) == want

    @pytest.mark.parametrize(
        "g", [red_hub(400, 361), extremal(400)], ids=["red_hub", "extremal"]
    )
    def test_one_rotation_per_distinct_neighbourhood(self, monkeypatch, g):
        # every outside vertex sees the same hub on the path, so the scan
        # makes one rotate_or_extend call; without the memo it made 319 on
        # the red hub and 361 on extremal(400)
        calls = []
        real = construct.rotate_or_extend

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(construct, "rotate_or_extend", counted)
        p, outcome = refine_path(g, RED)
        assert len(calls) == 1
        assert path_ok(g, p) and len(outcome) == g.n - len(p.vertices)

    def test_path_masks_are_not_rebuilt(self, monkeypatch):
        # every rotation here is a LongerPath; rebuilding the path's mask in
        # refine_path, rotate_or_extend and the regrow after each one made
        # 115 vertex_mask calls over more than 75 vertices
        g = random_colouring(300, 0.1, 1)
        rotations, long_masks = [], []
        rotate, mask = construct.rotate_or_extend, construct.vertex_mask

        def counted_rotate(*args):
            rotations.append(args[2])
            return rotate(*args)

        def counted_mask(vertices):
            vertices = list(vertices)
            if len(vertices) > 75:
                long_masks.append(len(vertices))
            return mask(vertices)

        monkeypatch.setattr(construct, "rotate_or_extend", counted_rotate)
        monkeypatch.setattr(construct, "vertex_mask", counted_mask)
        p, outcome = refine_path(g, RED)
        assert len(rotations) == 38 and len(long_masks) <= 1
        monkeypatch.undo()
        assert path_ok(g, p) and isinstance(outcome, dict)

    def test_chord_search_makes_no_colour_queries(self, monkeypatch):
        # the red hub on 361..400 rotates through long predecessor lists; the
        # pairwise chord search asked for 248,820 edge colours here
        g = red_hub(400, 361)
        calls = []
        real = Colouring.colour

        def counted(self, u, v):
            calls.append((u, v))
            return real(self, u, v)

        monkeypatch.setattr(Colouring, "colour", counted)
        p, outcome = refine_path(g, RED)
        assert calls == []
        monkeypatch.undo()
        assert path_ok(g, p) and isinstance(outcome, dict)

    def test_leftover_degrees_are_accurate(self, rng):
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_colouring_with(rng, n)
            p, outcome = refine_path(g, BLUE)
            assert path_ok(g, p)
            assert isinstance(outcome, dict)  # no bound, so no certificates
            on = set(p.vertices)
            assert set(outcome) == set(range(1, n + 1)) - on
            for y, d in outcome.items():
                actual = sum(1 for w in p.vertices if g.colour(y, w) is BLUE)
                assert actual == d

    def test_full_span_on_monochromatic(self):
        g = Colouring.monochromatic(8, BLUE)
        p, outcome = refine_path(g, BLUE)
        assert len(p.vertices) == 8
        assert outcome == {}

    def test_certificate_mode(self, rng):
        # a tight bound forces either a certificate or small-degree exits
        for _ in range(40):
            n = rng.randint(4, 30)
            g = random_colouring_with(rng, n)
            p, outcome = refine_path(g, BLUE, bound=2)
            assert path_ok(g, p)
            if isinstance(outcome, RedCliqueCertificate):
                vs = outcome.vertices
                assert len(vs) >= 2
                for i, u in enumerate(vs):
                    for v in vs[i + 1 :]:
                        assert g.colour(u, v) is RED
            else:
                assert all(d <= 2 for d in outcome.values())


def _check_structure(g, s: LongPathStructure, slack):
    assert path_ok(g, s.path)
    pset = set(s.path.vertices)
    assert set(s.y_degrees) == set(range(1, g.n + 1)) - pset
    bound = arith.floor_of_coeff_sqrt(2 * (slack + 1), g.n)
    for y in s.y_degrees:
        d = sum(1 for w in s.path.vertices if g.colour(y, w) is s.path.colour)
        assert d <= bound
        assert s.y_degrees[y] == d


def _check_witness(g, w: ReductionWitness):
    """The witness's paths cover S in each colour, and it meets what
    solver.reduce trusts (ReductionWitness): S leaves a vertex out and
    sqrt(n - |S|) + k <= sqrt(n)."""
    sset = set(w.S)
    assert sset and len(sset) < g.n
    assert arith.reduce_guard(g.n, len(sset), 0, w.k)
    for fam, colour in ((w.red_paths, RED), (w.blue_paths, BLUE)):
        assert fam
        covered = set()
        for p in fam:
            assert p.colour is colour
            assert path_ok(g, p)
            covered |= set(p.vertices)
        assert sset <= covered
    assert w.k == max(len(w.red_paths), len(w.blue_paths))


RED_RAMSEY_25 = int(
    "8c65248809037e5f99f240f207481c4bc72fc5481c72071240a2240a30df8e5c81c619038c2", 16
)


# the mirror case of RED_RAMSEY_25: the two-path cover's long path is blue
# and the exact search finds a red path; found by relabelling that
# instance's q-w pattern, with colours swapped, so that the two-path cover
# puts q first on a blue path
BLUE_RAMSEY_25 = int(
    "2515006b0223094bcd4e481118209466114009bbfefff739dcff9deefdeffb83bfce28fe7c0", 16
)


def _long_colour(g):
    """The colour of the two-path cover's longer path, blue on ties."""
    tpc = two_path_cover(g)
    return BLUE if len(tpc.blue.vertices) >= len(tpc.red.vertices) else RED


# no base strategy finds a one-path cover of this colouring, and the bounded
# pipeline's ramsey_path searches exactly
MULTI_PATH_BASE_26 = int(
    "3f42fe0502bbf814a1480a4ffffff7ffffffffffffff8148bfffffc0a47d0291d40523680523ea", 16
)


class TestFindLongPathStructure:
    def test_extremal_gives_structure(self):
        for n in (9, 16, 25, 49, 100):
            g = extremal(n)
            out = find_long_path_structure(g, 0.0)
            assert isinstance(out, LongPathStructure)
            _check_structure(g, out, 0.0)
            # the blue clique spans A, so Y is exactly the red hub set B
            assert len(out.y_degrees) == math.isqrt(n) - 1

    def test_random_instances_sound(self, rng):
        structures = witnesses = 0
        for _ in range(60):
            n = rng.randint(2, 60)
            g = random_colouring_with(rng, n, rng.random())
            try:
                out = find_long_path_structure(g, 0.0)
            except GuardFailed:
                continue
            if isinstance(out, LongPathStructure):
                structures += 1
                _check_structure(g, out, 0.0)
            else:
                witnesses += 1
                _check_witness(g, out)
        assert structures  # the common exit at these sizes

    def test_clique_certificate_becomes_the_witness(self):
        # refine_path meets an outside vertex with more path neighbours than
        # its bound and no rotation: their predecessors form the witness S
        g = Colouring.hub(20, {1, 3, 4, 11, 12, 15, 17, 18, 19})
        out = find_long_path_structure(g, 0.0)
        assert isinstance(out, ReductionWitness)
        assert out.S == (2, 5, 6, 7, 8, 9, 10, 13, 16)
        assert out.blue_paths == (Path(out.S, BLUE),)  # the clique itself
        _check_witness(g, out)

    def test_stripping_step_guard(self):
        # a red star at 1: unseeded, refine_path starts at vertex 1, which
        # has no blue edge, so the path stays (1,) with 36 vertices outside;
        # too many for the structure, and |X| = 1 < |Y| + 2m for the strip
        g = Colouring.hub(37, [1])
        with pytest.raises(PreconditionViolated) as err:
            find_long_path_structure(g, 0.5)
        assert err.value.condition == "|X| >= |Y| + 2m"

    def test_stripping_step_strips_nothing(self):
        # the red hub on 428..568: the stripping step's preconditions hold
        # with |X| = 427 = |Y| + 2m exactly (|Y| = 141, m = 143), so
        # decompose makes no pass
        with pytest.raises(GuardFailed) as err:
            find_long_path_structure(red_hub(568, 428), 2.0)
        assert str(err.value) == "stripping step produced no paths"

    def test_stripping_step_success(self, monkeypatch):
        # the red hub on 457..600: the blue clique is the long path, its 144
        # outside vertices are too many for the structure, and one stripping
        # pass (|X| = 456, |Y| = 144, m = 147) covers 144 path vertices
        g = red_hub(600, 457)
        passes = []
        real = construct.decompose
        monkeypatch.setattr(
            construct, "decompose", lambda v: passes.append(v.m) or real(v)
        )
        out = find_long_path_structure(g, 2.0)
        assert passes == [147]
        assert isinstance(out, ReductionWitness)
        assert len(out.red_paths) == 1 and len(out.S) == 144
        _check_witness(g, out)

    def test_exact_ramsey_red_path_is_the_witness(self, monkeypatch):
        # found by fuzzing n = 16..29, where ramsey_path may search exactly:
        # the probe's greedy red path is too short, the exact search finds
        # one of k = 2t - 1 = 19 edges, and it holds t = 10 vertices of q
        g = indexed_colouring(25, RED_RAMSEY_25)
        outcomes = []
        real = construct.ramsey_path
        monkeypatch.setattr(
            construct,
            "ramsey_path",
            lambda v, k, l: outcomes.append(real(v, k, l)) or outcomes[-1],
        )
        out = find_long_path_structure(g, 0.0)
        # the two-path cover's long path is red, so the view and the path
        # ramsey_path finds in it are blue
        assert [o.colour for o in outcomes] == [BLUE]
        assert isinstance(out, ReductionWitness) and len(out.S) == 10
        assert out.blue_paths == (outcomes[0].path,)
        _check_witness(g, out)

    def test_clique_certificate_with_a_blue_long_path(self):
        # the colours of the hub instance above swapped: now the long path
        # is blue and the clique certificate red
        g = Colouring.hub(20, {1, 3, 4, 11, 12, 15, 17, 18, 19}).flipped()
        assert _long_colour(g) is BLUE
        out = find_long_path_structure(g, 0.0)
        assert isinstance(out, ReductionWitness)
        assert out.S == (2, 5, 6, 7, 8, 9, 10, 13, 14)
        assert out.red_paths == (Path(out.S, RED),)  # the clique itself
        _check_witness(g, out)

    def test_stripping_step_with_a_red_long_path(self, monkeypatch):
        # red_hub(600, 457) with its colours swapped: the long path is the
        # red clique and the one stripping pass is blue
        g = red_hub(600, 457).flipped()
        assert _long_colour(g) is RED
        passes = []
        real = construct.decompose
        monkeypatch.setattr(
            construct, "decompose", lambda v: passes.append(v.m) or real(v)
        )
        out = find_long_path_structure(g, 2.0)
        assert passes == [147]
        assert isinstance(out, ReductionWitness)
        assert len(out.blue_paths) == 1 and len(out.S) == 144
        _check_witness(g, out)

    def test_exact_ramsey_path_with_a_blue_long_path(self, monkeypatch):
        # the exact search in the red view finds a red path of 19 edges,
        # which holds t = 10 vertices of q
        g = indexed_colouring(25, BLUE_RAMSEY_25)
        assert _long_colour(g) is BLUE
        outcomes = []
        real = construct.ramsey_path
        monkeypatch.setattr(
            construct,
            "ramsey_path",
            lambda v, k, l: outcomes.append(real(v, k, l)) or outcomes[-1],
        )
        out = find_long_path_structure(g, 0.0)
        assert [o.colour for o in outcomes] == [RED]
        assert isinstance(out, ReductionWitness) and len(out.S) == 10
        assert out.red_paths == (outcomes[0].path,)
        _check_witness(g, out)

    def test_ramsey_path_without_an_exact_path_is_typed(self, monkeypatch):
        # a search that finds neither target ends in CannotCertify, which
        # the pipeline catches, so solve still returns a cover; no base cover
        # is a single path here, so the bounded pipeline runs
        searches = []
        monkeypatch.setattr(
            bipartite, "_exact_path", lambda *args: searches.append(args) and None
        )
        g = indexed_colouring(26, MULTI_PATH_BASE_26)
        res = solve(g, SolverConfig(1.0, 0.0, 1.0))
        assert validate_cover(g, res.cover).valid
        assert searches
        assert "bounded:y0-exit" in res.branch_trace

    def test_dp_must_be_positive(self):
        with pytest.raises(ValueError):
            find_long_path_structure(extremal(9), -2.0)

    @pytest.mark.parametrize("slack", [math.inf, -math.inf, math.nan], ids=str)
    def test_non_finite_slack_is_a_value_error(self, slack):
        # at n = 20 an infinite slack used to reach Fraction and raise
        # OverflowError, and nan an unlabelled ValueError
        with pytest.raises(ValueError, match=f"finite coefficient, got {slack}$"):
            find_long_path_structure(extremal(20), slack)

    def test_all_vertices_on_path_shortcut(self):
        g = Colouring.monochromatic(12, BLUE)
        out = find_long_path_structure(g, 0.0)
        assert isinstance(out, LongPathStructure)
        assert not out.y_degrees and len(out.path.vertices) == 12

    def test_every_witness_passes_the_slack_0_reduce_guard(self):
        # the proof in ReductionWitness's docstring, on noisy colourings at
        # four slacks and on a strip witness of two passes: the red hub on
        # 739..900 at slack 2 has |X| = 738, |Y| = 162 and m = 180
        rng = random.Random(2801)
        cases = [(noisy_colouring(rng, rng.randint(16, 80)), slack)
                 for _ in range(100) for slack in (0, 0.5, 1, 2)]
        cases.append((red_hub(900, 739), 2))
        ks = []
        for g, slack in cases:
            try:
                out = find_long_path_structure(g, slack)
            except (GuardFailed, PreconditionViolated):
                continue
            if isinstance(out, ReductionWitness):
                _check_witness(g, out)
                ks.append(out.k)
        assert ks[-1] == 2 and len(ks) > 50

    def test_strip_witness_inequality_is_exact(self):
        # the strip case of the proof over every admissible (n, |Y|): the
        # structure test turns Y away, |Y| > sqrt(n) + 8 dp n**(1/4), and
        # |X| = n - |Y| > |Y| + 2m, so j = ceil((|X| - |Y| - 2m)/|Y|) passes
        # cover |S| = j|Y|; then reduce_guard(n, j|Y|, 0, j) in integers
        for dp in (1, Fraction(3, 2), 2, 3):
            for n in range(2, 501):
                m = arith.ceil_of_coeff_sqrt(2 * dp, n)
                lo = int(n**0.5 + 8 * dp * n**0.25)  # the float guess, then exact
                while lo > 0 and not arith.le_sqrt_plus_quartic(lo - 1, n, 8 * dp):
                    lo -= 1
                while arith.le_sqrt_plus_quartic(lo, n, 8 * dp):
                    lo += 1
                for y in range(lo, (n - 2 * m + 1) // 2):
                    j = -(-(n - 2 * y - 2 * m) // y)
                    assert j * j <= n and 4 * j * j * n <= (j * y + j * j) ** 2

    def test_large_random_zero_constants(self, big_random_5000):
        # slow: n = 5000, the regime where the slack = 0 guard admits input
        g, slack = big_random_5000, 0.0
        out = find_long_path_structure(g, slack)
        if isinstance(out, LongPathStructure):
            assert path_ok(g, out.path)
            on = 0
            for w in out.path.vertices:
                on |= 1 << (w - 1)
            assert set(out.y_degrees) == set(range(1, g.n + 1)) - set(out.path.vertices)
            bound = arith.floor_of_coeff_sqrt(2 * (slack + 1), g.n)
            for y in out.y_degrees:
                d = (g.mask(y, out.path.colour) & on).bit_count()
                assert d == out.y_degrees[y]
                assert d <= bound
        else:
            _check_witness(g, out)


class TestProbe:
    """long_path_pipeline builds the probe (construct._best_greedy over the
    q x w opposite-colour edges) at most once per head, and only for a tail
    whose target t = ceil(2(slack + 1) sqrt(n)) is at most n // 2."""

    @staticmethod
    def _count(monkeypatch):
        """The n of each probe run, and per pipeline head its n and the
        targets of the tails run on it."""
        probes, heads = [], []
        real_probe, real_head = construct._best_greedy, solver.long_path_pipeline

        def probe(adj, verts):
            probes.append(len(adj))
            return real_probe(adj, verts)

        def head(g, refined):
            tail, targets = real_head(g, refined), []
            heads.append((g.n, targets))

            def counted(slack):
                targets.append(arith.ceil_of_coeff_sqrt(2 * (slack + 1), g.n))
                return tail(slack)

            return counted

        monkeypatch.setattr(construct, "_best_greedy", probe)
        monkeypatch.setattr(solver, "long_path_pipeline", head)
        return probes, heads

    def test_default_constants_never_build_it(self, monkeypatch):
        # the sqrt step's t exceeds n: the hub's pipeline runs, its probe not
        probes, heads = self._count(monkeypatch)
        res = solve(red_hub(300, 283))
        assert res.branch_trace[0] == "sqrt:decompose"
        assert [n for n, _ in heads] == [300] and probes == []

    @pytest.mark.parametrize(
        "first, n, reading",
        [(457, 600, [600, 456, 311, 455, 311]), (10, 15, [])],
        ids=["in-reach", "out-of-reach"],
    )
    def test_once_per_head_that_can_read_it(self, monkeypatch, first, n, reading):
        # under (2, 0, 2) the sqrt step and the bounded pipeline both run a
        # tail on the top head: at n = 600 both targets are in reach (147 and
        # 49 <= 300), and so are those of reduce's heads; at n = 15 neither
        # is (24 and 8 > 7)
        probes, heads = self._count(monkeypatch)
        solve(red_hub(n, first), SolverConfig(2.0, 0.0, 2.0))
        assert len(heads[0][1]) == 2
        assert [m for m, ts in heads if min(ts) <= m // 2] == reading
        assert probes == reading
