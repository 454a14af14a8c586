import hashlib
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    alternating_in_view,
    bip_colour_adjacency,
    from_int,
    random_colouring_with,
    has_mono_path_with_edges,
    long_path_instance,
    decompose_instance,
    decompose_full_instance,
    _view,
)
from monopath import bipartite
from monopath.bipartite import (
    BipartiteView,
    CannotCertify,
    DegreeClasses,
    EmptyY,
    EqualLengths,
    PreconditionViolated,
    RamseyOutcome,
    SidesTooSmall,
    decompose,
    decompose_full,
    long_path,
    ramsey_path,
)
from monopath.core import BLUE, RED, Colouring, Path, mask_vertices, vertex_mask


class TestView:
    def test_sorts_and_freezes(self):
        v = BipartiteView((3, 1), (5, 4), {4: 0b1, 5: 0})
        assert v.X == (1, 3) and v.Y == (4, 5)
        assert v.xmask == 0b101  # vertex_mask(X), which the operations read
        assert v.degree(4) == 1 and v.degree(5) == 0

    def test_rejects_overlap_and_stray_keys(self):
        with pytest.raises(ValueError):
            BipartiteView((1, 2), (2, 3), {2: 0, 3: 0})
        with pytest.raises(ValueError):
            BipartiteView((1,), (2,), {9: 0})
        with pytest.raises(ValueError):
            BipartiteView((1,), (2,), {2: 0b10})
        with pytest.raises(ValueError):
            BipartiteView((1,), (2,), {2: 0}, m=-1)

    def test_from_colouring_picks_colour_class(self):
        g = Colouring.from_function(4, lambda u, v: RED if u == 1 else BLUE)
        v = BipartiteView.from_colouring(g, [1, 2], [3, 4], RED)
        assert v.adjacency[3] == 0b1 and v.adjacency[4] == 0b1
        w = BipartiteView.from_colouring(g, [1, 2], [3, 4], BLUE)
        assert w.adjacency[3] == 0b10 and w.adjacency[4] == 0b10

    def test_from_colouring_adjacency_is_masks(self, rng):
        g = random_colouring_with(rng, 12)
        v = BipartiteView.from_colouring(g, range(1, 7), range(7, 13), BLUE, m=1)
        for y in v.Y:
            assert type(v.adjacency[y]) is int
            assert v.adjacency[y] == vertex_mask(
                x for x in v.X if g.colour(x, y) is BLUE
            )


class TestDegreeClasses:
    def test_split(self):
        v = _view(3, 2, {4: {1, 2, 3}, 5: {1, 2}})
        cl = DegreeClasses.from_view(v)
        assert cl.x0 == (1, 2)  # x3 misses y5
        assert cl.x1 == (3,)
        assert cl.y0 == (4,)
        assert cl.y1 == (5,)

    def test_complete_graph_all_full(self):
        v = _view(3, 2, {4: {1, 2, 3}, 5: {1, 2, 3}})
        cl = DegreeClasses.from_view(v)
        assert not cl.x1 and not cl.y1


class TestLongPath:
    def test_rejects_empty_y_and_low_degree(self):
        with pytest.raises(EmptyY):
            long_path(_view(3, 0, {}))
        v = _view(4, 2, {5: {1}, 6: {1, 2, 3, 4}})
        with pytest.raises(PreconditionViolated):
            long_path(v)

    def test_exact_cover_of_y(self):
        rng = random.Random(22)
        for _ in range(400):
            v = long_path_instance(rng, max_side=18)
            p = long_path(v)
            assert len(p.vertices) == 2 * len(v.Y)
            assert alternating_in_view(v, p)
            assert set(v.Y) <= set(p.vertices)
            # built x-first, so odd positions are X and even are Y
            assert all(w in set(v.X) for w in p.vertices[::2])

    def test_deterministic(self):
        rng1, rng2 = random.Random(5), random.Random(5)
        v1, v2 = long_path_instance(rng1), long_path_instance(rng2)
        assert long_path(v1) == long_path(v2)


class TestDecompose:
    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            decompose(_view(3, 0, {}, m=0))
        with pytest.raises(PreconditionViolated):
            decompose(_view(3, 2, {4: {1, 2, 3}, 5: {1, 2, 3}}, m=1))  # |X| < |Y|+2m
        v = _view(8, 2, {9: {1}, 10: set(range(1, 9))}, m=1)
        with pytest.raises(PreconditionViolated):
            decompose(v)  # deg(9) = 1 < 8 - 1

    def test_bounds_hold(self):
        rng = random.Random(23)
        for _ in range(300):
            v = decompose_instance(rng, max_x=20)
            paths = decompose(v)
            assert len(paths) <= len(v.X) // len(v.Y)
            covered_x = set()
            for p in paths:
                assert alternating_in_view(v, p)
                assert set(v.Y) <= set(p.vertices)
                covered_x |= set(p.vertices) - set(v.Y)
            assert len(set(v.X) - covered_x) <= len(v.Y) + 2 * v.m
            assert paths  # strict |X| > |Y|+2m instances always strip once

    def test_boundary_produces_nothing(self):
        # |X| = |Y| + 2m exactly: zero passes, no bound violated
        v = _view(4, 2, {5: {1, 2, 3, 4}, 6: {1, 2, 3, 4}}, m=1)
        assert decompose(v) == ()

    def test_matches_the_per_pass_view_loop(self):
        # the reference rebuilds and re-checks a view of the alive X-vertices
        # on every pass; decompose must give the same paths and raises
        rng = random.Random(25)
        raised = 0
        for i in range(600):
            if i % 2:
                v = decompose_instance(rng, max_x=24)
            else:
                # near the preconditions' edges: each y misses up to m + 1
                a, b, m = rng.randint(1, 16), rng.randint(0, 6), rng.randint(0, 3)
                xs = range(1, a + 1)
                adj = {
                    y: set(rng.sample(xs, max(0, a - rng.randint(0, m + 1))))
                    for y in range(a + 1, a + b + 1)
                }
                v = _view(a, b, adj, m=m)
            want, got = _outcome(_decompose_reference, v), _outcome(decompose, v)
            assert got == want, (v, got, want)
            raised += want[0] == "raise"
        assert 0 < raised < 600


def _decompose_reference(v):
    """decompose as a loop of checked long_path calls, one fresh view of the
    alive X-vertices per pass."""
    if not v.Y:
        raise PreconditionViolated("Y nonempty")
    if len(v.X) < len(v.Y) + 2 * v.m:
        raise PreconditionViolated("|X| >= |Y| + 2m")
    for y in v.Y:
        if v.degree(y) < len(v.X) - v.m:
            raise PreconditionViolated("deg(y) >= |X| - m", witness=y)
    paths = []
    alive = vertex_mask(v.X)
    while alive.bit_count() > len(v.Y) + 2 * v.m:
        restricted = BipartiteView(
            tuple(mask_vertices(alive)),
            v.Y,
            {y: v.adjacency[y] & alive for y in v.Y},
            m=v.m,
            colour=v.colour,
        )
        p = long_path(restricted)
        paths.append(p)
        alive &= ~vertex_mask(p.vertices)
    return tuple(paths)


def _outcome(f, v):
    try:
        return ("ok", f(v))
    except PreconditionViolated as exc:
        return ("raise", exc.condition, exc.witness)


class TestDecomposeFull:
    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            decompose_full(_view(0, 0, {}))
        with pytest.raises(PreconditionViolated):
            decompose_full(_view(2, 2, {3: {1, 2}, 4: {1, 2}}))  # |X| = |Y|
        # (ii) fails: all of Y deficient
        v = _view(3, 2, {4: {1, 2}, 5: {2, 3}})
        with pytest.raises(PreconditionViolated):
            decompose_full(v)

    def test_full_coverage_and_ceiling(self):
        rng = random.Random(24)
        for _ in range(300):
            v = decompose_full_instance(rng, max_x=22)
            paths = decompose_full(v)
            assert len(paths) == -(-len(v.X) // (len(v.Y) + 1))
            seen = set()
            for p in paths:
                assert alternating_in_view(v, p)
                seen |= set(p.vertices)
            assert seen == set(v.X) | set(v.Y)

    def test_exhaustive_small_views(self):
        # every view with |X|*|Y| <= 14 that meets (i) and (ii) gets exactly
        # ceil(|X|/(|Y|+1)) alternating paths covering X and Y, no raise
        covered = 0
        for a in range(1, 15):
            for b in range(1, min(a - 1, 14 // a) + 1):  # (i) |X| > |Y|
                xs, ys = tuple(range(1, a + 1)), tuple(range(a + 1, a + b + 1))
                full = (1 << a) - 1
                for index in range(1 << (a * b)):
                    adj = [index >> (a * j) & full for j in range(b)]
                    x0 = full
                    for nbrs in adj:
                        x0 &= nbrs
                    x0 = x0.bit_count()
                    y0 = adj.count(full)
                    if (x0 < a or y0 < b) and x0 * y0 <= 2 * (a - x0) * (b - y0):
                        continue  # (ii) fails
                    v = BipartiteView(xs, ys, dict(zip(ys, adj)))
                    paths = decompose_full(v)
                    assert len(paths) == -(-a // (b + 1))
                    assert all(alternating_in_view(v, p) for p in paths)
                    assert set().union(*(p.vertices for p in paths)) == {*xs, *ys}
                    covered += 1
        assert covered == 117

    def test_single_y_complete(self):
        v = _view(5, 1, {6: {1, 2, 3, 4, 5}})
        paths = decompose_full(v)
        assert len(paths) == 3
        assert set().union(*(set(p.vertices) for p in paths)) == set(range(1, 7))

    def test_class_sizes_with_more_x1_than_y0(self):
        # |X1| > |Y0|: each round's Q runs out of Y0 before X1, so rounds
        # repeat, and the ones that end with X1 alive and |X| <= |Y| left
        # close with the extra path, the only path that ends in Y
        rng = random.Random(23)
        closed = []
        for _ in range(1500):
            c, d = rng.randint(1, 4), rng.randint(1, 4)
            b = rng.randint(c + 1, c + 8)
            a = 2 * b * d // c + rng.randint(1, 3)  # (ii) ac > 2bd, and so (i)
            v = _class_view(rng, a, b, c, d)
            cl = DegreeClasses.from_view(v)
            assert tuple(map(len, (cl.x0, cl.x1, cl.y0, cl.y1))) == (a, b, c, d)
            paths = decompose_full(v)
            assert len(paths) == -(-(a + b) // (c + d + 1))
            assert all(alternating_in_view(v, p) for p in paths)
            assert set().union(*(p.vertices for p in paths)) == {*v.X, *v.Y}
            if paths[-1].vertices[-1] in v.Y:
                closed.append(len(paths))
        assert len(closed) > 100 and max(closed) >= 5


def _listing_views():
    """A wide hub's view at n = 300 on shuffled labels, so X1 = Y1 = 0, then
    views with both X1 and Y1 nonempty: two that finish by chunking and one
    that ends in the closing path."""
    rng = random.Random(29)
    labels = list(range(1, 301))
    rng.shuffle(labels)
    xs, ys = labels[:283], labels[283:]
    views = [BipartiteView(xs, ys, dict.fromkeys(ys, vertex_mask(xs)))]
    for sizes in [(250, 30, 12, 6), (200, 60, 20, 4), (51, 100, 40, 10)]:
        views.append(_class_view(rng, *sizes))
    return views


# sha256 of each view's classes and decompose_full paths, recorded when every
# class list was re-read from a mask, before decompose_full reused them
LISTING_DIGESTS = [
    "64b35dc2b4b1559958d6e444336dbcd133a2f4179ed6d324ea8230945ab09355",
    "c88f57df0ba330eaca3cc64858734245793642095bdcde403c2a9d854a76ae72",
    "7dada2142fa590ee5edef9a42523b072ff33fdf902a79790e71089c0e970a112",
    "f5b0692c5381535cd7eeb5de5e3468245ac2123d0aac9bcbff90e966b5cd1d3b",
]


def test_class_lists_are_the_mask_listings():
    digests = []
    for v in _listing_views():
        cl = DegreeClasses.from_view(v)
        common = v.xmask
        for y in v.Y:
            common &= v.adjacency[y]
        assert cl.x0 == tuple(mask_vertices(common))
        assert cl.x1 == tuple(mask_vertices(v.xmask & ~common))
        paths = decompose_full(v)
        record = (cl.x0, cl.x1, cl.y0, cl.y1, [p.vertices for p in paths])
        digests.append(hashlib.sha256(repr(record).encode()).hexdigest())
    assert digests == LISTING_DIGESTS
    v = _listing_views()[0]
    assert DegreeClasses.from_view(v).x1 == ()
    step = len(v.Y) + 1  # X1 = 0: plain chunks of X, each threading the low ys
    chunks = [v.X[i : i + step] for i in range(0, len(v.X), step)]
    assert decompose_full(v) == tuple(
        bipartite._interleave_xy(c, v.Y[: len(c) - 1], RED) for c in chunks
    )


def _class_view(rng, a, b, c, d):
    """A view on X = 1..a+b and Y after it whose degree classes have sizes
    a, b, c, d: X0 and Y0, drawn at random, see all of the other side, and
    each X1 vertex misses at least one Y1 vertex and each Y1 one X1."""
    xs = list(range(1, a + b + 1))
    ys = list(range(a + b + 1, a + b + c + d + 1))
    x1, y1 = rng.sample(xs, b), rng.sample(ys, d)
    missing = {(x1[i % b], y1[i % d]) for i in range(max(b, d))}
    p = rng.choice((0.0, 0.3, 0.7))
    missing |= {(x, y) for x in x1 for y in y1 if rng.random() < p}
    adj = {y: {x for x in xs if (x, y) not in missing} for y in ys}
    return _view(a + b, c + d, adj)


def _recount_disjunction(v, k, l):
    red_adj = bip_colour_adjacency(v, True)
    blue_adj = bip_colour_adjacency(v, False)
    verts = [*v.X, *v.Y]
    return has_mono_path_with_edges(red_adj, verts, k) or has_mono_path_with_edges(
        blue_adj, verts, l
    )


def _check_outcome(v, out: RamseyOutcome, k: int, l: int):
    p = out.path
    assert p.colour is out.colour
    vs = p.vertices
    assert len(set(vs)) == len(vs)
    xset, yset = set(v.X), set(v.Y)
    for s, t in zip(vs, vs[1:]):
        x, y = (s, t) if s in xset else (t, s)
        assert x in xset and y in yset
        present = bool(v.adjacency[y] >> (x - 1) & 1)
        assert present == (out.colour is v.colour)
    need = k if out.colour is v.colour else l
    assert p.length >= need


@st.composite
def _relabelled_views(draw):
    """A view on labels 1..a+b split into X and Y at random; the same view
    relabelled by a random increasing map into 1..200, so with gaps between
    labels and X and Y interleaved; the map; and targets k != l, each at
    most the smaller side."""
    a, b = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    xs = sorted(rng.sample(range(1, a + b + 1), a))
    ys = sorted(set(range(1, a + b + 1)) - set(xs))
    p = rng.random()
    adj = {y: vertex_mask(x for x in xs if rng.random() < p) for y in ys}
    label = dict(zip(range(1, a + b + 1), sorted(rng.sample(range(1, 201), a + b))))
    colour = draw(st.sampled_from((RED, BLUE)))
    v = BipartiteView(xs, ys, adj, colour=colour)
    moved = {label[y]: vertex_mask(label[x] for x in mask_vertices(m)) for y, m in adj.items()}
    w = BipartiteView([label[x] for x in xs], [label[y] for y in ys], moved, colour=colour)
    k = draw(st.integers(1, min(a, b)))
    l = draw(st.integers(1, min(a, b)).filter(lambda l: l != k))
    return v, w, label, k, l


class TestRamseyPath:
    def test_guards(self):
        v = _view(2, 2, {3: {1}, 4: {2}})
        with pytest.raises(EqualLengths):
            ramsey_path(v, 2, 2)
        with pytest.raises(SidesTooSmall):
            ramsey_path(v, 3, 4)

    def test_exhaustive_k22(self):
        # every 2-colouring of K_{2,2}: red path with 1 edge or blue with 2
        for bits in product([False, True], repeat=4):
            adj = {3: set(), 4: set()}
            for i, (x, y) in enumerate(product((1, 2), (3, 4))):
                if bits[i]:
                    adj[y].add(x)
            v = _view(2, 2, adj)
            out = ramsey_path(v, 1, 2)
            _check_outcome(v, out, 1, 2)
            assert _recount_disjunction(v, 1, 2)

    def test_small_random_instances(self):
        rng = random.Random(77)
        for _ in range(200):
            a, b = rng.randint(3, 6), rng.randint(3, 6)
            adj = {y: set() for y in range(a + 1, a + b + 1)}
            for y in adj:
                for x in range(1, a + 1):
                    if rng.random() < 0.5:
                        adj[y].add(x)
            v = _view(a, b, adj)
            k, l = 2, 3
            if min(a, b) < -(-(k + l) // 2):
                continue
            out = ramsey_path(v, k, l)
            _check_outcome(v, out, k, l)

    @given(_relabelled_views(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_labels_with_gaps_give_the_relabelled_outcome(self, case, exact):
        # every choice is lowest label first, so an increasing relabelling
        # only renames the outcome; with `exact` the greedy pass certifies
        # nothing and _exact_path decides
        v, w, label, k, l = case
        with pytest.MonkeyPatch.context() as mp:
            if exact:
                mp.setattr(bipartite, "_best_greedy", lambda adj, verts: verts[:1])
            out = ramsey_path(v, k, l)
            got = ramsey_path(w, k, l)
        path = Path(tuple(label[u] for u in out.path.vertices), out.colour)
        assert got == RamseyOutcome(out.colour, path)
        _check_outcome(w, got, k, l)

    def test_padded_rows_give_the_same_greedy_path(self):
        # long_path_pipeline's probe runs _best_greedy over rows for 1..n,
        # zero off q and w, listed over 1..n; ramsey_path runs it over the
        # same view's rows listed over sorted(X + Y).  A zero row is never a
        # start nor anyone's neighbour, and vertex 1 is in q or w, so the
        # exact search's opening is the probe (construct.long_path_pipeline)
        rng = random.Random(2802)
        for _ in range(300):
            n = rng.randint(2, 40)
            xs_ys = [1, *rng.sample(range(2, n + 1), rng.randint(1, n - 1))]
            rng.shuffle(xs_ys)
            cut = rng.randint(1, len(xs_ys) - 1)
            xs, ys = xs_ys[:cut], xs_ys[cut:]
            p = rng.choice((0.0, 0.1, 0.5, 0.9))
            adj = {y: vertex_mask(x for x in xs if rng.random() < p) for y in ys}
            rows, _ = bipartite._vertex_masks(BipartiteView(xs, ys, adj))
            padded = rows + [0] * (n - len(rows))
            assert bipartite._best_greedy(padded, range(1, n + 1)) == (
                bipartite._best_greedy(rows, sorted(xs + ys))
            )

    def test_large_greedy_can_certify(self):
        # dense one-sided instance: the greedy pass finds the long red path
        a = b = 40
        adj = {y: set(range(1, a + 1)) for y in range(a + 1, a + b + 1)}
        v = _view(a, b, adj)
        out = ramsey_path(v, 30, 49)
        _check_outcome(v, out, 30, 49)

    def test_cannot_certify_is_signalled(self):
        # adversarial mid-density instance above the exact threshold may
        # defeat the greedy pass; accept either a certified outcome or the
        # explicit refusal, never a wrong answer
        rng = random.Random(3)
        a = b = 20
        hits = 0
        for _ in range(40):
            adj = {
                y: {x for x in range(1, a + 1) if rng.random() < 0.5}
                for y in range(a + 1, a + b + 1)
            }
            v = _view(a, b, adj)
            try:
                out = ramsey_path(v, 19, 20)
                _check_outcome(v, out, 19, 20)
            except CannotCertify:
                hits += 1
        assert hits < 40  # the greedy pass succeeds at least sometimes


class TestExactPath:
    # the oracle reads a spanning path's witness off _exact_path, so its
    # first find must be the lexicographically least path of the target
    # length: from the lowest start that has one, lowest next vertex first
    @pytest.mark.parametrize("n", range(1, 8))
    def test_first_find_is_the_least_path(self, n):
        rng = random.Random(n)
        for _ in range(12):
            verts = sorted(rng.sample(range(1, n + 3), n))
            adj = [0] * (n + 2)
            p = rng.choice((0.2, 0.4, 0.6, 0.9))
            for u, v in product(verts, verts):
                if u < v and rng.random() < p:
                    adj[u - 1] |= 1 << (v - 1)
                    adj[v - 1] |= 1 << (u - 1)
            for target in range(n):
                least = next(
                    (list(q) for q in permutations(verts, target + 1)
                     if all(adj[a - 1] >> (b - 1) & 1 for a, b in zip(q, q[1:]))),
                    None,
                )
                assert bipartite._exact_path(adj, verts, target) == least
