import math
import random

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
from monopath import arith, construct, solver
from monopath.construct import LongPathStructure, ReductionWitness, maximal_path, refine_path
from monopath.core import (
    BLUE,
    RED,
    Colouring,
    CoverReport,
    GuardFailed,
    MonopathError,
    Path,
    PathCover,
    validate_cover,
)
from monopath.gen import extremal, indexed_colouring, random_colouring
from monopath.oracle import exact_f
from monopath.solver import (
    Guarantee,
    SolverConfig,
    cover_bounded,
    cover_from_structure,
    cover_sqrt,
    reduce,
    solve,
)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.c1 == cfg.c == 160000.0
        assert cfg.c2 == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(c1=1.0, c2=2.0)
        with pytest.raises(ValueError):
            SolverConfig(c=0.0)
        with pytest.raises(ValueError):
            SolverConfig(c2=-1.0, c1=0.0)

    @pytest.mark.parametrize("field", ["c1", "c2", "c"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_constants(self, field, value):
        # a non-finite c once passed and crashed solve in Fraction(c)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    def test_accepts_an_int_too_big_for_a_float(self):
        # finite, so valid; solve once crashed converting 2(c + 1)sqrt(n)
        # to a float degree bound that nothing read
        g = extremal(20)
        res = solve(g, SolverConfig(c1=10**400, c=10**400))
        assert validate_cover(g, res.cover).valid


class TestSolveSmall:
    def test_matches_oracle_on_all_k4(self):
        for g in all_colourings(4):
            res = solve(g)
            assert validate_cover(g, res.cover).valid
            assert res.cover.size == exact_f(g).value

    def test_singleton_and_edge(self):
        one = Colouring.monochromatic(1, RED)
        assert solve(one).cover.size == 1
        for g in all_colourings(2):
            res = solve(g)
            assert res.cover.size == 1
            assert validate_cover(g, res.cover).valid

    def test_trace_ends_with_pick(self):
        res = solve(extremal(9))
        assert res.branch_trace
        assert res.branch_trace[-1].startswith("pick:")

    def test_no_guarantee_when_the_cover_misses_the_bound(self):
        # the red hub 13..15 under a tiny c: the best cover solve finds has
        # 4 paths, above sqrt(15) + 0.01, where 3 would do
        g = red_hub(15, 13)
        res = solve(g, SolverConfig(c=0.01))
        assert validate_cover(g, res.cover).valid
        assert res.cover.size == 4 and res.branch_trace[-1] == "pick:sqrt"
        assert res.guarantee is Guarantee.NONE
        assert exact_f(g, 15).value == 3


class TestSolveExtremal:
    def test_sizes_are_isqrt(self):
        for n in (9, 16, 25, 100, 144):
            res = solve(extremal(n))
            assert validate_cover(extremal(n), res.cover).valid
            assert res.cover.size == math.isqrt(n)
            assert res.guarantee is Guarantee.SQRT


class TestSolveRandom:
    def test_valid_and_guarantee_consistent(self, rng):
        for _ in range(25):
            n = rng.randint(2, 160)
            g = random_colouring_with(rng, n, rng.random())
            res = solve(g)
            assert validate_cover(g, res.cover).valid
            if res.guarantee is Guarantee.SQRT:
                assert res.cover.size <= math.isqrt(n)
            assert res.cover.size <= n

    def test_balanced_instances_usually_one_path(self, rng):
        ones = 0
        for _ in range(10):
            g = random_colouring_with(rng, 150, 0.5)
            res = solve(g)
            ones += res.cover.size == 1
        assert ones >= 8  # dense random graphs have spanning mono paths


class TestReduce:
    def witness(self, g):
        # S = {9, 10}, both covered by one red path and two blue singletons
        return ReductionWitness(
            S=(9, 10),
            red_paths=(Path((9, 10), RED),),
            blue_paths=(Path((9,), BLUE), Path((10,), BLUE)),
        )

    def test_appends_matching_colour(self):
        g = Colouring.monochromatic(10, RED)
        w = self.witness(g)
        cover = reduce(g, w, SolverConfig())
        assert validate_cover(g, cover).valid
        assert cover.colour is RED
        assert cover.size == 2  # inner spanning path + the red witness path

    def test_blue_recursion_gets_blue_paths(self):
        g = Colouring.monochromatic(10, BLUE)
        w = self.witness(g)
        cover = reduce(g, w, SolverConfig())
        assert validate_cover(g, cover).valid
        assert cover.colour is BLUE
        assert cover.size == 3  # inner path + two blue singletons

    def test_guard_counts_a_repeated_vertex_of_s_once(self):
        # sqrt(100 - |S|) + 0 + k <= 10 with k = 1 holds from |S| = 19 on;
        # 18 distinct vertices with one repeated must still fail, with |S| = 18
        red = (Path((1,), RED),)
        solver._reduce_guard(100, ReductionWitness(tuple(range(1, 20)), red, ()), 0)
        repeated = ReductionWitness((1, *range(1, 19)), red, ())
        with pytest.raises(GuardFailed, match=r"sqrt\(100-18\)"):
            solver._reduce_guard(100, repeated, 0)

    def test_vertex_relabelling_is_correct(self, rng):
        # remove two vertices from a random colouring and check every inner
        # pathedge survives the mapping back to original labels
        g = random_colouring_with(rng, 12)
        s = (3, 7)
        red = (Path(s, RED),) if g.colour(3, 7) is RED else (Path((3,), RED), Path((7,), RED))
        blue = (Path(s, BLUE),) if g.colour(3, 7) is BLUE else (Path((3,), BLUE), Path((7,), BLUE))
        w = ReductionWitness(S=s, red_paths=red, blue_paths=blue)
        cover = reduce(g, w, SolverConfig())
        assert validate_cover(g, cover).valid


class TestCoverFromStructure:
    def test_common_neighbour_pairs(self):
        # P = 1-2-3 blue; 4 and 5 both blue to 2 only
        blue_pairs = {(1, 2), (2, 3), (2, 4), (2, 5)}
        g = Colouring.from_function(
            5, lambda u, v: BLUE if (u, v) in blue_pairs else RED
        )
        s = LongPathStructure(Path((1, 2, 3), BLUE), {4: 1, 5: 1})
        cover = cover_from_structure(g, s)
        assert validate_cover(g, cover).valid
        assert cover.size == 2  # 1 + ceil(2/2) + 0
        assert Path((4, 2, 5), BLUE) in cover.paths

    def test_segment_pair_when_no_common_neighbour(self):
        # 5 sees only endpoint 1, 6 sees only endpoint 4
        blue_pairs = {(1, 2), (2, 3), (3, 4), (1, 5), (4, 6)}
        g = Colouring.from_function(
            6, lambda u, v: BLUE if (u, v) in blue_pairs else RED
        )
        s = LongPathStructure(Path((1, 2, 3, 4), BLUE), {5: 1, 6: 1})
        cover = cover_from_structure(g, s)
        assert validate_cover(g, cover).valid
        assert cover.size == 2
        assert Path((5, 1, 2, 3, 4, 6), BLUE) in cover.paths

    def test_odd_leftover_and_singletons(self):
        # 5 and 6 pair up through 2; 7 is the odd one out; 8 sees nothing
        blue_pairs = {(1, 2), (2, 3), (3, 4), (2, 5), (2, 6), (3, 7)}
        g = Colouring.from_function(
            8, lambda u, v: BLUE if (u, v) in blue_pairs else RED
        )
        s = LongPathStructure(
            Path((1, 2, 3, 4), BLUE), {5: 1, 6: 1, 7: 1, 8: 0}
        )
        cover = cover_from_structure(g, s)
        assert validate_cover(g, cover).valid
        # 1 path + 1 pair + 1 odd two-vertex + 1 singleton
        assert cover.size == 4
        assert Path((8,), BLUE) in cover.paths
        assert Path((7, 3), BLUE) in cover.paths

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["random", "hub", "noisy"]),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32),
        colour=st.sampled_from([RED, BLUE]),
    )
    def test_size_is_read_off_the_degrees(self, kind, n, seed, colour):
        # the size the structure skip reads is the size of the built cover
        rng = random.Random(seed)
        if kind == "random":
            g = random_colouring(n, rng.random(), seed)
        elif kind == "hub":
            g = red_hub(n, rng.randint(1, n))
        else:
            g = noisy_colouring(rng, n)
        s = LongPathStructure(*refine_path(g, colour))
        assert solver._structure_size(s) == cover_from_structure(g, s).size


class TestPipelines:
    def test_bounded_pipeline_on_large_random(self, rng):
        # a red hub of 100 random labels: the hub has no blue edge and the red
        # paths cover at most 201 vertices, so no base cover is a single path
        # and the bounded pipeline runs
        cfg = SolverConfig(c1=2.0, c2=2.0, c=2.0)
        hub = set(rng.sample(range(1, 301), 100))
        g = Colouring.from_function(300, lambda u, v: RED if {u, v} & hub else BLUE)
        res = cover_bounded(g, cfg)
        assert validate_cover(g, res.cover).valid
        assert any(t.startswith("bounded:") for t in res.branch_trace)

    def test_bounded_pipeline_at_five_thousand(self):
        # slow: one full-size run through the pipeline and reduce branches; a
        # red hub of 2000 leaves both colours without a spanning path
        g = red_hub(5000, 3001)
        cfg = SolverConfig(c1=2.0, c2=2.0, c=2.0)
        res = cover_bounded(g, cfg)
        assert validate_cover(g, res.cover).valid
        assert any(t.startswith("bounded:") for t in res.branch_trace)
        assert res.cover.size <= 2 * (cfg.c + 1) * math.sqrt(g.n)

    def test_sqrt_pipeline_y_exit_on_extremal_shape(self):
        # n > C^10 = 1024 activates the pipeline; the extremal colouring
        # exits through the small-Y branch at exactly isqrt paths
        cfg = SolverConfig(c1=2.0, c2=0.0, c=2.0)
        n = 1100
        g = extremal(n)
        res = cover_sqrt(g, cfg)
        assert validate_cover(g, res.cover).valid
        assert res.cover.size == math.isqrt(n)
        assert "sqrt:y-exit" in res.branch_trace

    def test_sqrt_pipeline_decompose_branch(self):
        # a wider red hub defeats the y-exit but satisfies the degree-class
        # condition, so the full decomposition closes the bound
        cfg = SolverConfig(c1=2.0, c2=0.0, c=2.0)
        n, hub = 1100, 40
        a = n - hub
        g = Colouring.from_function(n, lambda u, v: RED if v > a else BLUE)
        res = cover_sqrt(g, cfg)
        assert validate_cover(g, res.cover).valid
        assert "sqrt:decompose" in res.branch_trace
        assert res.cover.size <= math.isqrt(n)
        assert res.guarantee is Guarantee.SQRT

    def test_cover_sqrt_falls_back_on_its_own(self):
        g = random_colouring(17, 0.2, 24)
        res = cover_sqrt(g, SolverConfig())
        assert res.branch_trace[:2] == (
            "sqrt:decompose:error(PreconditionViolated)",
            "sqrt:fallback",
        )
        assert validate_cover(g, res.cover).valid

    def test_solve_picks_the_minimum(self, rng):
        g = Colouring.monochromatic(10, BLUE)
        res = solve(g)
        assert res.cover.size == 1
        assert res.cover.colour is BLUE


def _count_calls(monkeypatch, *names):
    """Wrap solver module globals; each call records the colouring it got."""
    seen = {name: [] for name in names}
    for name in names:
        real = getattr(solver, name)

        def wrapper(g, *args, _real=real, _seen=seen[name], **kwargs):
            _seen.append(g)
            return _real(g, *args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)
    return seen


def _greedy(g: Colouring) -> PathCover:
    """The greedy cover, its first path grown as a solve grows it."""
    return solver._greedy_cover(g, solver._Shared(g, SolverConfig()).first)


class TestEachCandidateOnce:
    def test_oracle_and_greedy_run_once_at_n10(self, monkeypatch):
        # the oracle's cover is one path and comes first in pick order, so
        # nothing reads the greedy cover and it is never built
        g = random_colouring(10, 0.5, 3)
        seen = _count_calls(monkeypatch, "exact_f", "_greedy_cover")
        res = solve(g)
        assert validate_cover(g, res.cover).valid
        assert res.branch_trace[-1] == "pick:base:oracle" and res.cover.size == 1
        assert len(seen["exact_f"]) == 1
        assert seen["_greedy_cover"] == []

    def test_fallback_reuses_the_bounded_result(self, monkeypatch):
        # the sqrt step fails, and the pick takes a bounded candidate
        g = random_colouring(17, 0.2, 24)
        seen = _count_calls(monkeypatch, "_refine", "_greedy_cover")
        res = solve(g)
        assert "sqrt:decompose:error(PreconditionViolated)" in res.branch_trace
        assert res.branch_trace[-1] == "pick:base:structure-B"
        assert validate_cover(g, res.cover).valid
        # the bounded base strategies ran for the whole graph exactly once:
        # the unseeded refine_path runs through _refine, once per colour
        assert seen["_refine"] == [g, g]
        assert len(seen["_greedy_cover"]) == 1

    def test_once_per_colouring_through_reduce(self, monkeypatch):
        # small constants: both pipelines reduce into one sub-colouring,
        # whose one-path red structure cover leaves its greedy cover unread;
        # the top-level colouring builds its own once
        cfg = SolverConfig(c1=1.0, c2=0.0, c=1.0)
        g = red_hub(68, 37)
        seen = _count_calls(monkeypatch, "_greedy_cover", "cover_bounded")
        res = solve(g, cfg)
        assert validate_cover(g, res.cover).valid
        assert {"sqrt:reduce", "bounded:reduce"} <= set(res.branch_trace)
        assert [h.n for h in seen["cover_bounded"]] == [35]
        assert seen["_greedy_cover"] == [g]

    def test_one_structure_cover_per_path(self, monkeypatch):
        # the blue base structure, the bounded y0-exit and the sqrt y-exit
        # share one path, so its cover is built once
        g = indexed_colouring(16, 0xA91482041402009010010208002010)
        seen = _count_calls(monkeypatch, "cover_from_structure")
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert {"base:structure-B", "bounded:y0-exit", "sqrt:y-exit"} <= set(res.branch_trace)
        assert validate_cover(g, res.cover).valid
        assert seen["cover_from_structure"] == [g]

    @pytest.mark.parametrize(
        "n, cfg, trace",
        [
            (37, SolverConfig(0.5, 0.0, 0.5), "sqrt:pipeline:error(PreconditionViolated)"),
            (16, SolverConfig(), "sqrt:decompose:error(PreconditionViolated)"),
        ],
    )
    def test_cover_sqrt_fallback_reuses_the_sqrt_steps_work(self, monkeypatch, n, cfg, trace):
        # a red star: the fallback's bounded pass reuses the sqrt step's
        # pipeline head and each colour's refine_path, so each runs once, as
        # in solve
        g = Colouring.from_function(n, lambda u, v: RED if u == 1 else BLUE)
        seen = _count_calls(monkeypatch, "long_path_pipeline", "_refine")
        res = cover_sqrt(g, cfg)
        assert res.branch_trace[:2] == (trace, "sqrt:fallback")
        assert validate_cover(g, res.cover).valid
        assert seen == {"long_path_pipeline": [g], "_refine": [g, g]}
        seen["long_path_pipeline"].clear()
        seen["_refine"].clear()
        solve(g, cfg)
        assert seen == {"long_path_pipeline": [g], "_refine": [g, g]}


class TestSizeOneSkip:
    """A base cover of one path cannot be beaten, so cover_bounded skips the
    bounded induction; the pick is what the induction would have left."""

    @pytest.mark.parametrize("p, colour", [(0.5, RED), (0.02, BLUE)])
    def test_single_path_base_skips_the_pipeline(self, monkeypatch, p, colour):
        # the red structure cover is one path at p = 0.5; at p = 0.02 only the
        # blue one is, so the pick is the second candidate
        g = random_colouring(200, p, 0)
        seen = _count_calls(monkeypatch, "long_path_pipeline")
        res = cover_bounded(g, SolverConfig(2.0, 2.0, 2.0))
        assert seen["long_path_pipeline"] == []
        assert "bounded:pipeline" not in res.branch_trace
        assert "bounded:pipeline:skipped" in res.branch_trace
        assert res.branch_trace[-1] == f"pick:base:structure-{colour.value}"
        assert res.cover == cover_from_structure(g, LongPathStructure(*refine_path(g, colour)))
        assert res.cover.size == 1

    def test_pipeline_runs_without_a_single_path_base(self, monkeypatch):
        # one call: the sub-colouring bounded:reduce recurses into has a
        # single-path base, so the skip holds inside the recursion too
        g = red_hub(300, 201)
        seen = _count_calls(monkeypatch, "long_path_pipeline")
        res = cover_bounded(g, SolverConfig(2.0, 2.0, 2.0))
        assert seen["long_path_pipeline"] == [g]
        assert "bounded:pipeline" in res.branch_trace
        assert validate_cover(g, res.cover).valid


class TestStructureSkip:
    """A structure cover is built only if its exact size can win, and each
    colour's unbounded refine_path runs once per solve."""

    def test_extremal_builds_no_red_structure_cover(self, monkeypatch):
        # red 42 paths, blue 10 and greedy 10: red loses to the greedy cover,
        # blue wins the tie with it, and the sqrt step's y-exit reads the
        # same structure, so it takes that cover instead of a second build
        g = extremal(100)
        built = []
        real = solver.cover_from_structure
        monkeypatch.setattr(
            solver,
            "cover_from_structure",
            lambda h, s: built.append(s.path.colour) or real(h, s),
        )
        res = solve(g)
        assert built == [BLUE]
        assert "sqrt:y-exit" in res.branch_trace
        assert res.branch_trace[:3] == (
            "base:structure-R:skipped", "base:structure-B", "base:greedy",
        )
        assert _greedy(g).size == 10
        assert res.cover.size == 10
        assert validate_cover(g, res.cover).valid

    def test_extremal_refines_once_per_colour(self, monkeypatch):
        # the sqrt pipeline's tail is unseeded and its degree bound exceeds
        # n - 1 at default constants, so it reuses the base run of its colour
        # (every refine_path run, seeded or not, goes through _refine)
        g = extremal(100)
        runs = []
        for module in (construct, solver):
            real = module._refine

            def wrapper(h, gamma, *args, _real=real):
                runs.append((h, gamma))
                return _real(h, gamma, *args)

            monkeypatch.setattr(module, "_refine", wrapper)
        res = solve(g)
        assert "sqrt:y-exit" in res.branch_trace
        assert runs == [(g, RED), (g, BLUE)]

    def test_bounded_tail_does_not_reuse(self, monkeypatch):
        # at slack 0 the bound 2 sqrt(n) is below n - 1, so the bounded
        # pipeline runs its own bounded refine_path
        g = red_hub(10, 8)
        runs = []
        real = construct.refine_path
        monkeypatch.setattr(
            construct, "refine_path", lambda h, *args: runs.append(args) or real(h, *args)
        )
        res = cover_bounded(g, SolverConfig(2.0, 0.0, 2.0))
        assert "bounded:y-exit" in res.branch_trace
        assert len(runs) == 1 and runs[0][2] == arith.floor_of_coeff_sqrt(2, g.n)


class TestPickRule:
    """A candidate is built only while it can still win the pick
    (solver._can_win); a reduce cover has at least two paths."""

    def test_structure_b_not_built_after_a_single_path(self, monkeypatch):
        # least size 1 rules blue out before its refine_path (_refine) runs
        g = random_colouring(200, 0.5, 0)
        seen = _count_calls(monkeypatch, "_refine", "cover_from_structure")
        res = cover_bounded(g, SolverConfig(2.0, 2.0, 2.0))
        assert seen == {"_refine": [g], "cover_from_structure": [g]}
        assert "base:structure-B:skipped" in res.branch_trace
        assert res.cover.size == 1

    def test_sqrt_reduce_not_built_beside_a_single_path(self, monkeypatch):
        g = random_colouring(200, 0.5, 0)
        seen = _count_calls(monkeypatch, "reduce")
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert seen["reduce"] == []
        assert res.branch_trace[-2:] == ("sqrt:reduce:skipped", "pick:base:structure-R")
        assert res.cover.size == 1

    def test_skip_reads_a_validated_cover(self, monkeypatch):
        # the top-level colouring's structure cover becomes an invalid single
        # path; the sub-colouring that reduce recurses into keeps its real
        # ones, so the sqrt:reduce cover stays valid and must be built.  The
        # blue structure cover (145 paths, as many as the greedy cover) is
        # still built; the red one (157) is skipped before any builder runs
        g = red_hub(600, 457)
        real = solver.cover_from_structure

        def invalid_for_g(h, s):
            if h is g:
                return PathCover(s.path.colour, (Path((1,), s.path.colour),), h.n)
            return real(h, s)

        monkeypatch.setattr(solver, "cover_from_structure", invalid_for_g)
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert "base:structure-B" in res.branch_trace
        assert "base:structure-R:skipped" in res.branch_trace
        assert res.branch_trace[-3:] == (
            "sqrt:reduce", "base:structure-B:invalid-dropped", "pick:sqrt",
        )
        assert res.cover.size == 4
        assert validate_cover(g, res.cover).valid

    def test_failed_guard_falls_back_before_any_skip(self, monkeypatch):
        # the sqrt witness of this hub fails the reduce guard; a one-path
        # greedy cover, let through validation, would rule the reduce out,
        # but the guard is checked first, so the step adds no cover and the
        # greedy one wins
        g = red_hub(760, 607)
        one_path = PathCover(RED, (Path(tuple(range(1, g.n + 1)), RED),), g.n)
        monkeypatch.setattr(solver, "_greedy_cover", lambda h, first: one_path)
        monkeypatch.setattr(solver, "validate_cover", lambda h, cover: CoverReport(True))
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        trace = res.branch_trace
        assert trace[-2:] == ("sqrt:reduce:error(GuardFailed)", "pick:base:greedy")
        assert res.cover.size == 1


class TestLazyChecks:
    """solve checks a cover only where the pick can reach it: when its size
    decides a _can_win verdict, and in (size, order) up to the first valid
    candidate."""

    @staticmethod
    def _checked(monkeypatch, reject=()):
        """Record every cover validate_cover checks; the n-th check, for n in
        reject, reports an invalid cover."""
        seen = []
        real = solver.validate_cover

        def check(h, cover):
            seen.append(cover)
            return CoverReport(False) if len(seen) in reject else real(h, cover)

        monkeypatch.setattr(solver, "validate_cover", check)
        return seen

    def test_one_check_on_the_picked_single_path(self, monkeypatch):
        # sqrt:reduce's skip reads the red structure cover (one path), which
        # the pick then takes; the greedy cover (one blue path) is never checked
        g = random_colouring(200, 0.5, 0)
        seen = self._checked(monkeypatch)
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert res.branch_trace[-1] == "pick:base:structure-R"
        assert seen == [res.cover]
        assert res.cover.size == 1 and res.cover.colour is RED
        assert _greedy(g) not in seen

    def test_invalid_pick_is_dropped_in_its_own_slot(self, monkeypatch):
        # the sqrt and bounded reduce covers have 4 paths each, the blue
        # structure and greedy covers 145: the pick checks the sqrt cover
        # first, drops it, and takes the bounded one, the next in (size,
        # order); the larger ones are not checked
        g = red_hub(600, 457)
        seen = self._checked(monkeypatch, reject={1})
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert res.branch_trace[-3:] == (
            "sqrt:reduce", "sqrt:invalid-dropped", "pick:bounded:reduce",
        )
        assert [c.size for c in seen] == [4, 4]
        assert seen[1] == res.cover != seen[0]
        assert validate_cover(g, res.cover).valid

    def test_unreached_invalid_cover_keeps_its_tag(self, monkeypatch):
        # an invalid greedy cover behind a valid smaller pick is never read
        g = extremal(100)
        bad = PathCover(BLUE, (Path((1,), BLUE),) * 11, g.n)
        monkeypatch.setattr(solver, "_greedy_cover", lambda h, first: bad)
        seen = self._checked(monkeypatch)
        res = solve(g)
        assert res.branch_trace[-2:] == ("sqrt:y-exit", "pick:sqrt")
        assert bad not in seen and len(seen) == 1
        assert validate_cover(g, res.cover).valid

    def test_next_valid_cover_wins_over_an_invalid_one(self, monkeypatch):
        # the red structure cover and bounded:y0-exit's have 3 paths each,
        # the greedy cover 6: the pick drops the first, found invalid, and
        # takes the next in (size, order), not the greedy cover
        g = indexed_colouring(22, 0x33E5FCA957FCA92A4549FFFFFFDA9195237FFFFFFFF2A466548CC548CC)
        seen = self._checked(monkeypatch, reject={1})
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert res.branch_trace[-2:] == (
            "base:structure-R:invalid-dropped", "pick:bounded:y0-exit",
        )
        assert [c.size for c in seen] == [3, 3]
        assert seen[1] == res.cover != seen[0]
        assert validate_cover(g, res.cover).valid

    def test_no_valid_candidate_raises(self, monkeypatch):
        # the greedy cover is this colouring's only candidate under the
        # default constants: once it is found invalid, none is left
        g = indexed_colouring(
            26, 0x7C1040808040107F782041020408081008100428010200286082040010000040811FFFFFFFFFFFF
        )
        self._checked(monkeypatch, reject={1})
        with pytest.raises(MonopathError, match="dropped base:greedy$"):
            solve(g)


class TestLazyGreedy:
    """The greedy cover is built at most once per colouring, and only when a
    skip test or the pick reads it: never behind a one-path candidate."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_not_built_behind_a_one_path_structure(self, monkeypatch, seed):
        g = random_colouring(200, 0.1, seed)
        seen = _count_calls(monkeypatch, "_greedy_cover")
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert res.branch_trace[-1] == "pick:base:structure-R"
        assert res.cover.size == 1
        assert seen["_greedy_cover"] == []

    @pytest.mark.parametrize(
        "make", [lambda: extremal(100), lambda: red_hub(300, 201)], ids=["extremal", "hub"]
    )
    def test_built_once_where_a_structure_reads_it(self, monkeypatch, make):
        # the red structure cover has many paths, so its skip test reads the
        # greedy cover's size; the later reads take the same cover
        g = make()
        seen = _count_calls(monkeypatch, "_greedy_cover")
        res = solve(g)
        assert seen["_greedy_cover"] == [g]
        assert validate_cover(g, res.cover).valid

    def test_invalid_one_path_structure_builds_it(self, monkeypatch):
        # an injected invalid one-path structure cover no longer rules the
        # greedy cover out: sqrt:reduce's skip test and the pick read it,
        # and it is built once
        g = random_colouring(200, 0.1, 0)
        one = PathCover(RED, (Path(tuple(range(1, g.n)), RED),), g.n)
        monkeypatch.setattr(solver, "cover_from_structure", lambda h, s: one)
        seen = _count_calls(monkeypatch, "_greedy_cover")
        res = solve(g, SolverConfig(2.0, 2.0, 2.0))
        assert res.branch_trace[-2:] == (
            "base:structure-R:invalid-dropped", "pick:base:greedy",
        )
        assert seen["_greedy_cover"] == [g]
        assert validate_cover(g, res.cover).valid

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_pick_is_min_and_stops_at_one_path(self, sizes, data):
        covers = [PathCover(RED, (Path((1,), RED),) * k, 1) for k in sizes]
        cut = sizes.index(1) + 1 if 1 in sizes else len(sizes)
        read = []

        def lazy(i):
            return lambda: read.append(i) or covers[i]

        # any candidate may be held unbuilt, as the greedy cover is
        held = [
            lazy(i) if data.draw(st.booleans()) else c for i, c in enumerate(covers)
        ]
        res = solver._pick(1, SolverConfig(), [(str(i), c) for i, c in enumerate(held)], [])
        want = min(range(len(covers)), key=lambda i: covers[i].size)
        assert res.branch_trace == (f"pick:{want}",)
        assert res.cover is covers[want]
        assert all(i < cut for i in read)


class TestFirstPathOnce:
    def test_greedy_cover_and_refine_path_share_the_first_path(self, monkeypatch):
        # extremal(100)'s greedy cover is blue; the blue structure's
        # refine_path starts from the greedy cover's first path, the very
        # object, and each colour's first path is grown once
        g = extremal(100)
        full = (1 << g.n) - 1
        grown, starts, greedy = [], {}, []
        real_grow, real_refine = solver._grow, solver._refine
        real_greedy = solver._greedy_cover

        def grow(h, gamma, verts, free):
            if free == full:
                grown.append(gamma)
            return real_grow(h, gamma, verts, free)

        def refine(h, gamma, p, free, bound):
            starts[gamma] = p
            return real_refine(h, gamma, p, free, bound)

        monkeypatch.setattr(solver, "_grow", grow)
        monkeypatch.setattr(solver, "_refine", refine)
        monkeypatch.setattr(
            solver,
            "_greedy_cover",
            lambda h, first: greedy.append(real_greedy(h, first)) or greedy[0],
        )
        res = solve(g)
        assert sorted(grown, key=str) == [BLUE, RED]
        assert greedy[0].colour is BLUE
        assert starts[BLUE] is greedy[0].paths[0]
        assert starts[RED] == maximal_path(g, RED)
        assert res.cover.size == 10


def test_bounded_strip_branch_is_reached():
    # a red hub on 35..41: the blue long path leaves too many outside vertices
    # for either exit, so the stripping branch closes the cover
    g = Colouring.from_function(41, lambda u, v: RED if v > 34 else BLUE)
    res = cover_bounded(g, SolverConfig(c1=2.0, c2=0.0, c=2.0))
    assert res.branch_trace[-1] == "pick:bounded:strip"
    assert validate_cover(g, res.cover).valid


def _greedy_cover_induced(g: Colouring) -> PathCover:
    """_greedy_cover as one induced sub-colouring per stripped path: the
    reference for the alive-mask version."""
    red_edges = sum(g.mask(v, RED).bit_count() for v in range(1, g.n + 1)) // 2
    gamma = RED if 4 * red_edges >= g.n * (g.n - 1) else BLUE
    remaining = list(range(1, g.n + 1))
    paths = []
    while remaining:
        sub, mapping = g.induced(remaining)
        verts = tuple(mapping[v] for v in maximal_path(sub, gamma).vertices)
        paths.append(Path(verts, gamma))
        remaining = [v for v in remaining if v not in verts]
    return PathCover(gamma, tuple(paths), g.n)


class TestGreedyCover:
    def test_matches_induced_reference(self, rng):
        for _ in range(200):
            g = noisy_colouring(rng, rng.randint(1, 30))
            assert _greedy(g) == _greedy_cover_induced(g)

    def test_strips_without_induced(self, monkeypatch):
        # the red hub on 361..400 takes 41 stripping rounds; relabelling
        # each round's survivors through induced made 41 calls here
        g = red_hub(400, 361)
        seen = []
        real = Colouring.induced
        monkeypatch.setattr(
            Colouring, "induced", lambda self, keep: seen.append(keep) or real(self, keep)
        )
        cover = _greedy(g)
        assert seen == []
        assert cover.size == 41
        assert validate_cover(g, cover).valid


def test_results_share_vertex_labels():
    # vertices above 256 are distinct int objects unless shared; a kept
    # n=400 result would otherwise own one per vertex
    g = extremal(400)
    first, second = solve(g).cover, solve(g).cover
    assert first == second
    pairs = [
        (u, v)
        for p, q in zip(first.paths, second.paths)
        for u, v in zip(p.vertices, q.vertices)
    ]
    assert len(pairs) == 400 and all(u is v for u, v in pairs)
