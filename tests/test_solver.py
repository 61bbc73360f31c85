import itertools
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qpmetric import (
    EPSILON_SCHEDULE,
    INFINITY,
    ContractionMode,
    GeneratorSeed,
    IterationTrace,
    Outcome,
    SampledComparisonWarning,
    Selection,
    SetValuedMap,
    SolveMode,
    SolverConfig,
    Status,
    Step,
    admissibility_bound,
    admissible_candidates,
    conjugate,
    dyadic_halving_system,
    dyadic_halving_truncated,
    enumerate_endpoints,
    enumerate_fixed_points,
    enumerate_startpoints,
    from_matrix,
    from_oracle,
    linear,
    mode_defect,
    random_weakly_contractive_system,
    solve,
    user_function,
    validate_trace,
    verify_weak_contraction,
)
from qpmetric.solver import CheckResult

F = Fraction
ZERO, ONE = F(0), F(1)


@pytest.fixture
def dyadic():
    return dyadic_halving_system()


class TestSolve:
    def test_dyadic_from_one_single_greedy_step(self, dyadic):
        space, Fm, gamma = dyadic
        trace = solve(space, Fm, gamma, ONE)
        assert trace.outcome == Outcome(Status.CONVERGED, ZERO, ZERO)
        # One step: 1/2 is inadmissible (defect 1 > 2 - 1... over d=1), 0 wins.
        assert trace.steps == (
            Step(n=1, x=ONE, y=ZERO, d=F(2), gamma_d=ONE, defect=ZERO),
        )
        assert trace.initial_defect == 2

    def test_start_at_startpoint_is_zero_steps(self, dyadic):
        space, Fm, gamma = dyadic
        trace = solve(space, Fm, gamma, ZERO)
        assert trace.outcome.status is Status.CONVERGED
        assert trace.steps == ()

    def test_swap_map_violates_immediately(self, swap_system):
        space, Fm, gamma = swap_system
        trace = solve(space, Fm, gamma, "a")
        assert trace.outcome == Outcome(Status.CONTRACTION_VIOLATED, "a", ONE)
        assert trace.steps == ()

    def test_greedy_vs_first_selection(self, funnel_system):
        space, Fm, gamma = funnel_system
        greedy = solve(space, Fm, gamma, "a")
        assert greedy.outcome.point == "c"
        assert [s.y for s in greedy.steps] == ["c"]
        first = solve(
            space, Fm, gamma, "a", SolverConfig(selection=Selection.FIRST_ADMISSIBLE)
        )
        assert first.outcome.point == "c"
        assert [s.y for s in first.steps] == ["b", "c"]

    def test_admissible_candidates_hook(self, funnel_system):
        space, Fm, gamma = funnel_system
        pairs = admissible_candidates(space, Fm, gamma, "a")
        assert pairs == [("b", F(1, 4)), ("c", ZERO)]

    def test_endpoint_equals_startpoint_on_conjugate(self):
        # ENDPOINT runs on the input space; its trace, its replay (Cauchy
        # table included) and the oracle calls it makes equal those of
        # STARTPOINT on the conjugate, under both selections, on stored
        # rows and on oracles, the 10-step staircase among them.
        gamma = linear(F(1, 2))
        systems = []
        for seed in range(8):
            space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=seed, size=7))
            systems += [(space, Fm), (from_oracle(space.d, points=space.universe()), Fm)]
        d, universe, images, _, _ = _staircase(10)
        systems.append((from_oracle(d, points=universe, t0=True), SetValuedMap(images)))
        calls = []

        def logged(inner):
            def d(x, y):
                calls.append((x, y))
                return inner(x, y)

            return d

        for space, Fm in systems:
            if space.rows is None:
                space = replace(space, d=logged(space.d))
            conj = conjugate(space)
            for x0, selection in itertools.product(space.universe(), Selection):
                runs = []
                for target, mode in ((space, SolveMode.ENDPOINT), (conj, SolveMode.STARTPOINT)):
                    calls.clear()
                    trace = solve(target, Fm, gamma, x0, SolverConfig(mode, selection=selection))
                    report = validate_trace(trace, gamma)
                    assert trace.space is target and report.cauchy is not None
                    runs.append((trace.initial_defect, trace.steps, trace.outcome, report, calls[:]))
                assert runs[0] == runs[1]

    def test_fixedpoint_mode_on_dyadic(self, dyadic):
        space, Fm, gamma = dyadic
        trace = solve(space, Fm, gamma, ONE, SolverConfig(mode=SolveMode.FIXEDPOINT))
        assert trace.outcome.status is Status.CONVERGED
        assert trace.outcome.point == ZERO
        assert len(trace.steps) == 1

    def test_converged_points_are_enumerated_startpoints(self):
        gamma = linear(F(1, 2))
        for seed in range(10):
            space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=seed, size=8))
            oracle = enumerate_startpoints(space, Fm)
            for x0 in space.universe():
                trace = solve(space, Fm, gamma, x0)
                assert trace.outcome.status is Status.CONVERGED
                assert trace.outcome.defect == 0
                assert trace.outcome.point in oracle
                zero_steps = len(trace.steps) == 0
                assert zero_steps == (x0 in oracle)

    def test_deterministic_traces(self):
        gamma = linear(F(1, 2))
        space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=77, size=9))
        for x0 in space.universe():
            a = solve(space, Fm, gamma, x0)
            b = solve(space, Fm, gamma, x0)
            assert a.steps == b.steps and a.outcome == b.outcome

    def test_sampled_gamma_warns(self, dyadic):
        space, Fm, _ = dyadic
        with pytest.warns(SampledComparisonWarning):
            solve(space, Fm, user_function(lambda t: t / 2), ONE)

    def test_certified_gamma_does_not_warn(self, dyadic):
        import warnings

        space, Fm, gamma = dyadic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(space, Fm, gamma, ONE)

    def test_max_iterations_budget(self, funnel_system):
        space, Fm, gamma = funnel_system
        trace = solve(
            space,
            Fm,
            gamma,
            "a",
            SolverConfig(selection=Selection.FIRST_ADMISSIBLE, max_iterations=1),
        )
        assert trace.outcome.status is Status.MAX_ITERATIONS
        assert not trace.outcome.cycle
        assert trace.outcome.point == "b"

    def test_degenerate_gamma_cycles_flagged(self, swap_system):
        # gamma == 0 admits the swap forever; the cycle exit should fire
        # long before the 10k budget.
        space, Fm, _ = swap_system
        with pytest.warns(SampledComparisonWarning):
            trace = solve(space, Fm, user_function(lambda t: 0 * t), "a")
        assert trace.outcome.status is Status.MAX_ITERATIONS
        assert trace.outcome.cycle
        assert len(trace.steps) < 10

    def test_float_space_requires_positive_tolerance(self):
        space = from_matrix(("a", "b"), [[0, 1], [1, 0]], exact=False)
        Fm = SetValuedMap({"a": ["a"], "b": ["b"]})
        with pytest.raises(ValueError):
            solve(space, Fm, linear(F(1, 2)), "a", SolverConfig(tolerance=0))
        trace = solve(space, Fm, linear(F(1, 2)), "a", SolverConfig(tolerance=1e-9))
        assert trace.outcome.status is Status.CONVERGED

    def test_image_point_outside_universe_is_named(self):
        space = from_matrix(("a", "b"), [[0, 1], [1, 0]], t0=True)
        Fm = SetValuedMap({"a": ["b", "c"], "b": ["b"]})
        with pytest.raises(ValueError, match=r"'a'.*'c'"):
            solve(space, Fm, linear(F(1, 2)), "a")
        with pytest.raises(ValueError, match=r"'a'.*'c'"):
            admissible_candidates(space, Fm, linear(F(1, 2)), "a")

    @pytest.mark.parametrize(
        "space",
        [
            from_matrix((0, 1, 2), [[abs(i - j) for j in range(3)] for i in range(3)]),
            from_oracle(lambda x, y: abs(x - y), points=(0, 1, 2)),
        ],
        ids=["matrix", "oracle"],
    )
    def test_point_outside_universe_is_named(self, space):
        Fm = SetValuedMap(lambda x: [0])
        gamma = linear(F(1, 2))
        for mode in SolveMode:
            with pytest.raises(ValueError, match="5 is not in the universe"):
                solve(space, Fm, gamma, 5, SolverConfig(mode=mode))
        for mode in ContractionMode:
            with pytest.raises(ValueError, match="5 is not in the universe"):
                admissible_candidates(space, Fm, gamma, 5, mode)
        assert solve(space, Fm, gamma, 2).outcome.point == 0

    def test_solve_modes_are_the_contraction_modes(self):
        assert SolveMode is ContractionMode and len(ContractionMode) == 3
        assert list(ContractionMode) == [
            ContractionMode.STARTPOINT,
            ContractionMode.ENDPOINT,
            ContractionMode.FIXEDPOINT,
        ]
        assert SolveMode.STARTPOINT is ContractionMode.FORWARD
        assert SolveMode.ENDPOINT is ContractionMode.DUAL
        assert SolveMode.FIXEDPOINT is ContractionMode.SYMMETRIC
        assert SolverConfig(mode=SolveMode.ENDPOINT) == SolverConfig(mode=ContractionMode.DUAL)
        assert SolverConfig().mode is ContractionMode.FORWARD

    def test_a_mode_that_is_not_a_contraction_mode_is_refused(self):
        # A string would run a mix of the FORWARD and DUAL scans.
        space, Fm, gamma = dyadic_halving_truncated(2)
        runs = [
            lambda: solve(space, Fm, gamma, ONE, SolverConfig(mode="startpoint")),
            lambda: verify_weak_contraction(space, Fm, gamma, "forward"),
            lambda: admissible_candidates(space, Fm, gamma, ONE, "dual"),
            lambda: mode_defect(space, ONE, Fm, "forward"),
            lambda: admissibility_bound(space, gamma, "forward", ONE, ZERO),
        ]
        for run in runs:
            with pytest.raises(TypeError, match="mode must be a ContractionMode, got '"):
                run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=-1)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        # A string would run FIRST_ADMISSIBLE, or a mix of the scans.
        with pytest.raises(TypeError, match="selection must be a Selection, got 'greedy'"):
            SolverConfig(selection="greedy")
        with pytest.raises(TypeError, match="mode must be a ContractionMode, got 'forward'"):
            SolverConfig(mode="forward")

    def test_nan_tolerance_is_rejected(self):
        # With a NaN tolerance no defect would ever count as reached: this
        # run would end MAX_ITERATIONS on a cycle at b, whose defect is 0.
        space = from_matrix(("a", "b"), [["0", "1"], ["0", "0"]])
        Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=math.nan)
        trace = solve(space, Fm, linear(F(1, 2)), "a")
        assert trace.outcome.status is Status.CONVERGED and trace.outcome.point == "b"


def _hand_trace(ds, defects, initial=None, gammas=None):
    """Assemble a trace from raw step distances and defects."""
    steps = tuple(
        Step(
            n=i + 1,
            x=f"x{i}",
            y=f"x{i + 1}",
            d=d,
            gamma_d=gammas[i] if gammas else d / 2,
            defect=defect,
        )
        for i, (d, defect) in enumerate(zip(ds, defects))
    )
    return IterationTrace(
        mode=SolveMode.STARTPOINT,
        start="x0",
        initial_defect=ds[0] if initial is None else initial,
        steps=steps,
        outcome=Outcome(Status.CONVERGED, f"x{len(ds)}", defects[-1]),
    )


class TestValidateTrace:
    def test_solver_traces_pass(self, dyadic):
        space, Fm, gamma = dyadic
        trace = solve(space, Fm, gamma, ONE)
        report = validate_trace(trace, gamma)
        assert report.ok
        assert report.cauchy is not None

    def test_multistep_trace_passes(self, funnel_system):
        space, Fm, gamma = funnel_system
        trace = solve(
            space, Fm, gamma, "a", SolverConfig(selection=Selection.FIRST_ADMISSIBLE)
        )
        report = validate_trace(trace, gamma)
        assert report.ok

    def test_increasing_step_distances_fail(self):
        gamma = linear(F(1, 2))
        trace = _hand_trace([ONE, F(2)], [F(1, 2), F(1, 4)])
        report = validate_trace(trace, gamma)
        assert not report.steps_monotone.passed
        assert report.steps_monotone.first_failure == 2

    def test_increasing_defects_fail(self):
        gamma = linear(F(1, 2))
        trace = _hand_trace([F(2), ONE], [F(1, 2), F(3, 4)], initial=F(2))
        report = validate_trace(trace, gamma)
        assert report.steps_monotone.passed
        assert not report.defects_monotone.passed
        assert report.defects_monotone.first_failure == 2

    def test_partial_sum_bound_fails(self):
        gamma = linear(F(1, 2))
        cases = [
            # d barely shrinks while gamma(d_1) = 1/2 exceeds d_1 - d_2 = 1/8.
            ([ONE, F(7, 8)], [F(7, 8), F(3, 4)]),
            # gamma(d_1) = 1/2 exceeds d_1 - d_2 = 2/5, but gamma(d_2) = 3/10
            # does not: a sum that adds gamma(d_{n+1}) for gamma(d_n) passes.
            ([ONE, F(3, 5)], [F(3, 5), F(1, 4)]),
        ]
        for ds, defects in cases:
            report = validate_trace(_hand_trace(ds, defects, initial=F(2)), gamma)
            assert report.steps_monotone.passed
            assert report.defects_monotone.passed
            assert report.partial_sums == CheckResult(False, 3)

    def test_gamma_recomputed_not_trusted(self):
        # Recorded gamma_d values are garbage; only recorded d matters.
        gamma = linear(F(1, 2))
        trace = _hand_trace([F(2), ONE], [ONE, F(1, 2)], initial=F(2), gammas=[F(99), F(99)])
        assert validate_trace(trace, gamma).ok

    def test_cauchy_skipped_without_space(self):
        gamma = linear(F(1, 2))
        trace = _hand_trace([F(2), ONE], [ONE, F(1, 2)], initial=F(2))
        assert validate_trace(trace, gamma).cauchy is None

    def test_cauchy_certificate_is_valid_and_minimal(self):
        gamma = linear(F(1, 2))
        space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=13, size=9), gamma)
        longest = max(
            (solve(space, Fm, gamma, x0, SolverConfig(selection=Selection.FIRST_ADMISSIBLE))
             for x0 in space.universe()),
            key=lambda t: len(t.steps),
        )
        report = validate_trace(longest, gamma)
        pts = longest.points
        last = len(pts) - 1
        for eps, n0 in report.cauchy:
            tail = range(n0, last + 1)
            assert all(space.d(pts[k], pts[n]) < eps for k in tail for n in tail if k <= n)
            if n0 > 0:
                before = range(n0 - 1, last + 1)
                assert not all(
                    space.d(pts[k], pts[n]) < eps for k in before for n in before if k <= n
                )


def _brute_force_cauchy(space, pts):
    """Reference left-K-Cauchy table: per epsilon, the smallest n0 with
    d(x_k, x_n) < eps for all n0 <= k <= n <= last, else last."""
    last = len(pts) - 1
    table = []
    for eps in EPSILON_SCHEDULE:
        n0 = last
        for start in range(last + 1):
            ok = all(
                space.d(pts[k], pts[n]) < eps
                for k in range(start, last + 1)
                for n in range(k, last + 1)
            )
            if ok:
                n0 = start
                break
        table.append((eps, n0))
    return tuple(table)


def _orbit_trace(space, orbit):
    """A trace visiting ``orbit`` in order; only the points matter to the
    Cauchy table, so the recorded values are placeholders."""
    steps = tuple(
        Step(n=i + 1, x=x, y=y, d=ONE, gamma_d=ONE, defect=ONE)
        for i, (x, y) in enumerate(zip(orbit, orbit[1:]))
    )
    return IterationTrace(
        mode=SolveMode.STARTPOINT,
        start=orbit[0],
        initial_defect=ONE,
        steps=steps,
        outcome=Outcome(Status.CONVERGED, orbit[-1], ZERO),
        space=space,
    )


#: Distances around the epsilon thresholds, so that d == eps (not below
#: it) is exercised, plus the extended value.
_EXACT_DISTANCES = st.one_of(
    st.sampled_from([ZERO, INFINITY] + [eps for eps in EPSILON_SCHEDULE[:6]]),
    st.fractions(min_value=0, max_value=2, max_denominator=64),
)


class _Float(float):
    """A float subclass: its NaN must read as a NaN too."""


_FLOAT_DISTANCES = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan, _Float(math.nan), 0.5, 0.25, 2.0**-16]),
    st.floats(min_value=0, max_value=2),
)
#: Rows mixing ints, Fractions and floats, NaN included.
_MIXED_DISTANCES = st.one_of(
    st.integers(min_value=0, max_value=2),
    _EXACT_DISTANCES,
    _FLOAT_DISTANCES,
)


@st.composite
def _random_orbits(draw):
    exact, values = draw(
        st.sampled_from(
            [(True, _EXACT_DISTANCES), (False, _FLOAT_DISTANCES), (False, _MIXED_DISTANCES)]
        )
    )
    n = draw(st.integers(min_value=1, max_value=5))
    table = {(i, j): draw(values) for i in range(n) for j in range(n)}
    space = from_oracle(lambda x, y: table[(x, y)], points=range(n), exact=exact)
    orbit = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=9))
    return space, orbit


def _table_space(rows):
    return from_oracle(lambda x, y: rows[x][y], points=range(len(rows)), exact=False)


class TestCauchyTable:
    @given(case=_random_orbits())
    # A float-subclass NaN after a smaller int in its row, and a row that
    # mixes ints, Fractions and floats: neither may skip the NaN scan.
    @example(case=(_table_space([[0, _Float(math.nan)], [0, 0]]), [0, 1]))
    @example(case=(_table_space([[0, F(1, 4), 0.125], [0, 0, math.nan], [0, 0, 0]]), [0, 1, 2]))
    def test_matches_brute_force(self, case):
        space, orbit = case
        report = validate_trace(_orbit_trace(space, orbit), linear(F(1, 2)))
        assert report.cauchy == _brute_force_cauchy(space, orbit)

    def test_single_point_trace(self, dyadic):
        space, _, _ = dyadic
        report = validate_trace(_orbit_trace(space, [ONE]), linear(F(1, 2)))
        assert report.cauchy == tuple((eps, 0) for eps in EPSILON_SCHEDULE)

    @pytest.mark.parametrize("nan_at, n0", [((1, 2), 2), ((0, 0), 1), ((3, 3), 3)])
    def test_nan_distance_fails_its_start(self, nan_at, n0):
        # The start of a NaN pair is never eps-Cauchy, for any eps; a NaN
        # on the last diagonal leaves no start at all (n0 = last).
        space = from_oracle(
            lambda x, y: math.nan if (x, y) == nan_at else 0.0, points=range(4), exact=False
        )
        orbit = [0, 1, 2, 3]
        report = validate_trace(_orbit_trace(space, orbit), linear(F(1, 2)))
        assert report.cauchy == tuple((eps, n0) for eps in EPSILON_SCHEDULE)
        assert report.cauchy == _brute_force_cauchy(space, orbit)

    def test_decimal_nan_distance_fails_its_start(self):
        # A NaN that is no float, in a row of ints, is still found; the
        # brute force cannot compare a Decimal NaN with eps.
        space = from_oracle(
            lambda x, y: Decimal("NaN") if (x, y) == (1, 2) else 0, points=range(4), exact=False
        )
        report = validate_trace(_orbit_trace(space, [0, 1, 2, 3]), linear(F(1, 2)))
        assert report.cauchy == tuple((eps, 2) for eps in EPSILON_SCHEDULE)


def _staircase(length, point=F):
    """A zero-slack staircase 1, 1/2, ..., 2**-length on a counting oracle.

    The dyadic-gap distance charges y - x upward and 2(x - y) downward.
    Each x_i maps to x_{i+1} and two decoys between them that map to the
    far sink 2, which makes them inadmissible.  Every point is made by
    ``point``.  Returns the oracle, the universe, the images, the orbit
    and the oracle's call counter.
    """
    xs = [point(1, 2**i) for i in range(length + 1)]
    sink = point(2)
    images = {sink: (sink,), xs[length]: (xs[length],)}
    universe = [sink, *xs]
    for i in range(length):
        gap = xs[i] - xs[i + 1]
        decoys = [point(xs[i + 1] + gap * F(1, 3)), point(xs[i + 1] + gap * F(2, 3))]
        for c in decoys:
            images[c] = (sink,)
        universe += decoys
        images[xs[i]] = (decoys[0], xs[i + 1], decoys[1])
    calls = [0]

    def d(x, y):
        calls[0] += 1
        return y - x if y >= x else 2 * (x - y)

    return d, universe, images, xs, calls


def test_oracle_call_counts_on_a_staircase():
    # Oracle calls are deterministic, so they gate regressions: the Cauchy
    # table reads each pair k <= n of the orbit once, and solve reads each
    # candidate's defect once and d(x, y) only for the candidates it tests.
    # The start's defect takes 3 reads; each step then reads its decoys'
    # defects (1 each) and the next orbit point's (3, or 1 for the last),
    # and d(x, y) for that point alone, which greedy solve tests first.
    L = 40
    d, universe, images, xs, calls = _staircase(L)
    space, Fm = from_oracle(d, points=universe, t0=True), SetValuedMap(images)
    gamma = linear(F(1, 2))
    trace = solve(space, Fm, gamma, ONE)
    assert calls[0] == 3 + (L - 1) * 6 + 4 == 241
    assert trace.outcome == Outcome(Status.CONVERGED, xs[L], ZERO)
    assert [s.y for s in trace.steps] == xs[1:]
    calls[0] = 0
    report = validate_trace(trace, gamma)
    assert calls[0] == (L + 1) * (L + 2) // 2
    assert report.ok
    assert report.cauchy == _brute_force_cauchy(space, trace.points)


class _HashCountingFraction(Fraction):
    """A Fraction that counts the calls of its (Python-level) ``__hash__``."""

    hashes = 0

    def __hash__(self):
        _HashCountingFraction.hashes += 1
        return super().__hash__()


def test_point_hash_counts_on_a_staircase():
    # Fraction points hash in Python code, so every dict or set lookup of a
    # point costs; the counts are deterministic and gate regressions.
    counting = _HashCountingFraction
    d, universe, images, xs, _ = _staircase(40, point=counting)
    counting.hashes = 0
    space, Fm = from_oracle(d, points=universe, t0=True), SetValuedMap(images)
    assert counting.hashes == 568
    counting.hashes = 0
    trace = solve(space, Fm, linear(F(1, 2)), counting(1))
    assert counting.hashes == 445
    assert [s.y for s in trace.steps] == xs[1:]


def _counting_rows_system():
    """The points, matrix and images of a generated 12-point system, its
    points relabelled as hash-counting Fractions 0, 1, ..., 11."""
    space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=3, size=12))
    universe = space.universe()
    relabel = dict(zip(universe, map(_HashCountingFraction, range(len(universe)))))
    matrix = [[space.d(x, y) for y in universe] for x in universe]
    images = {relabel[x]: [relabel[y] for y in Fm(x)] for x in universe}
    return tuple(relabel.values()), matrix, images


def test_point_hash_counts_on_a_stored_rows_system():
    # A stored-rows space resolves each image to universe positions once
    # per map: one F(x) lookup and |F(x)| position lookups per point, 89
    # here.  Each verify then hashes every point twice (its position and
    # its witness key), the enumerators read the shared defects, and solve
    # takes one step.
    counting = _HashCountingFraction
    points, matrix, images = _counting_rows_system()
    assert (len(points), sum(map(len, images.values()))) == (12, 77)
    space, Fm = from_matrix(points, matrix, t0=True), SetValuedMap(images)
    gamma = linear(F(1, 2))
    counting.hashes = 0
    for mode in ContractionMode:
        verify_weak_contraction(space, Fm, gamma, mode)
    assert counting.hashes == 89 + 3 * 2 * 12
    for fn in (enumerate_startpoints, enumerate_endpoints, enumerate_fixed_points):
        assert fn(space, Fm) == [counting(4)]
    assert counting.hashes == 161
    trace = solve(space, Fm, gamma, points[0])
    assert counting.hashes == 167
    assert [s.y for s in trace.steps] == [counting(4)]


def test_point_hash_counts_of_an_endpoint_solve_after_a_dual_verify():
    # ENDPOINT runs the DUAL inequality on the input space, so it reuses the
    # image positions and DUAL defects a DUAL verify left on the same rows
    # space and map: the one-step solve hashes as few points as the
    # STARTPOINT solve above, where a conjugate space would re-hash its
    # universe and every image.
    counting = _HashCountingFraction
    points, matrix, images = _counting_rows_system()
    space, Fm = from_matrix(points, matrix, t0=True), SetValuedMap(images)
    gamma = linear(F(1, 2))
    verify_weak_contraction(space, Fm, gamma, ContractionMode.DUAL)
    counting.hashes = 0
    trace = solve(space, Fm, gamma, points[0], SolverConfig(mode=SolveMode.ENDPOINT))
    assert counting.hashes == 6
    assert [s.y for s in trace.steps] == [counting(4)]


def test_a_nan_defect_among_tied_candidates_keeps_universe_order():
    # F(0) holds, in universe order: 2, inadmissible with the least defect
    # (1/4 against a bound of 1/8); 6, admissible with defect 1/2; 7, whose
    # defect is NaN; and 9, admissible with the same defect as 6.  A set of
    # the positions {2, 6, 9} iterates 9, 2, 6, so a NaN drop through a set
    # would put 9 ahead of its tie.  The oracle is symmetric, so every mode
    # sees the same candidates; 7 admits 10, so verify certifies the space.
    # No distance between 0 and 7 is read: a NaN defect admits nothing.
    near = {(0, 2): F(1, 4), (2, 3): F(1, 4), (4, 6): F(1, 2), (4, 9): F(1, 2), (7, 8): math.nan}
    read = set()

    def d(x, y):
        read.add((x, y))
        return 0 if x == y else near.get((min(x, y), max(x, y)), ONE)

    images = {x: (x,) for x in range(12)}
    images.update({0: (2, 6, 7, 9), 2: (3,), 6: (4,), 7: (8, 10), 9: (4,)})
    space, Fm, gamma = from_oracle(d, points=range(12)), SetValuedMap(images), linear(F(1, 2))
    for mode in ContractionMode:
        brute = [
            (y, mode_defect(space, y, Fm, mode))
            for y in Fm(0)
            if space.leq(mode_defect(space, y, Fm, mode), admissibility_bound(space, gamma, mode, 0, y))
        ]
        assert brute == [(6, F(1, 2)), (9, F(1, 2))]
        best = min(brute, key=lambda pair: pair[1])
        read.clear()
        assert admissible_candidates(space, Fm, gamma, 0, mode) == brute
        assert read.isdisjoint({(0, 7), (7, 0)})
        assert verify_weak_contraction(space, Fm, gamma, mode).witnesses[0] == best[0]
        for selection, want in ((Selection.GREEDY_MIN_DEFECT, best), (Selection.FIRST_ADMISSIBLE, brute[0])):
            config = SolverConfig(mode=mode, selection=selection, max_iterations=1)
            step = solve(space, Fm, gamma, 0, config).steps[0]
            assert (step.x, step.y, step.defect, step.d) == (0, *want, ONE)


def test_oracle_call_counts_on_the_truncated_dyadic_system():
    # Counts per FORWARD/DUAL/SYMMETRIC (STARTPOINT/ENDPOINT/FIXEDPOINT for
    # solve); they are deterministic.  Verify and solve stop at the first
    # admissible candidate, so they read no distance to the candidates
    # after it, and SYMMETRIC reads d(y, x) only where d(x, y) admits y.
    inner, Fm, gamma = dyadic_halving_truncated(12)
    calls = [0]

    def d(x, y):
        calls[0] += 1
        return inner.d(x, y)

    space = from_oracle(d, points=inner.universe(), t0=True)

    def count(run):
        calls[0] = 0
        run()
        return calls[0]

    modes = list(ContractionMode)
    enumerators = (enumerate_startpoints, enumerate_endpoints, enumerate_fixed_points)
    assert [count(lambda: verify_weak_contraction(space, Fm, gamma, m)) for m in modes] == [
        38,
        38,
        76,
    ]
    assert [count(lambda: fn(space, Fm)) for fn in enumerators] == [26, 26, 52]
    configs = [SolverConfig(mode=m) for m in SolveMode]
    assert [count(lambda: solve(space, Fm, gamma, ONE, c)) for c in configs] == [6, 6, 12]
    firsts = [SolverConfig(mode=m, selection=Selection.FIRST_ADMISSIBLE) for m in SolveMode]
    assert [count(lambda: solve(space, Fm, gamma, ONE, c)) for c in firsts] == [7, 7, 13]
    traces = [solve(space, Fm, gamma, ONE, c) for c in configs]
    assert [count(lambda: validate_trace(t, gamma)) for t in traces] == [3, 3, 3]
    assert [
        count(lambda: admissible_candidates(space, Fm, gamma, ONE, m)) for m in modes
    ] == [5, 5, 9]
