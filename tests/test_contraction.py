import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpmetric import (
    ContractionCertificate,
    ContractionMode,
    GeneratorSeed,
    Selection,
    SetValuedMap,
    SolveMode,
    SolverConfig,
    Status,
    Violation,
    admissibility_bound,
    admissible_candidates,
    conjugate,
    dyadic_halving_system,
    dyadic_halving_truncated,
    endpoint_defect,
    enumerate_endpoints,
    enumerate_fixed_points,
    enumerate_startpoints,
    fixed_defect,
    from_matrix,
    from_oracle,
    hausdorff,
    linear,
    mode_defect,
    random_weakly_contractive_system,
    rational_shrink,
    solve,
    startpoint_defect,
    user_table,
    verify_weak_contraction,
)

F = Fraction
ZERO, ONE = F(0), F(1)


@pytest.fixture
def dyadic():
    return dyadic_halving_system()


class TestDefects:
    def test_startpoint_defect_at_zero(self, dyadic):
        space, Fm, _ = dyadic
        assert startpoint_defect(space, ZERO, Fm) == 0

    def test_startpoint_defect_at_one(self, dyadic):
        space, Fm, _ = dyadic
        assert startpoint_defect(space, ONE, Fm) == 2

    def test_endpoint_defect_at_one(self, dyadic):
        space, Fm, _ = dyadic
        assert endpoint_defect(space, ONE, Fm) == 1

    def test_fixed_defect_is_max(self, dyadic):
        space, Fm, _ = dyadic
        assert fixed_defect(space, ZERO, Fm) == 0
        assert fixed_defect(space, ONE, Fm) == 2

    def test_self_image_is_everything_point(self):
        space = from_matrix(("a", "b"), [[0, 1], [1, 0]])
        Fm = SetValuedMap({"a": ["a"], "b": ["b"]})
        for x in "ab":
            assert startpoint_defect(space, x, Fm) == 0
            assert endpoint_defect(space, x, Fm) == 0
            assert fixed_defect(space, x, Fm) == 0

    def test_defects_agree_with_full_hausdorff(self, dyadic):
        # The shortcuts must match the two-sided definition.
        space, Fm, _ = dyadic
        from qpmetric import halving_point

        for x in [ZERO] + [halving_point(n) for n in range(8)]:
            assert startpoint_defect(space, x, Fm) == hausdorff(space, [x], Fm(x))
            assert endpoint_defect(space, x, Fm) == hausdorff(space, Fm(x), [x])

    def test_endpoint_is_conjugate_startpoint(self):
        space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=5, size=7))
        conj = conjugate(space)
        for x in space.universe():
            assert endpoint_defect(space, x, Fm) == startpoint_defect(conj, x, Fm)

    def test_symmetric_space_defects_coincide(self):
        space = from_matrix(("a", "b", "c"), [[0, 2, 1], [2, 0, 3], [1, 3, 0]])
        Fm = SetValuedMap({"a": ["b"], "b": ["c", "a"], "c": ["c"]})
        for x in "abc":
            assert startpoint_defect(space, x, Fm) == endpoint_defect(space, x, Fm)


class TestSetValuedMap:
    def test_images_are_deduped_tuples(self):
        Fm = SetValuedMap({"a": ["b", "b", "a"]})
        assert Fm("a") == ("b", "a")

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            SetValuedMap({"a": []})

    def test_callable_images_cached(self):
        calls = []

        def images(x):
            calls.append(x)
            return (x,)

        Fm = SetValuedMap(images)
        assert Fm("a") == ("a",)
        assert Fm("a") == ("a",)
        assert calls == ["a"]

    def test_undefined_point_raises(self):
        Fm = SetValuedMap({"a": ["a"]})
        with pytest.raises(KeyError):
            Fm("b")


class TestVerify:
    def test_truncated_dyadic_witness_is_zero_everywhere(self):
        space, Fm, gamma = dyadic_halving_truncated(10)
        result = verify_weak_contraction(space, Fm, gamma, ContractionMode.FORWARD)
        assert isinstance(result, ContractionCertificate)
        assert result.checked_points == space.universe()
        assert set(result.witnesses.values()) == {ZERO}

    def test_identity_map_certifies_any_mode(self):
        space = from_matrix(("a", "b"), [[0, 5], [3, 0]])
        Fm = SetValuedMap({"a": ["a"], "b": ["b"]})
        for mode in ContractionMode:
            result = verify_weak_contraction(space, Fm, linear(F(1, 2)), mode)
            assert isinstance(result, ContractionCertificate)
            assert result.witnesses == {"a": "a", "b": "b"}

    def test_swap_map_violates_forward(self, swap_system):
        space, Fm, gamma = swap_system
        result = verify_weak_contraction(space, Fm, gamma, ContractionMode.FORWARD)
        assert result == Violation(ContractionMode.FORWARD, "a")

    @pytest.mark.parametrize("image_of_a", [["a"], ["b"]])
    def test_image_point_outside_universe_is_named(self, image_of_a):
        # Met while scanning b, or earlier as a candidate of a.
        space = from_matrix(("a", "b"), [[0, 1], [1, 0]])
        Fm = SetValuedMap({"a": image_of_a, "b": ["c", "b"]})
        with pytest.raises(ValueError, match=r"'b'.*'c'"):
            verify_weak_contraction(space, Fm, linear(F(1, 2)))

    def test_certificate_inequalities_hold(self):
        from qpmetric import admissibility_bound, mode_defect

        gamma = linear(F(1, 2))
        for seed in range(5):
            space, Fm = random_weakly_contractive_system(
                GeneratorSeed(seed=seed, size=6), gamma
            )
            for mode in (ContractionMode.FORWARD,):
                cert = verify_weak_contraction(space, Fm, gamma, mode)
                assert isinstance(cert, ContractionCertificate)
                for x, y in cert.witnesses.items():
                    assert y in Fm(x)
                    assert mode_defect(space, y, Fm, mode) <= admissibility_bound(
                        space, gamma, mode, x, y
                    )

    def test_witness_chains_have_nonincreasing_defects(self):
        gamma = linear(F(1, 2))
        space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=41, size=9), gamma)
        cert = verify_weak_contraction(space, Fm, gamma)
        for x in space.universe():
            seen = set()
            while x not in seen:
                seen.add(x)
                y = cert.witnesses[x]
                assert startpoint_defect(space, y, Fm) <= startpoint_defect(space, x, Fm)
                x = y

    def test_dual_mode_on_reversed_funnel(self, funnel_system):
        space, Fm, gamma = funnel_system
        conj_cert = verify_weak_contraction(conjugate(space), Fm, gamma, ContractionMode.FORWARD)
        dual_cert = verify_weak_contraction(space, Fm, gamma, ContractionMode.DUAL)
        assert type(dual_cert) is type(conj_cert)
        if isinstance(dual_cert, ContractionCertificate):
            assert dual_cert.witnesses == conj_cert.witnesses


class TestSymmetricRule:
    """SYMMETRIC admits y exactly when the FORWARD and DUAL inequalities
    both hold; at an infinite distance t - gamma(t) is NaN and holds for
    nothing, whichever direction it is in."""

    @pytest.mark.parametrize(
        "ab, ba",
        [(1, math.inf), (math.inf, 1), (1, math.nan)],
        ids=["forward-finite", "dual-finite", "dual-nan"],
    )
    def test_a_nan_side_admits_nothing(self, ab, ba):
        far = {("a", "b"): ab, ("b", "a"): ba}
        space = from_oracle(lambda x, y: 0 if x == y else far[x, y], points=("a", "b"))
        Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
        gamma = linear(F(1, 2))
        mode = ContractionMode.SYMMETRIC
        assert verify_weak_contraction(space, Fm, gamma, mode) == Violation(mode, "a")
        assert admissible_candidates(space, Fm, gamma, "a", mode) == []
        bound = admissibility_bound(space, gamma, mode, "a", "b")
        assert bound != bound
        trace = solve(space, Fm, gamma, "a", SolverConfig(mode=SolveMode.FIXEDPOINT))
        assert trace.outcome.status is Status.CONTRACTION_VIOLATED
        assert trace.outcome.point == "a"

    def test_finite_sides_take_the_smaller_bound(self):
        space = from_matrix(("a", "b"), [[0, 1], [F(1, 2), 0]])
        Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
        gamma = linear(F(1, 2))
        assert admissibility_bound(space, gamma, ContractionMode.SYMMETRIC, "a", "b") == F(1, 4)
        assert admissible_candidates(space, Fm, gamma, "a", ContractionMode.SYMMETRIC) == [
            ("b", 0)
        ]


class TestNaNDistances:
    """A defect is NaN when any distance it reads is NaN, whatever the
    order of the image: builtin max keeps a NaN only when it comes first."""

    @pytest.mark.parametrize(
        "nan_pair, mode",
        [(("a", "c"), ContractionMode.FORWARD), (("c", "a"), ContractionMode.DUAL)],
        ids=["forward", "dual"],
    )
    @pytest.mark.parametrize("image", list(itertools.permutations("abc")), ids="".join)
    def test_one_nan_in_any_image_order(self, nan_pair, mode, image):
        # Every distance is 0 but one NaN, read by the defects at a only.
        space = from_oracle(
            lambda x, y: math.nan if (x, y) == nan_pair else 0.0,
            points=("a", "b", "c"),
            exact=False,
        )
        Fm = SetValuedMap({"a": image, "b": ("b",), "c": ("c",)})
        forward = mode is ContractionMode.FORWARD
        defect = startpoint_defect if forward else endpoint_defect
        other = endpoint_defect if forward else startpoint_defect
        assert math.isnan(defect(space, "a", Fm))
        assert math.isnan(fixed_defect(space, "a", Fm))
        assert other(space, "a", Fm) == 0
        enumerated = enumerate_startpoints if forward else enumerate_endpoints
        assert enumerated(space, Fm) == ["b", "c"]
        assert enumerate_fixed_points(space, Fm) == ["b", "c"]
        # a's own defect is NaN, and so is its distance to or from c: b is
        # the only admissible candidate at a.
        for m in (mode, ContractionMode.SYMMETRIC):
            certificate = verify_weak_contraction(space, Fm, linear(F(1, 2)), m)
            assert certificate.witnesses == {"a": "b", "b": "b", "c": "c"}


class TestEnumerate:
    @pytest.mark.parametrize(
        "enumerate_fn", [enumerate_startpoints, enumerate_endpoints, enumerate_fixed_points]
    )
    def test_image_point_outside_universe_is_named(self, enumerate_fn):
        space = from_matrix(("a", "b"), [[0, 1], [1, 0]])
        Fm = SetValuedMap({"a": ["c"], "b": ["b"]})
        with pytest.raises(ValueError, match=r"image of 'a' contains 'c', which is not in"):
            enumerate_fn(space, Fm)

    def test_truncated_dyadic_all_three(self):
        space, Fm, _ = dyadic_halving_truncated(10)
        assert enumerate_startpoints(space, Fm) == [ZERO]
        assert enumerate_endpoints(space, Fm) == [ZERO]
        assert enumerate_fixed_points(space, Fm) == [ZERO]

    def test_identity_map_everything(self):
        space = from_matrix(("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        Fm = SetValuedMap({x: [x] for x in "abc"})
        assert enumerate_startpoints(space, Fm) == ["a", "b", "c"]

    def test_constant_map_on_asymmetric_pair(self):
        # d(b, a) = 0 makes b a startpoint too (every image member is at
        # distance zero); only a is an endpoint since d(a, b) = 1.
        space = from_matrix(("a", "b"), [[0, 1], [0, 0]], t0=True)
        Fm = SetValuedMap({"a": ["a"], "b": ["a"]})
        assert enumerate_startpoints(space, Fm) == ["a", "b"]
        assert enumerate_endpoints(space, Fm) == ["a"]
        assert enumerate_fixed_points(space, Fm) == ["a"]

    def test_duality_law(self):
        for seed in range(10):
            space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=seed, size=6))
            assert enumerate_endpoints(space, Fm) == enumerate_startpoints(
                conjugate(space), Fm
            )

    def test_fixed_point_iff_both(self):
        for seed in range(10):
            space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=seed, size=6))
            starts = set(enumerate_startpoints(space, Fm))
            ends = set(enumerate_endpoints(space, Fm))
            assert set(enumerate_fixed_points(space, Fm)) == starts & ends


# ---------------------------------------------------------------------------
# verify_weak_contraction against its former candidate loop.


def _brute_force_verify(space, F, gamma, mode=ContractionMode.FORWARD):
    """Reference: per x, scan F(x) in universe order and keep the
    admissible candidate of minimum own defect, ties by universe order."""
    universe = space.universe()
    order = {p: i for i, p in enumerate(universe)}
    witnesses = {}
    for x in universe:
        best = None
        for y in sorted(F(x), key=order.__getitem__):
            dy = mode_defect(space, y, F, mode)
            if space.leq(dy, admissibility_bound(space, gamma, mode, x, y)):
                key = (dy, order[y], y)
                if best is None or key[:2] < best[:2]:
                    best = key
        if best is None:
            return Violation(mode=mode, point=x)
        witnesses[x] = best[2]
    return ContractionCertificate(mode=mode, witnesses=witnesses, checked_points=universe)


#: Few distinct values, so that defects tie often.
tied_values = st.sampled_from([0, 0, F(1, 4), F(1, 2), 1, 2])
near_tolerance = st.sampled_from([0.0, 5e-10, 1e-9, 0.25, 0.5 + 5e-10, 0.5, 1.0])


@st.composite
def _systems(draw):
    exact = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=6))
    points = [f"p{i}" for i in range(n)]
    entries = tied_values if exact else near_tolerance
    m = [[0 if i == j else draw(entries) for j in range(n)] for i in range(n)]
    # Images are nonempty and listed in any order, not only universe order.
    images = {x: draw(st.permutations(points))[: draw(st.integers(1, n))] for x in points}
    gamma = draw(st.sampled_from([linear(F(1, 2)), linear(F(1, 8)), rational_shrink()]))
    space = from_matrix(points, m, exact=exact)
    return space, SetValuedMap(images), gamma


@given(system=_systems())
def test_verify_matches_brute_force(system):
    space, Fm, gamma = system
    for mode in ContractionMode:
        result = verify_weak_contraction(space, Fm, gamma, mode)
        assert result == _brute_force_verify(space, Fm, gamma, mode)
    result = verify_weak_contraction(space, Fm, gamma)
    if isinstance(result, ContractionCertificate):
        # The witness is the step greedy solve takes from a non-startpoint.
        tol = F(0) if space.exact else space.tolerance
        for x in space.universe():
            trace = solve(space, Fm, gamma, x, SolverConfig(tolerance=tol, max_iterations=1))
            if trace.steps:
                assert trace.steps[0].y == result.witnesses[x]


def test_verify_brute_force_sees_ties_and_violations():
    # The hypothesis draws above include both outcomes; pin one of each.
    space = from_matrix(("a", "b", "c"), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    tied = SetValuedMap({"a": ["c", "b"], "b": ["b"], "c": ["c"]})
    cert = verify_weak_contraction(space, tied, linear(F(1, 2)))
    assert cert == _brute_force_verify(space, tied, linear(F(1, 2)))
    assert cert.witnesses["a"] == "b"  # c ties b on defect 0; b comes first
    # From b, a's defect 1 exceeds the bound 1 - 1/2; a itself passes via c.
    swap = SetValuedMap({"a": ["c"], "b": ["a"], "c": ["c"]})
    violation = verify_weak_contraction(space, swap, linear(F(1, 2)))
    assert violation == _brute_force_verify(space, swap, linear(F(1, 2)))
    assert violation == Violation(ContractionMode.FORWARD, "b")


def _min_of_admissible(space, Fm, gamma, mode):
    """Reference: for each x, the min by defect of admissible_candidates
    (the first of equal defects); the first x with none is the Violation."""
    witnesses = {}
    for x in space.universe():
        found = admissible_candidates(space, Fm, gamma, x, mode)
        if not found:
            return Violation(mode=mode, point=x)
        witnesses[x] = min(found, key=lambda pair: pair[1])[0]
    return ContractionCertificate(mode=mode, witnesses=witnesses, checked_points=space.universe())


def _planted_system():
    """Among a's candidates, c has the least defect but is inadmissible, d
    and e tie on the next defect, and b, first in universe order, is
    admissible with a larger one.  The matrix is symmetric, so this holds
    in every mode."""
    points = ("a", "b", "c", "d", "e", "s")
    h, q = F(1, 2), F(1, 4)
    m = [
        [0, 2, q, 3, 3, 2],
        [2, 0, 1, 1, 1, 1],
        [q, 1, 0, 1, 1, q],
        [3, 1, 1, 0, 1, h],
        [3, 1, 1, 1, 0, h],
        [2, 1, q, h, h, 0],
    ]
    images = {x: ["s"] for x in points}
    images["a"] = ["e", "d", "c", "b"]
    return points, m, SetValuedMap(images)


@pytest.mark.parametrize("kind", ["rows", "oracle"])
def test_verify_takes_the_min_of_the_admissible_candidates(kind):
    points, m, Fm = _planted_system()
    space = from_matrix(points, m)
    if kind == "oracle":
        space = from_oracle(space.d, points=points)
    gamma = linear(F(1, 2))
    for mode in ContractionMode:
        assert mode_defect(space, "c", Fm, mode) < mode_defect(space, "d", Fm, mode)
        assert admissible_candidates(space, Fm, gamma, "a", mode) == [
            ("b", 1),
            ("d", F(1, 2)),
            ("e", F(1, 2)),
        ]
        result = verify_weak_contraction(space, Fm, gamma, mode)
        assert result == _min_of_admissible(space, Fm, gamma, mode)
        assert result.witnesses["a"] == "d"


def test_verify_takes_the_min_of_the_admissible_candidates_on_corpus_systems():
    # Four points map to themselves (defect 0 in every mode, so ties); the
    # rest to a random part of the universe.
    import random

    for seed in range(12):
        space, _ = random_weakly_contractive_system(GeneratorSeed(seed=seed, size=9))
        points = space.universe()
        rng = random.Random(seed)
        fixed = set(rng.sample(points, 4))
        images = {x: [x] if x in fixed else rng.sample(points, rng.randint(1, 9)) for x in points}
        Fm = SetValuedMap(images)
        for gamma in (linear(F(1, 2)), linear(F(1, 8)), rational_shrink()):
            oracle = from_oracle(space.d, points=points)
            for target in (space, conjugate(space), oracle):
                for mode in ContractionMode:
                    got = verify_weak_contraction(target, Fm, gamma, mode)
                    assert got == _min_of_admissible(target, Fm, gamma, mode)


@pytest.mark.parametrize("kind", ["rows", "oracle"])
def test_a_violation_met_before_a_stray_image_stays_a_violation(kind):
    # a's only candidate b is inadmissible in every mode; c, a candidate
    # of b but not of a, has an image outside the universe.
    space = from_matrix(("a", "b", "c"), [[0, 1, 1], [1, 0, 5], [1, 5, 0]])
    if kind == "oracle":
        space = from_oracle(space.d, points=space.universe())
    Fm = SetValuedMap({"a": ["b"], "b": ["c"], "c": ["z"]})
    for mode in ContractionMode:
        assert verify_weak_contraction(space, Fm, linear(F(1, 2)), mode) == Violation(mode, "a")


@pytest.mark.parametrize("kind", ["rows", "oracle"])
def test_a_stray_image_of_a_candidate_is_named(kind):
    # a's candidate b has an image outside the universe.
    space = from_matrix(("a", "b", "c"), [[0, 1, 1], [5, 0, 5], [1, 1, 0]])
    if kind == "oracle":
        space = from_oracle(space.d, points=space.universe())
    Fm = SetValuedMap({"a": ["c", "b"], "b": ["z", "a"], "c": ["c"]})
    for mode in ContractionMode:
        with pytest.raises(ValueError, match="^image of 'b' contains 'z', which is not in"):
            verify_weak_contraction(space, Fm, linear(F(1, 2)), mode)


# ---------------------------------------------------------------------------
# A stored-rows space resolves each map once and shares it across calls.

_ENUMERATORS = (enumerate_startpoints, enumerate_endpoints, enumerate_fixed_points)


def _every_scan(space, images, gamma, share, verify_first):
    """What verify, the enumerators, admissible_candidates and solve (every
    mode and selection, from every point) return on ``space``, each call
    given the one shared map or a fresh one; verify runs before the
    enumerators or after them."""
    shared = SetValuedMap(images)

    def fm():
        return shared if share else SetValuedMap(images)

    calls = {
        "verify": lambda: [verify_weak_contraction(space, fm(), gamma, m) for m in ContractionMode],
        "enumerate": lambda: [fn(space, fm()) for fn in _ENUMERATORS],
    }
    order = ("verify", "enumerate") if verify_first else ("enumerate", "verify")
    results = {name: calls[name]() for name in order}
    for x in space.universe():
        results[x] = [admissible_candidates(space, fm(), gamma, x, m) for m in ContractionMode]
        for mode, selection in itertools.product(SolveMode, Selection):
            trace = solve(space, fm(), gamma, x, SolverConfig(mode=mode, selection=selection))
            # An ENDPOINT trace holds a fresh conjugate space; compare the rest.
            results[x].append((trace.initial_defect, trace.steps, trace.outcome))
    return results


def _corpus_systems():
    """Twelve generated systems as in the test above, each with a random
    map, and the planted system."""
    for seed in range(12):
        space, _ = random_weakly_contractive_system(GeneratorSeed(seed=seed, size=9))
        points = space.universe()
        rng = random.Random(seed)
        fixed = set(rng.sample(points, 4))
        yield space, {x: [x] if x in fixed else rng.sample(points, rng.randint(1, 9)) for x in points}
    points, m, Fm = _planted_system()
    yield from_matrix(points, m), {x: Fm(x) for x in points}


@pytest.mark.filterwarnings("ignore::qpmetric.SampledComparisonWarning")
def test_calls_sharing_a_map_return_what_calls_with_fresh_maps_do():
    gammas = (linear(F(1, 2)), rational_shrink(), user_table([(F(1, 8), F(1, 16)), (8, 4)]))
    for space, images in _corpus_systems():
        for target, gamma in itertools.product((space, conjugate(space)), gammas):
            want = _every_scan(target, images, gamma, False, True)
            assert _every_scan(target, images, gamma, True, True) == want
            assert _every_scan(target, images, gamma, False, False) == want
            assert _every_scan(target, images, gamma, True, False) == want
        # Two maps alive on one space are resolved apart.
        Fm, identity = SetValuedMap(images), SetValuedMap({x: [x] for x in space.universe()})
        want = [fn(space, Fm) for fn in _ENUMERATORS]
        for fn in _ENUMERATORS:
            assert fn(space, identity) == list(space.universe())
        assert [fn(space, Fm) for fn in _ENUMERATORS] == want


def test_a_stray_image_raises_on_every_call_sharing_the_map():
    space = from_matrix(("a", "b", "c"), [[0, 1, 1], [5, 0, 5], [1, 1, 0]])
    Fm = SetValuedMap({"a": ["c", "b"], "b": ["z", "a"], "c": ["c"]})
    calls = [lambda m=m: verify_weak_contraction(space, Fm, linear(F(1, 2)), m) for m in ContractionMode]
    calls += [lambda fn=fn: fn(space, Fm) for fn in _ENUMERATORS]
    calls += [lambda: solve(space, Fm, linear(F(1, 2)), "b")]
    for call in calls:
        for _ in range(3):
            with pytest.raises(ValueError, match="^image of 'b' contains 'z', which is not in"):
                call()


def test_the_shared_resolution_keeps_neither_space_nor_map_alive():
    points, m, Fm = _planted_system()
    space = from_matrix(points, m)
    for mode in ContractionMode:
        verify_weak_contraction(space, Fm, linear(F(1, 2)), mode)
    assert len(space.resolved) == 1
    map_ref = weakref.ref(Fm)
    del Fm
    gc.collect()
    assert map_ref() is None and len(space.resolved) == 0
    space_ref = weakref.ref(space)
    del space
    gc.collect()
    assert space_ref() is None
