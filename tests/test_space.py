import gc
import itertools
import math
import operator
import re
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import qpmetric.axioms as axioms_module
import qpmetric.space as space_module
from qpmetric import (
    INFINITY,
    AxiomCheck,
    AxiomReport,
    ContractionMode,
    GeneratorSeed,
    QSpace,
    SetValuedMap,
    admissibility_bound,
    ball_contains,
    check_axioms,
    conjugate,
    dist_point_set,
    dist_set_point,
    distance_matrix,
    dyadic_halving_system,
    endpoint_defect,
    fixed_defect,
    from_matrix,
    from_oracle,
    halving_point,
    hausdorff,
    linear,
    minplus_closure,
    mode_defect,
    random_t0_qspace,
    startpoint_defect,
    symmetrize,
)

F = Fraction
ZERO, QTR, HALF, ONE = F(0), F(1, 4), F(1, 2), F(1)


def oracle_hausdorff(d, A, B):
    """Independent brute force straight from the definition."""
    forward = max(min(d(a, b) for b in B) for a in A)
    backward = max(min(d(a, b) for a in A) for b in B)
    return max(forward, backward)


@pytest.fixture
def dyadic():
    space, _, _ = dyadic_halving_system()
    return space


class TestCheckAxioms:
    def test_two_point_asymmetric_passes_all(self):
        space = from_matrix(("a", "b"), [[0, 1], [0, 0]], t0=True)
        # Oracle: all 8 triples by hand.
        d = space.d
        for x, y, z in itertools.product("ab", repeat=3):
            assert d(x, z) <= d(x, y) + d(y, z)
        report = check_axioms(space, check_t0=True)
        assert report.ok
        assert [c.axiom for c in report.checks] == ["identity", "triangle", "t0"]
        assert not report.sampled

    def test_nonzero_diagonal_fails_identity(self):
        space = from_matrix(("a", "b"), [[0.5, 1], [1, 0]], exact=False)
        report = check_axioms(space)
        assert not report.identity.passed
        assert report.identity.witness == ("a",)

    def test_triangle_violation_with_witness(self):
        space = from_matrix(
            ("a", "b", "c"),
            [[0, 1, 5], [0, 0, 1], [0, 0, 0]],
        )
        report = check_axioms(space)
        assert report.identity.passed
        assert not report.triangle.passed
        assert report.triangle.witness == ("a", "b", "c")

    def test_t0_failure_witness(self):
        space = from_matrix(("a", "b"), [[0, 0], [0, 0]])
        report = check_axioms(space, check_t0=True)
        assert not report.t0.passed
        assert report.t0.witness == ("a", "b")

    def test_t0_skipped_unless_requested(self):
        space = from_matrix(("a", "b"), [[0, 0], [0, 0]])
        assert check_axioms(space).t0 is None
        assert check_axioms(space).ok

    def test_oracle_universe_requires_sample(self, dyadic):
        with pytest.raises(ValueError):
            check_axioms(dyadic)
        sample = [halving_point(n) for n in range(6)] + [ZERO]
        report = check_axioms(dyadic, points=sample, check_t0=True)
        assert report.ok and report.sampled
        assert report.identity.status(report.sampled) == "SAMPLED-PASS"


class TestTransforms:
    def test_conjugate_swaps(self):
        space = from_matrix(("a", "b"), [[0, 1], [0, 0]])
        conj = conjugate(space)
        assert conj.d("a", "b") == 0
        assert conj.d("b", "a") == 1

    def test_conjugate_involution_exact(self):
        space = random_t0_qspace(GeneratorSeed(seed=3, size=5))
        twice = conjugate(conjugate(space))
        for x in space.universe():
            for y in space.universe():
                assert twice.d(x, y) == space.d(x, y)

    def test_conjugate_of_symmetric_space_is_identity(self):
        space = from_matrix(("a", "b"), [[0, 2], [2, 0]])
        conj = conjugate(space)
        for x, y in itertools.product("ab", repeat=2):
            assert conj.d(x, y) == space.d(x, y)

    def test_symmetrize_takes_max(self):
        space = from_matrix(("a", "b"), [[0, 1], [0, 0]])
        sym = symmetrize(space)
        assert sym.d("a", "b") == sym.d("b", "a") == 1

    def test_symmetrize_fixes_symmetric_input(self):
        space = from_matrix(("a", "b"), [[0, 3], [3, 0]])
        sym = symmetrize(space)
        for x, y in itertools.product("ab", repeat=2):
            assert sym.d(x, y) == space.d(x, y)

    def test_symmetrize_dyadic_value(self, dyadic):
        assert symmetrize(dyadic).d(HALF, ONE) == 1

    def test_symmetrize_is_pointwise_max_of_both(self):
        space = random_t0_qspace(GeneratorSeed(seed=11, size=6))
        sym, conj = symmetrize(space), conjugate(space)
        for x in space.universe():
            for y in space.universe():
                assert sym.d(x, y) == max(space.d(x, y), conj.d(x, y))


class TestSetDistances:
    def test_member_gives_zero(self, dyadic):
        assert dist_point_set(dyadic, ONE, [ONE, HALF]) == 0

    def test_point_to_set_dyadic(self, dyadic):
        assert dist_point_set(dyadic, ONE, [HALF, ZERO]) == 1

    def test_set_to_point_dyadic(self, dyadic):
        assert dist_set_point(dyadic, [HALF, ZERO], ONE) == HALF

    def test_bounded_by_every_member_with_equality(self, dyadic):
        A = [ZERO, QTR, ONE]
        v = dist_point_set(dyadic, HALF, A)
        assert all(v <= dyadic.d(HALF, a) for a in A)
        assert any(v == dyadic.d(HALF, a) for a in A)

    def test_empty_set_rejected(self, dyadic):
        with pytest.raises(ValueError):
            dist_point_set(dyadic, ONE, [])


class TestHausdorff:
    def test_self_distance_zero(self, dyadic):
        assert hausdorff(dyadic, [ONE, QTR], [ONE, QTR]) == 0

    def test_dyadic_pair_value(self, dyadic):
        assert hausdorff(dyadic, [ZERO, QTR], [HALF]) == HALF

    def test_singleton_shortcut_value(self, dyadic):
        assert hausdorff(dyadic, [ONE], [HALF, ZERO]) == 2

    def test_matches_oracle_on_random_sets(self):
        import random

        space = random_t0_qspace(GeneratorSeed(seed=19, size=8))
        pts = space.universe()
        rng = random.Random(99)
        for _ in range(50):
            A = rng.sample(pts, rng.randint(1, len(pts)))
            B = rng.sample(pts, rng.randint(1, len(pts)))
            assert hausdorff(space, A, B) == oracle_hausdorff(space.d, A, B)

    def test_triangle_and_duality_small(self):
        import random

        space = random_t0_qspace(GeneratorSeed(seed=23, size=7))
        conj = conjugate(space)
        pts = space.universe()
        rng = random.Random(7)
        for _ in range(40):
            A, B, C = (rng.sample(pts, rng.randint(1, len(pts))) for _ in range(3))
            assert hausdorff(space, A, C) <= hausdorff(space, A, B) + hausdorff(space, B, C)
            assert hausdorff(conj, A, B) == hausdorff(space, B, A)

    def test_infinity_is_absorbing(self):
        assert INFINITY + F(1, 2) == INFINITY
        assert F(1, 2) < INFINITY
        space = from_oracle(lambda x, y: 0 if x == y else INFINITY)
        assert hausdorff(space, ["a"], ["b"]) == INFINITY
        assert math.isinf(hausdorff(space, ["a"], ["b"]))


def _refused(field, run, *args, **kwargs):
    """Assert that ``run(*args, **kwargs)`` raises the reader's FieldError
    naming ``field``."""
    with pytest.raises(space_module.FieldError) as got:
        run(*args, **kwargs)
    assert got.value.field == field


#: Oracle values that are no distance: NaN, negatives, bools, and values
#: that are no real number (Decimals among them).
BAD_VALUES = [
    math.nan,
    Decimal("NaN"),
    -1,
    F(-1, 2),
    -0.5,
    -INFINITY,
    Decimal(-1),
    True,
    False,
    "a",
    "1",
    None,
    1j,
    Decimal("0.25"),
    Decimal("Infinity"),
]
#: Oracle values that the reader passes as they are.
GOOD_VALUES = [0, 3, F(1, 2), 0.5, 0.0, -0.0, INFINITY]


class TestNaNSetDistances:
    """An oracle value that is no distance (NaN here) is refused by the one
    reader, naming the pair, whatever the order of the sets; set distances
    that do not read it keep their values."""

    @pytest.fixture
    def space(self):
        # d(a, b) = 0 and d(a, c) = NaN; every other distance off the
        # diagonal is 1.
        def d(x, y):
            return {("a", "c"): math.nan, ("a", "b"): 0.0}.get((x, y), 0.0 if x == y else 1.0)

        return from_oracle(d, points=("a", "b", "c"), exact=False)

    @pytest.mark.parametrize("order", list(itertools.permutations("abc")), ids="".join)
    def test_every_order_of_a_three_point_set(self, space, order):
        pair = [p for p in order if p != "a"]  # b and c, in both orders
        _refused("d('a', 'c')", dist_point_set, space, "a", order)
        _refused("d('a', 'c')", dist_point_set, space, "a", pair)
        _refused("d('a', 'c')", dist_set_point, space, order, "c")
        _refused("d('a', 'c')", hausdorff, space, ["a"], pair)
        _refused("d('a', 'c')", hausdorff, space, order, order)
        _refused("d('a', 'c')", hausdorff, space, order, ["c"])
        _refused("d('a', 'c')", ball_contains, space, "a", 1, "c")
        _refused("d('a', 'c')", distance_matrix, space)
        # Sets that read no NaN keep their values.
        assert dist_set_point(space, pair, "a") == 1.0
        assert hausdorff(space, pair, ["a"]) == 1.0

    def test_symmetrize_is_symmetric(self, space):
        # Each of the two reads is checked: a max would hide the NaN side.
        sym = symmetrize(space)
        _refused("d('a', 'c')", sym.d, "a", "c")
        _refused("d('a', 'c')", sym.d, "c", "a")
        assert sym.d("a", "b") == sym.d("b", "a") == 1.0

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_every_reader_refuses_a_value_that_is_no_distance(self, bad, exact):
        # d(b, a) alone is bad: a read from b to a, or from a to b in the
        # conjugate, names it.
        space = from_oracle(
            lambda x, y: bad if (x, y) == ("b", "a") else 0, points=("a", "b"), exact=exact
        )
        field = "d('b', 'a')"
        _refused(field, dist_point_set, space, "b", ["a", "b"])
        _refused(field, dist_set_point, space, ["b", "a"], "a")
        _refused(field, hausdorff, space, ["b"], ["a"])
        _refused(field, hausdorff, space, ["a", "b"], ["a"])
        _refused(field, ball_contains, space, "b", 1, "a")
        _refused(field, distance_matrix, space)
        _refused(field, check_axioms, space)
        _refused("d('a', 'b')", distance_matrix, conjugate(space))
        for x, y in (("a", "b"), ("b", "a")):
            _refused(field, symmetrize(space).d, x, y)
        # Reads that miss the bad value are unchanged.
        assert dist_point_set(space, "a", ["b"]) == 0

    @pytest.mark.parametrize("good", GOOD_VALUES, ids=repr)
    def test_a_distance_passes_as_it_is(self, good):
        space = from_oracle(lambda x, y: good, points=("a", "b"))
        assert distance_matrix(space) == [[good, good], [good, good]]
        assert all(v is good for row in distance_matrix(space) for v in row)
        assert dist_point_set(space, "a", ["a", "b"]) is good
        assert hausdorff(space, ["a"], ["b"]) is good
        assert symmetrize(space).d("a", "b") is good

    def test_stored_rows_are_not_checked_again(self, monkeypatch):
        # Stored values were checked when read: the reader takes them as
        # they are, so a stored-rows read never reaches the value check.
        def boom(v):
            raise AssertionError("a stored value was checked again")

        monkeypatch.setattr(space_module, "_nonnegative", boom)
        for exact in (True, False):
            space = from_matrix(("a", "b"), [[0, 0.5], [2, 0]], exact=exact)
            assert hausdorff(space, ["b"], ["a"]) == 2
            assert check_axioms(space, points=["b", "a"]).ok
            assert distance_matrix(symmetrize(space)) == [[0, 2], [2, 0]]

    def test_the_first_bad_value_in_read_order_is_named(self):
        # d(a, b), d(a, c) are read before d(b, a), d(c, a).
        bad = {("a", "c"): -1, ("b", "a"): math.nan, ("c", "a"): "x"}
        space = from_oracle(lambda x, y: bad.get((x, y), 0), points="abc", exact=False)
        _refused("d('a', 'c')", space_module._distances, space, "a", ("b", "c"), True, True)
        _refused("d('b', 'a')", space_module._distances, space, "a", ("b", "c"), False, True)
        _refused("d('c', 'a')", space_module._distances, space, "a", ("c", "b"), False, True)

    @pytest.mark.parametrize(
        "kinds", [{int}, {Fraction}, {int, Fraction}], ids=["int", "fraction", "mixed"]
    )
    def test_a_negative_exact_value_is_refused_in_any_row(self, kinds):
        # Rows of ints and Fractions are checked by their numerators; the
        # negative value is the last of the row.
        values = [0] * 5 + [-1]
        if Fraction in kinds:
            values = [F(v, 3) for v in values]
        if int in kinds and Fraction in kinds:
            values[0] = 0
        space = from_oracle(lambda x, y: values[y], points=range(6))
        _refused("d(0, 5)", space_module._distances, space, 0, range(6), True, False)


#: Reads of a stored-rows space on ("a", "b") that meet the stray point "zz".
STRAY_READS = {
    "d-second": lambda S: S.d("a", "zz"),
    "d-first": lambda S: S.d("zz", "a"),
    "startpoint_defect": lambda S: startpoint_defect(
        S, "a", SetValuedMap({"a": ["b", "zz"], "b": ["b"]})
    ),
    "admissibility_bound": lambda S: admissibility_bound(
        S, linear(F(1, 2)), ContractionMode.FORWARD, "a", "zz"
    ),
    "hausdorff": lambda S: hausdorff(S, ["a"], ["zz"]),
    "dist_point_set": lambda S: dist_point_set(S, "a", ["b", "zz"]),
    "dist_set_point": lambda S: dist_set_point(S, ["zz"], "a"),
    "ball_contains": lambda S: ball_contains(S, "a", 1, "zz"),
    "conjugate": lambda S: conjugate(S).d("zz", "b"),
    "symmetrize": lambda S: symmetrize(S).d("b", "zz"),
}

#: Calls on the universe (0, 1, 2) that meet a point outside it: the image
#: point 7 of 0, or the point 9.
_STRAY_IMAGE = SetValuedMap({0: (1, 7), 1: (1,), 2: (2,)})
_ANY_POINT = SetValuedMap(lambda x: (0,))
_DEFECTS = {
    "startpoint_defect": startpoint_defect,
    "endpoint_defect": endpoint_defect,
    "fixed_defect": fixed_defect,
    **{
        f"mode_defect-{m.name}": lambda S, x, Fm, m=m: mode_defect(S, x, Fm, m)
        for m in ContractionMode
    },
}
OUTSIDE_CALLS = {
    **{f"{name}-image": lambda S, f=f: f(S, 0, _STRAY_IMAGE) for name, f in _DEFECTS.items()},
    **{f"{name}-point": lambda S, f=f: f(S, 9, _ANY_POINT) for name, f in _DEFECTS.items()},
    "dist_point_set": lambda S: dist_point_set(S, 9, [0, 1]),
    "dist_point_set-member": lambda S: dist_point_set(S, 0, [1, 9]),
    "dist_set_point": lambda S: dist_set_point(S, [0, 1], 9),
    "dist_set_point-member": lambda S: dist_set_point(S, [9, 1], 0),
    "hausdorff": lambda S: hausdorff(S, [0], [9]),
    "hausdorff-first": lambda S: hausdorff(S, [1, 9], [0]),
    "ball_contains": lambda S: ball_contains(S, 0, 5, 9),
    "ball_contains-center": lambda S: ball_contains(S, 9, 5, 0),
    "admissibility_bound": lambda S: admissibility_bound(
        S, linear(F(1, 2)), ContractionMode.SYMMETRIC, 0, 9
    ),
    "admissibility_bound-x": lambda S: admissibility_bound(
        S, linear(F(1, 2)), ContractionMode.FORWARD, 9, 0
    ),
}


class TestPointOutsideTheUniverse:
    @pytest.mark.parametrize("name", STRAY_READS)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_a_stored_rows_space_names_the_point(self, name, exact):
        # Was a bare KeyError; solve and verify already named the point so.
        # A stray image point gets the scan's words, as verify gives them.
        space = from_matrix(("a", "b"), [[0, 1], [1, 0]], exact=exact)
        message = "'zz' is not in the universe"
        if name == "startpoint_defect":
            message = "image of 'a' contains 'zz', which is not in the universe"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            STRAY_READS[name](space)

    @pytest.mark.parametrize("name", OUTSIDE_CALLS)
    def test_an_oracle_space_refuses_a_point_as_its_stored_rows_twin_does(self, name):
        # The same words on both, and no oracle call.
        m = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        calls = []

        def d(x, y):
            calls.append((x, y))
            return m[x][y]

        with pytest.raises(ValueError) as rows:
            OUTSIDE_CALLS[name](from_matrix((0, 1, 2), m))
        with pytest.raises(ValueError) as oracle:
            OUTSIDE_CALLS[name](from_oracle(d, points=(0, 1, 2)))
        assert str(oracle.value) == str(rows.value)
        words = r"(image of 0 contains 7, which|9) is not in the universe"
        assert re.fullmatch(words, str(rows.value))
        assert calls == []

    def test_a_stored_rows_space_is_freed_without_the_cycle_collector(self):
        # Its d names a stray point through the order, not the space: a d
        # that held the space would keep every dropped space, rows and all,
        # until a full collection.
        gc.disable()
        try:
            for build in (lambda S: S, conjugate, symmetrize):
                ref = weakref.ref(build(from_matrix(("a", "b"), [[0, 1], [1, 0]])))
                assert ref() is None
        finally:
            gc.enable()

    def test_an_oracle_space_answers_as_its_oracle_does(self):
        # Its d is the user's function: checking would hash both points on
        # every read.
        space = from_oracle(lambda x, y: int(x != y), points=("a", "b"))
        assert space.d("a", "zz") == 1


class TestBall:
    def test_boundary_excluded(self):
        space = from_matrix(("a", "b"), [[0, 1], [0, 0]])
        assert not ball_contains(space, "a", 1, "b")

    def test_center_always_inside(self):
        space = from_matrix(("a", "b"), [[0, 1], [0, 0]])
        assert ball_contains(space, "a", F(1, 10**9), "a")

    def test_dyadic_membership(self, dyadic):
        assert ball_contains(dyadic, ZERO, F(3, 10), QTR)

    def test_radius_must_be_positive(self, dyadic):
        with pytest.raises(ValueError):
            ball_contains(dyadic, ZERO, 0, ZERO)

    @pytest.mark.parametrize("radius", [-1, F(-1, 2), math.nan, -INFINITY])
    def test_a_nan_or_negative_radius_is_refused(self, dyadic, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            ball_contains(dyadic, ZERO, radius, ZERO)


dyadic_points = st.integers(min_value=0, max_value=40).map(halving_point) | st.just(ZERO)


@given(x=dyadic_points, y=dyadic_points, z=dyadic_points)
def test_dyadic_distance_is_quasi_metric(x, y, z):
    space, _, _ = dyadic_halving_system()
    assert space.d(x, x) == 0
    assert space.d(x, z) <= space.d(x, y) + space.d(y, z)
    if x != y:
        assert space.d(x, y) > 0 or space.d(y, x) > 0


def test_float_mode_tolerance_comparisons():
    space = from_matrix(("a", "b"), [[0, 1e-12], [1, 0]], exact=False)
    assert space.is_zero(space.d("a", "b"))
    assert space.leq(1 + 1e-12, 1)
    assert not space.leq(1 + 1e-6, 1)


def test_a_float_matrix_holds_floats():
    # Every kind of entry the value rule takes, read to its float.
    space = from_matrix(("a", "b"), [[0, "1/3"], [F(2, 3), 0.25]], exact=False)
    rows = [[space.d(x, y) for y in "ab"] for x in "ab"]
    assert rows == [[0.0, 1 / 3], [2 / 3, 0.25]]
    assert {type(v) for row in rows for v in row} == {float}
    assert space.den is None


def test_matrix_validation():
    with pytest.raises(ValueError):
        from_matrix(("a", "b"), [[0, 1]])
    with pytest.raises(ValueError):
        from_matrix(("a", "a"), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        from_matrix(("a", "b"), [[0, -1], [1, 0]])


@pytest.mark.parametrize("tolerance", [-1, -1e-12, math.nan, math.inf])
def test_bad_tolerance_is_named(tolerance):
    with pytest.raises(ValueError, match="^tolerance: "):
        from_matrix(("a", "b"), [[0, 1], [1, 0]], exact=False, tolerance=tolerance)
    with pytest.raises(ValueError, match="^tolerance: "):
        from_oracle(lambda x, y: 0, points=("a",), tolerance=tolerance)
    assert from_matrix(("a",), [[0]], exact=False, tolerance=0).tolerance == 0


def _reference_int_rows(matrix):
    """from_matrix's EXACT rows by the value rule alone, entry by entry:
    (rows, den), or the FieldError of the first bad entry."""
    values = [
        [space_module._entry(raw, True, i, j) for j, raw in enumerate(row)]
        for i, row in enumerate(matrix)
    ]
    den = math.lcm(*(v.denominator for row in values for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in values], den


#: Entries of every kind the value rule meets, most of them valid.
rule_entries = st.one_of(
    st.integers(min_value=-2, max_value=30),
    st.builds(F, st.integers(min_value=-3, max_value=40), st.integers(1, 12)),
    st.booleans(),
    st.sampled_from(["0", "7", "3/4", "06/8", "1.5", "-1", "-2/3", "1/0", "x", "²", ""]),
)


@given(
    m=st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 9) | rule_entries, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    bits=st.sampled_from([None, 0, 6]),
)
def test_from_matrix_reads_entries_as_the_value_rule_does(m, bits):
    # Whole-row reads of ints and Fractions and of digit strings, the
    # per-entry loop for the rest: same rows and denominator, or the same
    # named error.  Under a bound of ``bits`` on D every kind of row may
    # outgrow it, and the matrix then holds the values as Fractions.
    points = [f"p{i}" for i in range(len(m))]
    with pytest.MonkeyPatch.context() as patch:
        if bits is not None:
            patch.setattr(space_module, "_MAX_DENOMINATOR_BITS", bits)
        try:
            rows, den = _reference_int_rows(m)
        except space_module.FieldError as exc:
            with pytest.raises(space_module.FieldError) as got:
                from_matrix(points, m)
            assert (got.value.field, got.value.message) == (exc.field, exc.message)
            return
        space = from_matrix(points, m)
    if space.den is None:
        # D is a multiple of den: a "p/q" string may keep its written q.
        assert bits is not None
        assert [list(row) for row in space.rows] == [[F(v, den) for v in row] for row in rows]
        assert all(type(v) is F for row in space.rows for v in row)
        return
    assert bits is None or space.den.bit_length() <= bits
    assert all(type(v) is int for row in space.rows for v in row)
    if all(type(v) is not str for row in m for v in row):
        assert ([list(row) for row in space.rows], space.den) == (rows, den)
    else:
        # A "p/q" string keeps its written denominator, say 8 in "06/8".
        assert space.den % den == 0
        assert [[F(v, space.den) for v in row] for row in space.rows] == [
            [F(v, den) for v in row] for row in rows
        ]


#: Tails of "p/q" entries that many entries share, "" standing for a plain "p".
SHARED_TAILS = ("", "1", "2", "4", "8", "3", "12", "840")
#: Entries a digit row may hold that the value rule refuses.
BAD_DIGIT_ENTRIES = ("3/0", "3/", "/3", "1/2/3", "1/" + "1" * 4301)


@st.composite
def digit_matrices(draw):
    """An n x n matrix (n from 2 to 8) of "p" and "p/q" digit strings:
    shared and fresh tails, leading zeros such as "06/8", and at most one
    bad entry, in a row after the first."""
    n = draw(st.integers(2, 8))
    fresh = st.integers(1, 999).map(str)
    zeros = st.sampled_from(["", "0", "00"])
    tails = st.sampled_from(SHARED_TAILS) | fresh | st.builds(operator.add, zeros, fresh)
    heads = st.builds(operator.add, zeros, st.integers(0, 10**6).map(str))

    def entry(head, tail):
        return f"{head}/{tail}" if tail else head

    m = draw(
        st.lists(
            st.lists(st.builds(entry, heads, tails), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    if draw(st.booleans()):
        i, j = draw(st.integers(1, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] = draw(st.sampled_from(BAD_DIGIT_ENTRIES))
    return m


def _check_denominator_table(m, bits):
    """One table of tails for the whole matrix: the value rule's values
    over the lcm of the written denominators (8 in "06/8"), or the same
    named error for the bad entry.  Under a bound of ``bits`` on D the
    matrix may outgrow it in any row, and then holds the values as
    Fractions."""
    points = [f"p{i}" for i in range(len(m))]
    with pytest.MonkeyPatch.context() as patch:
        if bits is not None:
            patch.setattr(space_module, "_MAX_DENOMINATOR_BITS", bits)
        try:
            rows, den = _reference_int_rows(m)
        except space_module.FieldError as exc:
            with pytest.raises(space_module.FieldError) as got:
                from_matrix(points, m)
            assert (got.value.field, got.value.message) == (exc.field, exc.message)
            return
        space = from_matrix(points, m)
    written = math.lcm(*(int(v.partition("/")[2] or 1) for row in m for v in row))
    if bits is not None and written.bit_length() > bits:
        assert space.den is None
        assert [list(row) for row in space.rows] == [[F(v, den) for v in row] for row in rows]
        assert all(type(v) is F for row in space.rows for v in row)
    else:
        assert space.den == written
        assert space.rows == tuple(tuple(v * (written // den) for v in row) for row in rows)


@given(m=digit_matrices(), bits=st.sampled_from([None, 0, 6]))
def test_the_denominator_table_reads_digit_rows_as_the_value_rule_does(m, bits):
    _check_denominator_table(m, bits)


#: D is 8 after the first row and grows to 72 in the last one.
LATER_GROWTH = (("0", "1/2", "06/8"), ("3/4", "0", "5"), ("7/3", "2/0009", "0"))


@pytest.mark.parametrize("bad", (None,) + BAD_DIGIT_ENTRIES, ids=lambda v: repr(v)[:8])
@pytest.mark.parametrize("bits", [None, 4])
def test_a_later_row_may_grow_d_or_hold_the_bad_entry(bad, bits):
    m = [list(row) for row in LATER_GROWTH]
    if bad is not None:
        m[2][1] = bad
    _check_denominator_table(m, bits)


@pytest.mark.parametrize(
    "m, field, message",
    [
        ([[0, 1], [-1, 0]], "d[1][0]", "distances must be nonnegative"),
        ([[0, F(-1, 2)], [F(-1, 3), 0]], "d[0][1]", "distances must be nonnegative"),
        ([[0, True], [1, 0]], "d[0][1]", "not a valid number: True"),
        ([[0, 1], ["x", -1]], "d[1][0]", "not a valid number: 'x'"),
    ],
)
def test_a_bad_entry_among_ints_and_fractions_is_named(m, field, message):
    with pytest.raises(space_module.FieldError) as got:
        from_matrix(("a", "b"), m)
    assert (got.value.field, got.value.message) == (field, message)


class _SubFraction(Fraction):
    pass


#: Rows the one-call Fraction reader must leave to the two-property path
#: or to the value rule, beside all-Fraction rows: (matrix, the values
#: from_matrix keeps or the FieldError it raises, the min-plus closure as
#: (type, value) pairs).
READER_CASES = {
    "ints-and-fractions": (
        [[0, F(1, 2), 3], [F(2, 3), 0, 1], [F(1), 2, F(0)]],
        None,
        [[F(0), F(1, 2), F(3, 2)], [F(2, 3), F(0), F(1)], [F(1), F(3, 2), F(0)]],
    ),
    "fraction-row-then-mixed": (
        [[F(0), F(1, 4), F(3)], [F(5, 2), 0, F(1, 4)], [1, F(7, 3), F(0)]],
        None,
        [[F(0), F(1, 4), F(1, 2)], [F(5, 4), F(0), F(1, 4)], [F(1), F(5, 4), F(0)]],
    ),
    "bool": (
        [[F(0), True], [F(1, 2), F(0)]],
        ("d[0][1]", "not a valid number: True"),
        [[F(0), True], [F(1, 2), F(0)]],
    ),
    "subclass": (
        [[F(0), _SubFraction(1, 2), F(3)], [F(1, 5), _SubFraction(0), F(1)], [F(2), F(9, 4), F(0)]],
        None,
        [
            [F(0), _SubFraction(1, 2), F(3, 2)],
            [F(1, 5), _SubFraction(0), F(1)],
            [F(2), F(9, 4), F(0)],
        ],
    ),
    "negative": (
        [[F(0), F(1, 3), F(2)], [F(1, 2), F(0), F(-1, 4)], [F(1), F(3), F(0)]],
        ("d[1][2]", "distances must be nonnegative"),
        [[F(0), F(1, 3), F(1, 12)], [F(1, 2), F(0), F(-1, 4)], [F(1), F(4, 3), F(0)]],
    ),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_only_all_fraction_rows_take_the_one_call_reader(case):
    m, error, closure = READER_CASES[case]
    n = len(m)
    if error is None:
        space = from_matrix(range(n), m)
        assert [[space.d(i, j) for j in range(n)] for i in range(n)] == m
        assert all(type(space.d(i, j)) is Fraction for i in range(n) for j in range(n))
    else:
        with pytest.raises(space_module.FieldError) as got:
            from_matrix(range(n), m)
        assert (got.value.field, got.value.message) == error
    got = minplus_closure(m)
    assert [[(type(v), v) for v in row] for row in got] == [
        [(type(v), v) for v in row] for row in closure
    ]


@given(row=st.lists(st.builds(F, st.integers(-99, 99), st.integers(1, 99)), min_size=1))
def test_the_one_call_reader_reads_what_the_properties_read(row):
    assert space_module._ratio_row(row, {Fraction}) == (
        tuple(v.numerator for v in row),
        tuple(v.denominator for v in row),
    )


def test_an_empty_axiom_sample_is_refused(dyadic):
    with pytest.raises(ValueError, match="^point sample must be nonempty$"):
        check_axioms(dyadic, points=[])
    space = from_matrix(("a", "b"), [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="^point sample must be nonempty$"):
        check_axioms(space, points=())


def test_an_empty_oracle_universe_is_refused():
    # As from_matrix and a document refuse one; a pass over no points
    # would certify nothing.
    for points in ([], (), iter(())):
        with pytest.raises(ValueError, match="^universe must be nonempty$"):
            from_oracle(lambda x, y: 0, points=points)
    assert from_oracle(lambda x, y: 0).points is None


def test_a_universe_holds_each_point_once():
    # One rule, the constructor's: every way to build a finite space
    # refuses a repeat.  1 and 1.0 are one point.
    for points in (("a", "b", "a"), (1, 2, 1.0, 3)):
        n = len(points)
        with pytest.raises(ValueError, match="^universe contains duplicate points$"):
            QSpace(lambda x, y: 0, points=points)
        with pytest.raises(ValueError, match="^universe contains duplicate points$"):
            from_matrix(points, [[0] * n] * n)
        with pytest.raises(ValueError, match="^universe contains duplicate points$"):
            from_oracle(lambda x, y: 0, points=points)


def test_any_iterable_universe_is_stored_as_a_tuple():
    # A list, a range or an iterator: the space keeps a tuple, so it hashes.
    matrix = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    builds = (
        lambda pts: QSpace(lambda x, y: 0, points=pts),
        lambda pts: from_oracle(lambda x, y: 0, points=pts),
        lambda pts: from_matrix(pts, matrix),
    )
    for universe in (lambda: ["a", "b", "c"], lambda: range(3), lambda: iter("abc")):
        for build in builds:
            space = build(universe())
            assert space.points == tuple(universe())
            assert space.order == {x: i for i, x in enumerate(universe())}
            hash(space)


def test_a_bad_universe_is_named_before_a_bad_matrix():
    with pytest.raises(ValueError, match="^universe contains duplicate points$"):
        from_matrix(("a", "a"), [[0, "x"], [0, 0]])
    with pytest.raises(ValueError, match="^universe must be nonempty$"):
        from_matrix((), [[0, "x"], [0, 0]])


@pytest.mark.parametrize(
    "space",
    [
        from_matrix(("a", "b"), [[0, 1], [1, 0]]),
        from_oracle(lambda x, y: int(x != y), points=("a", "b")),
    ],
    ids=["stored-rows", "oracle"],
)
def test_a_sample_point_outside_a_finite_universe_is_refused(space):
    # Stored rows hold no row for it, and an oracle would read distances
    # to it and pass a space that does not hold it.
    with pytest.raises(ValueError, match="^'z' is not in the universe$"):
        check_axioms(space, points=["a", "z"])
    assert check_axioms(space, points=["b", "a"]).ok


def test_the_slot_reader_reads_what_as_integer_ratio_reads():
    # Zero, negatives, and numerators and denominators past 2**100.
    big = 2**100
    row = [F(0), F(-3, 7), F(big + 1), F(1, big + 3), F(-(big**2) - 1, 3 * big + 1), F(5)]
    assert space_module._ratio_row(row, {Fraction}) == tuple(
        zip(*(v.as_integer_ratio() for v in row))
    )


def test_t0_scan_finds_the_first_pair_past_rows_without_zeros():
    # Rows 0 and 1 hold no off-diagonal zero; (p2, p3) is the first pair.
    m = [[0, 1, 2, 1], [1, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
    for space in (
        from_matrix([f"p{i}" for i in range(4)], m),
        from_matrix([f"p{i}" for i in range(4)], [[F(v) for v in row] for row in m]),
    ):
        assert check_axioms(space, check_t0=True).t0.witness == ("p2", "p3")
        assert check_axioms(space, check_t0=True) == _brute_force_axioms(space, check_t0=True)


def test_universe_index_and_matrix(dyadic):
    space = from_matrix(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    from qpmetric import distance_matrix

    assert distance_matrix(space)[0] == [0, 1, 2]
    with pytest.raises(ValueError):
        distance_matrix(dyadic)  # oracle universe is not enumerable


# ---------------------------------------------------------------------------
# check_axioms against the triple loop that states the axioms directly.


def _brute_force_axioms(space, *, points=None, check_t0=None):
    """Reference: an oracle call per test, triples in universe order."""
    sampled = points is not None
    universe = space.universe() if points is None else tuple(dict.fromkeys(points))
    d = space.d

    identity = AxiomCheck("identity", True)
    for x in universe:
        if not space.is_zero(d(x, x)):
            identity = AxiomCheck("identity", False, (x,))
            break

    triangle = AxiomCheck("triangle", True)
    done = False
    for x in universe:
        if done:
            break
        for y in universe:
            if done:
                break
            for z in universe:
                if not space.leq(d(x, z), d(x, y) + d(y, z)):
                    triangle = AxiomCheck("triangle", False, (x, y, z))
                    done = True
                    break

    want_t0 = space.t0 if check_t0 is None else check_t0
    t0_check = None
    if want_t0:
        t0_check = AxiomCheck("t0", True)
        done = False
        for x in universe:
            if done:
                break
            for y in universe:
                if x == y:
                    continue
                if space.is_zero(d(x, y)) and space.is_zero(d(y, x)):
                    t0_check = AxiomCheck("t0", False, (x, y))
                    done = True
                    break

    return AxiomReport(identity=identity, triangle=triangle, t0=t0_check, sampled=sampled)


small_ints = st.integers(min_value=0, max_value=6)
small_fractions = st.builds(F, st.integers(min_value=0, max_value=12), st.integers(1, 6))
# Around the default FLOAT tolerance of 1e-9, where rounding decides.
near_tolerance = st.sampled_from(
    [0.0, 1e-10, 5e-10, 1e-9, 1.5e-9, 3e-9, 0.1, 0.2, 0.3, 0.30000000099, 0.3000000011, 1.0]
)
#: The extended value an oracle may give; a NaN is refused by the reader.
extended = st.just(INFINITY)

#: (exact, entry strategy) per arithmetic case.
AXIOM_CASES = {
    "exact-int": (True, small_ints),
    "exact-fraction": (True, small_fractions),
    "exact-mixed": (True, small_ints | small_fractions),
    "exact-extended": (True, small_fractions | extended),
    "exact-float-oracle": (True, near_tolerance),
    "float": (False, near_tolerance | extended),
    # Fractions inside the tolerance: FLOAT comparisons must not be scaled.
    "float-fraction-oracle": (
        False,
        small_fractions | st.builds(F, st.integers(0, 3), st.sampled_from([10**9, 10**10])),
    ),
}


@st.composite
def matrices(draw, entries, max_size=5):
    n = draw(st.integers(min_value=1, max_value=max_size))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # Half the draws keep their drawn diagonal; the other half get a
        # zero one, and may be closed so that the triangle check passes.
        for i in range(n):
            m[i][i] = type(m[i][i])(0)
        if draw(st.booleans()):
            m = minplus_closure(m)
    return m


@pytest.mark.parametrize("case", sorted(AXIOM_CASES))
@given(data=st.data())
def test_check_axioms_matches_brute_force(case, data):
    exact, entries = AXIOM_CASES[case]
    m = data.draw(matrices(entries))
    t0 = data.draw(st.booleans())
    check_t0 = data.draw(st.sampled_from([None, True, False]))
    space = from_oracle(lambda x, y: m[x][y], points=range(len(m)), exact=exact, t0=t0)
    assert check_axioms(space, check_t0=check_t0) == _brute_force_axioms(space, check_t0=check_t0)
    sample = data.draw(st.lists(st.integers(0, len(m) - 1), max_size=6))
    if not sample:
        with pytest.raises(ValueError, match="point sample must be nonempty"):
            check_axioms(space, points=sample, check_t0=check_t0)
        return
    assert check_axioms(space, points=sample, check_t0=check_t0) == _brute_force_axioms(
        space, points=sample, check_t0=check_t0
    )


@given(m=matrices(small_fractions | small_ints), t0=st.booleans())
def test_check_axioms_matches_brute_force_on_matrix_spaces(m, t0):
    n = len(m)
    space = from_matrix([f"p{i}" for i in range(n)], m, t0=t0)
    assert check_axioms(space) == _brute_force_axioms(space)
    fspace = from_matrix([f"p{i}" for i in range(n)], m, exact=False, t0=t0)
    assert check_axioms(fspace) == _brute_force_axioms(fspace)


@pytest.mark.parametrize(
    "dxz, dxy, dyz",
    [
        (0.3 + 5e-10, 0.1, 0.2),  # inside the tolerance band
        (0.3 + 2e-9, 0.1, 0.2),  # beyond it
        # Where a <= (b + c) + tol and a - c <= b + tol round differently.
        (0.20000000050000002, 0.099999999, 0.1000000005),
        (0.300000001, 0.1000000005, 0.1999999995),
        (0.20000000050000002, 0.100000001, 0.0999999985),
    ],
)
def test_float_triangle_keeps_the_tolerance_rounding(dxz, dxy, dyz):
    m = [[0, dxy, dxz], [0, 0, dyz], [0, 0, 0]]
    space = from_matrix((0, 1, 2), m, exact=False)
    assert check_axioms(space) == _brute_force_axioms(space)


def test_float_triangle_witness_is_the_first_beyond_the_tolerance():
    # Via y = 1, z = 2 exceeds the bound inside the band and z = 3 beyond it.
    m = [[0, 1, 1 + 5e-10, 1 + 2e-9]] + [[1, 0, 0, 0]] * 3
    space = from_matrix(range(4), m, exact=False)
    assert check_axioms(space).triangle.witness == (0, 1, 3)
    assert _brute_force_axioms(space).triangle.witness == (0, 1, 3)


def test_exact_triangle_is_not_widened():
    tiny = F(1, 10**12)
    space = from_matrix((0, 1, 2), [[0, 1, 2 + tiny], [0, 0, 1], [0, 0, 0]])
    assert check_axioms(space).triangle.witness == (0, 1, 2)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("bad", [math.nan, Decimal("NaN"), -1, True, "a"], ids=repr)
def test_check_axioms_refuses_a_value_that_is_no_distance(bad, exact):
    # Sampled or whole, through an oracle: the reader names the pair, where
    # a NaN used to fail the triangle at (0, 0, 1).
    space = from_oracle(lambda x, y: bad if (x, y) == (0, 1) else 0, points=(0, 1), exact=exact)
    _refused("d(0, 1)", check_axioms, space)
    _refused("d(0, 1)", check_axioms, space, points=[1, 0])
    assert check_axioms(space, points=[1]).ok


def _counting_space(m, t0=True):
    calls = []

    def d(x, y):
        calls.append((x, y))
        return m[x][y]

    return from_oracle(d, points=range(len(m)), t0=t0), calls


@pytest.mark.parametrize("n", [1, 7, 40])
def test_check_axioms_reads_each_distance_once(n):
    import random

    rng = random.Random(n)
    m = minplus_closure(
        [[0 if i == j else F(rng.randint(1, 64), 8) for j in range(n)] for i in range(n)]
    )
    space, calls = _counting_space(m)
    assert check_axioms(space, check_t0=True).ok
    assert len(calls) == n * n
    assert sorted(calls) == sorted(itertools.product(range(n), repeat=2))

    # Every axiom failing, the first pair at once: still n^2 calls.
    broken = [row[:] for row in m]
    broken[0][0] = 1
    if n > 1:
        broken[0][1] = broken[1][0] = 0
        broken[0][n - 1] = 10**6
    space, calls = _counting_space(broken)
    report = check_axioms(space, check_t0=True)
    assert not report.identity.passed
    assert n == 1 or not (report.triangle.passed or report.t0.passed)
    assert len(calls) == n * n


def test_sampled_check_reads_each_sampled_distance_once():
    space, calls = _counting_space([[abs(i - j) for j in range(6)] for i in range(6)])
    report = check_axioms(space, points=[4, 1, 4, 2], check_t0=True)
    assert report.ok and report.sampled
    assert len(calls) == 9


# ---------------------------------------------------------------------------
# The packed triangle scan against the per-triple loop it stands in for.


def _boom(*args):
    raise AssertionError("this kernel must not run on this input")


@st.composite
def int_matrices(draw, max_size=7):
    """Nonnegative int matrices with ties and zeros, closed or not, one in
    two with a planted violation.  The largest entry is drawn at a lane
    boundary, 2^m - 1 or 2^m, one in two times; every entry stays below
    2^62, the widest lanes the packed scan takes."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    m = draw(st.integers(min_value=0, max_value=59))
    top = draw(st.sampled_from([2**m - 1, 2**m]))
    entries = st.sampled_from(sorted({0, 1, 2, top // 2, top - 1, top} - {-1}))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = top
    if draw(st.booleans()):
        rows = minplus_closure(rows)
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        rows[i][k] = rows[i][j] + rows[j][k] + draw(st.sampled_from([1, top + 1]))
    return rows


@given(rows=int_matrices())
def test_packed_triangle_scan_matches_the_loop(rows):
    kernel_rows, den, w = axioms_module._kernel_rows(rows, axioms_module._kinds(rows))
    assert (kernel_rows, den) == (rows, None) and w is not None
    want = axioms_module._first_triangle_violation(rows, 0)
    assert axioms_module._first_packed_violation(rows, w) == want
    # Also through check_axioms on the same values behind an oracle, on
    # the packed path only.
    n = len(rows)
    space = from_oracle(lambda x, y: rows[x][y], points=range(n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms_module, "_first_triangle_violation", _boom)
        assert check_axioms(space).triangle.witness == want


@given(m=matrices(small_fractions | small_ints, max_size=7), t0=st.booleans())
def test_packed_triangle_scan_on_fraction_matrices(m, t0):
    n = len(m)
    space = from_matrix([f"p{i}" for i in range(n)], m, t0=t0)
    assert space.den is not None
    want = axioms_module._first_triangle_violation(m, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms_module, "_first_triangle_violation", _boom)
        got = check_axioms(space).triangle.witness
    assert got == (None if want is None else tuple(f"p{i}" for i in want))


def test_packed_triangle_witness_is_the_first_in_row_major_order():
    # Violations at (0, 2, 1), (0, 2, 3) and (1, 0, 3); the loop's first.
    rows = [[0, 9, 1, 5], [0, 0, 9, 9], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert axioms_module._first_triangle_violation(rows, 0) == (0, 2, 1)
    _, _, w = axioms_module._kernel_rows(rows, {int})
    assert axioms_module._first_packed_violation(rows, w) == (0, 2, 1)


#: Inputs the packed scan does not take, and the loop does: (exact, values
#: behind an oracle, witness the loop gives).
FALLBACK_AXIOM_INPUTS = {
    "float": (False, [[0.0, 1.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], (0, 1, 2)),
    "float-ints": (False, [[0, 1, 2], [0, 0, 1], [0, 0, 0]], None),
    # The kernel entry leaves these to the loops too, but an oracle that
    # gives them is refused by the reader: the witness is the pair named.
    "negative": (True, [[0, -1, 0], [0, 0, -1], [0, 0, 0]], "d(0, 1)"),
    "negative-fraction": (True, [[0, F(-1, 2), 0], [0, 0, F(-1, 3)], [0, 0, 0]], "d(0, 1)"),
    "bool": (True, [[False, True, True], [False, False, False], [False, True, False]], "d(0, 0)"),
    "nan": (True, [[0, math.nan], [0, 0]], "d(0, 1)"),
    "infinity": (True, [[0, INFINITY], [1, 0]], None),
    "float-in-exact": (True, [[0, 0.5, 2], [0, 0, 1], [0, 0, 0]], (0, 1, 2)),
    # 2^62 needs 65-bit lanes; 2^62 - 1 fits in 64 and is packed.
    "wide-lanes": (True, [[0, 1, 2**62], [0, 0, 1], [0, 0, 0]], (0, 1, 2)),
}


def _pack_loop(row, w):
    """The per-lane packer: entry k shifted into bits [k*w, (k+1)*w)."""
    p = 0
    for v in reversed(row):
        p = p << w | v
    return p


def _unpack_loop(p, n, w):
    mask = (1 << w) - 1
    return [p >> s & mask for s in range(0, n * w, w)]


def _check_packing(rows, n, w):
    packed = axioms_module._pack(rows, n, w)
    assert packed == [_pack_loop(row, w) for row in rows]
    assert axioms_module._unpack(packed, n, w) == rows
    assert [_unpack_loop(p, n, w) for p in packed] == rows


#: Row lengths where the compress rounds gain one, and lane widths on
#: either side of the byte-aligned widths 8, 16, 32 and 64.
EDGE_LENGTHS = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129]
EDGE_WIDTHS = [1, 7, 8, 9, 16, 17, 32, 33, 63, 64]


@st.composite
def lane_rows(draw):
    n = draw(st.integers(1, 130) | st.sampled_from(EDGE_LENGTHS))
    w = draw(st.integers(1, 64) | st.sampled_from(EDGE_WIDTHS))
    top = (1 << w) - 1
    values = st.integers(0, top) | st.sampled_from([0, 1, top])
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=3))
    return rows, n, w


@given(case=lane_rows())
def test_packer_matches_the_per_lane_loops(case):
    _check_packing(*case)


@pytest.mark.parametrize("n", EDGE_LENGTHS)
@pytest.mark.parametrize("w", EDGE_WIDTHS)
def test_packer_at_round_and_byte_edges(n, w):
    top = (1 << w) - 1
    rows = [
        [top] * n,
        [0] * n,
        [top * (k % 2) for k in range(n)],
        [top * (k % 3 == 2) for k in range(n)],
        [(k * 0x9E3779B97F4A7C15 >> 3) & top for k in range(n)],
    ]
    _check_packing(rows, n, w)


def test_each_value_matrix_is_type_scanned_once(monkeypatch):
    calls = []
    kinds = axioms_module._kinds

    def counted(matrix):
        calls.append(matrix)
        return kinds(matrix)

    monkeypatch.setattr(axioms_module, "_kinds", counted)
    m = [[0, 1, 3], [2, 0, 1], [1, 4, 0]]
    assert minplus_closure(m) == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert len(calls) == 1
    calls.clear()
    # Through an oracle, the types are those the reader met as it checked
    # each row: no second scan.
    reads = []
    distances = axioms_module._distances

    def reader(*args):
        reads.append(args[-1])
        return distances(*args)

    monkeypatch.setattr(axioms_module, "_distances", reader)
    space = from_oracle(lambda x, y: F(m[x][y], 2), points=range(3))
    assert check_axioms(space).triangle.witness == (0, 1, 2)
    assert not calls
    assert len(reads) == 3 and all(kinds is reads[0] for kinds in reads)
    assert reads[0] == {Fraction}


def test_lanes_stop_at_64_bits():
    fits, wide = [[0, 2**62 - 1], [0, 0]], [[0, 2**62], [0, 0]]
    assert axioms_module._kernel_rows(fits, {int}) == (fits, None, 64)
    assert axioms_module._kernel_rows(wide, {int}) == (wide, None, None)


@pytest.mark.parametrize("case", sorted(FALLBACK_AXIOM_INPUTS))
def test_fallback_inputs_take_the_loop(case, monkeypatch):
    exact, m, witness = FALLBACK_AXIOM_INPUTS[case]
    space = from_oracle(lambda x, y: m[x][y], points=range(len(m)), exact=exact)
    monkeypatch.setattr(axioms_module, "_first_packed_violation", _boom)
    if isinstance(witness, str):
        assert axioms_module._kernel_rows(m, axioms_module._kinds(m))[2] is None
        _refused(witness, check_axioms, space)
        return
    report = check_axioms(space)
    assert report == _brute_force_axioms(space)
    assert report.triangle.witness == witness
    sample = list(reversed(range(len(m))))
    assert check_axioms(space, points=sample) == _brute_force_axioms(space, points=sample)


def test_fraction_rows_over_the_denominator_bound_take_the_loop(monkeypatch):
    m = [[F(0), F(1, 3), F(1)], [F(0), F(0), F(1, 2)], [F(0), F(0), F(0)]]
    monkeypatch.setattr(space_module, "_MAX_DENOMINATOR_BITS", 0)
    space = from_matrix(range(3), m)
    assert space.den is None
    oracle = from_oracle(lambda x, y: m[x][y], points=range(3))
    monkeypatch.setattr(axioms_module, "_first_packed_violation", _boom)
    for s in (space, oracle):
        assert check_axioms(s).triangle.witness == (0, 1, 2)
        assert check_axioms(s) == _brute_force_axioms(s)
