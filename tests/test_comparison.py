import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qpmetric import (
    default_grid,
    from_oracle,
    linear,
    parse_system,
    rational_shrink,
    user_function,
    user_table,
    verify_gamma1,
)

F = Fraction


class TestEvaluate:
    def test_linear_half(self):
        assert linear(F(1, 2))(2) == 1

    def test_zero_maps_to_zero(self):
        for gamma in (linear(F(1, 3)), rational_shrink(), user_function(lambda t: t + 1)):
            assert gamma(0) == 0

    def test_rational_shrink_at_one(self):
        assert rational_shrink()(F(1)) == F(1, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            linear(F(1, 2))(-1)

    def test_exact_arithmetic_preserved(self):
        assert linear(F(1, 2))(F(1, 3)) == F(1, 6)
        assert rational_shrink()(F(1, 3)) == F(1, 4)

    def test_table_previous_knot_rule(self):
        gamma = user_table([(1, F(1, 2)), (2, F(3, 2))])
        assert gamma(F(1, 2)) == 0  # below the first knot: implicit (0, 0)
        assert gamma(1) == F(1, 2)
        assert gamma(F(3, 2)) == F(1, 2)  # left-continuous step
        assert gamma(2) == F(3, 2)
        assert gamma(100) == F(3, 2)

    def test_linear_factor_bounds(self):
        with pytest.raises(ValueError):
            linear(1)
        with pytest.raises(ValueError):
            linear(0)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            user_table([])
        with pytest.raises(ValueError):
            user_table([(2, 1), (1, F(1, 2))])
        with pytest.raises(ValueError):
            user_table([(1, -1)])

    @pytest.mark.parametrize(
        "knots",
        [[(math.nan, 1)], [(1, math.nan)], [(1, 1), (math.nan, 2)], [(1, 1), (2, math.nan)]],
        ids=["nan-t", "nan-value", "nan-second-t", "nan-second-value"],
    )
    def test_table_rejects_nan_knots(self, knots):
        with pytest.raises(ValueError, match="table knot"):
            user_table(knots)

    def test_linear_reads_c_by_the_value_rule(self):
        doc = {"points": ["a"], "d": [["0"]], "gamma": {"kind": "linear", "c": 0.1}}
        assert linear(0.1) == linear("0.1") == parse_system(doc).gamma
        assert linear(0.1).c == F(1, 10)
        for bad in (True, math.nan, math.inf, "x"):
            with pytest.raises(ValueError):
                linear(bad)


class TestCertification:
    def test_builtins_certified(self):
        assert linear(F(1, 2)).certified
        assert rational_shrink().certified

    def test_user_kinds_sampled(self):
        assert not user_table([(1, F(1, 2))]).certified
        assert not user_function(lambda t: t / 2).certified

    def test_grid_pass_never_upgrades(self):
        gamma = user_function(lambda t: t / 2)
        assert verify_gamma1(gamma).passed
        assert not gamma.certified


class TestVerifyGamma1:
    def test_linear_passes_default_grid(self):
        assert verify_gamma1(linear(F(1, 2))).passed

    def test_square_fails_with_witness(self):
        report = verify_gamma1(user_function(lambda t: t * t), [0.5, 2])
        assert not report.passed
        assert report.bound_witness == 2  # gamma(2) = 4 >= 2

    def test_square_fails_on_default_grid(self):
        report = verify_gamma1(user_function(lambda t: t * t))
        assert not report.passed
        assert report.bound_witness is not None
        assert report.bound_witness >= 1  # t*t < t below 1

    def test_zero_function_fails_lower_bound(self):
        report = verify_gamma1(user_function(lambda t: 0 * t), [1])
        assert not report.passed
        assert report.bound_witness == 1

    def test_monotonicity_violation_pair(self):
        gamma = user_function(lambda t: t / 2 if t < 2 else F(1, 10))
        report = verify_gamma1(gamma, [1, 3])
        assert not report.passed
        assert report.monotonicity_witness == (1, 3)

    def test_grid_preconditions(self):
        gamma = linear(F(1, 2))
        with pytest.raises(ValueError):
            verify_gamma1(gamma, [])
        with pytest.raises(ValueError):
            verify_gamma1(gamma, [2, 1])
        with pytest.raises(ValueError):
            verify_gamma1(gamma, [0, 1])

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 64
        assert grid[0] == pytest.approx(1e-6)
        assert grid[-1] == pytest.approx(1e6)
        assert all(b > a for a, b in zip(grid, grid[1:]))


positive_rationals = st.fractions(min_value=F(1, 10**6), max_value=F(10**6))


@given(t=positive_rationals)
def test_builtin_strict_bounds(t):
    for gamma in (linear(F(1, 2)), linear(F(9, 10)), rational_shrink()):
        v = gamma(t)
        assert 0 < v < t


@given(t1=positive_rationals, t2=positive_rationals)
def test_builtin_monotone(t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    for gamma in (linear(F(1, 2)), rational_shrink()):
        assert gamma(lo) <= gamma(hi)


@given(ts=st.lists(positive_rationals, min_size=1, max_size=20))
def test_certified_partial_sums_dominated(ts):
    # Finite shadow of the summability-transfer property.
    for gamma in (linear(F(1, 2)), rational_shrink()):
        assert sum(gamma(t) for t in ts) <= sum(ts)


#: A SAMPLED table whose values have denominators 16 and 1.
TABLE = ((F(1, 8), F(1, 16)), (8, 4))


@st.composite
def _bound_cases(draw):
    """(gamma, den, Y, T) with ints den >= 1 and Y, T >= 0; about half the
    draws put Y at the bound's floor or one either side of it, and T is
    chosen so that the bound is an integer (a zero-slack tie) when asked."""
    kind = draw(st.sampled_from(["linear", "rational_shrink", "user"]))
    tie = draw(st.booleans())
    den = draw(st.integers(1, 10**4))
    T = draw(st.integers(0, 10**6))
    if kind == "linear":
        q = draw(st.integers(2, 60))
        p = draw(st.integers(1, q - 1))
        gamma = linear(F(p, q))
        if tie:
            T -= T % q  # q*Y <= (q - p)*T is a tie at Y = (q - p)*T/q
    elif kind == "rational_shrink":
        gamma = rational_shrink()
        if tie:
            # T = k*m and den = (k - 1)*T give T^2/(den + T) = m.
            k, m = draw(st.integers(2, 100)), draw(st.integers(1, 100))
            T, den = k * m, (k - 1) * k * m
    else:
        gamma = user_table(TABLE)
        if tie:
            den *= 16
    bound = (F(T, den) - gamma(F(T, den))) * den
    near = [max(0, math.floor(bound) + k) for k in (-1, 0, 1)]
    Y = draw(st.one_of(st.integers(0, 10**6), st.sampled_from(near)))
    return gamma, den, Y, T


@given(case=_bound_cases())
@example(case=(linear(F(1, 3)), 5, 2, 3))
@example(case=(rational_shrink(), 2, 1, 2))
@example(case=(user_table(TABLE), 16, 80, 16 * 9))
# On the values, linear(1/3): 2/3 <= 1 - 1/3 (a zero-slack tie), not
# 2/3 + 10^-30 <= 1 - 1/3; 2 <= 3 - 1; 0 <= 0 at t = 0, not 1/7 <= 0.
@example(case=(linear(F(1, 3)), 3, 2, 3))
@example(case=(linear(F(1, 3)), 3 * 10**30, 2 * 10**30 + 3, 3 * 10**30))
@example(case=(linear(F(1, 3)), 1, 2, 3))
@example(case=(linear(F(1, 3)), 1, 0, 0))
@example(case=(linear(F(1, 3)), 7, 1, 0))
def test_bound_test_is_the_admissibility_inequality(case):
    gamma, den, Y, T = case
    y, t = F(Y, den), F(T, den)
    want = y <= t - gamma(t)
    assert gamma.bound_test(den, operator.le)(Y, T) is want
    # On the values: Fractions, ints, and an int against a Fraction.
    on_values = gamma.bound_test(None, operator.le)
    assert on_values(y, t) is want
    assert on_values(Y, T) is on_values(Y, F(T)) is (Y <= T - gamma(T))


def test_an_exact_linear_test_cross_multiplies_ints_and_fractions():
    # An EXACT space's leq sees only ints and Fractions, whose comparison
    # cross-multiplies numerators and denominators: no float rounding.
    seen = []

    def leq(a, b):
        seen.append((a, b))
        return operator.le(a, b)

    test = linear(F(1, 3)).bound_test(None, leq)
    assert test(F(2, 3), 1) is True  # a zero-slack tie: 1 - 1/3 = 2/3
    assert test(F(2, 3) + F(1, 10**30), 1) is False
    assert test(2, F(3)) is True
    assert test(0, 0) is True and test(F(1, 7), 0) is False
    assert len(seen) == 5
    assert all(isinstance(v, (int, Fraction)) for pair in seen for v in pair)


@pytest.mark.parametrize(
    "Y, T",
    [(math.nan, F(1)), (F(1, 2), math.nan), (0, math.inf), (math.inf, F(1)), (0.25, F(1))],
)
def test_an_exact_linear_test_leaves_floats_to_leq(Y, T):
    gamma = linear(F(1, 2))
    assert gamma.bound_test(None, operator.le)(Y, T) is (Y <= T - gamma(T))


@pytest.mark.parametrize("exact", [False, True])
def test_a_negative_distance_is_refused_by_gamma_on_every_path(exact):
    leq = from_oracle(lambda x, y: 0, exact=exact).leq
    with pytest.raises(ValueError, match="defined on"):
        linear(F(1, 2)).bound_test(None, leq)(0, F(-1, 2))
