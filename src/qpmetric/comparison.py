"""Comparison functions used by the weak-contraction machinery.

A comparison function gamma maps [0, inf) to [0, inf) and must satisfy

    (g1)  gamma is nondecreasing, gamma(0) = 0, and 0 < gamma(t) < t
          for every t > 0;
    (g2)  for any positive sequence {t_n}, summability of gamma(t_n)
          forces summability of t_n.

(g1) can be spot-checked on a grid; (g2) quantifies over all infinite
sequences and cannot be decided from samples.  The module therefore splits
functions into two certification levels:

* CERTIFIED builtins, where both conditions hold by a short argument:
  - ``linear(c)``, gamma(t) = c*t with 0 < c < 1.  (g2): if sum c*t_n is
    finite then sum t_n = (1/c) * sum c*t_n is finite.  Its test on int
    rows over D (t = T/D, defect Y/D) is q*Y <= (q - p)*T for c = p/q.
  - ``rational_shrink()``, gamma(t) = t/(1+t).  (g2): if sum t_n/(1+t_n)
    is finite its terms tend to 0, so t_n tends to 0 and eventually
    t_n < 1, whence t_n/(1+t_n) >= t_n/2 and sum t_n is finite.  Its
    test on int rows is Y*(D + T) <= T^2.
* SAMPLED user functions (tables or callables), where only (g1) is ever
  checked and only on a grid.  A sampled pass never upgrades the
  certification level, and the solver warns when given one.  Their test,
  and every kind's off int rows, is the space's own comparison of the
  defect with t - gamma(t).

User tables are interpolated by the previous-knot step rule (the value at
the greatest knot <= t, with an implicit (0, 0) knot).  This is a
convention of the library, not something the theory prescribes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .space import INFINITY, Value, _coerce_value


class SampledComparisonWarning(UserWarning):
    """Raised (as a warning) when a solver runs with an uncertified gamma."""


@dataclass(frozen=True)
class ComparisonFunction:
    """A candidate comparison function with its certification level.

    ``kind`` is one of ``"linear"``, ``"rational_shrink"``, ``"user"``.
    Exactly one of ``c`` (linear), ``table`` (user step table) or ``fn``
    (user callable) is set, depending on the kind.
    """

    kind: str
    c: Fraction | None = None
    table: tuple[tuple[Value, Value], ...] | None = None
    fn: Callable[[Value], Value] | None = None

    @property
    def certified(self) -> bool:
        """True for builtin kinds whose (g1)/(g2) hold by construction."""
        return self.kind in ("linear", "rational_shrink")

    def __call__(self, t: Value) -> Value:
        """Evaluate gamma(t).  Raises ValueError for t < 0.

        Returns exactly 0 at t = 0 for every kind, enforcing the
        gamma(0) = 0 invariant even for user callables.
        """
        if t < 0:
            raise ValueError(f"comparison functions are defined on [0, inf), got {t!r}")
        if t == 0:
            return 0
        if self.kind == "linear":
            return self.c * t
        if self.kind == "rational_shrink":
            return t / (1 + t)
        if self.table is not None:
            i = bisect.bisect_right(self.table, t, key=lambda knot: knot[0])
            # Previous-knot step rule, with an implicit (0, 0) knot.
            return self.table[i - 1][1] if i > 0 else 0
        return self.fn(t)

    def bound_test(
        self, den: int | None, leq: Callable[[Value, Value], bool]
    ) -> Callable[[Value, Value], bool]:
        """defect(y) <= t - gamma(t) as a test on Y = defect(y) and T = t, in
        the scale of int rows over ``den``: an integer test for a certified
        kind, otherwise ``leq`` on the values.  When ``den`` is None, Y and T
        are the values, and every kind tests ``leq(Y, T - gamma(T))``."""
        if den is None:
            return lambda Y, T: leq(Y, T - self(T))
        if self.kind == "linear" and isinstance(self.c, Fraction):
            # t - (p/q) t = (q - p) t / q = r t / q.
            q, r = self.c.denominator, self.c.denominator - self.c.numerator
            return lambda Y, T: q * Y <= r * T
        if self.kind == "rational_shrink":
            # t - t/(1 + t) = t^2/(1 + t) = T^2 / (den (den + T)).
            return lambda Y, T: Y * (den + T) <= T * T
        return lambda Y, T: leq(Fraction(Y, den), Fraction(T, den) - self(Fraction(T, den)))

    def __repr__(self) -> str:
        if self.kind == "linear":
            return f"ComparisonFunction(linear, c={self.c})"
        return f"ComparisonFunction({self.kind})"


def linear(c: Value | str) -> ComparisonFunction:
    """gamma(t) = c*t for 0 < c < 1, c read by the one value rule."""
    frac = _coerce_value(c, True)
    if not 0 < frac < 1:
        raise ValueError(f"linear factor must satisfy 0 < c < 1, got {frac}")
    return ComparisonFunction(kind="linear", c=frac)


def rational_shrink() -> ComparisonFunction:
    """gamma(t) = t / (1 + t)."""
    return ComparisonFunction(kind="rational_shrink")


def user_table(knots: Iterable[Sequence[Value]]) -> ComparisonFunction:
    """A SAMPLED user function given as (t, gamma(t)) knots.

    Knots must have strictly increasing nonnegative t and nonnegative
    values; between knots the previous-knot step rule applies.
    """
    table = tuple((t, v) for t, v in knots)
    if not table:
        raise ValueError("user table must contain at least one knot")
    prev = None
    for t, v in table:
        # Negated >= and > tests, so that a NaN knot fails them too.
        if not (t >= 0 and v >= 0):
            raise ValueError(f"table knot ({t}, {v}) must have t >= 0 and gamma(t) >= 0")
        if prev is not None and not t > prev:
            raise ValueError("table knots must be strictly increasing in t")
        prev = t
    return ComparisonFunction(kind="user", table=table)


def user_function(fn: Callable[[Value], Value]) -> ComparisonFunction:
    """A SAMPLED user function given as a callable oracle."""
    return ComparisonFunction(kind="user", fn=fn)


def default_grid() -> tuple[float, ...]:
    """64 logarithmically spaced points spanning [1e-6, 1e6]."""
    return tuple(10.0 ** (-6 + 12 * i / 63) for i in range(64))


@dataclass(frozen=True)
class Gamma1Report:
    """Result of a grid check of condition (g1).

    On failure exactly one witness field is set: ``bound_witness`` is a
    grid point t with not(0 < gamma(t) < t), ``monotonicity_witness`` is an
    adjacent grid pair (t1, t2) with gamma(t1) > gamma(t2).
    """

    passed: bool
    bound_witness: Value | None = None
    monotonicity_witness: tuple[Value, Value] | None = None


def verify_gamma1(
    gamma: ComparisonFunction,
    grid: Sequence[Value] | None = None,
) -> Gamma1Report:
    """Check (g1) on a strictly increasing grid of positive finite reals.

    Scans the grid in ascending order and reports the first violation:
    either a strict-bound failure at one point or a monotonicity failure
    across an adjacent pair.  A pass of this check is only ever a sampled
    pass; it does not certify (g2) and never upgrades the certification
    level of a user function.
    """
    pts = tuple(default_grid() if grid is None else grid)
    if not pts:
        raise ValueError("grid must be nonempty")
    for t in pts:
        # A negated test, so that a NaN point fails it too; a Fraction or an
        # int compares with INFINITY without a float() that could overflow.
        if not 0 < t < INFINITY:
            raise ValueError("grid points must be positive and finite")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be strictly increasing")

    prev_t: Value | None = None
    prev_v: Value | None = None
    for t in pts:
        v = gamma(t)
        if not (0 < v < t):
            return Gamma1Report(passed=False, bound_witness=t)
        if prev_v is not None and v < prev_v:
            return Gamma1Report(passed=False, monotonicity_witness=(prev_t, t))
        prev_t, prev_v = t, v
    return Gamma1Report(passed=True)
