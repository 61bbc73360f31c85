"""Quasi-pseudometric spaces and their set-distance operations.

A quasi-pseudometric drops the symmetry requirement of a metric: d(x, y)
and d(y, x) may differ.  The axioms kept are

    (i)   d(x, x) = 0 for every point x,
    (ii)  d(x, z) <= d(x, y) + d(y, z) for all x, y, z,
    (iii) optionally, d(x, y) = 0 = d(y, x) implies x = y  (the T0 condition).

This module provides the space container (:class:`QSpace`), the two classic
transforms (conjugate and symmetrization), point-to-set and set-to-set
distances including the asymmetric Hausdorff distance, membership in open
balls, and an exhaustive axiom checker for finite universes.

Arithmetic modes
----------------
EXACT spaces carry :class:`fractions.Fraction` distances and every
comparison is exact.  FLOAT spaces use binary floats and apply a comparison
tolerance (default ``1e-9``) to every "equals zero" and "<=" test.
Zero-defect tests are the core contract of the downstream solvers, which is
why EXACT is the default everywhere.

All operations here are pure functions of immutable values and may be
called concurrently from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

Point = Hashable
#: Distances are nonnegative rationals (EXACT mode), floats (FLOAT mode),
#: or ``INFINITY``.
Value = Fraction | int | float

#: Distinguished extended value: absorbs addition, dominates every
#: comparison.  Finite point sets never produce it, but user oracles may.
INFINITY = math.inf

#: FLOAT-mode comparison tolerance applied to "= 0" and "<=" tests.
DEFAULT_TOLERANCE = 1e-9


def _unique(points: Sequence[Point]) -> tuple[Point, ...]:
    out: list[Point] = []
    seen = set()
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class QSpace:
    """A point universe together with an asymmetric distance oracle.

    ``points`` is the ordered finite universe, or ``None`` for an
    oracle-backed universe that cannot be enumerated.  The oracle ``d``
    must be pure: repeated calls with equal arguments return equal values.

    ``exact`` selects the arithmetic mode; ``tolerance`` is only consulted
    in FLOAT mode.  ``t0`` records whether the space claims the T0
    condition (it is checked by :func:`check_axioms`, never assumed).
    ``order`` maps each point of a finite universe to its position; every
    finite scan reads it.
    """

    d: Callable[[Point, Point], Value]
    points: tuple[Point, ...] | None = None
    exact: bool = True
    t0: bool = False
    tolerance: float = DEFAULT_TOLERANCE
    order: Mapping[Point, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order = None if self.points is None else {p: i for i, p in enumerate(self.points)}
        object.__setattr__(self, "order", order)

    def universe(self) -> tuple[Point, ...]:
        if self.points is None:
            raise ValueError("space has no enumerable universe")
        return self.points

    # Comparison helpers.  EXACT mode compares exactly; FLOAT mode widens
    # every "= 0" and "<=" test by the tolerance.
    def is_zero(self, v: Value) -> bool:
        if self.exact:
            return v == 0
        return abs(v) <= self.tolerance

    def leq(self, a: Value, b: Value) -> bool:
        if self.exact:
            return a <= b
        return a <= b + self.tolerance


class FieldError(ValueError):
    """A malformed input value; ``field`` names it (``d[i][j]`` for a
    distance-matrix entry)."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _coerce_value(raw: Value | str, exact: bool) -> Value:
    """The one value rule: EXACT gives a Fraction, FLOAT a finite float
    (see :func:`from_matrix`); anything else is a ValueError."""
    if isinstance(raw, bool):
        raise ValueError(f"not a valid number: {raw!r}")
    try:
        if exact:
            if isinstance(raw, Fraction):
                return raw
            # Read floats as their decimal literal, not their binary expansion.
            return Fraction(str(raw)) if isinstance(raw, float) else Fraction(raw)
        v = float(Fraction(raw)) if isinstance(raw, str) else float(raw)
    except OverflowError as exc:
        raise ValueError(f"out of the float range: {raw!r}") from exc
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid number: {raw!r}") from exc
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {raw!r}")
    return v


def _entry(raw: Value | str, exact: bool, i: int, j: int) -> Value:
    try:
        v = _coerce_value(raw, exact)
    except ValueError as exc:
        raise FieldError(f"d[{i}][{j}]", str(exc)) from exc
    if v < 0:
        raise FieldError(f"d[{i}][{j}]", "distances must be nonnegative")
    return v


def from_matrix(
    points: Sequence[Point],
    matrix: Sequence[Sequence[Value | str]],
    *,
    exact: bool = True,
    t0: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> QSpace:
    """Build a finite space from a row-major distance matrix.

    ``matrix[i][j]`` is d(points[i], points[j]).  One rule, shared with
    documents, reads every entry: EXACT mode takes ints, Fractions, "p/q"
    or decimal strings and decimal floats to Fractions; FLOAT mode takes
    numbers and such strings to finite floats.  Booleans, NaN, infinities,
    values beyond the float range and negative entries raise
    :class:`FieldError` naming the entry ``d[i][j]``.  The values are kept
    in index-addressed rows; the axioms are *not* enforced here (use
    :func:`check_axioms`).
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("universe must be nonempty")
    if len(set(pts)) != len(pts):
        raise ValueError("universe contains duplicate points")
    n = len(pts)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"distance matrix must be {n}x{n}")
    rows = [
        [_entry(raw, exact, i, j) for j, raw in enumerate(row)] for i, row in enumerate(matrix)
    ]

    def d(x: Point, y: Point) -> Value:
        return rows[order[x]][order[y]]

    space = QSpace(d=d, points=pts, exact=exact, t0=t0, tolerance=tolerance)
    # d reads the space's own universe order, bound before d can be called.
    order = space.order
    return space


def from_oracle(
    d: Callable[[Point, Point], Value],
    *,
    points: Sequence[Point] | None = None,
    exact: bool = True,
    t0: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> QSpace:
    """Wrap a distance oracle, optionally with an enumerable universe."""
    pts = _unique(points) if points is not None else None
    return QSpace(d=d, points=pts, exact=exact, t0=t0, tolerance=tolerance)


def conjugate(space: QSpace) -> QSpace:
    """The space with arguments swapped: d'(x, y) = d(y, x).

    An involution; applying it twice yields a space whose distances agree
    exactly with the original (only the argument order changes, so there is
    no rounding even in FLOAT mode).
    """
    inner = space.d

    def d(x: Point, y: Point) -> Value:
        return inner(y, x)

    return replace(space, d=d)


def symmetrize(space: QSpace) -> QSpace:
    """Pointwise maximum of the space and its conjugate.

    When the input satisfies the T0 condition the result is a genuine
    metric (symmetric, with identity of indiscernibles).
    """
    inner = space.d

    def d(x: Point, y: Point) -> Value:
        return max(inner(x, y), inner(y, x))

    return replace(space, d=d)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome for one axiom: PASS, or FAIL with a concrete witness."""

    axiom: str
    passed: bool
    witness: tuple | None = None

    def status(self, sampled: bool = False) -> str:
        if not self.passed:
            return "FAIL"
        return "SAMPLED-PASS" if sampled else "PASS"


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom results of an exhaustive (or sampled) axiom check."""

    identity: AxiomCheck
    triangle: AxiomCheck
    t0: AxiomCheck | None = None
    sampled: bool = False

    @property
    def checks(self) -> tuple[AxiomCheck, ...]:
        out = [self.identity, self.triangle]
        if self.t0 is not None:
            out.append(self.t0)
        return tuple(out)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _over_common_denominator(
    matrix: Sequence[Sequence[Value]],
) -> tuple[list[list[Value]], int | None]:
    """Copy ``matrix`` as rows of Python ints over one common denominator.

    When every entry is an int or a Fraction and at least one is a
    Fraction, each entry is multiplied by the LCM of the Fraction
    denominators and that LCM is returned with the rows: sums and
    comparisons of the ints then agree exactly with those of the values.
    Otherwise (all ints already, or any float, ``INFINITY``, NaN or other
    value) the rows are a plain copy and the denominator is ``None``.
    """
    rows = [list(row) for row in matrix]
    fractions = [v for row in rows for v in row if type(v) is not int]
    if not fractions or not all(isinstance(v, Fraction) for v in fractions):
        return rows, None
    den = math.lcm(*{v.denominator for v in fractions})
    for row in rows:
        # An int is its own numerator over denominator 1.
        row[:] = [v.numerator * (den // v.denominator) for v in row]
    return rows, den


def _first_triangle_violation(
    rows: list[list[Value]], tol: Value
) -> tuple[int, int, int] | None:
    """Indices (i, j, k) of the first triple in row-major order with
    rows[i][k] > rows[i][j] + rows[j][k] + tol, or None.  NaN fails."""
    for i, row_x in enumerate(rows):
        for j, dxy in enumerate(row_x):
            holds = [a <= dxy + b + tol for a, b in zip(row_x, rows[j])]
            if not all(holds):
                return i, j, holds.index(False)
    return None


def check_axioms(
    space: QSpace,
    *,
    points: Sequence[Point] | None = None,
    check_t0: bool | None = None,
) -> AxiomReport:
    """Exhaustively check the quasi-pseudometric axioms.

    For a finite universe of n points the n^2 distances are read once,
    then the triangle inequality is checked over all n^3 ordered triples
    (exact integer comparisons over a common denominator when every
    distance is an int or a Fraction in EXACT mode).  Violations are
    reported with the first witness in universe order, never raised.

    ``points`` supplies a finite sample for oracle-backed universes; the
    report is then marked ``sampled`` (a sampled pass is reported as
    SAMPLED-PASS, not PASS).  The T0 check runs only if requested, either
    explicitly via ``check_t0`` or implicitly because the space carries the
    ``t0`` flag.
    """
    sampled = points is not None
    if points is None:
        universe: Sequence[Point] = space.universe()
    else:
        universe = _unique(points)
    d = space.d
    values = [[d(x, y) for y in universe] for x in universe]
    # Scaling by a positive integer keeps "= 0" and "<=" exact; FLOAT
    # comparisons widen by the tolerance and so stay on the values.
    rows = _over_common_denominator(values)[0] if space.exact else values
    tol = 0 if space.exact else space.tolerance
    is_zero = space.is_zero

    bad = next(((x,) for i, x in enumerate(universe) if not is_zero(rows[i][i])), None)
    identity = AxiomCheck("identity", bad is None, bad)

    bad = _first_triangle_violation(rows, tol)
    if bad is not None:
        bad = tuple(universe[i] for i in bad)
    triangle = AxiomCheck("triangle", bad is None, bad)

    want_t0 = space.t0 if check_t0 is None else check_t0
    t0_check: AxiomCheck | None = None
    if want_t0:
        bad = next(
            (
                (x, y)
                for i, x in enumerate(universe)
                for j, y in enumerate(universe)
                if x != y and is_zero(rows[i][j]) and is_zero(rows[j][i])
            ),
            None,
        )
        t0_check = AxiomCheck("t0", bad is None, bad)

    return AxiomReport(identity=identity, triangle=triangle, t0=t0_check, sampled=sampled)


def _members(point_set: Iterable[Point]) -> tuple[Point, ...]:
    ms = _unique(tuple(point_set))
    if not ms:
        raise ValueError("point set must be nonempty")
    return ms


def dist_point_set(space: QSpace, x: Point, point_set: Iterable[Point]) -> Value:
    """d(x, A) = min over a in A of d(x, a).  A must be nonempty."""
    return min(space.d(x, a) for a in _members(point_set))


def dist_set_point(space: QSpace, point_set: Iterable[Point], x: Point) -> Value:
    """d(A, x) = min over a in A of d(a, x).  A must be nonempty."""
    return min(space.d(a, x) for a in _members(point_set))


def hausdorff(space: QSpace, a_set: Iterable[Point], b_set: Iterable[Point]) -> Value:
    """Asymmetric Hausdorff distance between two nonempty finite sets.

    H(A, B) = max{ max_{a in A} d(a, B),  max_{b in B} d(A, b) }.

    For singletons this collapses to the plain pointwise maxima:
    H({x}, B) = max_b d(x, b) and H(A, {x}) = max_a d(a, x), because the
    minimum term is dominated by the maximum term.
    """
    A = _members(a_set)
    B = _members(b_set)
    d = space.d
    forward = max(min(d(a, b) for b in B) for a in A)
    backward = max(min(d(a, b) for a in A) for b in B)
    return max(forward, backward)


def ball_contains(space: QSpace, center: Point, radius: Value, y: Point) -> bool:
    """Membership in the open ball: d(center, y) < radius, strictly."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return space.d(center, y) < radius


def distance_matrix(space: QSpace) -> list[list[Value]]:
    """Row-major matrix of all pairwise distances (finite spaces only)."""
    pts = space.universe()
    return [[space.d(x, y) for y in pts] for x in pts]
