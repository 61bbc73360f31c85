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

Finite EXACT spaces built by :func:`from_matrix` keep their distances as
rows of Python ints over one common denominator D (``QSpace.rows`` and
``QSpace.den``), parsed straight from the matrix entries; sums and
comparisons of those ints agree exactly with those of the rationals, and
``d`` still returns a ``Fraction``.  When D would exceed a fixed bound
(``_MAX_DENOMINATOR_BITS``, 1,024 bits) the rows hold the ``Fraction``
values instead.  The axiom checker and the min-plus closure scale the
values they read under the same bound.

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

    A space built by :func:`from_matrix` also holds its distances as
    ``rows``, index-addressed by ``order``: ints over the common
    denominator ``den`` (d(x, y) = rows[i][j] / den), or, when ``den`` is
    None, the values ``d`` returns.  Other spaces, and any space rebuilt
    with :func:`dataclasses.replace`, have neither and are read through
    ``d``.
    """

    d: Callable[[Point, Point], Value]
    points: tuple[Point, ...] | None = None
    exact: bool = True
    t0: bool = False
    tolerance: float = DEFAULT_TOLERANCE
    order: Mapping[Point, int] | None = field(init=False, repr=False, compare=False)
    rows: tuple[tuple[Value, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    den: int | None = field(default=None, init=False, repr=False, compare=False)

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


#: Largest common denominator, in bits, that a matrix is scaled to; above
#: it the values stay Fractions.  An int over a D of b bits takes about
#: b/8 bytes.  Measured on Python 3.11 at n = 40: with a 1,061-bit D, int
#: rows took 164 bytes per entry against 104 for Fraction rows, and the
#: triangle scan 20 ms against 452 ms; with 4,588 bits, 625 bytes against
#: 104, and 46 ms against 457 ms.  The bound keeps the rows' memory within
#: about 1.6 times that of Fraction rows.
_MAX_DENOMINATOR_BITS = 1024


def _over_common_denominator(
    nums: Sequence[Sequence[int]], dens: Sequence[Sequence[int]]
) -> tuple[list[list[int]], int] | None:
    """Rows of the rationals nums[i][j] / dens[i][j] as Python ints over
    their least common denominator D, with D: sums and comparisons of the
    ints agree exactly with those of the rationals.  None when D has more
    than ``_MAX_DENOMINATOR_BITS`` bits."""
    qs = {q for row in dens for q in row}
    den = 1
    for q in qs:
        den = math.lcm(den, q)
        if den.bit_length() > _MAX_DENOMINATOR_BITS:
            return None
    scale = {q: den // q for q in qs}
    return [[a * scale[q] for a, q in zip(ra, rq)] for ra, rq in zip(nums, dens)], den


def _scaled_values(matrix: Sequence[Sequence[Value]]) -> tuple[list[list[int]], int] | None:
    """``matrix`` over one common denominator (see
    :func:`_over_common_denominator`) when every entry is an int or a
    Fraction and at least one is a Fraction; None otherwise (all ints
    already, or any float, ``INFINITY``, NaN or other value)."""
    kinds = {type(v) for row in matrix for v in row}
    if Fraction not in kinds or not kinds <= {int, Fraction}:
        return None
    return _over_common_denominator(
        [[v.numerator for v in row] for row in matrix],
        [[v.denominator for v in row] for row in matrix],
    )


def _exact_parts(
    matrix: Sequence[Sequence[Value | str]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Numerators and denominators of the entries of an EXACT matrix.

    Nonnegative ints (not bools) and Fractions, and strings of ASCII digits
    optionally over a nonzero ASCII-digit denominator, are read directly.
    Every other entry goes through the value rule, so it is accepted or
    rejected, with the same message, as the rule alone would.
    """
    nums: list[list[int]] = []
    dens: list[list[int]] = []
    for i, row in enumerate(matrix):
        num: list[int] = []
        den: list[int] = []
        for j, raw in enumerate(row):
            kind = type(raw)
            if kind is str:
                a, slash, b = raw.partition("/")
                # str.isdigit alone also admits digits int() rejects, like "²".
                if a.isdigit() and a.isascii():
                    if not slash:
                        num.append(int(a))
                        den.append(1)
                        continue
                    if b.isdigit() and b.isascii():
                        q = int(b)
                        if q:
                            num.append(int(a))
                            den.append(q)
                            continue
            elif (kind is int or kind is Fraction) and raw >= 0:
                num.append(raw.numerator)
                den.append(raw.denominator)
                continue
            v = _entry(raw, True, i, j)
            num.append(v.numerator)
            den.append(v.denominator)
        nums.append(num)
        dens.append(den)
    return nums, dens


def _matrix_space(
    points: tuple[Point, ...],
    rows: Iterable[Iterable[Value]],
    den: int | None,
    exact: bool,
    t0: bool,
    tolerance: float,
) -> QSpace:
    """A finite space whose ``d`` reads ``rows`` over ``den`` (see
    :class:`QSpace`)."""
    table = tuple(map(tuple, rows))

    def d(x: Point, y: Point) -> Value:
        v = table[order[x]][order[y]]
        return v if den is None else Fraction(v, den)

    space = QSpace(d=d, points=points, exact=exact, t0=t0, tolerance=tolerance)
    # d reads the space's own universe order, bound before d can be called.
    order = space.order
    object.__setattr__(space, "rows", table)
    object.__setattr__(space, "den", den)
    return space


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
    in index-addressed rows, in EXACT mode as ints over one common
    denominator (see :class:`QSpace`); the axioms are *not* enforced here
    (use :func:`check_axioms`).
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("universe must be nonempty")
    if len(set(pts)) != len(pts):
        raise ValueError("universe contains duplicate points")
    n = len(pts)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"distance matrix must be {n}x{n}")
    den = None
    if not exact:
        rows: Iterable[Iterable[Value]] = (
            [_entry(raw, False, i, j) for j, raw in enumerate(row)]
            for i, row in enumerate(matrix)
        )
    else:
        nums, dens = _exact_parts(matrix)
        scaled = _over_common_denominator(nums, dens)
        if scaled is None:
            rows = (map(Fraction, ra, rq) for ra, rq in zip(nums, dens))
        else:
            rows, den = scaled
    return _matrix_space(pts, rows, den, exact, t0, tolerance)


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


def _rebuilt(space: QSpace, rows: Iterable[Iterable[Value]]) -> QSpace:
    return _matrix_space(space.points, rows, space.den, space.exact, space.t0, space.tolerance)


def conjugate(space: QSpace) -> QSpace:
    """The space with arguments swapped: d'(x, y) = d(y, x).

    An involution; applying it twice yields a space whose distances agree
    exactly with the original (only the argument order changes, so there is
    no rounding even in FLOAT mode).  Stored rows are transposed.
    """
    if space.rows is not None:
        return _rebuilt(space, zip(*space.rows))
    inner = space.d

    def d(x: Point, y: Point) -> Value:
        return inner(y, x)

    return replace(space, d=d)


def symmetrize(space: QSpace) -> QSpace:
    """Pointwise maximum of the space and its conjugate.

    When the input satisfies the T0 condition the result is a genuine
    metric (symmetric, with identity of indiscernibles).  Stored rows are
    combined with their transpose by max.
    """
    if space.rows is not None:
        return _rebuilt(space, (map(max, r, c) for r, c in zip(space.rows, zip(*space.rows))))
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

    For a finite universe of n points the n^2 distances are read once (a
    space with stored rows is read from them), then the triangle inequality
    is checked over all n^3 ordered triples (exact integer comparisons over
    a common denominator when every distance is an int or a Fraction in
    EXACT mode).  Violations are
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
    rows = space.rows
    if sampled or rows is None:
        d = space.d
        rows = [[d(x, y) for y in universe] for x in universe]
        # Scaling by a positive integer keeps "= 0" and "<=" exact; FLOAT
        # comparisons widen by the tolerance and so stay on the values.
        scaled = _scaled_values(rows) if space.exact else None
        if scaled is not None:
            rows = scaled[0]
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
