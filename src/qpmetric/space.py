"""Quasi-pseudometric spaces and their set-distance operations.

A quasi-pseudometric drops the symmetry requirement of a metric: d(x, y)
and d(y, x) may differ.  The axioms kept are

    (i)   d(x, x) = 0 for every point x,
    (ii)  d(x, z) <= d(x, y) + d(y, z) for all x, y, z,
    (iii) optionally, d(x, y) = 0 = d(y, x) implies x = y  (the T0 condition).

This module provides the space container (:class:`QSpace`), the two classic
transforms (conjugate and symmetrization), point-to-set and set-to-set
distances including the asymmetric Hausdorff distance, membership in open
balls, an exhaustive axiom checker for finite universes, and the min-plus
closure that enforces the triangle inequality on a matrix.

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
values they read under the same bound.  Entries are read in bulk: one
C-level pass finds the value types of a matrix, and a matrix of ints and
``Fraction``s has its numerators and denominators read a whole row at a
time, its sign checked once; only strings, and naming the first bad
entry, take a loop over single entries.

On such int rows, when every entry is below 2^62, the triangle scan and
the min-plus closure pack each row into one Python int of fixed-width
lanes and compare a whole row per big-int operation (see "Packed rows"
below); the results are those of one exact comparison per triple.  FLOAT
rows, ``Fraction`` rows, negative entries, bools, NaN, ``INFINITY`` and
larger ints take the per-triple loops.

All operations here are pure functions of immutable values and may be
called concurrently from any number of threads.  (A stored-rows space's
``resolved`` memo is filled as maps are scanned on it; a slot filled twice
by two threads gets the same value both times.)
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from numbers import Number
from operator import attrgetter, mul
from typing import Callable, Hashable, Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

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
    """The points without repeats, first occurrences in order; each point
    is hashed once."""
    return tuple(dict.fromkeys(points))


#: Value types that are never NaN.
_NEVER_NAN = {int, Fraction}


def _first_nan(values: Sequence[Value]) -> Value | None:
    """The first NaN in ``values``, or None; values that are all ints and
    Fractions are not scanned."""
    if not _NEVER_NAN.issuperset(map(type, values)):
        for v in values:
            if v != v:
                return v
    return None


def _max_keeping_nan(values: Sequence[Value]) -> Value:
    """The largest of ``values`` (nonempty), or a NaN among them if there is
    one: builtin ``max`` keeps a NaN only when it comes first."""
    nan = _first_nan(values)
    return max(values) if nan is None else nan


def _min_keeping_nan(values: Sequence[Value]) -> Value:
    """The smallest of ``values`` (nonempty), or a NaN among them if there
    is one, as :func:`_max_keeping_nan`."""
    nan = _first_nan(values)
    return min(values) if nan is None else nan


@dataclass(frozen=True)
class QSpace:
    """A point universe together with an asymmetric distance oracle.

    ``points`` is the ordered finite universe, or ``None`` for an
    oracle-backed universe that cannot be enumerated.  The oracle ``d``
    must be pure: repeated calls with equal arguments return equal values.

    ``exact`` selects the arithmetic mode; ``tolerance`` (finite, >= 0) is
    only consulted in FLOAT mode.  ``t0`` records whether the space claims
    the T0 condition (it is checked by :func:`check_axioms`, never assumed).
    ``order`` maps each point of a finite universe to its position; every
    finite scan reads it.

    A space built by :func:`from_matrix` also holds its distances as
    ``rows``, index-addressed by ``order``: ints over the common
    denominator ``den`` (d(x, y) = rows[i][j] / den), or, when ``den`` is
    None, the values ``d`` returns.  Such a space also keeps, in
    ``resolved``, what the scans of :mod:`qpmetric.contraction` learn of
    each set-valued map on it, keyed weakly by the map.  Other spaces, and
    any space rebuilt with :func:`dataclasses.replace`, have none of the
    three and are read through ``d``.
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
    resolved: WeakKeyDictionary | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.tolerance < INFINITY:
            raise FieldError("tolerance", "must be a nonnegative finite number")
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


#: Largest decimal exponent, in magnitude, that the value rule reads:
#: "1e<k>" builds 10**k, whose time and memory grow without bound in k.
#: CPython's default int-string limit is 4,300 digits, so a larger exponent
#: gives a value whose digits Python by default neither reads nor writes.
_MAX_EXPONENT = 4300
_DIGIT_RUN = re.compile(r"\d[\d_]*")


def _digit_limit() -> int:
    """The most digits ``int`` reads from a string: CPython's int-string
    limit, or ``sys.maxsize`` where it is off or absent (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", int)() or sys.maxsize


def _check_size(raw: str) -> None:
    """Refuse a string that the value rule would read without bound, or
    refuse only with an error naming no entry: a run of digits past the
    int-string limit, or a decimal exponent beyond ``_MAX_EXPONENT``.  The
    exponent is what follows the last "e", as :class:`fractions.Fraction`
    reads it."""
    limit = _digit_limit()
    if len(raw) > limit and any(
        len(run) - run.count("_") > limit for run in _DIGIT_RUN.findall(raw)
    ):
        raise ValueError(f"more than {limit} digits")
    e = max(raw.rfind("e"), raw.rfind("E"))
    digits = raw[e + 1 :].strip().lstrip("+-").replace("_", "").lstrip("0")
    if e >= 0 and digits.isdecimal():
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in magnitude")


def _coerce_value(raw: Value | str, exact: bool) -> Value:
    """The one value rule: EXACT gives a Fraction, FLOAT a finite float
    (see :func:`from_matrix`); anything else, and a string past the bounds
    of :func:`_check_size`, is a ValueError."""
    if isinstance(raw, bool):
        raise ValueError(f"not a valid number: {raw!r}")
    if isinstance(raw, str):
        _check_size(raw)
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
#: rows took 164 bytes per entry against 104 for Fraction rows; with
#: 4,588 bits, 625 bytes against 104.  The bound keeps the rows' memory
#: within about 1.6 times that of Fraction rows.  (Lanes that wide are
#: past ``_MAX_LANE_BITS``, so such rows take the per-triple loops.)
_MAX_DENOMINATOR_BITS = 1024


#: The types whose entries are read in bulk: exact rationals.  A bool is
#: not an int here (its type is ``bool``).
_RATIONAL = frozenset({int, Fraction})
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


def _kinds(matrix: Sequence[Sequence[object]]) -> set[type]:
    """The value types of the entries of ``matrix``, in one C-level pass."""
    return set(map(type, chain.from_iterable(matrix)))


def _over_common_denominator(
    nums: Iterable[Iterable[int]], dens: Sequence[Sequence[int]]
) -> tuple[list[list[int]], int] | None:
    """Rows of the rationals nums[i][j] / dens[i][j] as Python ints over
    their least common denominator D, with D: sums and comparisons of the
    ints agree exactly with those of the rationals.  None when D has more
    than ``_MAX_DENOMINATOR_BITS`` bits.  ``nums`` is read once, a row at
    a time."""
    qs = set(chain.from_iterable(dens))
    den = 1
    for q in qs:
        den = math.lcm(den, q)
        if den.bit_length() > _MAX_DENOMINATOR_BITS:
            return None
    scale = {q: den // q for q in qs}.__getitem__
    return [list(map(mul, ra, map(scale, rq))) for ra, rq in zip(nums, dens)], den


def _scaled_values(
    matrix: Sequence[Sequence[Value]], kinds: set[type]
) -> tuple[list[list[int]], int] | None:
    """``matrix`` over one common denominator (see
    :func:`_over_common_denominator`) when its entry types ``kinds`` are
    ints and Fractions, at least one a Fraction; None otherwise (all ints
    already, or any float, ``INFINITY``, NaN or other value)."""
    if Fraction not in kinds or not kinds <= _RATIONAL:
        return None
    return _over_common_denominator(
        (map(_NUMERATOR, row) for row in matrix),
        [list(map(_DENOMINATOR, row)) for row in matrix],
    )


def _exact_parts(
    matrix: Sequence[Sequence[Value | str]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Numerators and denominators of the entries of an EXACT matrix.

    A matrix of nonnegative ints (not bools) and Fractions is read a row
    at a time.  Otherwise each entry is read on its own: strings of ASCII
    digits, optionally over a nonzero ASCII-digit denominator, directly,
    and every other entry through the value rule, so it is accepted or
    rejected, with the same message, as the rule alone would.  A matrix
    whose first entry is a string (a document's) goes straight to that
    loop, without the type pass.
    """
    if type(matrix[0][0]) is not str and _kinds(matrix) <= _RATIONAL:
        nums = [list(map(_NUMERATOR, row)) for row in matrix]
        if min(map(min, nums)) >= 0:
            return nums, [list(map(_DENOMINATOR, row)) for row in matrix]
    nums = []
    dens: list[list[int]] = []
    for i, row in enumerate(matrix):
        num: list[int] = []
        den: list[int] = []
        for j, raw in enumerate(row):
            if type(raw) is str:
                a, slash, b = raw.partition("/")
                # str.isdigit alone also admits digits int() rejects, like "²".
                if a.isdigit() and a.isascii():
                    try:
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
                    except ValueError:
                        pass  # Past the int-string limit: the value rule names it.
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
    object.__setattr__(space, "resolved", WeakKeyDictionary())
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
    values beyond the float range, negative entries and strings past the
    rule's size bounds (see :func:`_check_size`) raise :class:`FieldError`
    naming the entry ``d[i][j]``.  The values are kept
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
        return _max_keeping_nan((inner(x, y), inner(y, x)))

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
    rows: Sequence[Sequence[Value]], tol: Value
) -> tuple[int, int, int] | None:
    """Indices (i, j, k) of the first triple in row-major order with
    rows[i][k] > rows[i][j] + rows[j][k] + tol, or None.  NaN fails.

    One comparison per triple: the fallback of
    :func:`_first_packed_violation`."""
    for i, row_x in enumerate(rows):
        for j, dxy in enumerate(row_x):
            holds = [a <= dxy + b + tol for a, b in zip(row_x, rows[j])]
            if not all(holds):
                return i, j, holds.index(False)
    return None


def _floyd_warshall(d: list[list[Value]]) -> list[list[Value]]:
    """Floyd-Warshall on the values, one comparison per triple, in place:
    the fallback of :func:`_packed_floyd_warshall`."""
    for k, dk in enumerate(d):
        for row in d:
            dik = row[k]
            for j, b in enumerate(dk):
                via = dik + b
                if via < row[j]:
                    row[j] = via
    return d


# Packed rows.  A row of n nonnegative ints below 2^(w-1) packs into one
# int of n lanes of w bits, entry k in bits [k*w, (k+1)*w).  ONES holds a
# 1 in every lane and G the top ("guard") bit of every lane.  With
# w = (2*max).bit_length() + 1 a sum of two entries stays below the guard
# bit, so for packed rows A and B (plus d*ONES) the lanes of (B | G) - A
# neither carry nor borrow into each other, and lane k keeps its guard bit
# exactly when a_k <= b_k.  One big-int operation then compares whole rows.

#: Widest lane the packed kernels take, in bits: every entry below 2^62.
#: Spreading d over the lanes, d*ONES, costs the product of the lane width
#: and the row width, so wide lanes lose to one comparison per triple.
#: Measured on Python 3.11 at n = 40 and 120, the packed triangle scan took
#: about a fifth of the loop's time with 65-bit lanes and two fifths with
#: 129-bit lanes, the closure about half and all of it; with a 1,043-bit D
#: (1,045-bit lanes) the scan took 144 ms against the loop's 20 ms.
_MAX_LANE_BITS = 64


def _lane_width(rows: Sequence[Sequence[Value]]) -> int | None:
    """The lane width w of ``rows`` when every entry is a nonnegative int
    (not a bool) and w is at most ``_MAX_LANE_BITS``, else None (no
    entries, any other value, or a lane too wide)."""
    if _kinds(rows) != {int} or min(map(min, rows)) < 0:
        return None
    return _lane_bits(max(map(max, rows)))


def _lane_bits(top: int) -> int | None:
    """The lane width for nonnegative ints up to ``top``, or None when it
    is wider than ``_MAX_LANE_BITS``."""
    w = (2 * top).bit_length() + 1
    return w if w <= _MAX_LANE_BITS else None


def _lanes(n: int, w: int) -> tuple[int, int]:
    """(ONES, G) for n lanes of w bits."""
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)
    return ones, ones << (w - 1)


def _pack(row: Sequence[int], w: int) -> int:
    p = 0
    for v in reversed(row):
        p = p << w | v
    return p


def _unpack(p: int, n: int, w: int) -> list[int]:
    mask = (1 << w) - 1
    return [p >> s & mask for s in range(0, n * w, w)]


def _first_packed_violation(rows: Sequence[Sequence[int]], w: int) -> tuple[int, int, int] | None:
    """:func:`_first_triangle_violation` with tolerance 0 on rows of lane
    width ``w``: one guard-bit test per pair (i, j) checks
    rows[i] <= rows[i][j] + rows[j] in every lane, and a scan of the first
    failing pair finds k."""
    ones, guard = _lanes(len(rows), w)
    packed = [_pack(row, w) for row in rows]
    guarded = [p | guard for p in packed]
    for i, (p_x, row_x) in enumerate(zip(packed, rows)):
        for j, dxy in enumerate(row_x):
            if (guarded[j] + dxy * ones - p_x) & guard != guard:
                return i, j, next(k for k, (a, b) in enumerate(zip(row_x, rows[j])) if a > dxy + b)
    return None


def _packed_floyd_warshall(d: Sequence[Sequence[int]], w: int) -> list[list[int]]:
    """The min-plus closure of rows of lane width ``w``, as Floyd-Warshall
    gives it: row_i <- min(row_i, d_ik + row_k) in one guard-bit compare
    and one lane-mask select per (k, i).  d_ik is read from lane k of the
    packed row i, which relaxing through k leaves as it is (entries are
    nonnegative)."""
    n = len(d)
    ones, guard = _lanes(n, w)
    lane, top = (1 << w) - 1, w - 1
    packed = [_pack(row, w) for row in d]
    for k in range(n):
        p_k, s = packed[k], k * w
        for i, a in enumerate(packed):
            b = (a >> s & lane) * ones + p_k
            # Guard bits of the lanes where b < a, spread to lane masks.
            less = ((b | guard) - a) & guard ^ guard
            if less:
                packed[i] = a ^ ((a ^ b) & (less - (less >> top)))
    return [_unpack(p, n, w) for p in packed]


def minplus_closure(matrix: Sequence[Sequence[Value]]) -> list[list[Value]]:
    """Min-plus transitive closure (all-pairs shortest path) of a matrix.

    Entries only ever shrink, so a nonnegative weight matrix with a zero
    diagonal always closes into a triangle-consistent one.  The result is
    exact, and that of one comparison per triple: Fraction input gives
    Fractions, all-int input gives ints.  A matrix that is not square, or
    an entry that is not a number (say, a string), is a ValueError; the
    latter is a :class:`FieldError` naming the first such ``d[i][j]``.
    """
    d, den = _closure(matrix)
    if den is None:
        return d
    # A closure holds few distinct values, and each Fraction costs a gcd.
    exact = {v: Fraction(v, den) for v in {v for row in d for v in row}}
    return [list(map(exact.__getitem__, row)) for row in d]


def _closure(matrix: Sequence[Sequence[Value]]) -> tuple[list[list[Value]], int | None]:
    """The closure of :func:`minplus_closure` as Python ints over the
    common denominator it returns, or as the values with None."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"distance matrix must be {n}x{n}")
    kinds = _kinds(matrix)
    if not all(issubclass(kind, Number) for kind in kinds):
        i, j, v = next(
            (i, j, v)
            for i, row in enumerate(matrix)
            for j, v in enumerate(row)
            if not isinstance(v, Number)
        )
        raise FieldError(f"d[{i}][{j}]", f"not a number: {v!r}")
    scaled = _scaled_values(matrix, kinds)
    d, den = scaled if scaled is not None else ([list(row) for row in matrix], None)
    w = _lane_width(d)
    return (_floyd_warshall(d) if w is None else _packed_floyd_warshall(d, w)), den


def check_axioms(
    space: QSpace,
    *,
    points: Sequence[Point] | None = None,
    check_t0: bool | None = None,
) -> AxiomReport:
    """Exhaustively check the quasi-pseudometric axioms.

    For a finite universe of n points the n^2 distances are read once (a
    space with stored rows is read from them), then the triangle inequality
    is checked over all n^3 ordered triples, exactly in EXACT mode.
    Violations are never raised: the report names the first witness in
    universe order (row-major over (x, y, z)), the one a comparison per
    triple finds.

    ``points`` supplies a finite sample for oracle-backed universes; the
    report is then marked ``sampled`` (a sampled pass is reported as
    SAMPLED-PASS, not PASS), and an empty sample is a ValueError.  The T0
    check runs only if requested, either explicitly via ``check_t0`` or
    implicitly because the space carries the ``t0`` flag.
    """
    sampled = points is not None
    if points is None:
        universe: Sequence[Point] = space.universe()
    else:
        universe = _unique(points)
        if not universe:
            raise ValueError("point sample must be nonempty")
    rows = space.rows
    if sampled or rows is None:
        d = space.d
        rows = [[d(x, y) for y in universe] for x in universe]
        # Scaling by a positive integer keeps "= 0" and "<=" exact; FLOAT
        # comparisons widen by the tolerance and so stay on the values.
        scaled = _scaled_values(rows, _kinds(rows)) if space.exact else None
        if scaled is not None:
            rows = scaled[0]
    if space.den is not None and not sampled:
        # Stored int rows are nonnegative ints by construction.
        w = _lane_bits(max(map(max, rows)))
    else:
        w = _lane_width(rows) if space.exact else None
    is_zero = space.is_zero

    bad = next(((x,) for i, x in enumerate(universe) if not is_zero(rows[i][i])), None)
    identity = AxiomCheck("identity", bad is None, bad)

    if w is not None:
        bad = _first_packed_violation(rows, w)
    else:
        bad = _first_triangle_violation(rows, 0 if space.exact else space.tolerance)
    if bad is not None:
        bad = tuple(universe[i] for i in bad)
    triangle = AxiomCheck("triangle", bad is None, bad)

    want_t0 = space.t0 if check_t0 is None else check_t0
    t0_check: AxiomCheck | None = None
    if want_t0:
        # An EXACT row with no zero off its diagonal holds no pair to test.
        bad = next(
            (
                (x, y)
                for i, x in enumerate(universe)
                if not space.exact or rows[i].count(0) > (rows[i][i] == 0)
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
    """d(x, A) = min over a in A of d(x, a).  A must be nonempty; a NaN
    distance makes the result NaN."""
    d = space.d
    return _min_keeping_nan([d(x, a) for a in _members(point_set)])


def dist_set_point(space: QSpace, point_set: Iterable[Point], x: Point) -> Value:
    """d(A, x) = min over a in A of d(a, x).  A must be nonempty; a NaN
    distance makes the result NaN."""
    d = space.d
    return _min_keeping_nan([d(a, x) for a in _members(point_set)])


def hausdorff(space: QSpace, a_set: Iterable[Point], b_set: Iterable[Point]) -> Value:
    """Asymmetric Hausdorff distance between two nonempty finite sets.

    H(A, B) = max{ max_{a in A} d(a, B),  max_{b in B} d(A, b) }.

    For singletons this collapses to the plain pointwise maxima:
    H({x}, B) = max_b d(x, b) and H(A, {x}) = max_a d(a, x), because the
    minimum term is dominated by the maximum term.  A NaN distance makes
    the result NaN, whatever the order of the sets.
    """
    A = _members(a_set)
    B = _members(b_set)
    d = space.d
    forward = [_min_keeping_nan([d(a, b) for b in B]) for a in A]
    backward = [_min_keeping_nan([d(a, b) for a in A]) for b in B]
    return _max_keeping_nan(forward + backward)


def ball_contains(space: QSpace, center: Point, radius: Value, y: Point) -> bool:
    """Membership in the open ball: d(center, y) < radius, strictly.  A
    radius that is not positive (NaN included) is a ValueError."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return space.d(center, y) < radius


def distance_matrix(space: QSpace) -> list[list[Value]]:
    """Row-major matrix of all pairwise distances (finite spaces only)."""
    pts = space.universe()
    return [[space.d(x, y) for y in pts] for x in pts]
