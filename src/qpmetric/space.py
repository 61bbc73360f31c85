"""Quasi-pseudometric spaces and their set-distance operations.

A quasi-pseudometric drops the symmetry requirement of a metric: d(x, y)
and d(y, x) may differ.  The axioms kept are

    (i)   d(x, x) = 0 for every point x,
    (ii)  d(x, z) <= d(x, y) + d(y, z) for all x, y, z,
    (iii) optionally, d(x, y) = 0 = d(y, x) implies x = y  (the T0 condition).

This module provides the space container (:class:`QSpace`), the two classic
transforms (conjugate and symmetrization), point-to-set and set-to-set
distances including the asymmetric Hausdorff distance, and membership in
open balls.  The exhaustive axiom checker and the min-plus closure that
enforces the triangle inequality on a matrix live in
:mod:`qpmetric.axioms`, with the n^3 kernels they run.  This module still
answers for ``check_axioms``, ``AxiomCheck``, ``AxiomReport`` and
``minplus_closure``: it imports :mod:`qpmetric.axioms` when one of them is
first read from it, so that importing it compiles no kernel.

Arithmetic modes
----------------
EXACT spaces carry :class:`fractions.Fraction` distances and every
comparison is exact.  FLOAT spaces use binary floats and apply a comparison
tolerance (default ``1e-9``) to every "equals zero" and "<=" test.
Zero-defect tests are the core contract of the downstream solvers, which is
why EXACT is the default everywhere.

Finite EXACT spaces built by :func:`from_matrix` keep their distances as
rows of Python ints over one common denominator D (``QSpace.rows`` and
``QSpace.den``); sums and comparisons of those ints agree exactly with
those of the rationals, and ``d`` still returns a ``Fraction``.  One
reader takes the matrix a row at a time and knows three kinds of row: a
row of "p" and "p/q" digit strings (a document's), checked as one string,
its denominators read through one table of tails for the whole matrix; a
row of nonnegative ints and ``Fraction``s, read by its numerators and
denominators (a row of exactly ``Fraction``s straight from their two
slots, with no Python-level call an entry); and any other row, read by
the value rule an entry at a time, which names the first bad entry.  One
scaler takes each row to D, the lcm of the denominators met so far,
straight into the tuple the space keeps.  When D would exceed a fixed
bound (``_MAX_DENOMINATOR_BITS``, 1,024 bits) the rows hold the
``Fraction`` values instead, read by the per-entry loop that FLOAT
matrices take.

All operations here are pure functions of immutable values and may be
called concurrently from any number of threads.  (A stored-rows space's
``resolved`` memo is filled as maps are scanned on it; a slot filled twice
by two threads gets the same value both times.)
"""

from __future__ import annotations

import math
import re
import sys
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from numbers import Real
from operator import attrgetter, floordiv, mul
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
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


@dataclass(frozen=True)
class QSpace:
    """A point universe together with an asymmetric distance oracle.

    ``points`` is the ordered finite universe, or ``None`` for an
    oracle-backed universe that cannot be enumerated.  The oracle ``d``
    must be pure: repeated calls with equal arguments return equal values.

    ``exact`` selects the arithmetic mode; ``tolerance`` (finite, >= 0) is
    only consulted in FLOAT mode.  ``t0`` records whether the space claims
    the T0 condition (it is checked by :func:`check_axioms`, never assumed).
    Only the constructor checks a finite universe: it stores any iterable
    of points as a tuple, which must be nonempty and hold each point once
    (either fault is a ValueError), and maps each point to its position in
    ``order``, one hash per point.  Every finite scan reads ``order``.

    A space built by :func:`from_matrix` also holds its distances as
    ``rows``, index-addressed by ``order``: ints over the common
    denominator ``den`` (d(x, y) = rows[i][j] / den), or, when ``den`` is
    None, the values ``d`` returns.  Such a space also keeps, in
    ``resolved``, each scanned map's image positions and one defect list
    per mode, keyed weakly by the map (see :mod:`qpmetric.contraction`).
    One function, :func:`_with_rows`, writes these three and the ``d`` that
    reads them.
    Other spaces, and any space rebuilt with :func:`dataclasses.replace`,
    have none of the three; they are read through :func:`_distances`,
    afresh per scan.  A point outside a finite universe is a ValueError
    naming it, given to a stored-rows ``d`` or to any function here or in
    :mod:`qpmetric.contraction` that takes points; an oracle space's ``d``
    is the user's, unchecked, as a check would hash two points per read.
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
        order = None
        if self.points is not None:
            points = tuple(self.points)
            if not points:
                raise ValueError("universe must be nonempty")
            order = {p: i for i, p in enumerate(points)}
            if len(order) != len(points):
                raise ValueError("universe contains duplicate points")
            object.__setattr__(self, "points", points)
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


def _check_point(order: Mapping[Point, int] | None, *points: Point) -> None:
    """Refuse (a ValueError naming it) the first of ``points`` outside the
    universe of ``order``; None, a space without one, holds every point."""
    for x in points:
        if order is not None and x not in order:
            raise ValueError(f"{x!r} is not in the universe")


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


def _rational(raw: str) -> Fraction:
    """The rational a string spells, refused (a ValueError) when it cannot
    be read, or when the value rule would read it without bound or a
    writer could not print it: a run of digits past the int-string limit,
    a decimal exponent beyond ``_MAX_EXPONENT``, or a value whose
    numerator or denominator has more digits than that limit.  The
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
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid number: {raw!r}") from exc
    # Only an int of more than 3 * limit bits can reach 10**limit.
    big = max(abs(value.numerator), value.denominator)
    if big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"more than {limit} digits")
    return value


def _coerce_value(raw: Value | str, exact: bool) -> Value:
    """The one value rule: EXACT gives a Fraction, FLOAT a finite float
    (see :func:`from_matrix`); anything else, and a string past the bounds
    of :func:`_rational`, is a ValueError."""
    if isinstance(raw, bool):
        raise ValueError(f"not a valid number: {raw!r}")
    value = _rational(raw) if isinstance(raw, str) else raw
    try:
        if exact:
            if isinstance(value, Fraction):
                return value
            # Read floats as their decimal literal, not their binary expansion.
            return Fraction(str(value)) if isinstance(value, float) else Fraction(value)
        v = float(value)
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
#: past ``axioms._MAX_LANE_BITS``, so such rows take the per-triple loops.)
_MAX_DENOMINATOR_BITS = 1024


#: The types whose entries are read in bulk: exact rationals.  A bool is
#: not an int here (its type is ``bool``).
_RATIONAL = frozenset({int, Fraction})
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")
#: The slots that ``Fraction``'s ``numerator`` and ``denominator``
#: properties return (CPython 3.10 to 3.13 declare both), read by C-level
#: getters.
_SLOT_NUMERATOR, _SLOT_DENOMINATOR = attrgetter("_numerator"), attrgetter("_denominator")


def _ratio_row(row: Sequence[Value], kinds: set[type]) -> tuple[Sequence[int], Sequence[int]]:
    """Numerators and denominators of a row of ints and Fractions, whose
    entry types are among ``kinds``: read from ``Fraction``'s slots, with
    no Python-level call per entry, when ``kinds`` holds only ``Fraction``
    (an exact type test, so a subclass reads its properties), and by two
    property reads per entry otherwise."""
    if kinds == {Fraction}:
        return tuple(map(_SLOT_NUMERATOR, row)), tuple(map(_SLOT_DENOMINATOR, row))
    return list(map(_NUMERATOR, row)), list(map(_DENOMINATOR, row))


def _scaled(
    parts: Iterable[tuple[Sequence[int], Sequence[str | int]]], tails: Mapping[str, int]
) -> tuple[list[tuple[int, ...]], int] | None:
    """Rows of rationals as tuples of ints over their least common
    denominator D, with D: sums and comparisons of the ints agree exactly
    with those of the rationals.  None when D has more than
    ``_MAX_DENOMINATOR_BITS`` bits.

    Each row comes as (numerators, keys), both sequences, as the numerators
    are read again after a key not met before.  A key is a written tail,
    whose q ``tails`` holds, or an int denominator, which stands for
    itself.  Each row is scaled by key -> D // q straight into its tuple, D
    being the lcm of the denominators met so far; a row scaled to an
    earlier D is brought up to the final one at the end, by one product per
    entry."""
    scale: dict[str | int, int] = {}  # Keys met since D last grew, and D // q.
    den = 1
    rows = []
    scaled_to = []  # The D each row was scaled to.
    for num, keys in parts:
        try:
            rows.append(tuple(map(mul, num, map(scale.__getitem__, keys))))
            scaled_to.append(den)
            continue
        except KeyError:
            dens = list(map(tails.get, keys, keys))
        met = den
        for q in set(dens):
            met = math.lcm(met, q)
            if met.bit_length() > _MAX_DENOMINATOR_BITS:
                return None
        if met != den:
            den, scale = met, {}
        factors = list(map(floordiv, repeat(den), dens))
        scale.update(zip(keys, factors))
        rows.append(tuple(map(mul, num, factors)))
        scaled_to.append(den)
    for i, d in enumerate(scaled_to):
        if d != den:
            rows[i] = tuple(map(mul, rows[i], repeat(den // d)))
    return rows, den


#: What ``str.translate`` deletes from a row of "p" and "p/q" strings
#: joined by commas: ASCII digits, the slash and the comma.
_DIGITS_SLASH_COMMA = dict.fromkeys(b"0123456789/,")


def _digit_row(
    row: Sequence[Value | str], tails: dict[str, int]
) -> tuple[list[int], tuple[str, ...]] | None:
    """Numerators and written tails of a row whose entries are all "p" or
    "p/q" strings of ASCII digits, or None for any other row; the tail of
    "p/q" is q and that of a plain "p" is "".  The row is checked as one
    string and its numerators are read with ``int``.  ``tails`` is the
    matrix's table of each tail met and its q: the row's new tails enter
    it only when all are good (q nonzero, one slash, within the int-string
    limit), so a row left to the per-entry loop adds none."""
    try:
        text = ",".join(row)
    except TypeError:
        return None
    # A comma inside an entry stays in its head or tail, which int() refuses.
    if not text.isascii() or text.translate(_DIGITS_SLASH_COMMA):
        return None
    if "/," in text or text.endswith("/"):
        return None  # "p/"
    heads, _, ends = zip(*map(str.partition, row, repeat("/")))
    try:
        num = list(map(int, heads))
        fresh = {t: int(t or 1) for t in set(ends).difference(tails)}
    except ValueError:
        return None  # "/q", a second slash, or past the int-string limit.
    if 0 in fresh.values():
        return None  # "p/0"
    tails.update(fresh)
    return num, ends


def _exact_parts(
    matrix: Sequence[Sequence[Value | str]], tails: dict[str, int]
) -> Iterator[tuple[Sequence[int], Sequence[str | int]]]:
    """The rows of an EXACT matrix as :func:`_scaled` reads them, one row
    at a time: a row of "p" and "p/q" digit strings (a document's) by its
    written tails (see :func:`_digit_row`), a row of nonnegative ints (not
    bools) and Fractions by its denominators, both read a whole row at a
    time, and any other row through the value rule an entry at a time, so
    that the first bad entry is named."""
    for i, row in enumerate(matrix):
        if type(row[0]) is str:
            parts = _digit_row(row, tails)
            if parts is not None:
                yield parts
                continue
        elif _RATIONAL.issuperset(kinds := set(map(type, row))):
            num, den = _ratio_row(row, kinds)
            if min(num) >= 0:
                yield num, den
                continue
        values = [_entry(raw, True, i, j) for j, raw in enumerate(row)]
        yield list(map(_NUMERATOR, values)), list(map(_DENOMINATOR, values))


def _with_rows(space: QSpace, rows: Iterable[Iterable[Value]], den: int | None) -> QSpace:
    """``space``, just built by its caller, made to hold ``rows`` over
    ``den`` (see :class:`QSpace`): its ``d`` reads them through its checked
    ``order``, and its ``resolved`` is a fresh, empty memo.  The one writer
    of those four fields."""
    table = tuple(map(tuple, rows))
    order = space.order

    def d(x: Point, y: Point) -> Value:
        try:
            v = table[order[x]][order[y]]
        except KeyError:
            _check_point(order, x, y)  # Not the space: d would hold it in a cycle.
            raise
        return v if den is None else Fraction(v, den)

    for name, value in (("d", d), ("rows", table), ("den", den), ("resolved", WeakKeyDictionary())):
        object.__setattr__(space, name, value)
    return space


def from_matrix(
    points: Iterable[Point],
    matrix: Sequence[Sequence[Value | str]],
    *,
    exact: bool = True,
    t0: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> QSpace:
    """Build a finite space from a row-major distance matrix.

    ``matrix[i][j]`` is d(points[i], points[j]).  :class:`QSpace` checks
    the universe first, so a bad universe is named before a bad matrix.
    One rule, shared with documents, reads every entry: EXACT mode takes
    ints, Fractions, "p/q" or decimal strings and decimal floats to
    Fractions; FLOAT mode takes numbers and such strings to finite floats.
    Booleans, NaN, infinities, values beyond the float range, negative
    entries and strings past the rule's size bounds (see
    :func:`_rational`) raise :class:`FieldError` naming the entry
    ``d[i][j]``.  The values are kept in index-addressed rows, in EXACT
    mode as ints over one common denominator (see :class:`QSpace`); the
    axioms are *not* enforced here (use :func:`check_axioms`).
    """
    # d reads the rows, which _with_rows attaches once they are read.
    space = QSpace(None, points, exact, t0, tolerance)
    n = len(space.points)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"distance matrix must be {n}x{n}")
    tails: dict[str, int] = {}
    scaled = _scaled(_exact_parts(matrix, tails), tails) if exact else None
    if scaled is not None:
        return _with_rows(space, *scaled)
    # FLOAT, or past the bound: the values, an entry at a time.
    rows = (
        [_entry(raw, exact, i, j) for j, raw in enumerate(row)] for i, row in enumerate(matrix)
    )
    return _with_rows(space, rows, None)


def from_oracle(
    d: Callable[[Point, Point], Value],
    *,
    points: Iterable[Point] | None = None,
    exact: bool = True,
    t0: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> QSpace:
    """Wrap a distance oracle, optionally with a finite universe, which
    :class:`QSpace` checks: nonempty, each point once."""
    return QSpace(d=d, points=points, exact=exact, t0=t0, tolerance=tolerance)


def _nonnegative(v: object) -> bool:
    """Whether ``v`` is a real number >= 0, not a bool (nor a ``Decimal``
    or a string, say)."""
    return isinstance(v, Real) and type(v) is not bool and v >= 0


def _distances(
    space: QSpace, x: Point, ys: Sequence[Point], xy: bool, yx: bool, kinds: set[type] | None = None
) -> list[Value]:
    """Every d(x, y), then every d(y, x), for y in ``ys`` as the flags ask:
    the one reader of ``d``, which adds their types to ``kinds`` if given.
    Off stored rows (checked when read), the first value that is not
    :func:`_nonnegative` (NaN, a negative, a bool, a ``Decimal``, a
    string) is a :class:`FieldError` naming its ``d(x, y)``; the rest pass
    as they are.
    Ints and Fractions are checked by two C-level passes: types, numerators."""
    d = space.d
    values = [d(x, y) for y in ys] if xy else []
    if yx:
        values += [d(y, x) for y in ys]
    read = set(map(type, values))
    if kinds is not None:
        kinds.update(read)
    if space.rows is not None:
        return values  # Checked when read.
    if read <= _RATIONAL:
        numerators = map(_SLOT_NUMERATOR if read == {Fraction} else _NUMERATOR, values)
        if min(numerators) >= 0:
            return values
    elif all(map(_nonnegative, values)):
        return values
    i = next(i for i, v in enumerate(values) if not _nonnegative(v))
    n = len(ys) if xy else 0
    a, b = (x, ys[i]) if i < n else (ys[i - n], x)
    raise FieldError(f"d({a!r}, {b!r})", f"must be a real number >= 0, got {values[i]!r}")


def conjugate(space: QSpace) -> QSpace:
    """The space with arguments swapped: d'(x, y) = d(y, x).

    An involution; applying it twice yields a space whose distances agree
    exactly with the original (only the argument order changes, so there is
    no rounding even in FLOAT mode).  The result is a copy of the space that
    keeps its checked universe and order: stored rows are transposed, and an
    oracle is read with its arguments swapped.
    """
    if space.rows is not None:
        return _with_rows(copy(space), zip(*space.rows), space.den)
    inner = space.d

    def d(x: Point, y: Point) -> Value:
        return inner(y, x)

    flipped = copy(space)
    object.__setattr__(flipped, "d", d)
    return flipped


def symmetrize(space: QSpace) -> QSpace:
    """Pointwise maximum of the space and its conjugate.

    When the input satisfies the T0 condition the result is a genuine
    metric (symmetric, with identity of indiscernibles).  Stored rows are
    combined with their transpose by max, as in :func:`conjugate`; an
    oracle's by max of two checked reads, as a max could hide a bad one.
    """
    if space.rows is not None:
        maxed = (map(max, r, c) for r, c in zip(space.rows, zip(*space.rows)))
        return _with_rows(copy(space), maxed, space.den)

    def d(x: Point, y: Point) -> Value:
        return max(_distances(space, x, (y,), True, True))

    maxed = copy(space)
    object.__setattr__(maxed, "d", d)
    return maxed


def _members(point_set: Iterable[Point]) -> tuple[Point, ...]:
    ms = _unique(tuple(point_set))
    if not ms:
        raise ValueError("point set must be nonempty")
    return ms


def dist_point_set(space: QSpace, x: Point, point_set: Iterable[Point]) -> Value:
    """d(x, A) = min over a in A of d(x, a).  A must be nonempty."""
    A = _members(point_set)
    _check_point(space.order, x, *A)
    return min(_distances(space, x, A, True, False))


def dist_set_point(space: QSpace, point_set: Iterable[Point], x: Point) -> Value:
    """d(A, x) = min over a in A of d(a, x).  A must be nonempty."""
    A = _members(point_set)
    _check_point(space.order, x, *A)
    return min(_distances(space, x, A, False, True))


def hausdorff(space: QSpace, a_set: Iterable[Point], b_set: Iterable[Point]) -> Value:
    """Asymmetric Hausdorff distance between two nonempty finite sets.

    H(A, B) = max{ max_{a in A} d(a, B),  max_{b in B} d(A, b) }.

    For singletons this collapses to the plain pointwise maxima:
    H({x}, B) = max_b d(x, b) and H(A, {x}) = max_a d(a, x), because the
    minimum term is dominated by the maximum term.
    """
    A, B = _members(a_set), _members(b_set)
    _check_point(space.order, *A, *B)
    forward = [min(_distances(space, a, B, True, False)) for a in A]
    backward = [min(_distances(space, b, A, False, True)) for b in B]
    return max(forward + backward)


def ball_contains(space: QSpace, center: Point, radius: Value, y: Point) -> bool:
    """Membership in the open ball: d(center, y) < radius, strictly.  A
    radius that is not positive (NaN included) is a ValueError."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    _check_point(space.order, center, y)
    return _distances(space, center, (y,), True, False)[0] < radius


def distance_matrix(space: QSpace) -> list[list[Value]]:
    """Row-major matrix of all pairwise distances (finite spaces only)."""
    pts = space.universe()
    return [_distances(space, x, pts, True, False) for x in pts]


#: The names read from :mod:`qpmetric.axioms` on first use.
_AXIOM_NAMES = frozenset({"AxiomCheck", "AxiomReport", "check_axioms", "minplus_closure"})


def __getattr__(name: str) -> object:
    """The names of ``_AXIOM_NAMES`` from :mod:`qpmetric.axioms`, imported
    on the first such read (PEP 562); any other name is an AttributeError."""
    if name in _AXIOM_NAMES:
        from . import axioms

        return getattr(axioms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
