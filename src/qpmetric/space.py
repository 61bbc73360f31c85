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
``QSpace.den``); sums and comparisons of those ints agree exactly with
those of the rationals, and ``d`` still returns a ``Fraction``.  One
reader takes the matrix a row at a time and knows three kinds of row: a
row of "p" and "p/q" digit strings (a document's), checked as one string,
its denominators read through one table of tails for the whole matrix; a
row of nonnegative ints and ``Fraction``s, read by its numerators and
denominators (a row of ``Fraction``s alone by one ``as_integer_ratio``
call an entry); and any other row, read by the value rule an entry at a
time, which names the first bad entry.  One scaler takes each row to D,
the lcm of the denominators met so far, straight into the tuple the space
keeps.  When D would exceed a fixed bound (``_MAX_DENOMINATOR_BITS``,
1,024 bits) the rows hold the ``Fraction`` values instead, read by the
per-entry loop that FLOAT matrices take.

On such int rows, when every entry is below 2^62, the triangle scan and
the min-plus closure pack each row into one Python int of fixed-width
lanes and compare a whole row per big-int operation (see "Packed rows"
below); the results are those of one exact comparison per triple.  Rows
enter and leave those lanes through byte-aligned ``struct`` items of 8,
16, 32 or 64 bits, in O(log n) big-int steps a row; the kernels still use
lanes only as wide as the entries need.  A value matrix (the closure's
input, or the distances the axiom checker reads through ``d``) reaches
both kernels through one entry, :func:`_kernel_rows`: from the entry
types of one scan it gives int rows over D, through the same scaler,
with their lane width, or else the values themselves.  FLOAT rows,
``Fraction`` rows past the bound, negative entries, bools, NaN,
``INFINITY`` and larger ints take the per-triple loops.

All operations here are pure functions of immutable values and may be
called concurrently from any number of threads.  (A stored-rows space's
``resolved`` memo is filled as maps are scanned on it; a slot filled twice
by two threads gets the same value both times.)
"""

from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, repeat
from numbers import Number
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
    ``resolved``, each scanned map's image positions and one defect list
    per mode, keyed weakly by the map (see :mod:`qpmetric.contraction`).
    Other spaces, and any space rebuilt with :func:`dataclasses.replace`,
    have none of the three; they are read through ``d``, afresh per scan.
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
#: past ``_MAX_LANE_BITS``, so such rows take the per-triple loops.)
_MAX_DENOMINATOR_BITS = 1024


#: The types whose entries are read in bulk: exact rationals.  A bool is
#: not an int here (its type is ``bool``).
_RATIONAL = frozenset({int, Fraction})
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


def _ratio_row(row: Sequence[Value], kinds: set[type]) -> tuple[Sequence[int], Sequence[int]]:
    """Numerators and denominators of a row of ints and Fractions, whose
    entry types are among ``kinds``: one ``as_integer_ratio`` call per
    entry when ``kinds`` holds only ``Fraction``, two property reads per
    entry otherwise."""
    if kinds == {Fraction}:
        return tuple(zip(*map(Fraction.as_integer_ratio, row)))
    return list(map(_NUMERATOR, row)), list(map(_DENOMINATOR, row))


def _kinds(matrix: Sequence[Sequence[object]]) -> set[type]:
    """The value types of the entries of ``matrix``, in one C-level pass."""
    return set(map(type, chain.from_iterable(matrix)))


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
    rule's size bounds (see :func:`_rational`) raise :class:`FieldError`
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
    tails: dict[str, int] = {}
    scaled = _scaled(_exact_parts(matrix, tails), tails) if exact else None
    if scaled is not None:
        return _matrix_space(pts, *scaled, exact, t0, tolerance)
    # FLOAT, or past the bound: the values, an entry at a time.
    rows = (
        [_entry(raw, exact, i, j) for j, raw in enumerate(row)] for i, row in enumerate(matrix)
    )
    return _matrix_space(pts, rows, None, exact, t0, tolerance)


def from_oracle(
    d: Callable[[Point, Point], Value],
    *,
    points: Sequence[Point] | None = None,
    exact: bool = True,
    t0: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> QSpace:
    """Wrap a distance oracle, optionally with a nonempty finite universe."""
    pts = _unique(points) if points is not None else None
    if pts == ():
        raise ValueError("universe must be nonempty")
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


def _floyd_warshall(d: Sequence[Sequence[Value]]) -> list[list[Value]]:
    """Floyd-Warshall on the values, one comparison per triple, on a copy
    of the rows: the fallback of :func:`_packed_floyd_warshall`."""
    d = [list(row) for row in d]
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
#
# Rows enter and leave the lanes through byte-aligned items: a row is read
# by ``struct`` as one int of L-bit lanes, L the narrowest of 8, 16, 32 and
# 64 bits that holds w, then compressed to w-bit lanes in ceil(log2 n)
# rounds.  Round r moves each odd group of 2^r lanes down next to the even
# group before it, one mask and one shift for the whole row; unpacking runs
# the rounds backwards.  The kernels work on the w-bit lanes only.

#: Widest lane the packed kernels take, in bits: every entry below 2^62.
#: Spreading d over the lanes, d*ONES, costs the product of the lane width
#: and the row width, so wide lanes lose to one comparison per triple.
#: Measured on Python 3.11 at n = 40 and 120, the packed triangle scan took
#: about a fifth of the loop's time with 65-bit lanes and two fifths with
#: 129-bit lanes, the closure about half and all of it; with a 1,043-bit D
#: (1,045-bit lanes) the scan took 144 ms against the loop's 20 ms.  The
#: byte-aligned items that rows pass through on the way in and out hold
#: up to 64 bits too.  The kernels keep w-bit lanes rather than whole
#: bytes: at n = 120 and w = 9 (2 vCPUs, Python 3.11), 16-bit lanes made
#: the packed closure about 20% slower and the triangle scan up to 25%.
_MAX_LANE_BITS = 64

#: Unsigned little-endian ``struct`` codes by item size in bytes.
_UNSIGNED = {struct.calcsize("<" + code): code for code in "BHIQ"}


def _kernel_rows(
    matrix: Sequence[Sequence[Value]], kinds: set[type]
) -> tuple[Sequence[Sequence[Value]], int | None, int | None]:
    """What the n^3 kernels read of ``matrix``, whose entry types are
    ``kinds``, as (rows, den, w).  Nonnegative ints and Fractions, at least
    one a Fraction, give int rows over their least common denominator den
    (see :func:`_scaled`); nonnegative ints alone give the rows themselves
    with den None.  Either way w is their lane width, None when the lanes
    would be wider than ``_MAX_LANE_BITS``.  Any other matrix gives the
    values with den and w None, for the per-triple loops: one holding a
    float, ``INFINITY``, NaN, a bool or a negative entry, one whose
    denominator would pass ``_MAX_DENOMINATOR_BITS``, or no entry at all."""
    if not kinds or not kinds <= _RATIONAL:
        return matrix, None, None
    rows, den = matrix, None
    if kinds != {int}:
        scaled = _scaled((_ratio_row(row, kinds) for row in matrix), {})
        if scaled is None:
            return matrix, None, None
        rows, den = scaled
    if min(map(min, rows)) < 0:
        return matrix, None, None
    return rows, den, _lane_bits(max(map(max, rows)))


def _lane_bits(top: int) -> int | None:
    """The lane width for nonnegative ints up to ``top``, or None when it
    is wider than ``_MAX_LANE_BITS``."""
    w = (2 * top).bit_length() + 1
    return w if w <= _MAX_LANE_BITS else None


def _lanes(n: int, w: int) -> tuple[int, int]:
    """(ONES, G) for n lanes of w bits."""
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)
    return ones, ones << (w - 1)


def _lane_rounds(n: int, w: int) -> tuple[struct.Struct, list[tuple[int, int]]]:
    """How rows of n entries below 2^w move between byte-aligned lanes and
    w-bit lanes: the little-endian ``struct`` of n of the narrowest
    unsigned items that hold w bits, and one (mask, shift) per compress
    round.  Round r takes groups of 2^r lanes, each ``wide`` bits wide with
    ``narrow`` packed bits at its bottom; the mask selects those bits of
    every odd group, and the shift, wide - narrow, moves them next to the
    even group below."""
    size = min(s for s in _UNSIGNED if 8 * s >= w)
    rounds = []
    group, wide, narrow = 1, 8 * size, w
    while group < n and narrow < wide:
        pairs = -(-n // (2 * group))
        mask = _lanes(pairs, 2 * wide)[0] * ((1 << narrow) - 1) << wide
        rounds.append((mask, wide - narrow))
        group, wide, narrow = 2 * group, 2 * wide, 2 * narrow
    return struct.Struct(f"<{n}{_UNSIGNED[size]}"), rounds


def _pack(rows: Sequence[Sequence[int]], n: int, w: int) -> list[int]:
    """Rows of n ints below 2^w, each packed into one int of w-bit lanes."""
    lanes, rounds = _lane_rounds(n, w)
    packed = []
    for row in rows:
        p = int.from_bytes(lanes.pack(*row), "little")
        for mask, shift in rounds:
            odd = p & mask
            p = p ^ odd | odd >> shift
        packed.append(p)
    return packed


def _unpack(packed: Iterable[int], n: int, w: int) -> list[list[int]]:
    """The rows of n entries that :func:`_pack` packed into ``packed``."""
    lanes, rounds = _lane_rounds(n, w)
    # Each round's odd groups, as the round leaves them: shifted down.
    expand = [(mask >> shift, shift) for mask, shift in reversed(rounds)]
    rows = []
    for p in packed:
        for mask, shift in expand:
            odd = p & mask
            p = p ^ odd | odd << shift
        rows.append(list(lanes.unpack(p.to_bytes(lanes.size, "little"))))
    return rows


def _first_packed_violation(rows: Sequence[Sequence[int]], w: int) -> tuple[int, int, int] | None:
    """:func:`_first_triangle_violation` with tolerance 0 on rows of lane
    width ``w``: one guard-bit test per pair (i, j) checks
    rows[i] <= rows[i][j] + rows[j] in every lane, and a scan of the first
    failing pair finds k."""
    ones, guard = _lanes(len(rows), w)
    packed = _pack(rows, len(rows), w)
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
    packed = _pack(d, n, w)
    for k in range(n):
        p_k, s = packed[k], k * w
        for i, a in enumerate(packed):
            b = (a >> s & lane) * ones + p_k
            # Guard bits of the lanes where b < a, spread to lane masks.
            less = ((b | guard) - a) & guard ^ guard
            if less:
                packed[i] = a ^ ((a ^ b) & (less - (less >> top)))
    return _unpack(packed, n, w)


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
    exact = {v: Fraction(v, den) for v in set().union(*d)}
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
    d, den, w = _kernel_rows(matrix, kinds)
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
    rows, w = space.rows, None
    if sampled or rows is None:
        d = space.d
        rows = [[d(x, y) for y in universe] for x in universe]
        # Scaling by a positive integer keeps "= 0" and "<=" exact; FLOAT
        # comparisons widen by the tolerance and so stay on the values.
        if space.exact:
            rows, _, w = _kernel_rows(rows, _kinds(rows))
    elif space.den is not None:
        # Stored int rows are nonnegative ints by construction.
        w = _lane_bits(max(map(max, rows)))
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
