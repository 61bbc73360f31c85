"""The axiom checker and the min-plus closure: the n^3 kernels.

:func:`check_axioms` checks the quasi-pseudometric axioms of
:mod:`qpmetric.space` on every triple of a finite universe (or of a
sample), and :func:`minplus_closure` closes a weight matrix into one that
satisfies the triangle inequality.  Both read rows index-addressed by a
universe's order.

On int rows, when every entry is below 2^62, the triangle scan and the
min-plus closure pack each row into one Python int of fixed-width lanes
and compare a whole row per big-int operation (see "Packed rows" below);
the results are those of one exact comparison per triple.  Rows enter and
leave those lanes through byte-aligned ``struct`` items of 8, 16, 32 or 64
bits, in O(log n) big-int steps a row; the kernels still use lanes only as
wide as the entries need.  A value matrix (the closure's input, or the
distances the axiom checker reads through ``d``) reaches both kernels
through one entry, :func:`_kernel_rows`: from the entry types of one scan
it gives int rows over D, through the scaler of :mod:`qpmetric.space`,
with their lane width, or else the values themselves.  FLOAT rows,
``Fraction`` rows past the bound, negative entries, bools, NaN,
``INFINITY`` and larger ints take the per-triple loops.

:mod:`qpmetric.space` imports this module only when one of
``check_axioms``, ``AxiomCheck``, ``AxiomReport`` or ``minplus_closure`` is
first read from it, so a program that never checks axioms or closes a
matrix does not compile these kernels.  All functions here are pure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Real
from typing import Iterable, Sequence

from .space import (
    _RATIONAL,
    FieldError,
    Point,
    QSpace,
    Value,
    _check_point,
    _distances,
    _ratio_row,
    _scaled,
    _unique,
)


def _kinds(matrix: Sequence[Sequence[object]]) -> set[type]:
    """The value types of the entries of ``matrix``, in one C-level pass."""
    return set(map(type, chain.from_iterable(matrix)))


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
    rows[i][k] > rows[i][j] + rows[j][k] + tol, or None.

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
    an entry that is not a real number (a string or a ``Decimal``, say),
    is a ValueError; the latter is a :class:`FieldError` naming the first
    such ``d[i][j]``.
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
    if not all(issubclass(kind, Real) for kind in kinds):
        i, j, v = next(
            (i, j, v)
            for i, row in enumerate(matrix)
            for j, v in enumerate(row)
            if not isinstance(v, Real)
        )
        raise FieldError(f"d[{i}][{j}]", f"not a real number: {v!r}")
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
    SAMPLED-PASS, not PASS).  An empty sample, or a sample point outside
    a finite universe, is a ValueError.  The T0 check runs only if
    requested, either explicitly via ``check_t0`` or implicitly because
    the space carries the ``t0`` flag.
    """
    sampled = points is not None
    if points is None:
        universe: Sequence[Point] = space.universe()
    else:
        universe = _unique(points)
        if not universe:
            raise ValueError("point sample must be nonempty")
        _check_point(space.order, *universe)
    rows, w = space.rows, None
    if sampled or rows is None:
        kinds: set[type] = set()
        rows = [_distances(space, x, universe, True, False, kinds) for x in universe]
        # Scaling by a positive integer keeps "= 0" and "<=" exact; FLOAT
        # comparisons widen by the tolerance and so stay on the values.
        if space.exact:
            rows, _, w = _kernel_rows(rows, kinds)
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

