"""Defect functionals and weak-contraction verification for set-valued maps.

A set-valued map F sends each point to a nonempty finite set of points in
the same space.  Three defect functionals measure how far a point is from
being distinguished for F:

* startpoint defect   H({x}, Fx) = max_{b in Fx} d(x, b),
* endpoint defect     H(Fx, {x}) = max_{a in Fx} d(a, x),
* fixed defect        max of the two (the symmetrized, H^s, defect).

A point is a startpoint / endpoint / fixed point exactly when the matching
defect is zero (within tolerance in FLOAT mode; the docs are explicit that
a FLOAT-mode "startpoint" means defect <= tolerance).

``verify_weak_contraction`` checks, over a whole finite universe, the
existential inequality that powers the iteration: every x must admit some
y in Fx whose own defect is bounded by d(x, y) - gamma(d(x, y)) (FORWARD
mode; DUAL and SYMMETRIC use the conjugate and symmetrized variants).  The
verifier is exhaustive and deterministic: candidates are scanned in
universe order by the same admissibility scan the solver runs, the stored
witness minimizes its own defect with ties broken by universe order (the
step greedy ``solve`` takes), and a violation reports the smallest-index x
with no admissible candidate.

On a finite EXACT space with int rows over a common denominator D (see
:mod:`qpmetric.space`), the defect memo and the admissibility scan read
the rows by index, and a certified gamma becomes an integer test: with
t = T/D and defect(y) = Y/D, ``linear(p/q)`` checks q*Y <= (q - p)*T and
``rational_shrink`` checks Y*(D + T) <= T^2 (SYMMETRIC checks both
directions).  User gammas are evaluated on ``Fraction(T, D)``.  Every
value handed out is still the exact ``Fraction``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .comparison import ComparisonFunction
from .space import Point, QSpace, Value, _unique


class SetValuedMap:
    """A pure map from points to nonempty finite point sets.

    Accepts either a mapping (point -> iterable of points) or a callable.
    Images are normalized to duplicate-free tuples preserving the order in
    which members were supplied (callers that care about determinism supply
    universe-ordered images; the generators in :mod:`qpmetric.corpus` do).
    Callable results are cached, so repeated queries at the same point
    always return the identical image.
    """

    def __init__(
        self,
        mapping: Mapping[Point, Iterable[Point]] | Callable[[Point], Iterable[Point]],
    ) -> None:
        if callable(mapping) and not isinstance(mapping, Mapping):
            self._fn: Callable[[Point], Iterable[Point]] | None = mapping
            self._table: dict[Point, tuple[Point, ...]] = {}
        else:
            self._fn = None
            self._table = {x: self._normalize(x, image) for x, image in mapping.items()}

    @staticmethod
    def _normalize(x: Point, image: Iterable[Point]) -> tuple[Point, ...]:
        members = _unique(tuple(image))
        if not members:
            raise ValueError(f"image of {x!r} must be nonempty")
        return members

    def __call__(self, x: Point) -> tuple[Point, ...]:
        if x not in self._table:
            if self._fn is None:
                raise KeyError(f"map is not defined at {x!r}")
            self._table[x] = self._normalize(x, self._fn(x))
        return self._table[x]


def startpoint_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """H({x}, Fx): zero exactly when x is a startpoint of F."""
    return max(space.d(x, b) for b in F(x))


def endpoint_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """H(Fx, {x}): the startpoint defect computed in the conjugate space."""
    return max(space.d(a, x) for a in F(x))


def fixed_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """The symmetrized defect max{H({x}, Fx), H(Fx, {x})}."""
    return max(startpoint_defect(space, x, F), endpoint_defect(space, x, F))


class ContractionMode(enum.Enum):
    """Which weak-contraction inequality to check.

    FORWARD bounds the startpoint defect of the witness by
    d(x, y) - gamma(d(x, y)); DUAL bounds the endpoint defect by
    d(y, x) - gamma(d(y, x)); SYMMETRIC bounds the symmetrized defect by
    the minimum of both right-hand sides.
    """

    FORWARD = "forward"
    DUAL = "dual"
    SYMMETRIC = "symmetric"


_DEFECTS = {
    ContractionMode.FORWARD: startpoint_defect,
    ContractionMode.DUAL: endpoint_defect,
    ContractionMode.SYMMETRIC: fixed_defect,
}


def mode_defect(
    space: QSpace, x: Point, F: SetValuedMap, mode: ContractionMode
) -> Value:
    """The defect functional matching a contraction mode."""
    return _DEFECTS[mode](space, x, F)


def admissibility_bound(
    space: QSpace,
    gamma: ComparisonFunction,
    mode: ContractionMode,
    x: Point,
    y: Point,
) -> Value:
    """Right-hand side of the mode's inequality at the pair (x, y)."""
    if mode is ContractionMode.FORWARD:
        t = space.d(x, y)
        return t - gamma(t)
    if mode is ContractionMode.DUAL:
        s = space.d(y, x)
        return s - gamma(s)
    t = space.d(x, y)
    s = space.d(y, x)
    return min(t - gamma(t), s - gamma(s))


def _image_in_universe(
    F: SetValuedMap, x: Point, order: Mapping[Point, int]
) -> tuple[Point, ...]:
    """F(x); an image point outside the universe is a ValueError naming
    it and x."""
    image = F(x)
    for y in image:
        if y not in order:
            raise ValueError(f"image of {x!r} contains {y!r}, which is not in the universe")
    return image


def _memo_defect(
    space: QSpace, F: SetValuedMap, mode: ContractionMode
) -> Callable[[Point], Value]:
    """``mode_defect`` memoized per point.  On a finite space, an image
    point outside the universe is a ValueError, raised before any distance
    to it is asked for.

    On a space with int rows (``space.den`` set) the memo holds the defect
    scaled by the common denominator, read from the rows by index;
    ``defect.scaled(x)`` returns it, and ``defect(x)`` its Fraction, built
    once per point.
    """
    order = space.order
    cache: dict[Point, Value] = {}
    if space.den is None:

        def defect(x: Point) -> Value:
            if x not in cache:
                if order is not None:
                    _image_in_universe(F, x, order)
                cache[x] = mode_defect(space, x, F, mode)
            return cache[x]

        return defect

    rows, den = space.rows, space.den
    forward = mode is not ContractionMode.DUAL
    backward = mode is not ContractionMode.FORWARD
    scaled_cache: dict[Point, int] = {}

    def scaled(x: Point) -> int:
        if x not in scaled_cache:
            image = [order[y] for y in _image_in_universe(F, x, order)]
            i = order[x]
            row = rows[i]
            # Distances are nonnegative, so 0 stands in for the unused half.
            scaled_cache[x] = max(
                max(row[j] for j in image) if forward else 0,
                max(rows[j][i] for j in image) if backward else 0,
            )
        return scaled_cache[x]

    def defect(x: Point) -> Value:
        if x not in cache:
            cache[x] = Fraction(scaled(x), den)
        return cache[x]

    defect.scaled = scaled  # type: ignore[attr-defined]
    return defect


def _scaled_test(gamma: ComparisonFunction, den: int) -> Callable[[int, int], bool] | None:
    """The inequality defect(y) <= t - gamma(t) for t = T/den and
    defect(y) = Y/den as an integer test on (Y, T), for the certified
    gammas; None for user gammas, which are evaluated on Fractions."""
    if gamma.kind == "linear" and isinstance(gamma.c, Fraction):
        # t - (p/q) t = (q - p) t / q.
        p, q = gamma.c.numerator, gamma.c.denominator
        r = q - p
        return lambda Y, T: q * Y <= r * T
    if gamma.kind == "rational_shrink":
        # t - t/(1 + t) = t^2/(1 + t) = T^2 / (den (den + T)).
        return lambda Y, T: Y * (den + T) <= T * T
    return None


def _admissible(
    space: QSpace,
    F: SetValuedMap,
    gamma: ComparisonFunction,
    x: Point,
    mode: ContractionMode,
    defect: Callable[[Point], Value],
) -> list[tuple[Point, Value]]:
    """The (candidate, defect) pairs of F(x) that satisfy the mode's
    inequality, in universe order on a finite space and in image order
    otherwise.  ``defect`` is the caller's memo from :func:`_memo_defect`;
    on a space with int rows a certified gamma is tested on the ints."""
    order = space.order
    if order is None:
        candidates = F(x)
    else:
        candidates = sorted(_image_in_universe(F, x, order), key=order.__getitem__)
    out = []
    test = None if space.den is None else _scaled_test(gamma, space.den)
    if test is not None:
        rows, scaled = space.rows, defect.scaled  # type: ignore[attr-defined]
        i = order[x]
        for y in candidates:
            j = order[y]
            Y = scaled(y)
            if mode is ContractionMode.FORWARD:
                ok = test(Y, rows[i][j])
            elif mode is ContractionMode.DUAL:
                ok = test(Y, rows[j][i])
            else:
                ok = test(Y, rows[i][j]) and test(Y, rows[j][i])
            if ok:
                out.append((y, defect(y)))
        return out
    for y in candidates:
        dy = defect(y)
        if space.leq(dy, admissibility_bound(space, gamma, mode, x, y)):
            out.append((y, dy))
    return out


@dataclass(frozen=True)
class ContractionCertificate:
    """A full witness map: for every checked x, a y in Fx satisfying the
    mode's inequality.  The witness minimizes its own defect among the
    admissible candidates, ties broken by universe order."""

    mode: ContractionMode
    witnesses: dict[Point, Point]
    checked_points: tuple[Point, ...]


@dataclass(frozen=True)
class Violation:
    """The smallest-index point with no admissible candidate in its image."""

    mode: ContractionMode
    point: Point


def verify_weak_contraction(
    space: QSpace,
    F: SetValuedMap,
    gamma: ComparisonFunction,
    mode: ContractionMode = ContractionMode.FORWARD,
) -> ContractionCertificate | Violation:
    """Exhaustively verify the weak-contraction condition on a finite space.

    Returns a :class:`ContractionCertificate` or a :class:`Violation`;
    a violation is a reported value, not an error.  Deterministic: the
    universe is scanned in order and within one x the candidates are
    scanned in universe order, so the result does not depend on set
    iteration order or scheduling.  An image point outside the universe
    raises ``ValueError``.
    """
    universe = space.universe()
    defect = _memo_defect(space, F, mode)
    witnesses: dict[Point, Point] = {}
    for x in universe:
        admissible = _admissible(space, F, gamma, x, mode, defect)
        if not admissible:
            return Violation(mode=mode, point=x)
        # The first minimum-defect candidate: the step greedy solve takes.
        witnesses[x] = min(admissible, key=lambda pair: pair[1])[0]
    return ContractionCertificate(mode=mode, witnesses=witnesses, checked_points=universe)


def _enumerate(space: QSpace, F: SetValuedMap, mode: ContractionMode) -> list[Point]:
    universe = space.universe()
    defect = _memo_defect(space, F, mode)
    return [x for x in universe if space.is_zero(defect(x))]


def enumerate_startpoints(space: QSpace, F: SetValuedMap) -> list[Point]:
    """All points with zero startpoint defect, in universe order.

    Brute force over the finite universe; this is the independent oracle
    the iterative solver is tested against.  May be empty.
    """
    return _enumerate(space, F, ContractionMode.FORWARD)


def enumerate_endpoints(space: QSpace, F: SetValuedMap) -> list[Point]:
    """All points with zero endpoint defect, in universe order.

    Always equals ``enumerate_startpoints(conjugate(space), F)``.
    """
    return _enumerate(space, F, ContractionMode.DUAL)


def enumerate_fixed_points(space: QSpace, F: SetValuedMap) -> list[Point]:
    """All points with zero symmetrized defect, in universe order."""
    return _enumerate(space, F, ContractionMode.SYMMETRIC)
