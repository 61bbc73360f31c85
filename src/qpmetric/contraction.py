"""Defect functionals and weak-contraction verification for set-valued maps.

A set-valued map F sends each point to a nonempty finite set of points in
the same space.  Three defect functionals measure how far a point is from
being distinguished for F:

* startpoint defect   H({x}, Fx) = max_{b in Fx} d(x, b),
* endpoint defect     H(Fx, {x}) = max_{a in Fx} d(a, x),
* fixed defect        max of the two (the symmetrized, H^s, defect).

A point is a startpoint / endpoint / fixed point exactly when the matching
defect is zero (within tolerance in FLOAT mode; the docs are explicit that
a FLOAT-mode "startpoint" means defect <= tolerance).  A defect is NaN
when any distance it reads is NaN, whatever the order of the image.

``verify_weak_contraction`` checks, over a whole finite universe, the
existential inequality that powers the iteration: every x must admit some
y in Fx whose own defect is bounded by d(x, y) - gamma(d(x, y)) (FORWARD
mode; DUAL and SYMMETRIC use the conjugate and symmetrized variants).  The
verifier is exhaustive and deterministic: candidates are scanned in
universe order by the same admissibility scan the solver runs, the stored
witness minimizes its own defect with ties broken by universe order (the
step greedy ``solve`` takes), and a violation reports the smallest-index x
with no admissible candidate.

One defect memo and one admissibility scan serve every space: stored rows
(see :mod:`qpmetric.space`) are read by index, other spaces through
``d``, and a defect stays in the rows' scale until it is handed out as
the value ``d`` would give.  The admissibility test in that scale is
:meth:`ComparisonFunction.bound_test`.  SYMMETRIC admits y when FORWARD
and DUAL both do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .comparison import ComparisonFunction
from .space import Point, QSpace, Value, _max_keeping_nan, _unique


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
        image = self._table.get(x)
        if image is None:
            if self._fn is None:
                raise KeyError(f"map is not defined at {x!r}")
            image = self._table[x] = self._normalize(x, self._fn(x))
        return image


def startpoint_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """H({x}, Fx): zero exactly when x is a startpoint of F; NaN when any
    d(x, b) is."""
    return _image_defect(space, x, F(x), ContractionMode.FORWARD)


def endpoint_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """H(Fx, {x}): the startpoint defect computed in the conjugate space;
    NaN when any d(a, x) is."""
    return _image_defect(space, x, F(x), ContractionMode.DUAL)


def fixed_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """The symmetrized defect max{H({x}, Fx), H(Fx, {x})}; NaN when any
    distance it reads is."""
    return _image_defect(space, x, F(x), ContractionMode.SYMMETRIC)


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


def _image_defect(
    space: QSpace, x: Point, image: tuple[Point, ...], mode: ContractionMode
) -> Value:
    """The mode's defect at x from its image, read through ``d``: every
    d(x, b), then every d(a, x), as the mode needs them."""
    d = space.d
    values = [] if mode is ContractionMode.DUAL else [d(x, b) for b in image]
    if mode is not ContractionMode.FORWARD:
        values += [d(a, x) for a in image]
    return _max_keeping_nan(values)


def mode_defect(
    space: QSpace, x: Point, F: SetValuedMap, mode: ContractionMode
) -> Value:
    """The defect functional matching a contraction mode."""
    return _image_defect(space, x, F(x), mode)


def admissibility_bound(
    space: QSpace,
    gamma: ComparisonFunction,
    mode: ContractionMode,
    x: Point,
    y: Point,
) -> Value:
    """Right-hand side of the mode's inequality at the pair (x, y); for
    SYMMETRIC the smaller side, or NaN (t - gamma(t) at t = inf) if either
    side is NaN."""
    if mode is ContractionMode.FORWARD:
        t = space.d(x, y)
        return t - gamma(t)
    if mode is ContractionMode.DUAL:
        s = space.d(y, x)
        return s - gamma(s)
    t = space.d(x, y)
    s = space.d(y, x)
    forward, dual = t - gamma(t), s - gamma(s)
    return dual if dual != dual else min(forward, dual)  # min() drops a NaN second


def _positions(
    F: SetValuedMap, x: Point, order: Mapping[Point, int]
) -> tuple[tuple[Point, ...], list[int | None]]:
    """F(x) and the universe position of each member, one lookup per
    member; an image point outside the universe is a ValueError naming it
    and x."""
    image = F(x)
    js = [order.get(y) for y in image]
    if None in js:
        stray = image[js.index(None)]
        raise ValueError(f"image of {x!r} contains {stray!r}, which is not in the universe")
    return image, js


_MISSING = object()


def _memo_defect(
    space: QSpace, F: SetValuedMap, mode: ContractionMode
) -> Callable[[Point], Value]:
    """``mode_defect`` memoized per point, in the scale of the space's
    stored rows, read by index (see :func:`_value`); a space without rows
    is read through ``d``.  On a finite space, an image point outside the
    universe is a ValueError, raised before any distance to it is read."""
    order, rows = space.order, space.rows
    forward = mode is not ContractionMode.DUAL
    backward = mode is not ContractionMode.FORWARD
    cache: dict[Point, Value] = {}

    def defect(x: Point) -> Value:
        v = cache.get(x, _MISSING)
        if v is _MISSING:
            if order is None:
                v = _image_defect(space, x, F(x), mode)
            elif rows is None:
                v = _image_defect(space, x, _positions(F, x, order)[0], mode)
            else:
                # Stored rows hold no NaN, so builtin max is exact here.
                js = _positions(F, x, order)[1]
                i = order[x]
                if forward:
                    v = max(map(rows[i].__getitem__, js))
                if backward:
                    back = max([rows[j][i] for j in js])
                    v = max(v, back) if forward else back
            cache[x] = v
        return v

    return defect


def _value(space: QSpace, v: Value) -> Value:
    """A value in the scale of the stored rows as the value ``d`` gives."""
    return v if space.den is None else Fraction(v, space.den)


def _scan(
    space: QSpace, F: SetValuedMap, gamma: ComparisonFunction, mode: ContractionMode
) -> tuple[
    Callable[[Point], Value], Callable[[Point], list[tuple[Point, Value, Value | None]]]
]:
    """One run's defect memo and admissibility scan.  ``admissible(x)``
    lists the (candidate, defect, d(x, candidate)) triples of F(x) that
    satisfy the mode's inequality, in universe order on a finite space and
    in image order otherwise, with defects and distances in the memo's
    scale; DUAL mode reads no d(x, candidate) on a space without rows and
    gives None there.  SYMMETRIC admits y when the FORWARD and DUAL tests
    both hold."""
    defect, within = _memo_defect(space, F, mode), gamma.bound_test(space.den, space.leq)
    order, rows, d = space.order, space.rows, space.d
    forward = mode is not ContractionMode.DUAL
    backward = mode is not ContractionMode.FORWARD

    def admissible(x: Point) -> list[tuple[Point, Value, Value | None]]:
        if order is None:
            candidates: Iterable[tuple[int | None, Point]] = ((None, y) for y in F(x))
        else:
            image, js = _positions(F, x, order)
            # Positions are distinct, so the points themselves are never compared.
            candidates = sorted(zip(js, image))
        if rows is not None:
            i = order[x]
            row = rows[i]
        out = []
        T = S = None
        for j, y in candidates:
            Y = defect(y)
            if rows is None:
                if forward:
                    T = d(x, y)
                if backward:
                    S = d(y, x)
            else:
                T, S = row[j], rows[j][i]
            if (not forward or within(Y, T)) and (not backward or within(Y, S)):
                out.append((y, Y, T))
        return out

    return defect, admissible


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
    admissible = _scan(space, F, gamma, mode)[1]
    witnesses: dict[Point, Point] = {}
    for x in universe:
        found = admissible(x)
        if not found:
            return Violation(mode=mode, point=x)
        # The first minimum-defect candidate: the step greedy solve takes.
        witnesses[x] = min(found, key=lambda pair: pair[1])[0]
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
