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
verifier is exhaustive and deterministic: it runs the same admissibility
scan as the solver, the stored witness minimizes its own defect with ties
broken by universe order (the step greedy ``solve`` takes), and a
violation reports the smallest-index x with no admissible candidate.

One scan (:class:`_Scan`) serves the verifier, the enumerators and the
solver on every space.  On a finite space it resolves each point's image
to sorted universe positions, lazily, and keeps defects in a list indexed
by position.  A space with stored rows (see :mod:`qpmetric.space`) shares
these per (space, map): every call on the same space and map reuses the
image positions and each mode's defect vector, so an image is resolved and
a defect computed once however many calls ask.  Stored rows are read a
whole image at a time, and a SYMMETRIC defect there is the larger of the
FORWARD and DUAL ones.  Other spaces are
read through ``d`` and resolved afresh by every call, so a user oracle sees
the same calls on every run.  Two threads may fill one shared slot twice,
always with the same value.  A defect stays in the rows' scale until it is
handed out as the value ``d`` would give.  The admissibility test in that
scale is :meth:`ComparisonFunction.bound_test`.  SYMMETRIC admits y when
FORWARD and DUAL both do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

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

    @classmethod
    def _of_images(cls, images: dict[Point, tuple[Point, ...]]) -> SetValuedMap:
        """The map with the table ``images`` as it stands: each image a
        nonempty tuple without repeats, as a document parser has checked."""
        smap = cls.__new__(cls)
        smap._fn, smap._table = None, images
        return smap

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


_MISSING = object()


def _value(space: QSpace, v: Value) -> Value:
    """A value in the scale of the stored rows as the value ``d`` gives."""
    return v if space.den is None else Fraction(v, space.den)


class _Resolution:
    """What scans learn of one map on one finite space, filled slot by slot
    as they need it: the sorted universe positions of each image
    (``images``) and each mode's defect vector (``defects``).  It holds
    neither the space nor the map, so a stored-rows space keeps it under
    the map's weak key (``QSpace.resolved``) without keeping either
    alive."""

    __slots__ = ("images", "defects")

    def __init__(self, n: int) -> None:
        self.images: list[list[int] | None] = [None] * n
        self.defects: dict[ContractionMode, list] = {}

    def defects_of(self, mode: ContractionMode) -> list:
        """The mode's defect vector; a slot not yet computed is ``_MISSING``."""
        v = self.defects.get(mode)
        if v is None:
            v = self.defects.setdefault(mode, [_MISSING] * len(self.images))
        return v


class _Scan:
    """One run's admissibility scan (see the module docstring), in the
    scale of the stored rows (see :func:`_value`).  On a stored-rows space
    it shares the space's :class:`_Resolution` of F; any other finite space
    gets a fresh one, and a space without a universe keeps its defects in a
    dict keyed by point.  An image point outside the universe is a
    ValueError naming it, raised when that image is first needed and before
    any distance to it is read; the failed slot stays empty, so every later
    scan that needs it raises again."""

    def __init__(
        self,
        space: QSpace,
        F: SetValuedMap,
        mode: ContractionMode,
        gamma: ComparisonFunction | None = None,
    ) -> None:
        self.space, self.F, self.mode = space, F, mode
        self.forward = mode is not ContractionMode.DUAL
        self.backward = mode is not ContractionMode.FORWARD
        self.within = None if gamma is None else gamma.bound_test(space.den, space.leq, space.exact)
        memo = space.resolved
        shared = None if memo is None else memo.get(F)
        if shared is None:
            shared = _Resolution(0 if space.points is None else len(space.points))
            if memo is not None:
                shared = memo.setdefault(F, shared)
        self.shared, self.images = shared, shared.images
        self.defects = shared.defects_of(mode)
        self.cache: dict[Point, Value] = {}

    def positions(self, i: int, image: tuple[Point, ...] | None = None) -> list[int]:
        """The universe positions of the image of the i-th point, sorted;
        ``image`` is that image when the caller has it already."""
        js = self.images[i]
        if js is None:
            x, order = self.space.points[i], self.space.order
            if image is None:
                image = self.F(x)
            js = sorted(map(order.get, image, repeat(-1)))
            if js[0] < 0:
                stray = next(y for y in image if y not in order)
                raise ValueError(f"image of {x!r} contains {stray!r}, which is not in the universe")
            self.images[i] = js
        return js

    def side(self, i: int, mode: ContractionMode) -> Value:
        """The FORWARD or DUAL defect of the i-th point, read from the
        stored rows a whole image at a time."""
        defects = self.shared.defects_of(mode)
        v = defects[i]
        if v is _MISSING:
            js = self.positions(i)
            # A tuple of the image's entries even for a one-point image.
            pick = itemgetter(js[0], *js)
            rows = self.space.rows
            # Stored rows hold no NaN, so builtin max is exact here.
            if mode is ContractionMode.FORWARD:
                v = max(pick(rows[i]))
            else:
                v = max(map(itemgetter(i), pick(rows)))
            defects[i] = v
        return v

    def at(self, i: int) -> Value:
        """The defect of the i-th point of the universe."""
        v = self.defects[i]
        if v is _MISSING:
            if self.space.rows is None:
                x = self.space.points[i]
                image = self.F(x)
                self.positions(i, image)
                v = _image_defect(self.space, x, image, self.mode)
            elif self.mode is ContractionMode.SYMMETRIC:
                # The entrywise max of the FORWARD and DUAL vectors, which
                # the scans of those modes share; builtin max is exact here.
                v = max(self.side(i, ContractionMode.FORWARD), self.side(i, ContractionMode.DUAL))
            else:
                v = self.side(i, self.mode)
            self.defects[i] = v
        return v

    def defect(self, x: Point) -> Value:
        """The defect of the point x."""
        order = self.space.order
        if order is not None:
            return self.at(order[x])
        v = self.cache.get(x, _MISSING)
        if v is _MISSING:
            v = self.cache[x] = _image_defect(self.space, x, self.F(x), self.mode)
        return v

    def vector(self) -> list[Value]:
        """The defect of every point of a finite universe, in its order."""
        return list(map(self.at, range(len(self.defects))))

    def admissible(
        self, x: Point, by_defect: bool = False
    ) -> Iterator[tuple[Point, Value, Value]]:
        """The (candidate, defect, distance) triples of F(x) that satisfy
        the mode's inequality, in universe order on a finite space and in
        image order otherwise; with ``by_defect``, in (defect, that order)
        order, so the first is the one a ``min`` by defect picks.  The
        distance is d(y, x) in DUAL mode and d(x, y) otherwise.

        Every candidate's defect is read before the first triple comes.
        Stored rows are then tested lazily, one candidate per triple taken,
        reading an entry only when the mode tests it; a space without rows
        reads d(x, y), and d(y, x) as the mode needs, for every y first."""
        space, within = self.space, self.within
        forward, backward = self.forward, self.backward
        rows, order, points = space.rows, space.order, space.points
        if rows is not None:
            i = order[x]
            js, defects = self.positions(i), self.defects
            for j in js:
                if defects[j] is _MISSING:
                    self.at(j)
            if by_defect:
                # A stable sort: equal defects stay in universe order.
                js = sorted(js, key=defects.__getitem__)
            row, both = rows[i], forward and backward
            for j in js:
                Y = defects[j]
                T = row[j] if forward else rows[j][i]
                if within(Y, T) and (not both or within(Y, rows[j][i])):
                    yield points[j], Y, T
            return
        d = space.d
        if order is None:
            keyed: list[tuple[Point, Point]] = [(y, y) for y in self.F(x)]
            defect = self.defect
        else:
            keyed = [(j, points[j]) for j in self.positions(order[x])]
            defect = self.at
        found = []
        T = S = None
        for key, y in keyed:
            Y = defect(key)
            if forward:
                T = d(x, y)
            if backward:
                S = d(y, x)
            if (not forward or within(Y, T)) and (not backward or within(Y, S)):
                found.append((y, Y, T if forward else S))
        if by_defect:
            # NaN defects are never admissible, so the sort is total.
            found.sort(key=itemgetter(1))
        yield from found


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
    tested in (defect, universe) order, so the result does not depend on
    set iteration order or scheduling.  An image point outside the universe
    raises ``ValueError``.
    """
    universe = space.universe()
    admissible = _Scan(space, F, mode, gamma).admissible
    witnesses: dict[Point, Point] = {}
    for x in universe:
        # The first minimum-defect candidate: the step greedy solve takes.
        found = next(admissible(x, True), None)
        if found is None:
            return Violation(mode=mode, point=x)
        witnesses[x] = found[0]
    return ContractionCertificate(mode=mode, witnesses=witnesses, checked_points=universe)


def _enumerate(space: QSpace, F: SetValuedMap, mode: ContractionMode) -> list[Point]:
    universe = space.universe()
    is_zero = space.is_zero
    return [x for x, v in zip(universe, _Scan(space, F, mode).vector()) if is_zero(v)]


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
