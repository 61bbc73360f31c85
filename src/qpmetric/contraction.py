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
mode; DUAL and SYMMETRIC use the conjugate and symmetrized variants).
Which distances a mode reads, d(x, y), d(y, x) or both, and what its points
are called, is written once, in the table ``_MODES``, read through
``_meaning`` alone.  The verifier is exhaustive and deterministic: it runs
the same admissibility scan as the solver, the stored witness minimizes
its own defect with ties broken by universe order (the step greedy
``solve`` takes), and a violation reports the smallest-index x with no
admissible candidate.

One scan (:class:`_Scan`) serves the verifier, the enumerators and the
solver on every space, with one candidate loop.  It reads the defect of
every candidate in F(x) first, and then d(x, y) or d(y, x) only for the
candidate it tests, so a scan that stops at the first admissible candidate
reads no distance past it.  Its state, built whole by the first scan
that needs it, is one slot per image (resolved to sorted universe
positions when first read) and one defect list per mode, indexed by
position, or keyed by point on a space without a universe.  Stored rows (see
:mod:`qpmetric.space`) share it per (space, map) in ``QSpace.resolved``,
keyed weakly by the map, so an image is resolved and a defect computed
once however many calls ask; it is read a whole image at a time.  Other
spaces are read through ``d`` and resolved afresh by every call, so a
user oracle sees the same calls on every run.  Two threads may fill one
shared slot twice, always with the same value.  A SYMMETRIC defect is the
larger of the FORWARD and DUAL ones, and SYMMETRIC admits y when both
modes do.  A defect stays in the rows' scale until it is handed out as
the value ``d`` would give; the test is :meth:`ComparisonFunction.bound_test`.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .comparison import ComparisonFunction
from .space import Point, QSpace, Value, _max_keeping_nan, _min_keeping_nan, _unique


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


class ContractionMode(enum.Enum):
    """Which weak-contraction inequality to check, and which points to seek.

    FORWARD bounds the startpoint defect of the witness by
    d(x, y) - gamma(d(x, y)); DUAL bounds the endpoint defect by
    d(y, x) - gamma(d(y, x)); SYMMETRIC bounds the symmetrized defect by
    the minimum of both right-hand sides.  STARTPOINT, ENDPOINT and
    FIXEDPOINT are aliases of the three, named for the points they seek.
    What each mode reads, and what its points are called, is ``_MODES``.
    """

    FORWARD = "forward"
    DUAL = "dual"
    SYMMETRIC = "symmetric"
    STARTPOINT = "forward"
    ENDPOINT = "dual"
    FIXEDPOINT = "symmetric"


#: Per mode: whether it reads d(x, y), whether it reads d(y, x), and the
#: points it seeks, as the CLI and trace documents spell them.
_MODES = {
    ContractionMode.FORWARD: (True, False, "startpoint"),
    ContractionMode.DUAL: (False, True, "endpoint"),
    ContractionMode.SYMMETRIC: (True, True, "fixedpoint"),
}


def _meaning(mode: ContractionMode) -> tuple[bool, bool, str]:
    """The row of ``_MODES`` for ``mode``; anything else is a TypeError."""
    if not isinstance(mode, ContractionMode):
        raise TypeError(f"mode must be a ContractionMode, got {mode!r}")
    return _MODES[mode]


def _distances(space: QSpace, x: Point, ys: Sequence[Point], xy: bool, yx: bool) -> list[Value]:
    """Every d(x, y) and then every d(y, x) for y in ``ys``, as the flags ask."""
    d = space.d
    values = [d(x, y) for y in ys] if xy else []
    if yx:
        values += [d(y, x) for y in ys]
    return values


def mode_defect(space: QSpace, x: Point, F: SetValuedMap, mode: ContractionMode) -> Value:
    """The defect functional matching a contraction mode: the largest
    distance the mode reads between x and F(x), or NaN when any is."""
    xy, yx, _ = _meaning(mode)
    return _max_keeping_nan(_distances(space, x, F(x), xy, yx))


def startpoint_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """H({x}, Fx): zero exactly when x is a startpoint of F; NaN when any
    d(x, b) is."""
    return mode_defect(space, x, F, ContractionMode.FORWARD)


def endpoint_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """H(Fx, {x}): the startpoint defect computed in the conjugate space;
    NaN when any d(a, x) is."""
    return mode_defect(space, x, F, ContractionMode.DUAL)


def fixed_defect(space: QSpace, x: Point, F: SetValuedMap) -> Value:
    """The symmetrized defect max{H({x}, Fx), H(Fx, {x})}; NaN when any
    distance it reads is."""
    return mode_defect(space, x, F, ContractionMode.SYMMETRIC)


def admissibility_bound(
    space: QSpace,
    gamma: ComparisonFunction,
    mode: ContractionMode,
    x: Point,
    y: Point,
) -> Value:
    """Right-hand side of the mode's inequality at the pair (x, y): the
    smallest t - gamma(t) over the distances t it reads, or NaN
    (t - gamma(t) at t = inf) if any is."""
    xy, yx, _ = _meaning(mode)
    return _min_keeping_nan([t - gamma(t) for t in _distances(space, x, (y,), xy, yx)])


_MISSING = object()


def _value(space: QSpace, v: Value) -> Value:
    """A value in the scale of the stored rows as the value ``d`` gives."""
    return v if space.den is None else Fraction(v, space.den)


class _Scan:
    """One run's admissibility scan (see the module docstring), in the
    scale of the stored rows (see :func:`_value`); a slot not yet filled
    reads ``_MISSING``.  An image point outside the universe is a
    ValueError naming it, raised before any distance to it is read; its
    slot stays empty, so every later scan raises again."""

    def __init__(
        self,
        space: QSpace,
        F: SetValuedMap,
        mode: ContractionMode,
        gamma: ComparisonFunction | None = None,
    ) -> None:
        self.forward, backward, _ = _meaning(mode)
        self.both = self.forward and backward
        self.space, self.F = space, F
        self.within = None if gamma is None else gamma.bound_test(space.den, space.leq)
        memo = space.resolved
        state = None if memo is None else memo.get(F)
        if state is None:
            if space.points is None:
                state = None, {m: defaultdict(lambda: _MISSING) for m in _MODES}
            else:
                n = len(space.points)
                state = [None] * n, {m: [_MISSING] * n for m in _MODES}
            if memo is not None:
                state = memo.setdefault(F, state)
        self.images, slots = state
        self.defects = slots[mode]
        # The FORWARD and DUAL lists: ``side`` fills them, and a SYMMETRIC
        # defect is their max.
        self.sides = slots[ContractionMode.FORWARD], slots[ContractionMode.DUAL]

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

    def side(self, i: Point, forward: bool) -> Value:
        """The FORWARD defect, or unless ``forward`` the DUAL one, at slot i:
        read from the stored rows a whole image at a time, or through ``d``."""
        defects = self.sides[not forward]
        v = defects[i]
        if v is _MISSING:
            space, rows = self.space, self.space.rows
            if rows is None:
                x = i if space.points is None else space.points[i]
                image = self.F(x)
                if space.points is not None:
                    self.positions(i, image)
                v = _max_keeping_nan(_distances(space, x, image, forward, not forward))
            else:
                js = self.positions(i)
                # A tuple of the image's entries even for a one-point image.
                pick = itemgetter(js[0], *js)
                # Stored rows hold no NaN, so builtin max is exact here.
                v = max(pick(rows[i]) if forward else map(itemgetter(i), pick(rows)))
            defects[i] = v
        return v

    def at(self, i: Point) -> Value:
        """The defect at slot i: the i-th point of a finite universe, or
        the point i of a space without one."""
        v = self.defects[i]
        if v is _MISSING:
            if not self.both:
                return self.side(i, self.forward)
            # The larger side, or the first NaN.
            f, b = self.side(i, True), self.side(i, False)
            v = self.defects[i] = f if f != f else b if b != b else max(f, b)
        return v

    def defect(self, x: Point) -> Value:
        """The defect of the point x."""
        order = self.space.order
        return self.at(x if order is None else order[x])

    def vector(self) -> list[Value]:
        """The defect of every point of a finite universe, in its order."""
        return list(map(self.at, range(len(self.defects))))

    def admissible(self, x: Point, by_defect: bool = False) -> Iterator[tuple[Point, Value, Value]]:
        """The (candidate, defect, distance) triples of F(x) that satisfy
        the mode's inequality, in universe order on a finite space and in
        image order otherwise; with ``by_defect``, in (defect, that order)
        order, so the first is the one a ``min`` by defect picks.  The
        distance is d(y, x) in DUAL mode and d(x, y) otherwise.

        Every candidate's defect is read first, and a NaN one, which admits
        nothing, is dropped.  The rest are tested one per triple taken, each
        reading d(x, y) or d(y, x), from the rows or through ``d``, only as
        the mode tests it."""
        space, within, forward, both = self.space, self.within, self.forward, self.both
        rows, order, points, defects = space.rows, space.order, space.points, self.defects
        i = x if order is None else order[x]
        js = self.F(x) if order is None else self.positions(i)
        for j in js:
            self.at(j)
        if rows is None:
            # Only d gives a NaN; dropping it keeps the sort below total.
            js = [j for j in js if defects[j] == defects[j]]
        if by_defect:
            # A stable sort: equal defects stay in universe order.
            js = sorted(js, key=defects.__getitem__)
        row = None if rows is None else rows[i]
        for j in js:
            Y = defects[j]
            if rows is None:
                y, d = j if points is None else points[j], space.d
                T = d(x, y) if forward else d(y, x)
                if within(Y, T) and (not both or within(Y, d(y, x))):
                    yield y, Y, T
            else:
                T = row[j] if forward else rows[j][i]
                if within(Y, T) and (not both or within(Y, rows[j][i])):
                    yield points[j], Y, T


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
