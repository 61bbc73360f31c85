"""Reference systems and seeded random generators for tests and demos.

Two kinds of fixtures live here:

* the dyadic halving system, a hand-picked countable T0-quasi-metric space
  with a set-valued map whose unique startpoint is 0, plus its finite
  truncations, which exhaustive oracles can sweep;
* seeded random generators for T0-quasi-metric spaces and for set-valued
  systems that satisfy the forward weak-contraction condition by
  construction (every image contains a common sink with a self-loop).

Generation is deterministic: one :class:`GeneratorSeed` pins the system
bit for bit, including after serialization.  All draws come from a single
``random.Random(seed)`` stream consumed in a fixed order; nothing depends
on hash ordering.

Random spaces are T0 by construction, in one draw at every size: zero
weights, and so zero distances, run only from p_i to p_j with i < j.
One-sided zeros, d(x, y) = 0 < d(y, x), still occur.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .axioms import (
    _closure,
    minplus_closure,  # re-exported: callers import it from here too
)
from .comparison import ComparisonFunction, linear, verify_gamma1
from .contraction import SetValuedMap
from .space import _RATIONAL, FieldError, Point, QSpace, _nonnegative, _with_rows, from_oracle

ZERO = Fraction(0)


def halving_point(n: int) -> Fraction:
    """The point 1/2**n of the dyadic halving universe."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return Fraction(1, 2**n)


def _dyadic_gap(x: Fraction, y: Fraction) -> Fraction:
    # Moving up costs the gap, moving down costs twice the gap.
    return y - x if y >= x else 2 * (x - y)


def _halve_or_stop(x: Fraction) -> tuple[Fraction, ...]:
    return (ZERO,) if x == ZERO else (x / 2, ZERO)


def dyadic_halving_system() -> tuple[QSpace, SetValuedMap, ComparisonFunction]:
    """The countable halving system on {1/2**n : n >= 0} united with {0}.

    The distance charges y - x for moving up and 2(x - y) for moving down,
    a left-K-complete T0-quasi-metric.  The map sends 1/2**n to
    {1/2**(n+1), 0} and fixes 0; gamma is t/2.  The one startpoint (and
    endpoint, and fixed point) is 0.

    The universe is oracle-backed (not enumerable); use
    :func:`dyadic_halving_truncated` when an exhaustive check is needed.
    """
    space = from_oracle(_dyadic_gap, exact=True, t0=True)
    return space, SetValuedMap(_halve_or_stop), linear(Fraction(1, 2))


def dyadic_halving_truncated(
    depth: int,
) -> tuple[QSpace, SetValuedMap, ComparisonFunction]:
    """Finite closure of the halving system: {1, 1/2, ..., 1/2**depth, 0}.

    Identical to :func:`dyadic_halving_system` on shared points, except the
    deepest dyadic maps to {0} alone so that every image stays inside the
    universe (0 already belongs to every image, so the weak-contraction
    certificate survives the truncation).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    points = tuple(halving_point(k) for k in range(depth + 1)) + (ZERO,)
    images: dict[Point, tuple[Fraction, ...]] = {
        halving_point(k): (halving_point(k + 1), ZERO) for k in range(depth)
    }
    images[halving_point(depth)] = (ZERO,)
    images[ZERO] = (ZERO,)
    space = from_oracle(_dyadic_gap, points=points, exact=True, t0=True)
    return space, SetValuedMap(images), linear(Fraction(1, 2))


@dataclass(frozen=True)
class GeneratorSeed:
    """Deterministic generator input: identical seeds, identical systems.
    A bad field (a ``seed`` or ``size`` that is no int) is a FieldError."""

    seed: int
    size: int
    weight_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(8))

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("size", self.size)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise FieldError(name, f"must be an int, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise FieldError("seed", "must fit in 64 unsigned bits")
        if self.size < 2:
            raise FieldError("size", "must be at least 2")
        lo, hi = self.weight_range
        if type(lo) not in _RATIONAL or type(hi) not in _RATIONAL:
            raise FieldError("weight_range", f"must be ints or Fractions, got {(lo, hi)!r}")
        # hi = 0 makes every weight 0, and no such space is T0.
        if not _nonnegative(lo) or hi < lo or hi == 0:
            raise FieldError("weight_range", "must satisfy 0 <= lo <= hi and 0 < hi")


#: Rational weights are drawn on a grid of this many steps across the range.
_WEIGHT_STEPS = 64


def _random_t0_from_rng(rng: random.Random, g: GeneratorSeed) -> QSpace:
    lo, hi = g.weight_range
    n, step = g.size, Fraction(hi - lo, _WEIGHT_STEPS)
    # Weight lo + step k is (base + unit k) / den over the grid's denominator.
    den = math.lcm(lo.denominator, step.denominator)
    base, unit = int(lo * den), int(step * den)
    # Grid step 0 (weight lo, maybe 0) only when i < j: zero paths then only
    # climb in index, so no two points are at zero distance both ways.
    matrix = [
        [0 if i == j else base + unit * rng.randint(int(i > j), _WEIGHT_STEPS) for j in range(n)]
        for i in range(n)
    ]
    # den over the weights' common factor is their least common
    # denominator; over it the closure's ints are the space's rows, and no
    # Fraction is built per weight.
    common = math.gcd(den, *chain.from_iterable(matrix))
    rows, _ = _closure([[v // common for v in row] for row in matrix])
    names = tuple(f"p{i}" for i in range(n))
    return _with_rows(QSpace(None, names, t0=True), rows, den // common)


def random_t0_qspace(g: GeneratorSeed) -> QSpace:
    """A random finite T0-quasi-metric space, exact arithmetic.

    Draws nonnegative rational weights for every ordered pair, zeroes the
    diagonal, and takes the min-plus closure to enforce the triangle
    inequality.  A weight from p_i to p_j with i > j is drawn positive, so
    the closure is T0 by construction in one draw at every size, and every
    zero distance runs from a lower index to a higher one.
    """
    return _random_t0_from_rng(random.Random(g.seed), g)


def random_weakly_contractive_system(
    g: GeneratorSeed,
    gamma: ComparisonFunction | None = None,
) -> tuple[QSpace, SetValuedMap]:
    """A random system satisfying the forward weak-contraction condition.

    A sink point z is fixed (F(z) = {z}) and joined into every other
    image, so the witness y = z makes the inequality hold at every x:
    its defect is 0 and the right side d(x, z) - gamma(d(x, z)) is
    nonnegative for any function with (g1).  When ``gamma`` is supplied it
    is spot-checked on a grid spanning the weight range, guarding the
    precondition.
    """
    if gamma is not None:
        hi = g.weight_range[1]
        grid = [hi * Fraction(k, 8) for k in range(1, 9)]
        report = verify_gamma1(gamma, grid)
        if not report.passed:
            raise ValueError(
                f"gamma fails (g1) on the weight range: "
                f"bound witness {report.bound_witness}, "
                f"monotonicity witness {report.monotonicity_witness}"
            )
    rng = random.Random(g.seed)
    space = _random_t0_from_rng(rng, g)
    points = space.universe()
    sink = points[rng.randrange(len(points))]
    images: dict[Point, tuple[Point, ...]] = {}
    for x in points:
        if x == sink:
            images[x] = (sink,)
            continue
        # Universe-ordered image always containing the sink.
        keep = [p == sink or rng.getrandbits(1) == 1 for p in points]
        images[x] = tuple(p for p, k in zip(points, keep) if k)
    return space, SetValuedMap(images)
