"""Constructive startpoint/endpoint/fixed-point iteration with trace replay.

The solver iterates x_{n+1} in F(x_n), restricting the choice at every step
to *admissible* candidates y, those satisfying the weak-contraction
inequality

    defect(y) <= d(x_n, y) - gamma(d(x_n, y))

(the DUAL and SYMMETRIC variants for ENDPOINT and FIXEDPOINT modes, see
below).  Admissible steps force the chain

    d(x_{n+1}, x_{n+2}) <= defect(x_{n+1}) <= d(x_n, x_{n+1})
                                              - gamma(d(x_n, x_{n+1})),

so step distances and defects are nonincreasing and the gamma values
telescope into a partial-sum bound.  ``validate_trace`` replays exactly
those inequalities on a recorded trace, plus a prefix left-K-Cauchy
certificate built in one backward pass over the orbit, which tests each
row of distances only against the epsilons no later row has reached.

Termination is by defect: the run converges as soon as the mode defect at
the current point drops to the configured tolerance (exactly zero in EXACT
mode with tolerance 0), which is the conclusion the iteration is after.
Limit detection over infinite orbits is out of scope.

A run's mode is a :class:`ContractionMode` (``SolveMode`` names it too), so
ENDPOINT, an alias of DUAL, runs defect(y) <= d(y, x_n) - gamma(d(y, x_n))
with the defect H(Fx, {x}) on the input space.  That is FORWARD on the
conjugate space with ties broken by the same universe positions, so its
traces coincide step for step, and its oracle calls call for call, with
STARTPOINT traces there.

Choice of candidate is configurable but always restricted to admissible
ones; the existential form of the contraction condition guarantees nothing
about arbitrary members of F(x_n).  Experimenters who want to try other
selection rules can build on :func:`admissible_candidates`.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import ge, le, mul
from typing import Callable, Sequence

from .comparison import ComparisonFunction, SampledComparisonWarning
from .contraction import ContractionMode, SetValuedMap, _meaning, _Scan, _value
from .space import _RATIONAL, Point, QSpace, Value, _check_point, _distances, _ratio_row


#: The solver's name for :class:`ContractionMode`, the one mode type.
SolveMode = ContractionMode


class Selection(enum.Enum):
    """How to pick among admissible candidates.

    GREEDY_MIN_DEFECT takes the admissible candidate minimizing its own
    defect; FIRST_ADMISSIBLE takes the first admissible candidate.  Ties
    and "first" are resolved by universe order on finite spaces and by
    image encounter order on oracle spaces, so both rules are
    deterministic.
    """

    GREEDY_MIN_DEFECT = "greedy"
    FIRST_ADMISSIBLE = "first"


@dataclass(frozen=True)
class SolverConfig:
    """How :func:`solve` runs: ``mode``, a :class:`ContractionMode`, and
    ``selection``, a :class:`Selection` (else a TypeError); ``tolerance``,
    the defect a run converges at, a number >= 0, and ``max_iterations``,
    the step budget, an int >= 1 and no bool (else a ValueError)."""

    mode: ContractionMode = ContractionMode.STARTPOINT
    tolerance: Value = 0
    max_iterations: int = 10_000
    selection: Selection = Selection.GREEDY_MIN_DEFECT

    def __post_init__(self) -> None:
        _meaning(self.mode)  # a TypeError for anything but a ContractionMode
        if not isinstance(self.selection, Selection):
            raise TypeError(f"selection must be a Selection, got {self.selection!r}")
        if not self.tolerance >= 0:  # NaN fails it too
            raise ValueError(f"tolerance must be a nonnegative number, got {self.tolerance!r}")
        if type(self.max_iterations) is bool or not isinstance(self.max_iterations, int):
            raise ValueError(f"max_iterations must be an int, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class Step:
    """One iteration record: from x the solver chose y in F(x).

    ``d`` is the step distance the mode tests, d(x, y), or d(y, x) for
    ENDPOINT runs; ``gamma_d`` is its gamma value and ``defect`` the mode
    defect of y.  Steps are numbered from 1.
    """

    n: int
    x: Point
    y: Point
    d: Value
    gamma_d: Value
    defect: Value


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    CONTRACTION_VIOLATED = "contraction_violated"


@dataclass(frozen=True)
class Outcome:
    """Terminal state of a run.

    ``point`` is the converged point, the last point visited
    (MAX_ITERATIONS), or the point whose image held no admissible
    candidate (CONTRACTION_VIOLATED).  ``cycle`` marks early exhaustion
    because the orbit was revisiting points without improving the defect.
    """

    status: Status
    point: Point
    defect: Value
    cycle: bool = False


@dataclass(frozen=True)
class IterationTrace:
    """Full record of one run: start point, steps, outcome.

    ``space`` is the input space of the run, for every mode (an ENDPOINT
    trace reads it as d(x_n, x_k)); it is kept for trace validation and is
    not serialized.
    """

    mode: ContractionMode
    start: Point
    initial_defect: Value
    steps: tuple[Step, ...]
    outcome: Outcome
    space: QSpace | None = field(default=None, repr=False, compare=False)

    @property
    def points(self) -> tuple[Point, ...]:
        """The visited orbit x_0, x_1, ..., in order."""
        return (self.start,) + tuple(s.y for s in self.steps)


def admissible_candidates(
    space: QSpace,
    F: SetValuedMap,
    gamma: ComparisonFunction,
    x: Point,
    mode: ContractionMode = ContractionMode.FORWARD,
) -> list[tuple[Point, Value]]:
    """Deterministically ordered admissible (candidate, defect) pairs at x.

    The hook for custom selection experiments: everything the solver knows
    about one step is in this list.  Order is universe order when the
    space is finite, image encounter order otherwise.  On a finite space,
    an x or image point outside the universe raises ``ValueError``.
    """
    _check_point(space.order, x)
    return [(y, _value(space, Y)) for y, Y, _ in _Scan(space, F, mode, gamma).admissible(x)]


def solve(
    space: QSpace,
    F: SetValuedMap,
    gamma: ComparisonFunction,
    x0: Point,
    config: SolverConfig | None = None,
) -> IterationTrace:
    """Iterate F from x0 until the mode defect reaches the tolerance.

    Outcomes (never exceptions):

    * CONVERGED(x*, defect): defect <= tolerance; with EXACT arithmetic and
      tolerance 0 the returned point is a genuine startpoint, endpoint or
      fixed point.
    * CONTRACTION_VIOLATED(x): no candidate in F(x) satisfies the
      admissibility inequality, i.e. the weak-contraction hypothesis fails
      on the visited orbit.
    * MAX_ITERATIONS: budget exhausted, or (flagged via ``cycle``) the
      orbit kept revisiting points without improving the defect, which on
      a finite space only happens when the hypothesis fails.

    Malformed input is an error, not an outcome: on a finite space, an x0
    or image point outside the universe raises ``ValueError``.  Identical
    inputs and config produce identical traces.
    """
    config = config or SolverConfig()
    _check_point(space.order, x0)
    if not space.exact and config.tolerance == 0:
        raise ValueError("tolerance 0 requires EXACT arithmetic")
    if not gamma.certified:
        warnings.warn(
            "gamma is only SAMPLED: the summability condition (g2) is not "
            "certified, so convergence is not guaranteed",
            SampledComparisonWarning,
            stacklevel=2,
        )

    scan = _Scan(space, F, config.mode, gamma)
    greedy = config.selection is Selection.GREEDY_MIN_DEFECT

    steps: list[Step] = []
    x, current = x0, _value(space, scan.defect(x0))
    initial = best = current
    visited = {x}
    stall = 0
    outcome: Outcome | None = None

    while True:
        if current <= config.tolerance:
            outcome = Outcome(Status.CONVERGED, x, current)
            break
        if len(steps) >= config.max_iterations:
            outcome = Outcome(Status.MAX_ITERATIONS, x, current)
            break

        found = next(scan.admissible(x, greedy), None)
        if found is None:
            outcome = Outcome(Status.CONTRACTION_VIOLATED, x, current)
            break
        y, Y, T = found

        # T is the distance the mode tests: d(y, x) for ENDPOINT, else d(x, y).
        dy, t = _value(space, Y), _value(space, T)
        steps.append(Step(n=len(steps) + 1, x=x, y=y, d=t, gamma_d=gamma(t), defect=dy))
        x, current = y, dy

        # Finite spaces cycle only when the hypothesis fails; bail out
        # before burning the whole budget.
        if x in visited and not current < best:
            stall += 1
        else:
            stall = 0
        visited.add(x)
        best = min(best, current)
        if stall >= len(visited):
            outcome = Outcome(Status.MAX_ITERATIONS, x, current, cycle=True)
            break

    return IterationTrace(
        mode=config.mode,
        start=x0,
        initial_defect=initial,
        steps=tuple(steps),
        outcome=outcome,
        space=space,
    )


#: Fixed descending epsilon schedule for the prefix left-K-Cauchy
#: certificate: 1, 1/2, 1/4, ..., 2^-16.  Every eps is a unit fraction 1/q,
#: which ``_reach_test`` relies on.
EPSILON_SCHEDULE: tuple[Fraction, ...] = tuple(Fraction(1, 2**k) for k in range(17))
assert all(eps.numerator == 1 for eps in EPSILON_SCHEDULE)


@dataclass(frozen=True)
class CheckResult:
    """PASS, or FAIL at ``first_failure``: the step number n whose value
    broke monotonicity, or the prefix length m whose partial-sum bound
    failed."""

    passed: bool
    first_failure: int | None = None


@dataclass(frozen=True)
class TraceReport:
    """Replay of the iteration inequalities on a recorded trace.

    ``steps_monotone``: step distances d_n never increase.
    ``defects_monotone``: defects never increase (the initial defect is
    included ahead of the per-step defects).
    ``partial_sums``: for every m >= 3, the gamma values of the first
    m - 2 step distances sum to at most d_1 - d_{m-1} (hence at most d_1).
    ``cauchy``: per epsilon of the fixed schedule, the smallest index n0
    such that every d(x_k, x_n) (ENDPOINT: d(x_n, x_k)) with n0 <= k <= n
    stays below epsilon (the last index when no start qualifies, which a
    user oracle with d(x, x) > 0 can cause); None when no space was
    available to evaluate distances (e.g. a hand-built trace).
    """

    steps_monotone: CheckResult
    defects_monotone: CheckResult
    partial_sums: CheckResult
    cauchy: tuple[tuple[Fraction, int], ...] | None

    @property
    def ok(self) -> bool:
        return (
            self.steps_monotone.passed
            and self.defects_monotone.passed
            and self.partial_sums.passed
        )


def validate_trace(
    trace: IterationTrace,
    gamma: ComparisonFunction,
    space: QSpace | None = None,
) -> TraceReport:
    """Re-verify the solver's inequalities from the recorded values.

    Works from the trace alone (gamma values are recomputed from the
    recorded step distances, not trusted).  The left-K-Cauchy certificate
    additionally needs the distance oracle; it uses ``space`` or, by
    default, the space the trace ran in, and is skipped (None) when
    neither is available; for an ENDPOINT trace too it is the input space.
    It reads d(x_k, x_n), d(x_n, x_k) for ENDPOINT, at most once for each
    pair k <= n of the orbit x_0, ..., x_L, the diagonal included: at most
    (L + 1)(L + 2)/2 oracle calls, a row k at a time from k = L down, each
    through the checked reader, and stops after the row that reaches the
    smallest epsilon.  A row is tested against each epsilon no later row
    has reached: a row of ints and Fractions by an exact integer test on
    its numerators and denominators, any other row one value at a time.  A
    ``space`` other than the trace's own, if it has a finite universe, must
    hold every orbit point: ``ValueError`` names the first one it lacks.
    """
    if space is None:
        space = trace.space
    elif space is not trace.space:
        _check_point(space.order, *trace.points)
    leq = le if space is None else space.leq  # Hand-built traces are exact.

    ds = [s.d for s in trace.steps]
    defects = [trace.initial_defect] + [s.defect for s in trace.steps]

    steps_monotone = CheckResult(True)
    for i in range(1, len(ds)):
        if not leq(ds[i], ds[i - 1]):
            steps_monotone = CheckResult(False, trace.steps[i].n)
            break

    defects_monotone = CheckResult(True)
    for i in range(1, len(defects)):
        if not leq(defects[i], defects[i - 1]):
            defects_monotone = CheckResult(False, trace.steps[i - 1].n)
            break

    partial = CheckResult(True)
    if len(ds) >= 2:
        total = 0
        # 1-based: d_1 is the first recorded step distance.
        for m in range(3, len(ds) + 2):
            total = total + gamma(ds[m - 3])
            if not leq(total, ds[0] - ds[m - 2]):
                partial = CheckResult(False, m)
                break

    cauchy = None
    if space is not None:
        pts, (xy, _, _) = trace.points, _meaning(trace.mode)
        last = len(pts) - 1
        # n0(eps) is one more than the last row r holding a distance >= eps,
        # capped at last, and 0 when no row holds one.  The rows
        # are read backward, so the first row to reach eps is that last one;
        # a row that reaches eps reaches every smaller eps too, so each row
        # is tested only against the smallest eps no later row reached, and
        # against the next one only on a hit.
        n0 = [0] * len(EPSILON_SCHEDULE)
        e = len(EPSILON_SCHEDULE) - 1  # The smallest eps not yet reached.
        for r in range(last, -1, -1):
            if e < 0:
                break  # Every eps is reached: no lower row changes n0.
            kinds: set[type] = set()
            reaches = _reach_test(_distances(space, pts[r], pts[r:], xy, not xy, kinds), kinds)
            while e >= 0 and reaches(EPSILON_SCHEDULE[e]):
                n0[e] = min(r + 1, last)
                e -= 1
        cauchy = tuple(zip(EPSILON_SCHEDULE, n0))

    return TraceReport(
        steps_monotone=steps_monotone,
        defects_monotone=defects_monotone,
        partial_sums=partial,
        cauchy=cauchy,
    )


def _reach_test(row: Sequence[Value], kinds: set[type]) -> Callable[[Fraction], bool]:
    """A test of whether ``row``, whose value types are ``kinds``, holds a
    distance >= eps.  A row of ints and Fractions alone (exact types) is
    read once to numerators and denominators, and eps = 1/q (every eps of
    ``EPSILON_SCHEDULE``) is tested as num * q >= den, with no Fraction
    operator; any other row, one value at a time."""
    if _RATIONAL.issuperset(kinds):
        num, den = _ratio_row(row, kinds)

        def reaches(eps: Fraction) -> bool:
            return any(map(ge, map(mul, num, repeat(eps.denominator)), den))

    else:

        def reaches(eps: Fraction) -> bool:
            return any(v >= eps for v in row)

    return reaches
