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
certificate built in one backward pass over the orbit.

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

from .comparison import ComparisonFunction, SampledComparisonWarning
from .contraction import ContractionMode, SetValuedMap, _distances, _meaning, _Scan, _value
from .space import INFINITY, Point, QSpace, Value, _max_keeping_nan


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


def _check_point(space: QSpace, x: Point) -> None:
    if space.order is not None and x not in space.order:
        raise ValueError(f"{x!r} is not in the universe")


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
    _check_point(space, x)
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
    _check_point(space, x0)
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
#: certificate: 1, 1/2, 1/4, ..., 2^-16.
EPSILON_SCHEDULE: tuple[Fraction, ...] = tuple(Fraction(1, 2**k) for k in range(17))


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
    user oracle with d(x, x) > 0 or NaN can cause; a NaN distance is below
    no epsilon); None when no space was available to evaluate distances
    (e.g. a hand-built trace).
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
    It reads d(x_k, x_n), d(x_n, x_k) for ENDPOINT, once for each pair
    k <= n of the orbit x_0, ..., x_L, the diagonal included: (L + 1)(L + 2)/2
    oracle calls.  A NaN distance counts as ``INFINITY``, so no tail that
    holds it is Cauchy, whatever its position in the orbit.
    """
    space = space if space is not None else trace.space
    if space is not None:
        leq = space.leq
    else:
        leq = lambda a, b: a <= b  # noqa: E731  (hand-built traces: exact)

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
        # worst[s] is the largest d(x_k, x_n) (ENDPOINT: d(x_n, x_k)) over
        # s <= k <= n <= last, so the tail from s is eps-Cauchy exactly when
        # worst[s] < eps.  The diagonal is included: d(x, x) = 0 may fail.
        worst: list[Value] = []
        w = None
        for s in range(last, -1, -1):
            x, tail = pts[s], pts[s:]
            v = _max_keeping_nan(_distances(space, x, tail, xy, not xy))
            if v != v:
                v = INFINITY  # NaN is below no epsilon
            if w is None or v > w:
                w = v
            worst.append(w)
        worst.reverse()
        # worst never decreases toward the start of the orbit, so the
        # first start below eps is the smallest; last if none is.
        cauchy = tuple(
            (eps, next((s for s in range(last + 1) if worst[s] < eps), last))
            for eps in EPSILON_SCHEDULE
        )

    return TraceReport(
        steps_monotone=steps_monotone,
        defects_monotone=defects_monotone,
        partial_sums=partial,
        cauchy=cauchy,
    )
