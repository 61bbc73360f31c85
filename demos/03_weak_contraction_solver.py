"""Startpoints of a set-valued map: verify the contraction, then iterate.

A point x is a *startpoint* of F when H({x}, Fx) = 0, an *endpoint* when
H(Fx, {x}) = 0, and a fixed point (in the symmetrized sense) when both
hold.  The solver walks x_{n+1} in F(x_n), only ever taking candidates
that satisfy the weak-contraction inequality, and stops when the defect
hits the tolerance.

Run with: python demos/03_weak_contraction_solver.py
"""

from fractions import Fraction

from qpmetric import (
    ContractionMode,
    SetValuedMap,
    SolverConfig,
    SolveMode,
    dyadic_halving_system,
    dyadic_halving_truncated,
    enumerate_startpoints,
    from_matrix,
    linear,
    solve,
    startpoint_defect,
    validate_trace,
    verify_weak_contraction,
)
from qpmetric.contraction import _POINT_NAMES

F = Fraction

# %% The halving system: F(1/2^n) = {1/2^(n+1), 0}, F(0) = {0}, gamma = t/2.
space, Fm, gamma = dyadic_halving_system()
one, zero = F(1), F(0)
print("startpoint defect at 1:", startpoint_defect(space, one, Fm))
print("startpoint defect at 0:", startpoint_defect(space, zero, Fm))

# %% Solve from 1.  The greedy rule inspects F(1) = {1/2, 0}: the halving
# candidate fails the admissibility inequality (its own defect is too
# big), the sink 0 passes with defect 0, so one step suffices.
trace = solve(space, Fm, gamma, one, SolverConfig(tolerance=0))
print("outcome:", trace.outcome.status.value, trace.outcome.point)
for step in trace.steps:
    print(f"  step {step.n}: {step.x} -> {step.y}  d={step.d}  "
          f"gamma(d)={step.gamma_d}  defect={step.defect}")

# %% Every trace replays the inequalities that make the iteration work:
# nonincreasing step distances and defects, and the telescoping bound
# on the partial sums of gamma values.
report = validate_trace(trace, gamma)
print("replay ok:", report.ok)
print("left-K-Cauchy certificate (eps, n0):",
      [(str(eps), n0) for eps, n0 in report.cauchy[:4]], "...")

# %% On a finite truncation the brute-force oracle agrees with the solver.
tspace, tF, tgamma = dyadic_halving_truncated(10)
print("brute-force startpoints:", enumerate_startpoints(tspace, tF))
cert = verify_weak_contraction(tspace, tF, tgamma, ContractionMode.FORWARD)
print("forward certificate witnesses:", sorted(set(cert.witnesses.values())))

# %% Endpoint and fixed-point solving reuse the same scan on the same
# space, with the DUAL inequality (defect H(Fx, {x}), distance d(y, x))
# and the symmetrized defect.
for mode in (SolveMode.ENDPOINT, SolveMode.FIXEDPOINT):
    t = solve(space, Fm, gamma, one, SolverConfig(mode=mode))
    print(f"{_POINT_NAMES[mode]}: {t.outcome.status.value} at {t.outcome.point}")

# %% When the hypothesis fails, the solver says so instead of spinning:
# the 2-point swap map leaves no admissible candidate at all.
swap_space = from_matrix(("a", "b"), [[0, 1], [1, 0]], t0=True)
swap = SetValuedMap({"a": ["b"], "b": ["a"]})
t = solve(swap_space, swap, linear(F(1, 2)), "a")
print("swap map:", t.outcome.status.value, "at", t.outcome.point)
