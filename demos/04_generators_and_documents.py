"""Seeded random systems, JSON documents, and the qpm command line.

Run with: python demos/04_generators_and_documents.py
"""

import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from qpmetric import (
    GeneratorSeed,
    check_axioms,
    enumerate_startpoints,
    linear,
    load_system,
    random_t0_qspace,
    random_weakly_contractive_system,
    solve,
    system_document,
    verify_weak_contraction,
)

F = Fraction

# %% Random spaces draw rational weights and close them under min-plus
# (all-pairs shortest path), which enforces the triangle inequality by
# construction.  One seed pins everything.
g = GeneratorSeed(seed=2718, size=8)
space = random_t0_qspace(g)
print("axioms:", check_axioms(space, check_t0=True).ok)
print("same seed, same space:",
      system_document(random_t0_qspace(g)) == system_document(space))

# %% Contractive systems add a sink z with F(z) = {z} joined into every
# image, so the forward condition holds with witness z everywhere.
gamma = linear(F(1, 2))
sys_space, sys_map = random_weakly_contractive_system(g, gamma)
cert = verify_weak_contraction(sys_space, sys_map, gamma)
print("certificate witnesses:", sorted(set(cert.witnesses.values())))
print("brute-force startpoints:", enumerate_startpoints(sys_space, sys_map))
for x0 in sys_space.universe()[:3]:
    trace = solve(sys_space, sys_map, gamma, x0)
    print(f"  solve from {x0}: {trace.outcome.status.value} at "
          f"{trace.outcome.point} in {len(trace.steps)} step(s)")

# %% Systems serialize to one self-contained JSON document (exact
# rationals as "p/q" strings) and parse back to the same system.
doc = system_document(sys_space, sys_map, gamma, meta={"seed": g.seed})
print("document keys:", sorted(doc))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "system.json"
    path.write_text(json.dumps(doc, indent=2))
    reloaded = load_system(path)
    print("round-trip identical:",
          system_document(reloaded.space, reloaded.map, reloaded.gamma,
                          reloaded.meta) == doc)

    # %% The qpm CLI wraps the same operations; exit codes are the
    # contract (0 pass, 1 semantic failure, 2 malformed input).
    for args in (["check", str(path)],
                 ["verify", str(path), "--mode", "forward"],
                 ["enumerate", str(path), "--what", "startpoints"]):
        run = subprocess.run([sys.executable, "-m", "qpmetric.cli", *args],
                             capture_output=True, text=True)
        first = run.stdout.splitlines()[0] if run.stdout else ""
        print(f"qpm {args[0]}: exit {run.returncode}, first line: {first!r}")
