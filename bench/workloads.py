"""The benchmark's workloads: input generation, timed operations, checks.

Every input is drawn here from the workload seed, and the expected answers
are worked out here without the library (integer Floyd-Warshall, closed
forms of the staircase orbit, the line metric's formula).  The library
only ever sees the generated data, so a change to one of its own
generators cannot change a workload.

A workload is three functions:

* ``make(rng, workdir)`` returns a pool of inputs (writing any input files
  into ``workdir``); ops cycle through the pool;
* ``run(item, rec, lib)`` is one op: the library calls the benchmark
  times, each made through ``rec.call(layer, fn, ...)``;
* ``check(item, out)`` compares the op's outputs with the expected
  answers and raises :class:`CheckFailed` naming the layer at fault.

``lib`` holds the library's modules by layer name (``lib.space``,
``lib.solver``, ...), imported afresh at each set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

#: The library's sources in the checkout the benchmark runs from.
SRC = Path(__file__).resolve().parent.parent / "src"
#: The library's modules, which are the benchmark's layers.
LAYERS = ("space", "comparison", "corpus", "contraction", "solver", "documents", "cli")

GAMMA_C = Fraction(1, 2)
#: The left-K-Cauchy epsilon schedule, 1, 1/2, ..., 2**-16.
EPSILONS = tuple(Fraction(1, 2**k) for k in range(17))
MODES = ("forward", "dual", "symmetric")

#: certify-dense: points per system, and systems per pool.
DENSE_N = 40
DENSE_POOL = 4
#: long-orbit: orbit length L and decoys per step.
ORBIT_L = 200
ORBIT_DECOYS = 4
ORBIT_POOL = 2
#: documents-cli: points per document, and documents per pool.
DOC_N = 200
DOC_POOL = 2

#: The cold CLI child must finish well inside the run's time limit.
CLI_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An op's output differs from the expected answer."""

    def __init__(self, layer: str, message: str) -> None:
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def expect(cond: bool, layer: str, message: str) -> None:
    if not cond:
        raise CheckFailed(layer, message)


def is_exact(v: Any) -> bool:
    """Fractions and ints pass; floats (and bools) do not."""
    return type(v) in (Fraction, int)


def expect_exact(values, layer: str, what: str) -> None:
    for v in values:
        expect(is_exact(v), layer, f"{what} {v!r} is not an exact rational")


def cauchy_table(dist: Callable[[int, int], Fraction], last: int) -> tuple:
    """Smallest n0 per epsilon with dist(k, n) < eps for n0 <= k <= n <= last,
    given that the largest such distance is dist(n0, last)."""
    table = []
    for eps in EPSILONS:
        n0 = next(s for s in range(last + 1) if dist(s, last) < eps)
        table.append((eps, n0))
    return tuple(table)


def check_solve(trace, x0: Any, point: Any, initial: Fraction, steps: list[tuple]) -> None:
    """Compare a solve trace with the expected orbit.

    ``steps`` lists (x, y, d, gamma_d, defect) per step.
    """
    layer = "solver.solve"
    out = trace.outcome
    expect(out.status.value == "converged", layer, f"status {out.status.value}")
    expect(out.point == point, layer, f"converged at {out.point!r}, expected {point!r}")
    expect(is_exact(out.defect) and out.defect == 0, layer, f"final defect {out.defect!r}")
    expect(trace.start == x0, layer, "start point changed")
    expect(
        is_exact(trace.initial_defect) and trace.initial_defect == initial,
        layer,
        f"initial defect {trace.initial_defect!r}, expected {initial}",
    )
    expect(len(trace.steps) == len(steps), layer, f"{len(trace.steps)} steps, expected {len(steps)}")
    for step, want in zip(trace.steps, steps):
        got = (step.x, step.y, step.d, step.gamma_d, step.defect)
        expect_exact(got[2:], layer, f"step {step.n} value")
        expect(got == want, layer, f"step {step.n} is {got}, expected {want}")


def check_replay(report, cauchy: tuple) -> None:
    layer = "solver.validate_trace"
    expect(report.ok, layer, f"replay failed: {report}")
    expect(report.cauchy == cauchy, layer, f"Cauchy table {report.cauchy}, expected {cauchy}")


# ----------------------------------------------------------------------------
# certify-dense: everything a user calls to accept a generated system.


class DenseItem(NamedTuple):
    points: tuple[str, ...]
    weights: list[list[Fraction]]
    images: dict[str, tuple[str, ...]]
    sink: str
    start: str
    closure: list[list[Fraction]]


def _int_closure(w: list[list[int]]) -> list[list[int]]:
    d = [row[:] for row in w]
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            d[i] = [min(a, dik + b) for a, b in zip(d[i], dk)]
    return d


def make_dense(rng, workdir: Path, n: int = DENSE_N, pool: int = DENSE_POOL) -> list[DenseItem]:
    items = []
    for _ in range(pool):
        points = tuple(f"p{i}" for i in range(n))
        # Positive weights on the 1/8 grid keep every closed distance
        # positive off the diagonal, so the sink is the only startpoint.
        eighths = [[0 if i == j else rng.randint(1, 64) for j in range(n)] for i in range(n)]
        weights = [[Fraction(v, 8) for v in row] for row in eighths]
        closure = [[Fraction(v, 8) for v in row] for row in _int_closure(eighths)]
        s = rng.randrange(n)
        sink = points[s]
        images = {}
        for i, x in enumerate(points):
            if i == s:
                images[x] = (sink,)
            else:
                images[x] = tuple(p for j, p in enumerate(points) if j == s or rng.getrandbits(1))
        start = points[rng.choice([i for i in range(n) if i != s])]
        items.append(DenseItem(points, weights, images, sink, start, closure))
    return items


def run_dense(item: DenseItem, rec, lib) -> dict:
    closed = rec.call("corpus.minplus_closure", lib.corpus.minplus_closure, item.weights)
    space = rec.call(
        "space.from_matrix", lib.space.from_matrix, item.points, closed, exact=True, t0=True
    )
    axioms = rec.call("space.check_axioms", lib.space.check_axioms, space, check_t0=True)
    F = lib.contraction.SetValuedMap(item.images)
    gamma = lib.comparison.linear(GAMMA_C)
    verify = lib.contraction.verify_weak_contraction
    certs = {
        m: rec.call(
            "contraction.verify_weak_contraction",
            verify,
            space,
            F,
            gamma,
            lib.contraction.ContractionMode(m),
        )
        for m in MODES
    }
    found = [
        rec.call("contraction.enumerate", fn, space, F)
        for fn in (
            lib.contraction.enumerate_startpoints,
            lib.contraction.enumerate_endpoints,
            lib.contraction.enumerate_fixed_points,
        )
    ]
    trace = rec.call("solver.solve", lib.solver.solve, space, F, gamma, item.start)
    rec.count("solver.steps", len(trace.steps))
    report = rec.call("solver.validate_trace", lib.solver.validate_trace, trace, gamma)
    return {"closed": closed, "axioms": axioms, "certs": certs, "found": found,
            "trace": trace, "report": report}


def check_dense(item: DenseItem, out: dict) -> None:
    layer = "corpus.minplus_closure"
    for row in out["closed"]:
        expect_exact(row, layer, "closed distance")
    expect(out["closed"] == item.closure, layer, "closure differs from integer Floyd-Warshall")
    axioms = out["axioms"]
    expect(
        axioms.ok and axioms.t0 is not None and not axioms.sampled,
        "space.check_axioms",
        f"axioms failed: {axioms}",
    )
    want_witnesses = {x: item.sink for x in item.points}
    for mode, cert in out["certs"].items():
        expect(
            getattr(cert, "witnesses", None) == want_witnesses,
            "contraction.verify_weak_contraction",
            f"{mode}: expected the sink as every witness, got {cert!r}"[:300],
        )
    for found in out["found"]:
        expect(found == [item.sink], "contraction.enumerate", f"found {found}, expected the sink")
    row = item.closure[item.points.index(item.start)]
    initial = max(row[item.points.index(b)] for b in item.images[item.start])
    d = row[item.points.index(item.sink)]
    check_solve(out["trace"], item.start, item.sink, initial, [(item.start, item.sink, d, d * GAMMA_C, 0)])
    check_replay(out["report"], cauchy_table(lambda k, n: d if k < n else 0, 1))


# ----------------------------------------------------------------------------
# long-orbit: a zero-slack staircase that greedy solve walks for L steps.


class OracleCounter:
    """The staircase's distance oracle, counting (and optionally timing) calls.

    The dyadic-gap distance charges y - x upward and 2(x - y) downward.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def count(self, x: Fraction, y: Fraction) -> Fraction:
        self.calls += 1
        return y - x if y >= x else 2 * (x - y)

    def count_and_time(self, x: Fraction, y: Fraction) -> Fraction:
        t0 = perf_counter()
        self.calls += 1
        v = y - x if y >= x else 2 * (x - y)
        self.seconds += perf_counter() - t0
        return v


class OrbitItem(NamedTuple):
    universe: tuple[Fraction, ...]
    images: dict[Fraction, tuple[Fraction, ...]]
    length: int


def make_orbit(
    rng, workdir: Path, length: int = ORBIT_L, decoys: int = ORBIT_DECOYS, pool: int = ORBIT_POOL
) -> list[OrbitItem]:
    items = []
    sink = Fraction(2)
    for _ in range(pool):
        xs = [Fraction(1, 2**i) for i in range(length + 1)]
        universe = list(xs) + [sink]
        images = {sink: (sink,), xs[length]: (xs[length],)}
        for i in range(length):
            gap = xs[i] - xs[i + 1]
            # Decoys sit strictly between x_{i+1} and x_i and map to the
            # far sink, so their defect (about 2) makes them inadmissible.
            ds = [xs[i + 1] + gap * Fraction(r, 64) for r in rng.sample(range(1, 64), decoys)]
            for c in ds:
                images[c] = (sink,)
            universe.extend(ds)
            image = [xs[i + 1], *ds]
            rng.shuffle(image)
            images[xs[i]] = tuple(image)
        rng.shuffle(universe)
        items.append(OrbitItem(tuple(universe), images, length))
    return items


def run_orbit(item: OrbitItem, rec, lib) -> dict:
    oracle = OracleCounter()
    rec.oracle = oracle
    d = oracle.count_and_time if rec.traced else oracle.count
    space = lib.space.from_oracle(d, points=item.universe, exact=True, t0=True)
    F = lib.contraction.SetValuedMap(item.images)
    gamma = lib.comparison.linear(GAMMA_C)
    trace = rec.call("solver.solve", lib.solver.solve, space, F, gamma, Fraction(1))
    rec.count("solver.steps", len(trace.steps))
    report = rec.call("solver.validate_trace", lib.solver.validate_trace, trace, gamma)
    doc = rec.call("documents.trace_document", lib.documents.trace_document, trace)
    return {"trace": trace, "report": report, "doc": doc}


def check_orbit(item: OrbitItem, out: dict) -> None:
    L = item.length
    x = [Fraction(1, 2**i) for i in range(L + 1)]
    # Step n goes x_{n-1} -> x_n at distance 2**-(n-1); the defect of x_n
    # is 2**-n, except at the fixed x_L.  Every step has zero slack.
    steps = [
        (x[n - 1], x[n], 2 * (x[n - 1] - x[n]), x[n], x[n] if n < L else 0)
        for n in range(1, L + 1)
    ]
    check_solve(out["trace"], x[0], x[L], 1, steps)
    check_replay(out["report"], cauchy_table(lambda k, n: 2 * (x[k] - x[n]), L))
    layer = "documents.trace_document"
    doc = out["doc"]
    want = {"status": "converged", "point": str(x[L]), "defect": "0", "steps": L, "cycle": False}
    expect(doc["outcome"] == want, layer, f"outcome {doc['outcome']}")
    got = [(s["n"], Fraction(s["d"]), Fraction(s["gamma_d"]), Fraction(s["defect"]))
           for s in doc["steps"]]
    expect(got == [(n, s[2], s[3], s[4]) for n, s in enumerate(steps, 1)], layer,
           "serialized steps differ from the orbit")


# ----------------------------------------------------------------------------
# documents-cli: read and write a large exact document, and the qpm CLI.


class DocItem(NamedTuple):
    path: Path
    out_path: Path
    trace_path: Path
    doc: dict
    positions: dict[str, Fraction]
    sink: str
    start: str


def _line(a: Fraction, b: Fraction) -> Fraction:
    return b - a if b >= a else 2 * (a - b)


def make_docs(rng, workdir: Path, n: int = DOC_N, pool: int = DOC_POOL) -> list[DocItem]:
    items = []
    for k in range(pool):
        points = [f"q{i}" for i in range(n)]
        values: set[Fraction] = set()
        while len(values) < n:
            values.add(Fraction(rng.randint(0, 2000), rng.randint(1, 8)))
        ordered = list(values)
        rng.shuffle(ordered)
        pos = dict(zip(points, ordered))
        s = rng.randrange(n)
        sink = points[s]
        F = {
            x: [sink] if i == s else [p for j, p in enumerate(points) if j == s or rng.getrandbits(1)]
            for i, x in enumerate(points)
        }
        doc = {
            "points": points,
            "d": [[str(_line(pos[x], pos[y])) for y in points] for x in points],
            "t0": True,
            "arithmetic": "exact",
            "F": F,
            "gamma": {"kind": "linear", "c": str(GAMMA_C)},
        }
        path = workdir / f"system-{k}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        start = points[rng.choice([i for i in range(n) if i != s])]
        items.append(DocItem(path, workdir / f"dumped-{k}.json", workdir / f"trace-{k}.json",
                             doc, pos, sink, start))
    return items


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qpmetric.cli", *argv],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
        check=False,
    )


def _run_cli_main(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_docs(item: DocItem, rec, lib) -> dict:
    docs = lib.documents
    system = rec.call("documents.load_system", docs.load_system, item.path)
    cert = rec.call(
        "contraction.verify_weak_contraction",
        lib.contraction.verify_weak_contraction,
        system.space,
        system.map,
        system.gamma,
    )
    found = rec.call(
        "contraction.enumerate", lib.contraction.enumerate_startpoints, system.space, system.map
    )
    trace = rec.call(
        "solver.solve", lib.solver.solve, system.space, system.map, system.gamma, item.start
    )
    rec.count("solver.steps", len(trace.steps))
    rec.call("documents.dump_system", docs.dump_system, item.out_path,
             system.space, system.map, system.gamma)
    rec.call("documents.dump_trace", docs.dump_trace, item.trace_path, trace)
    reloaded = rec.call("documents.load_system", docs.load_system, item.out_path)
    argv = ["solve", str(item.path), "--from", item.start]
    main = rec.call("cli.main", _run_cli_main, lib.cli.main, argv)
    proc = rec.call("cli.process", _run_cli_process, argv)
    return {"cert": cert, "found": found, "trace": trace, "reloaded": reloaded,
            "main": main, "proc": proc}


def check_docs(item: DocItem, out: dict) -> None:
    sink, start = item.sink, item.start
    points = item.doc["points"]
    expect(
        getattr(out["cert"], "witnesses", None) == {x: sink for x in points},
        "contraction.verify_weak_contraction",
        "expected the sink as every witness",
    )
    expect(out["found"] == [sink], "contraction.enumerate", f"found {out['found']}")
    here = item.positions[start]
    initial = max(_line(here, item.positions[b]) for b in item.doc["F"][start])
    d = _line(here, item.positions[sink])
    check_solve(out["trace"], start, sink, initial, [(start, sink, d, d * GAMMA_C, 0)])
    layer = "documents.dump_system"
    dumped = json.loads(item.out_path.read_text(encoding="utf-8"))
    expect(dumped == item.doc, layer, "round-trip document differs from the original")
    layer = "documents.dump_trace"
    tdoc = json.loads(item.trace_path.read_text(encoding="utf-8"))
    want = {"status": "converged", "point": sink, "defect": "0", "steps": 1, "cycle": False}
    expect(tdoc["outcome"] == want, layer, f"outcome {tdoc['outcome']}")
    layer = "documents.load_system"
    space = out["reloaded"].space
    row = [space.d(start, y) for y in points]
    expect_exact(row, layer, "reloaded distance")
    expect(row == [_line(item.positions[start], item.positions[y]) for y in points], layer,
           "reloaded distances differ from the line metric")
    expect(out["reloaded"].map(start) == tuple(item.doc["F"][start]), layer, "reloaded image")
    line = f"CONVERGED {sink} defect=0 steps=1\n"
    code, stdout = out["main"]
    expect(code == 0 and stdout == line, "cli.main", f"exit {code}, stdout {stdout!r}")
    proc = out["proc"]
    expect(
        proc.returncode == 0 and proc.stdout == line,
        "cli.process",
        f"exit {proc.returncode}, stdout {proc.stdout!r}, stderr {proc.stderr[-300:]!r}",
    )


class Workload(NamedTuple):
    make: Callable
    run: Callable
    check: Callable


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "certify-dense": Workload(make_dense, run_dense, check_dense),
    "long-orbit": Workload(make_orbit, run_orbit, check_orbit),
    "documents-cli": Workload(make_docs, run_docs, check_docs),
}
