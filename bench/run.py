"""Benchmark entry point for qpmetric: one workload per process.

    python3 bench/run.py --workload certify-dense --seed 1 --seconds 35 --trace 0

Sets the workload up several times from ``--seed``, then runs ops (one at
a time, no threads) until ``--seconds`` have passed, checks every op's
outputs and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics, computed from
spans recorded around each call into the library and written to
``bench/.work/spans-<workload>-<seed>.jsonl`` when the run ends.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import LAYERS, SRC, WORKLOADS, CheckFailed

ROOT = SRC.parent
WORK = ROOT / "bench" / ".work"

#: Set-ups per run; setup_s is their median.
SETUPS = 7
#: Ops run even if the time is up, so every run has a median.
MIN_OPS = 4
#: Iterations of the calibration loop, and its wall time on a quiet host
#: (Python 3.11, 2 vCPUs), the reference speed timings are reported at.
CALIBRATION_ITERS = 6000
CALIBRATION_REF_S = 0.017
#: Failed ops whose error is printed (to stderr); the rest are only counted.
MAX_REPORTED_FAILURES = 3

#: Layers timed from outside: ``<module>.<function>`` of each call the ops
#: make.  ``cli.process`` is a cold ``python -m qpmetric.cli`` child.
TIMED_LAYERS = (
    "corpus.minplus_closure",
    "space.from_matrix",
    "space.check_axioms",
    "contraction.verify_weak_contraction",
    "contraction.enumerate",
    "solver.solve",
    "solver.validate_trace",
    "documents.load_system",
    "documents.dump_system",
    "documents.dump_trace",
    "documents.trace_document",
    "cli.main",
    "cli.process",
)
LAYER_STATS = (("ms", "ms"), ("share", "share"), ("calls", "count"), ("failures", "count"))
EXTRA_METRICS = (
    ("solver.solve.us_per_step", "us"),
    ("solver.steps", "count"),
    ("space.oracle_calls.solve", "count"),
    ("space.oracle_calls.validate_trace", "count"),
    ("space.oracle.ms", "ms"),
    ("bench.trace_overhead", "share"),
)
PER_LAYER = tuple(
    (f"{layer}.{stat}", unit) for layer in TIMED_LAYERS for stat, unit in LAYER_STATS
) + EXTRA_METRICS
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("success_rate", "share"),
    ("peak_rss_mb", "MB"),
)


class Recorder:
    """Makes one op's calls into the library.

    Every call is counted, with the oracle calls it made when the op has a
    counting oracle.  A traced op also records a span per call: name,
    start, end, parent (the op's span) and op id, plus the time spent in
    the oracle, which is the benchmark's own code and not the layer's.
    """

    def __init__(self, op_id: int, spans: list[dict] | None) -> None:
        self.op_id = op_id
        self.spans = spans
        self.traced = spans is not None
        self.counts: Counter[str] = Counter()
        self.oracle = None
        self.layer: str | None = None
        if spans is not None:
            self.op_span = {"name": "op", "id": len(spans), "parent": None, "op": op_id}
            spans.append(self.op_span)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def call(self, layer: str, fn, *args, **kwargs):
        self.layer = layer
        self.counts[f"{layer}.calls"] += 1
        oracle = self.oracle
        calls0, secs0 = (oracle.calls, oracle.seconds) if oracle else (0, 0.0)
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        if oracle:
            self.counts[f"space.oracle_calls.{layer.rsplit('.', 1)[1]}"] += oracle.calls - calls0
        if self.spans is not None:
            self.spans.append({
                "name": layer, "id": len(self.spans), "parent": self.op_span["id"],
                "op": self.op_id, "start": start, "end": end,
                "oracle_calls": oracle.calls - calls0 if oracle else 0,
                "oracle_s": oracle.seconds - secs0 if oracle else 0.0,
            })
        self.layer = None
        return result


def import_library():
    """Import the qpmetric package afresh and return its modules by layer."""
    for name in [m for m in sys.modules if m == "qpmetric" or m.startswith("qpmetric.")]:
        del sys.modules[name]
    importlib.import_module("qpmetric")
    return argparse.Namespace(**{m: importlib.import_module(f"qpmetric.{m}") for m in LAYERS})


def calibrate() -> float:
    """Wall time of a fixed stdlib loop of exact-rational arithmetic.

    The benchmark's host is shared and its speed drifts by a third or more
    within minutes, for every process alike.  The loop runs before and
    after every op and set-up, and each is timed at the reference speed:
    its wall time times ``CALIBRATION_REF_S`` over the loop's time around
    it.  The loop uses no qpmetric code, so a change to the library cannot
    move it.
    """
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, CALIBRATION_ITERS):
        acc += Fraction(i % 89 + 1, i % 97 + 1)
        table[i] = acc
    return perf_counter() - start


def set_up(workload: str, seed: int, workdir: Path):
    """Import the library and generate the inputs; returns (lib, pool, seconds)."""
    start = perf_counter()
    lib = import_library()
    pool = WORKLOADS[workload].make(random.Random(f"{workload}:{seed}"), workdir)
    return lib, pool, perf_counter() - start


@dataclass
class Op:
    """One op's outcome: ``failed_layer`` is None when it passed."""

    traced: bool
    wall: float
    failed_layer: str | None
    error: str | None
    counts: Counter
    #: Reference seconds per host second around the op (see calibrate).
    scale: float = 1.0

    @property
    def time(self) -> float:
        """Wall time at the reference speed."""
        return self.wall * self.scale


def run_op(workload: str, item, lib, op_id: int, spans: list[dict] | None) -> Op:
    """Run, time and check one op.  An op fails if it raises or a check fails."""
    wl = WORKLOADS[workload]
    rec = Recorder(op_id, spans)
    failed = error = None
    start = perf_counter()
    try:
        out = wl.run(item, rec, lib)
    except Exception:  # any error is a failed op; the run goes on
        out, failed, error = None, rec.layer or "op", traceback.format_exc()
    end = perf_counter()
    if rec.traced:
        rec.op_span.update(start=start, end=end)
    if out is not None:
        try:
            wl.check(item, out)
        except CheckFailed as exc:
            failed, error = exc.layer, str(exc)
        except Exception:  # output the check could not even read
            failed, error = "op", traceback.format_exc()
    return Op(rec.traced, end - start, failed, error, rec.counts)


def run_ops(workload: str, pool: list, lib, seconds: float, trace: bool, spans: list[dict]):
    """Ops until ``seconds`` have passed; with ``trace`` every second op is traced."""
    ops = []
    deadline = perf_counter() + seconds
    before = calibrate()
    while len(ops) < MIN_OPS or perf_counter() < deadline:
        i = len(ops)
        traced = trace and i % 2 == 1
        op = run_op(workload, pool[i % len(pool)], lib, i, spans if traced else None)
        after = calibrate()
        op.scale = 2 * CALIBRATION_REF_S / (before + after)
        ops.append(op)
        before = after
    return ops


def ops_per_s(ops: list[Op]) -> float:
    return sum(op.failed_layer is None for op in ops) / sum(op.time for op in ops)


def self_times(spans: list[dict], scale: dict[int, float]) -> tuple[dict[str, float], float]:
    """Self seconds per span name, and the oracle's seconds.

    A span's self time is its duration less its child spans and the time
    its calls spent in the benchmark's counting oracle.  Each span is
    timed at the reference speed with its op's ``scale``.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    oracle = 0.0
    for s in spans:
        o = s.get("oracle_s", 0.0)
        k = scale[s["op"]]
        totals[s["name"]] += (s["end"] - s["start"] - child[s["id"]] - o) * k
        oracle += o * k
    return totals, oracle


def _per_op(total: float, n: int) -> float | int:
    v = total / n
    return int(v) if v == int(v) else v


def end_to_end_metrics(ops: list[Op], setup_s: float) -> dict[str, float]:
    timed = [op for op in ops if not op.traced]
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(timed),
        "op_p50_ms": statistics.median(op.time for op in timed) * 1e3,
        "success_rate": sum(op.failed_layer is None for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(ops: list[Op], spans: list[dict]) -> dict[str, float]:
    traced = [op for op in ops if op.traced]
    n = len(traced)
    wall = sum(op.time for op in traced)
    selfs, oracle_s = self_times(spans, {i: op.scale for i, op in enumerate(ops)})
    counts = sum((op.counts for op in traced), Counter())
    failures = Counter(op.failed_layer for op in ops if op.failed_layer is not None)
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.ms"] = selfs.get(layer, 0.0) / n * 1e3
        out[f"{layer}.share"] = selfs.get(layer, 0.0) / wall
        out[f"{layer}.calls"] = _per_op(counts[f"{layer}.calls"], n)
        out[f"{layer}.failures"] = failures[layer]
    steps = counts["solver.steps"]
    out["solver.solve.us_per_step"] = selfs.get("solver.solve", 0.0) / steps * 1e6 if steps else 0.0
    out["solver.steps"] = _per_op(steps, n)
    out["space.oracle_calls.solve"] = _per_op(counts["space.oracle_calls.solve"], n)
    out["space.oracle_calls.validate_trace"] = _per_op(counts["space.oracle_calls.validate_trace"], n)
    out["space.oracle.ms"] = oracle_s / n * 1e3
    base = ops_per_s([op for op in ops if not op.traced])
    out["bench.trace_overhead"] = 1 - ops_per_s(traced) / base if base else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qpmetric" / "__init__.py").is_file():
        print(f"error: no qpmetric sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        before = calibrate()
        for _ in range(SETUPS):
            lib, pool, seconds = set_up(args.workload, args.seed, workdir)
            after = calibrate()
            setups.append(seconds * 2 * CALIBRATION_REF_S / (before + after))
            before = after
        spans: list[dict] = []
        ops = run_ops(args.workload, pool, lib, args.seconds, bool(args.trace), spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [f"op {i}: {op.error}" for i, op in enumerate(ops) if op.error is not None]
    for error in errors[:MAX_REPORTED_FAILURES]:
        print(error, file=sys.stderr)
    failed = sum(op.failed_layer is not None for op in ops)
    if args.trace:
        metrics = per_layer_metrics(ops, spans)
        units = dict(PER_LAYER)
        span_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        span_file.write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
    else:
        metrics = end_to_end_metrics(ops, statistics.median(setups))
        units = dict(END_TO_END)
    timed = sum(not op.traced for op in ops)
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops ({timed} untraced), {failed} failed")
    print(f"  host speed {statistics.median(op.scale for op in ops):.3f} of reference; "
          f"raw op p50 {statistics.median(op.wall for op in ops) * 1e3:.1f} ms")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
