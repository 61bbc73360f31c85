"""The benchmark's own tests.  Run with ``python -m pytest bench``.

They check that every workload's ops pass on the library as it is, that a
planted wrong answer is counted as a failed op, that the counted metrics
repeat exactly, and that the command prints what BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Small inputs per workload, so the tests stay quick.
SMALL = {
    "certify-dense": lambda rng, tmp: wl.make_dense(rng, tmp, n=12, pool=2),
    "long-orbit": lambda rng, tmp: wl.make_orbit(rng, tmp, length=40, pool=2),
    "documents-cli": lambda rng, tmp: wl.make_docs(rng, tmp, n=20, pool=2),
}


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _ops(workload, pool, lib, traced):
    spans = [] if traced else None
    return [run.run_op(workload, item, lib, i, spans) for i, item in enumerate(pool)]


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("traced", [False, True])
def test_ops_pass_on_current_library(workload, traced, lib, tmp_path):
    pool = SMALL[workload](random.Random(f"{workload}:7"), tmp_path)
    for op in _ops(workload, pool, lib, traced):
        assert op.failed_layer is None


def _plant(workload, item):
    """A copy of ``item`` whose expected answer is wrong by one."""
    if workload == "certify-dense":
        closure = [row[:] for row in item.closure]
        closure[0][1] += 1
        return item._replace(closure=closure), "corpus.minplus_closure"
    if workload == "long-orbit":
        return item._replace(length=item.length + 1), "solver.solve"
    doc = dict(item.doc, gamma={"kind": "linear", "c": "1/3"})
    return item._replace(doc=doc), "documents.dump_system"


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_planted_wrong_answer_fails_the_op(workload, lib, tmp_path):
    item = SMALL[workload](random.Random(f"{workload}:7"), tmp_path)[0]
    planted, layer = _plant(workload, item)
    op = run.run_op(workload, planted, lib, 0, None)
    assert op.failed_layer == layer
    assert run.end_to_end_metrics([op, op], 0.1)["success_rate"] == 0.0


def test_counts_repeat_across_runs_and_tracing(lib, tmp_path):
    counts = []
    for traced in (False, True, False, True):
        pool = wl.make_orbit(random.Random("long-orbit:5"), tmp_path, length=60, pool=2)
        ops = _ops("long-orbit", pool, lib, traced)
        counts.extend(op.counts for op in ops)
    assert all(c == counts[0] for c in counts)
    assert counts[0]["solver.steps"] == 60
    assert counts[0]["space.oracle_calls.solve"] > 0
    assert counts[0]["space.oracle_calls.validate_trace"] > 0


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name, make in SMALL.items():
        first = make(random.Random(f"{name}:3"), a)
        second = make(random.Random(f"{name}:3"), b)
        if name == "documents-cli":
            assert [i.path.read_bytes() for i in first] == [i.path.read_bytes() for i in second]
            assert [i.doc for i in first] == [i.doc for i in second]
        else:
            assert first == second


def test_self_time_subtracts_children_and_oracle():
    spans = [
        {"name": "op", "id": 0, "parent": None, "op": 3, "start": 0.0, "end": 10.0},
        {"name": "solver.solve", "id": 1, "parent": 0, "op": 3, "start": 1.0, "end": 5.0,
         "oracle_s": 1.5},
        {"name": "solver.validate_trace", "id": 2, "parent": 0, "op": 3, "start": 5.0, "end": 9.0},
    ]
    selfs, oracle = run.self_times(spans, {3: 0.5})
    assert selfs == {"op": 1.0, "solver.solve": 1.25, "solver.validate_trace": 2.0}
    assert oracle == 0.75


def test_benchmark_json_matches_the_command():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


def _command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    p = _command(run.ROOT, "--workload", "certify-dense", "--seed", "11",
                 "--seconds", "0.1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    p = _command(tmp_path, "--workload", "long-orbit", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "correct" not in p.stdout
