"""Record one point of the benchmark trajectory as ``BENCH_<pr>.json``.

Run from anywhere:

    python3 tools/bench_record.py --pr 31 --seed 4242 --seconds 35

For each workload of ``BENCHMARK.json``, it runs the benchmark's own
command, ``python3 bench/run.py``, as a child process from the repository
root, unchanged but for its flags:

    python3 bench/run.py --workload W --seed S --seconds T --trace K

It keeps the child's last stdout line, the JSON summary (``correct``,
``attempted``, ``failed``, ``metrics``), and adds the workload, the seed,
the seconds, the trace flag, the child's Python version, ``git rev-parse
HEAD`` and whether tracked files differ from it, and the host speed that
the child prints on its "host speed ... of reference" line.  The entries
go, in workload order, to ``BENCH_<pr>.json`` at the repository root (or
to ``--out``).  A child that exits nonzero or prints no summary stops the
recording, with its output on stderr, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_HOST_SPEED = re.compile(r"host speed ([0-9.]+) of reference")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One child run of the benchmark: its flags, its host speed and its
    summary."""
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = None
    if child.returncode != 0 or not isinstance(summary, dict):
        sys.stderr.write(child.stdout + child.stderr)
        raise SystemExit(f"error: {' '.join(argv)} exited {child.returncode} with no summary")
    speed = next((float(m[1]) for m in map(_HOST_SPEED.search, lines) if m), None)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "host_speed": speed, **summary}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    command = spec["command"]
    # What every entry ran on: the child's Python and the checkout.
    context = {
        "python": subprocess.run(
            [command[0], "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True, check=True,
        ).stdout.strip(),
        "git_head": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
    }
    entries = [
        {**context, **_run(command, name, args.seed, args.seconds, args.trace)}
        for name in names
    ]
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    record = {"pr": args.pr, "command": spec["command"], "entries": entries}
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for e in entries:
        print(f"{e['workload']}: correct={e['correct']} ops={e['attempted']} "
              f"host speed {e['host_speed']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
