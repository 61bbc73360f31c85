"""Mutation smoke: every seeded mutant of the library must fail a test.

Run from anywhere:

    python tests/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and runs the test files of all entries there once unmutated,
which must pass.  Then it applies one mutant at a time to the copy of
``src/qpmetric`` and runs that mutant's test files with
``-x -q -p no:cacheprovider``.  It exits 1 when a snippet is no longer in
its module exactly once (the entry has gone stale) or a mutant survives
(its tests still pass).  The file is not named ``test_*.py``, so the test
suite does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (module under src/qpmetric, exact snippet, replacement, why the tests
#: must notice, test files).
MUTANTS = [
    (
        "contraction.py",
        'ContractionMode.FORWARD: (True, False, "startpoint")',
        'ContractionMode.FORWARD: (True, True, "startpoint")',
        "FORWARD reading d(y, x) too is the SYMMETRIC defect and bound",
        ["tests/test_contraction.py"],
    ),
    (
        "contraction.py",
        'ContractionMode.DUAL: (False, True, "endpoint")',
        'ContractionMode.DUAL: (True, True, "endpoint")',
        "DUAL reading d(x, y) too is the SYMMETRIC defect and bound",
        ["tests/test_contraction.py"],
    ),
    (
        "contraction.py",
        'ContractionMode.SYMMETRIC: (True, True, "fixedpoint")',
        'ContractionMode.SYMMETRIC: (True, False, "fixedpoint")',
        "SYMMETRIC without d(y, x) is the FORWARD defect and bound",
        ["tests/test_contraction.py"],
    ),
    (
        "contraction.py",
        '(True, False, "startpoint"),\n    ContractionMode.DUAL: (False, True, "endpoint")',
        '(True, False, "endpoint"),\n    ContractionMode.DUAL: (False, True, "startpoint")',
        "the CLI and trace documents name each mode's points",
        ["tests/test_documents.py", "tests/test_cli.py"],
    ),
    (
        "contraction.py",
        '    if not isinstance(mode, ContractionMode):\n'
        '        raise TypeError(f"mode must be a ContractionMode, got {mode!r}")\n',
        "",
        "a mode that is not a ContractionMode is a TypeError",
        ["tests/test_solver.py"],
    ),
    (
        "contraction.py",
        "return _min_keeping_nan([t - gamma(t)",
        "return min([t - gamma(t)",
        "builtin min drops a NaN that is not first: a NaN side must admit nothing",
        ["tests/test_contraction.py"],
    ),
    (
        "solver.py",
        "        if not isinstance(self.selection, Selection):\n"
        '            raise TypeError(f"selection must be a Selection, got {self.selection!r}")\n',
        "",
        "a selection that is not a Selection is a TypeError",
        ["tests/test_solver.py"],
    ),
    (
        "solver.py",
        "gamma(ds[m - 3])",
        "gamma(ds[m - 2])",
        "the partial sums add the gamma values of the first m - 2 step distances",
        ["tests/test_solver.py"],
    ),
]


def _pytest(cwd: Path, files: list[str]) -> bool:
    """Whether ``files`` pass under pytest in the copy at ``cwd``."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    return subprocess.run(argv, cwd=cwd, capture_output=True).returncode == 0


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="qpm-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        files = sorted({f for *_, fs in MUTANTS for f in fs})
        if not _pytest(work, files):
            print(f"baseline: {' '.join(files)} fail without a mutant")
            return 1
        for n, (module, snippet, replacement, why, tests) in enumerate(MUTANTS, 1):
            path = work / "src" / "qpmetric" / module
            source = path.read_text(encoding="utf-8")
            if source.count(snippet) != 1:
                print(f"mutant {n} ({module}): snippet not found exactly once: {snippet!r}")
                failures += 1
                continue
            path.write_text(source.replace(snippet, replacement), encoding="utf-8")
            try:
                killed = not _pytest(work, tests)
            finally:
                path.write_text(source, encoding="utf-8")
            print(f"mutant {n} ({module}): {'killed' if killed else 'SURVIVED'}: {why}")
            failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
