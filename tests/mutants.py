"""Mutation smoke: every seeded mutant of the library must fail a test.

Run from anywhere:

    python tests/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and runs the test files of all entries there once unmutated,
which must pass.  Then it applies one mutant at a time to the copy of
``src/qpmetric`` and runs that mutant's test files with
``-x -q -p no:cacheprovider --hypothesis-profile=mutants``.  That
profile (see ``tests/conftest.py``) fixes Hypothesis's draws, so two runs
give the same verdicts.  It exits 1 when a snippet is no longer in its
module exactly once (the entry has gone stale) or a mutant survives (its
tests still pass).  The file is not named ``test_*.py``, so the test
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
    (
        "space.py",
        "p = p ^ odd | odd >> shift",
        "p = p ^ odd | odd << shift",
        "a compress round moves the odd groups down, not up",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "mask = _lanes(pairs, 2 * wide)[0] * ((1 << narrow) - 1) << wide",
        "mask = _lanes(pairs, 2 * wide)[0] * ((1 << narrow) - 1)",
        "a round's mask selects the odd groups, not the even ones",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        'p = int.from_bytes(lanes.pack(*row), "little")',
        'p = int.from_bytes(lanes.pack(*row), "big")',
        "the bytes are read in the byte order they were written in",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "expand = [(mask >> shift, shift) for mask, shift in reversed(rounds)]",
        "expand = [(mask, shift) for mask, shift in reversed(rounds)]",
        "unpacking finds each odd group where its compress round left it",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "if (guarded[j] + dxy * ones - p_x) & guard != guard:",
        "if (guarded[j] + dxy * ones - p_x) & guard == 0:",
        "one failing lane is a triangle violation, not only all of them",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "rows[i] = tuple(map(mul, rows[i], repeat(den // d)))",
        "rows[i] = tuple(map(mul, rows[i], repeat(1)))",
        "rows scaled to an earlier denominator are brought up to the final one",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        'if "/," in text or text.endswith("/"):',
        "if False:",
        'a digit string "p/" is refused, not read as "p"',
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "    if min(map(min, rows)) < 0:\n        return matrix, None, None\n",
        "",
        "negative entries take the per-triple loops, not the packed lanes",
        ["tests/test_space.py", "tests/test_corpus.py"],
    ),
    (
        "space.py",
        "return w if w <= _MAX_LANE_BITS else None",
        "return w if w < _MAX_LANE_BITS else None",
        "64-bit lanes, every entry below 2^62, are packed",
        ["tests/test_space.py"],
    ),
    (
        "corpus.py",
        "common = math.gcd(den, *chain.from_iterable(matrix))",
        "common = 1",
        "the generator's den is the least common denominator of its weights",
        ["tests/test_corpus.py"],
    ),
    (
        "comparison.py",
        "return lambda Y, T: leq(Y, T - self(T))",
        "return lambda Y, T: leq(Y, T)",
        "on the values the bound is t - gamma(t), not t",
        ["tests/test_comparison.py"],
    ),
    (
        "comparison.py",
        "return lambda Y, T: q * Y <= r * T",
        "return lambda Y, T: q * Y < r * T",
        "the int-row linear bound admits a defect equal to t - gamma(t)",
        ["tests/test_comparison.py"],
    ),
    (
        "comparison.py",
        "return lambda Y, T: Y * (den + T) <= T * T",
        "return lambda Y, T: Y * (den + T) < T * T",
        "the int-row rational_shrink bound admits a defect equal to t - gamma(t)",
        ["tests/test_comparison.py"],
    ),
    (
        "contraction.py",
        "js = [j for j in js if defects[j] == defects[j]]",
        "js = list(js)",
        "a NaN defect is dropped before the sort by defect, which it would break",
        ["tests/test_solver.py"],
    ),
    (
        "contraction.py",
        "if within(Y, T) and (not both or within(Y, rows[j][i])):",
        "if within(Y, T):",
        "SYMMETRIC tests d(y, x) too on stored rows",
        ["tests/test_contraction.py"],
    ),
    (
        "contraction.py",
        "if within(Y, T) and (not both or within(Y, d(y, x))):",
        "if within(Y, T):",
        "SYMMETRIC tests d(y, x) too through the oracle",
        ["tests/test_contraction.py"],
    ),
    (
        "contraction.py",
        "v = self.defects[i] = f if f != f else b if b != b else max(f, b)",
        "v = self.defects[i] = max(f, b)",
        "the SYMMETRIC defect keeps a NaN side, whichever side it is",
        ["tests/test_contraction.py"],
    ),
    (
        "contraction.py",
        "js = sorted(js, key=defects.__getitem__)",
        "js = sorted(js, key=defects.__getitem__, reverse=True)",
        "candidates by defect come smallest first",
        ["tests/test_contraction.py", "tests/test_solver.py"],
    ),
    (
        "solver.py",
        "(s for s in range(last + 1) if worst[s] < eps)",
        "(s for s in range(last + 1) if worst[s] <= eps)",
        "a tail is eps-Cauchy only when its distances are below eps, strictly",
        ["tests/test_solver.py"],
    ),
    (
        "solver.py",
        "if w is None or v > w:",
        "if w is None or v < w:",
        "the Cauchy table reads the largest distance of each tail",
        ["tests/test_solver.py"],
    ),
    (
        "solver.py",
        "    for i in range(1, len(defects)):",
        "    for i in range(2, len(defects)):",
        "the initial defect bounds the first step's defect too",
        ["tests/test_solver.py"],
    ),
    (
        "documents.py",
        "raise DocumentError(exc.field, exc.message) from exc",
        "raise",
        "a bad matrix entry is a DocumentError, which the CLI turns into exit 2",
        ["tests/test_documents.py", "tests/test_cli.py"],
    ),
]


def _pytest(cwd: Path, files: list[str]) -> bool:
    """Whether ``files`` pass under pytest in the copy at ``cwd``."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += ["--hypothesis-profile=mutants", *files]
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
