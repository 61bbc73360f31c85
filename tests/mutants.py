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
        "return min(bounds, key=lambda b: (b == b, b))",
        "return min(bounds)",
        "builtin min drops a NaN bound that is not first: an infinite side must admit nothing",
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
        "axioms.py",
        "p = p ^ odd | odd >> shift",
        "p = p ^ odd | odd << shift",
        "a compress round moves the odd groups down, not up",
        ["tests/test_space.py"],
    ),
    (
        "axioms.py",
        "mask = _lanes(pairs, 2 * wide)[0] * ((1 << narrow) - 1) << wide",
        "mask = _lanes(pairs, 2 * wide)[0] * ((1 << narrow) - 1)",
        "a round's mask selects the odd groups, not the even ones",
        ["tests/test_space.py"],
    ),
    (
        "axioms.py",
        'p = int.from_bytes(lanes.pack(*row), "little")',
        'p = int.from_bytes(lanes.pack(*row), "big")',
        "the bytes are read in the byte order they were written in",
        ["tests/test_space.py"],
    ),
    (
        "axioms.py",
        "expand = [(mask >> shift, shift) for mask, shift in reversed(rounds)]",
        "expand = [(mask, shift) for mask, shift in reversed(rounds)]",
        "unpacking finds each odd group where its compress round left it",
        ["tests/test_space.py"],
    ),
    (
        "axioms.py",
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
        "axioms.py",
        "    if min(map(min, rows)) < 0:\n        return matrix, None, None\n",
        "",
        "negative entries take the per-triple loops, not the packed lanes",
        ["tests/test_space.py", "tests/test_corpus.py"],
    ),
    (
        "axioms.py",
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
        "if within(Y, T) and (not both or within(Y, rows[j][i])):",
        "if within(Y, T):",
        "SYMMETRIC tests d(y, x) too on stored rows",
        ["tests/test_contraction.py"],
    ),
    (
        "contraction.py",
        "not both or within(Y, _distances(space, x, (y,), False, True)[0])",
        "True",
        "SYMMETRIC tests d(y, x) too through the oracle",
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
        "any(map(ge, map(mul, num, repeat(eps.denominator)), den))",
        "any(map(int.__gt__, map(mul, num, repeat(eps.denominator)), den))",
        "a row of ints and Fractions at exactly eps is not eps-Cauchy: eps is strict",
        ["tests/test_solver.py"],
    ),
    (
        "solver.py",
        "n0[e] = min(r + 1, last)",
        "n0[e] = r + 1",
        "a last row that reaches eps leaves no start: n0 is the last index",
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
        "space.py",
        '= attrgetter("_numerator"), attrgetter("_denominator")',
        '= attrgetter("_denominator"), attrgetter("_numerator")',
        "the slot reader reads each Fraction's numerator, then its denominator",
        ["tests/test_space.py"],
    ),
    (
        "contraction.py",
        "if defects[j] is _MISSING:",
        "if defects[j] is not _MISSING:",
        "the scan fills every empty defect slot of a candidate before it tests one",
        ["tests/test_contraction.py"],
    ),
    (
        "space.py",
        "            if len(order) != len(points):\n"
        '                raise ValueError("universe contains duplicate points")\n',
        "",
        "a universe that repeats a point is refused by the constructor itself",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "points = tuple(self.points)",
        "points = self.points",
        "the constructor stores any iterable universe as a tuple",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "return _with_rows(copy(space), zip(*space.rows), space.den)",
        "return _with_rows(space, zip(*space.rows), space.den)",
        "conjugate attaches the transposed rows to a copy and leaves its source alone",
        ["tests/test_int_rows.py"],
    ),
    (
        "space.py",
        '("resolved", WeakKeyDictionary())',
        '("resolved", WeakKeyDictionary() if space.resolved is None else space.resolved)',
        "a space with new rows scans every map afresh, not through its source's memo",
        ["tests/test_int_rows.py"],
    ),
    (
        "axioms.py",
        "d = [list(row) for row in d]",
        "d = list(d)",
        "the per-triple closure relaxes a copy and leaves its input as it was",
        ["tests/test_corpus.py"],
    ),
    (
        "space.py",
        "elif _RATIONAL.issuperset(kinds := set(map(type, row))):",
        "elif False:",
        "rows of ints and Fractions are read whole, not through the value rule",
        ["tests/test_documents.py"],
    ),
    (
        "space.py",
        "den, scale = met, {}",
        "den = met",
        "factors scaled to a smaller D are dropped when D grows",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "if min(num) >= 0:",
        "if True:",
        "a negative Fraction is refused, naming its entry",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "return list(map(_NUMERATOR, row)), list(map(_DENOMINATOR, row))",
        "return map(_NUMERATOR, row), list(map(_DENOMINATOR, row))",
        "the numerators are a sequence: the sign test reads them before the scaler",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "[_entry(raw, exact, i, j) for j, raw in enumerate(row)] for i, row in enumerate(matrix)",
        "[_entry(raw, True, i, j) for j, raw in enumerate(row)] for i, row in enumerate(matrix)",
        "the per-entry loop that rows past the bound share reads a FLOAT matrix as floats",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "dens = list(map(tails.get, keys, keys))",
        "dens = list(map(tails.get, keys, repeat(1)))",
        "an int denominator stands for itself in the scaler",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        '    if 0 in fresh.values():\n        return None  # "p/0"\n',
        "",
        'a digit string "p/0" is left to the value rule, which names it',
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        '    flipped = copy(space)\n    object.__setattr__(flipped, "d", d)\n    return flipped\n',
        '    return __import__("dataclasses").replace(space, d=d)\n',
        "conjugate of an oracle space keeps its source's checked universe: no point is hashed",
        ["tests/test_solver.py"],
    ),
    (
        "documents.py",
        "members = tuple(map(ids.__getitem__, image))",
        "members = tuple(image)",
        "a parsed image holds the universe's own point ids, not the strings json made",
        ["tests/test_documents.py"],
    ),
    (
        "documents.py",
        'sep = "," + inner',
        "sep = inner",
        "the streamed writer parts two matrix rows, and two images, by a comma",
        ["tests/test_documents.py"],
    ),
    (
        "documents.py",
        "raise DocumentError(exc.field, exc.message) from exc",
        "raise",
        "a bad matrix entry is a DocumentError, which the CLI turns into exit 2",
        ["tests/test_documents.py", "tests/test_cli.py"],
    ),
    (
        "space.py",
        'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")',
        "return None",
        "qpmetric.space resolves its four axiom names only: any other name is an AttributeError",
        ["tests/test_imports.py"],
    ),
    (
        "space.py",
        "if min(numerators) >= 0:",
        "if True:",
        "the reader's sign test: a negative int or Fraction from an oracle is refused",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "and type(v) is not bool and v >= 0",
        "and v >= 0",
        "the reader's value test refuses a bool, which compares as 0 or 1",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "from numbers import Real\n",
        "from numbers import Number as Real\n",
        "the reader's value test refuses a Decimal: a number, but no real one",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "    if read <= _RATIONAL:\n",
        "    if read <= _RATIONAL | {bool}:\n",
        "the reader's type test: a bool is no int, so a row of bools is not read by numerators",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "    if space.rows is not None:\n        return values  # Checked when read.",
        "    if False:\n        return values  # Checked when read.",
        "the reader takes stored rows as they are: their values were checked when read",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "return max(_distances(space, x, (y,), True, True))",
        "return max(space.d(x, y), space.d(y, x))",
        "symmetrize reads both sides through the reader: a max would hide a NaN side",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "_check_point(order, x, y)  # Not the space: d would hold it in a cycle.",
        "_check_point(space.order, x, y)",
        "a stored-rows d holds the order, not its space: no cycle keeps a dropped space alive",
        ["tests/test_space.py"],
    ),
    (
        "contraction.py",
        "    _check_point(space.order, x)\n"
        "    return _value(space, _Scan(space, F, mode).defect(x))",
        "    return max(_distances(space, x, F(x), *_meaning(mode)[:2]))",
        "the defects run the scan: an oracle space refuses a stray image point before any read",
        ["tests/test_space.py"],
    ),
    (
        "space.py",
        "    _check_point(space.order, *A, *B)\n",
        "",
        "hausdorff refuses a point outside a finite universe before its oracle reads it",
        ["tests/test_space.py"],
    ),
    (
        "solver.py",
        "            if e < 0:\n"
        "                break  # Every eps is reached: no lower row changes n0.\n",
        "",
        "the Cauchy table reads no row below the one that reaches every eps",
        ["tests/test_solver.py"],
    ),
    (
        "__init__.py",
        "    if name in _SUBMODULES:\n        return import_module(f\"{__name__}.{name}\")\n",
        "",
        "qpmetric.<module> imports the submodule on first use",
        ["tests/test_imports.py"],
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
