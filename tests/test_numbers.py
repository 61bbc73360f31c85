"""One number rule: every number the library takes passes the predicate
and the field-naming reader of :mod:`qpmetric.space`.

The refusal table holds one row per (entry point, bad value).  Each row
must raise a ValueError (a FieldError or a DocumentError among them) that
names its parameter: none may be accepted, and none may be a bare
TypeError.  Beside it stand the inputs that must not move."""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from qpmetric import (
    INFINITY,
    GeneratorSeed,
    QSpace,
    SolverConfig,
    ball_contains,
    distance_matrix,
    from_matrix,
    from_oracle,
    hausdorff,
    linear,
    minplus_closure,
    parse_system,
    random_t0_qspace,
    user_table,
    verify_gamma1,
)
from qpmetric.cli import main

DOC = {
    "points": ["a", "b"],
    "d": [["0", "1"], ["1", "0"]],
    "F": {"a": ["b"], "b": ["b"]},
    "gamma": {"kind": "linear", "c": "1/2"},
}


def _doc(**fields):
    return parse_system({**DOC, **fields})


def _space(**kwargs):
    return from_matrix(("a", "b"), [[0, 1], [1, 0]], **kwargs)


#: Each entry point: its call on the bad value, and the pattern its
#: message must match, which names the parameter.  Where a range test
#: refuses -1, the message is that test's.
API = {
    "matrix-exact": (lambda b: from_matrix("ab", [[0, b], [1, 0]]), r"d\[0\]\[1\]: "),
    "matrix-float": (lambda b: from_matrix("ab", [[0, b], [1, 0]], exact=False), r"d\[0\]\[1\]: "),
    "document-gamma.c": (
        lambda b: _doc(gamma={"kind": "linear", "c": b}),
        r"gamma\.c: |gamma: linear factor must satisfy 0 < c < 1, got -1$",
    ),
    "document-gamma.table": (
        lambda b: _doc(gamma={"kind": "user", "table": [[b, "1/2"]]}),
        r"gamma\.table\[0\]\[0\]: |gamma: table knot \(-1, 1/2\) must have t >= 0",
    ),
    "document-tolerance": (
        lambda b: _doc(arithmetic="float", tolerance=b),
        r"tolerance: expected a nonnegative number$",
    ),
    "QSpace-tolerance": (
        lambda b: QSpace(lambda x, y: 0, points=("a",), tolerance=b),
        r"tolerance: must be a nonnegative finite number$",
    ),
    "from_matrix-tolerance": (
        lambda b: _space(exact=False, tolerance=b),
        r"tolerance: must be a nonnegative finite number$",
    ),
    "SolverConfig.tolerance": (
        lambda b: SolverConfig(tolerance=b),
        r"tolerance must be a nonnegative number, got ",
    ),
    "user_table-t": (lambda b: user_table([(b, F(1, 2))]), r"table knot \("),
    "user_table-gamma": (lambda b: user_table([(1, b)]), r"table knot \("),
    "verify_gamma1-grid": (
        lambda b: verify_gamma1(linear(F(1, 2)), [b]),
        r"grid points must be positive and finite$",
    ),
    "ball_contains-radius": (
        lambda b: ball_contains(_space(), "a", b, "b"),
        r"radius must be positive$",
    ),
    "linear": (lambda b: linear(b), r"c: |linear factor must satisfy 0 < c < 1, got -1$"),
    "weight_range": (
        lambda b: random_t0_qspace(GeneratorSeed(1, 4, (F(0), b))),
        r"weight_range: ",
    ),
}
#: The entry points that read no string, so that "1" is no number there.
NO_STRINGS = {
    "document-tolerance",
    "QSpace-tolerance",
    "from_matrix-tolerance",
    "SolverConfig.tolerance",
    "user_table-t",
    "user_table-gamma",
    "verify_gamma1-grid",
    "ball_contains-radius",
    "weight_range",
}
BAD = [True, Decimal("0.5"), Decimal("Infinity"), math.nan, -1]
#: Bad values of one entry point alone.  The generators draw on a grid of
#: exact rationals, so a float or a Decimal bound is refused too; a
#: document's tolerance becomes a float, which a 401-digit int overflows.
MORE_BAD = {"weight_range": [8.5, math.inf, Decimal(8)], "document-tolerance": [10**400]}
API_ROWS = [
    (entry, bad)
    for entry in API
    for bad in BAD + ["1"] * (entry in NO_STRINGS) + MORE_BAD.get(entry, [])
]

#: The CLI reads its tolerances from strings, so each bad value comes as
#: its str(); "0.5", the str() of Decimal("0.5"), is a good tolerance.
CLI = {
    "--tol": lambda path, bad: (["solve", path, "--from", "a", "--tol", bad], None),
    "QPM_TOLERANCE": lambda path, bad: (["enumerate", path, "--float"], bad),
}
CLI_ROWS = [(flag, str(bad)) for flag in CLI for bad in BAD if bad != Decimal("0.5")]


@pytest.mark.parametrize("entry, bad", API_ROWS, ids=[f"{e}-{b!r}"[:40] for e, b in API_ROWS])
def test_every_number_the_library_takes_passes_one_rule(entry, bad):
    call, names = API[entry]
    with pytest.raises(ValueError) as got:
        call(bad)
    assert re.match(names, str(got.value)), str(got.value)


@pytest.mark.parametrize("flag, bad", CLI_ROWS, ids=[f"{f}-{b}" for f, b in CLI_ROWS])
def test_every_tolerance_the_cli_reads_passes_one_rule(flag, bad, tmp_path, capsys, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOC))
    argv, env = CLI[flag](str(path), bad)
    monkeypatch.delenv("QPM_TOLERANCE", raising=False)
    if env is not None:
        monkeypatch.setenv("QPM_TOLERANCE", env)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"error: {flag}: "), err


def test_the_inputs_that_must_not_move():
    # A float is read as its decimal literal.
    assert linear(0.1).c == F(1, 10)
    # Fraction tolerances are kept as they are.
    config = SolverConfig(tolerance=F(1, 10))
    assert type(config.tolerance) is F and config.tolerance == F(1, 10)
    space = QSpace(lambda x, y: 0, points=("a",), tolerance=F(1, 10))
    assert type(space.tolerance) is F
    assert _space(exact=False, tolerance=0).tolerance == 0
    # INFINITY is a distance an oracle may give, a radius and a knot.
    far = from_oracle(lambda x, y: INFINITY if x != y else 0, points=("a", "b"))
    assert distance_matrix(far) == [[0, INFINITY], [INFINITY, 0]]
    assert hausdorff(far, ["a"], ["b"]) == INFINITY
    assert ball_contains(_space(), "a", INFINITY, "b")
    assert user_table([(1, F(1, 2)), (INFINITY, 1)])(INFINITY) == 1
    assert SolverConfig(tolerance=INFINITY).tolerance == INFINITY


def test_the_closure_takes_any_real_weight():
    # minplus_closure keeps its own contract: negatives and NaN close.
    assert minplus_closure([[0, -1], [2, 0]]) == [[0, -1], [2, 0]]
    closed = minplus_closure([[0, math.nan], [1, 0]])
    assert math.isnan(closed[0][1]) and closed[1][0] == 1
