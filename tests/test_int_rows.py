"""Differential tests of the stored rows of finite spaces.

Every ``from_matrix`` EXACT space (int rows) is compared with the same
distances behind an oracle (``from_oracle``) and with the ``Fraction``-row
fallback (the denominator bound forced to 0); every FLOAT one (float rows,
values around the default 1e-9 tolerance) with the same floats behind an
oracle.  All must give equal results from the verifier, the enumerators,
the solver, the admissibility scan and the axiom checker, for certified
and user gammas, on the space, its conjugate and its symmetrization.
"""

import random
from fractions import Fraction

import pytest

import qpmetric.space
from qpmetric import (
    ContractionMode,
    SampledComparisonWarning,
    Selection,
    SetValuedMap,
    SolveMode,
    SolverConfig,
    admissible_candidates,
    check_axioms,
    conjugate,
    enumerate_endpoints,
    enumerate_fixed_points,
    enumerate_startpoints,
    from_matrix,
    from_oracle,
    linear,
    minplus_closure,
    rational_shrink,
    solve,
    symmetrize,
    user_function,
    user_table,
    verify_weak_contraction,
)

F = Fraction

GAMMAS = {
    "linear": linear(F(1, 2)),
    "linear-2/3": linear(F(2, 3)),
    "rational_shrink": rational_shrink(),
    "user_table": user_table([(F(1, 2), F(1, 8)), (F(1), F(1, 2)), (F(3), F(1))]),
    "user_function": user_function(lambda t: t / 3),
}
TRANSFORMS = {"plain": lambda s: s, "conjugate": conjugate, "symmetrize": symmetrize}
#: Few distinct values, so ties between candidates and defects are common.
VALUES = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(7, 3)]
#: FLOAT values within and just beyond the default tolerance of each other.
FLOAT_VALUES = [0.0, 5e-10, 1e-9, 1.5e-9, 1 / 3, 0.5, 0.5 + 1e-9, 1.0, 1.0 + 2e-9, 2.0]
#: (seed, exact) inputs of the differential test.
CASES = [pytest.param(seed, True, id=str(seed)) for seed in range(24)] + [
    pytest.param(seed, False, id=f"float-{seed}") for seed in range(24)
]


def _encode(v: Fraction, rng: random.Random):
    """One entry in a form chosen at random: direct-route strings, ints and
    Fractions, and forms only the value rule reads."""
    form = rng.randrange(6)
    if form == 0:
        k = rng.randint(1, 3)  # not reduced, sometimes zero-padded
        return f"{v.numerator * k:03d}/{v.denominator * k}"
    if form == 1 and v.denominator == 1:
        return v.numerator
    if form == 2 and v.denominator in (1, 2):
        return str(float(v))  # a decimal string, read by the value rule
    if form == 3 and v.denominator in (1, 2):
        return float(v)  # a decimal float, read by the value rule
    return v if form == 4 else str(v)


def _system(seed: int, exact: bool):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    points = tuple(f"p{i}" for i in range(n))
    pool = VALUES if exact else FLOAT_VALUES
    values = [
        [pool[0] if i == j and rng.random() < 0.9 else rng.choice(pool) for j in range(n)]
        for i in range(n)
    ]
    if rng.random() < 0.5:
        values = minplus_closure(values)  # a genuine quasi-pseudometric
    if exact:
        raw = [[_encode(v, rng) for v in row] for row in values]
    else:
        raw = [[repr(v) if rng.random() < 0.3 else v for v in row] for row in values]
    images = {x: rng.sample(points, rng.randint(1, n)) for x in points}
    return points, values, raw, SetValuedMap(images)


def _spaces(points, values, raw, exact, monkeypatch):
    rows = from_matrix(points, raw, exact=exact, t0=True)
    order = {p: i for i, p in enumerate(points)}
    oracle = from_oracle(
        lambda x, y: values[order[x]][order[y]], points=points, exact=exact, t0=True
    )
    if not exact:
        return {"rows": rows, "oracle": oracle}
    with monkeypatch.context() as m:
        m.setattr(qpmetric.space, "_MAX_DENOMINATOR_BITS", 0)
        fallback = from_matrix(points, raw, t0=True)
    assert rows.den is not None and fallback.den is None
    return {"rows": rows, "oracle": oracle, "fallback": fallback}


def _exact(values) -> bool:
    return all(type(v) in (Fraction, int) for v in values)


def _results(space, F_map):
    """Everything the public scans report on ``space``, as one value."""
    points = space.universe()
    tolerance = 0 if space.exact else space.tolerance
    out = {
        "axioms": check_axioms(space, check_t0=True),
        "enumerate": [
            fn(space, F_map)
            for fn in (enumerate_startpoints, enumerate_endpoints, enumerate_fixed_points)
        ],
    }
    for name, gamma in GAMMAS.items():
        out[name, "verify"] = [verify_weak_contraction(space, F_map, gamma, m) for m in ContractionMode]
        out[name, "admissible"] = [
            admissible_candidates(space, F_map, gamma, x, m) for x in points for m in ContractionMode
        ]
        traces = [
            solve(
                space,
                F_map,
                gamma,
                x,
                SolverConfig(mode=m, selection=s, max_iterations=12, tolerance=tolerance),
            )
            for x in points
            for m in SolveMode
            for s in Selection
        ]
        for trace in traces if space.exact else ():
            assert _exact([trace.initial_defect, trace.outcome.defect])
            assert all(_exact([s.d, s.gamma_d, s.defect]) for s in trace.steps)
        out[name, "solve"] = traces
    return out


@pytest.mark.filterwarnings("ignore", category=SampledComparisonWarning)
@pytest.mark.parametrize("seed, exact", CASES)
def test_int_rows_match_the_oracle_and_the_fraction_fallback(seed, exact, monkeypatch):
    points, values, raw, F_map = _system(seed, exact)
    spaces = _spaces(points, values, raw, exact, monkeypatch)
    for name, transform in TRANSFORMS.items():
        got = {kind: transform(space) for kind, space in spaces.items()}
        assert got["rows"].den == spaces["rows"].den, name
        results = {kind: _results(space, F_map) for kind, space in got.items()}
        assert results["rows"] == results["oracle"], name
        if exact:
            assert results["rows"] == results["fallback"], name


def test_conjugate_and_symmetrize_rebuild_the_rows():
    space = from_matrix(("a", "b", "c"), [["0", "1/2", "3"], ["2", "0", "1/3"], ["0", "5", "0"]])
    rows = space.rows
    assert conjugate(space).rows == tuple(zip(*rows))
    assert conjugate(conjugate(space)).rows == rows
    assert symmetrize(space).rows == tuple(
        tuple(max(a, b) for a, b in zip(r, c)) for r, c in zip(rows, zip(*rows))
    )
    for x in space.universe():
        for y in space.universe():
            assert conjugate(space).d(x, y) == space.d(y, x)
            assert symmetrize(space).d(x, y) == max(space.d(x, y), space.d(y, x))


def test_conjugate_and_symmetrize_leave_their_source_and_its_memo_alone():
    # d(a, b) = 0 and d(b, a) = 1: a is a startpoint of F on the space but
    # not on its conjugate or its symmetrization.  Each space scans F with
    # its own memo, whichever is scanned first.
    space = from_matrix(("a", "b"), [[0, 0], [1, 0]])
    rows = space.rows
    Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
    assert enumerate_startpoints(space, Fm) == ["a", "b"]
    assert enumerate_startpoints(conjugate(space), Fm) == ["b"]
    assert enumerate_startpoints(symmetrize(space), Fm) == ["b"]
    assert enumerate_startpoints(space, Fm) == ["a", "b"]
    assert space.rows == rows


def test_denominator_bound_falls_back_to_fraction_rows():
    # Distinct prime denominators from 1009 up: D has well over 1,024 bits.
    primes, p = [], 1008
    while len(primes) < 132:
        p += 1
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            primes.append(p)
    it = iter(primes)
    n = 12
    values = [[F(0) if i == j else 1 + F(1, next(it)) for j in range(n)] for i in range(n)]
    space = from_matrix(range(n), values, t0=True)
    assert space.den is None
    assert all(type(v) is Fraction for row in space.rows for v in row)
    assert space.rows == tuple(map(tuple, values))
    oracle = from_oracle(lambda x, y: values[x][y], points=range(n), t0=True)
    assert check_axioms(space) == check_axioms(oracle)
    assert check_axioms(oracle, points=range(n)).checks == check_axioms(space).checks

    closed = minplus_closure(values)
    want = [row[:] for row in values]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                want[i][j] = min(want[i][j], want[i][k] + want[k][j])
    assert closed == want
    assert all(type(v) is Fraction for row in closed for v in row)
