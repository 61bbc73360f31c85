import json
import math
import random
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import qpmetric.documents as documents_module
import qpmetric.space as space_module
from qpmetric import (
    INFINITY,
    ContractionMode,
    DocumentError,
    GeneratorSeed,
    QSpace,
    SetValuedMap,
    SolverConfig,
    dump_system,
    dump_trace,
    dyadic_halving_truncated,
    from_matrix,
    from_oracle,
    linear,
    load_system,
    minplus_closure,
    parse_system,
    random_weakly_contractive_system,
    rational_shrink,
    solve,
    system_document,
    trace_document,
    user_function,
    user_table,
)
from qpmetric.documents import encode_value
from qpmetric.space import _read_value

F = Fraction


def _doc(**overrides):
    base = {
        "points": ["a", "b"],
        "d": [["0", "1"], ["0", "0"]],
        "t0": True,
    }
    base.update(overrides)
    return base


class TestParsing:
    def test_minimal_document(self):
        system = parse_system(_doc())
        assert system.space.universe() == ("a", "b")
        assert system.space.d("a", "b") == 1
        assert system.space.exact and system.space.t0
        assert system.map is None and system.gamma is None

    def test_numbers_and_strings_both_parse(self):
        system = parse_system(_doc(d=[[0, "1/2"], [0.25, "0"]]))
        assert system.space.d("a", "b") == F(1, 2)
        assert system.space.d("b", "a") == F(1, 4)

    def test_float_mode(self):
        system = parse_system(_doc(arithmetic="float", d=[[0, 0.5], [0.25, 0]]))
        assert not system.space.exact
        assert system.space.d("a", "b") == 0.5

    def test_force_float_override(self):
        system = parse_system(_doc(), force_float=True)
        assert not system.space.exact
        assert system.space.d("a", "b") == 1.0

    def test_gamma_kinds(self):
        assert parse_system(_doc(gamma={"kind": "linear", "c": "1/2"})).gamma(2) == 1
        assert parse_system(_doc(gamma={"kind": "rational_shrink"})).gamma(1) == F(1, 2)
        g = parse_system(_doc(gamma={"kind": "user", "table": [["1", "1/2"]]})).gamma
        assert g(1) == F(1, 2) and not g.certified

    def test_map_images(self):
        system = parse_system(_doc(F={"a": ["b"], "b": ["a", "b"]}))
        assert system.map("b") == ("a", "b")

    @pytest.mark.parametrize(
        "mutation, field",
        [
            ({"points": []}, "points"),
            ({"points": ["a", "a"]}, "points"),
            ({"points": ["a", 2]}, "points"),
            ({"d": [["0", "1"]]}, "d"),
            ({"d": [["0", "1"], ["0"]]}, "d[1]"),
            ({"d": [["0", "x"], ["0", "0"]]}, "d[0][1]"),
            ({"d": [["0", "-1"], ["0", "0"]]}, "d[0][1]"),
            ({"t0": "yes"}, "t0"),
            ({"arithmetic": "decimal"}, "arithmetic"),
            ({"tolerance": -1}, "tolerance"),
            ({"F": {"z": ["a"]}}, "F.z"),
            ({"F": {"a": [], "b": ["a"]}}, "F.a"),
            ({"F": {"a": ["a", "a"], "b": ["a"]}}, "F.a"),
            ({"F": {"a": ["z"], "b": ["a"]}}, "F.a"),
            ({"F": {"a": ["b"]}}, "F.b"),
            ({"gamma": {"c": "1/2"}}, "gamma"),
            ({"gamma": {"kind": "cubic"}}, "gamma.kind"),
            ({"gamma": {"kind": "linear"}}, "gamma.c"),
            ({"gamma": {"kind": "linear", "c": "2"}}, "gamma"),
            ({"gamma": {"kind": "user", "table": []}}, "gamma.table"),
            ({"d": [["0", True], ["0", "0"]]}, "d[0][1]"),
            ({"arithmetic": "float", "d": [[0, 0], [float("nan"), 0]]}, "d[1][0]"),
            ({"arithmetic": "float", "d": [[0, float("inf")], [0, 0]]}, "d[0][1]"),
            ({"arithmetic": "float", "d": [[0, "1e400"], [0, 0]]}, "d[0][1]"),
            ({"arithmetic": "float", "d": [[0, 10**400], [0, 0]]}, "d[0][1]"),
            ({"tolerance": True}, "tolerance"),
            ({"tolerance": float("nan")}, "tolerance"),
            (["not", "an", "object"], "document"),
            ({"F": ["a"]}, "F"),
            ({"gamma": {"kind": "user", "table": [["1"]]}}, "gamma.table[0]"),
            ({"F": {"a": ["a", 1, 1], "b": ["a"]}}, "F.a"),
            ({"F": {"a": ["a", "a", "zz"], "b": ["a"]}}, "F.a"),
            ({"F": {"a": [["b"]], "b": ["a"]}}, "F.a"),
            ({"F": {"a": [True], "b": ["a"]}}, "F.a"),
            ({"meta": "ab"}, "meta"),
            ({"meta": [1, 2]}, "meta"),
            ({"meta": 7}, "meta"),
            ({"meta": [["k", 1]]}, "meta"),
            ({"meta": None}, "meta"),
        ],
    )
    def test_malformed_fields_are_named(self, mutation, field):
        # A mutation that is not a dict is the whole document.
        doc = _doc(**mutation) if isinstance(mutation, dict) else mutation
        with pytest.raises(DocumentError) as err:
            parse_system(doc)
        assert err.value.field == field

    def test_nonzero_diagonal_is_not_malformed(self):
        # Semantically wrong but well-formed; the axiom checker owns it.
        system = parse_system(_doc(d=[["1", "1"], ["0", "0"]]))
        assert system.space.d("a", "a") == 1


class TestRoundTrip:
    def test_every_gamma_kind_round_trips(self):
        space = parse_system(_doc()).space
        table = user_table([(F(1, 8), F(1, 16)), (8, 4)])
        for gamma in (linear(F(1, 3)), rational_shrink(), table):
            assert parse_system(system_document(space, None, gamma)).gamma == gamma
        with pytest.raises(ValueError, match="do not serialize"):
            system_document(space, None, user_function(lambda t: t / 2))

    def test_generated_system_roundtrips_identically(self, tmp_path):
        gamma = linear(F(1, 2))
        g = GeneratorSeed(seed=2024, size=8)
        space, Fm = random_weakly_contractive_system(g, gamma)
        doc = system_document(space, Fm, gamma, meta={"seed": g.seed, "size": g.size})
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        system = load_system(path)
        assert system_document(system.space, system.map, system.gamma, system.meta) == doc

    def test_int_row_dump_is_encode_value_of_each_distance(self, tmp_path):
        space = from_matrix(
            ("a", "b", "c", "d"),
            [
                ["0", "2/4", 3, F(7, 3)],
                ["007/3", "0", "1/6", "0/5"],
                [F(5, 10), "12/4", 0, "10/100"],
                ["1.5", 2.5, "9/6", "0"],
            ],
        )
        assert space.den is not None
        path = tmp_path / "dumped.json"
        dump_system(path, space)
        points = space.universe()
        want = {
            "points": list(points),
            "d": [[encode_value(space.d(x, y), True) for y in points] for x in points],
            "t0": False,
            "arithmetic": "exact",
        }
        assert path.read_bytes() == (json.dumps(want, indent=2) + "\n").encode()

    def test_truncated_dyadic_roundtrip_distances(self, tmp_path):
        space, Fm, gamma = dyadic_halving_truncated(5)
        path = tmp_path / "dyadic.json"
        dump_system(path, space, Fm, gamma)
        system = load_system(path)
        ids = system.space.universe()
        assert ids == tuple(str(p) for p in space.universe())
        for i, x in enumerate(space.universe()):
            for j, y in enumerate(space.universe()):
                assert system.space.d(ids[i], ids[j]) == space.d(x, y)
        assert system.gamma(2) == gamma(2)

    def test_gamma_table_roundtrip(self):
        gamma = user_table([(F(1, 2), F(1, 4)), (2, 1)])
        doc = _doc(gamma={"kind": "user", "table": [["1/2", "1/4"], ["2", "1"]]})
        assert parse_system(doc).gamma.table == gamma.table

    def test_float_document_roundtrip(self, tmp_path):
        space = parse_system(_doc(arithmetic="float", d=[[0, 0.5], [0.25, 0]])).space
        path = tmp_path / "float.json"
        dump_system(path, space)
        again = load_system(path)
        assert not again.space.exact
        assert again.space.d("a", "b") == 0.5
        assert again.space.tolerance == space.tolerance


class TestTraceDocuments:
    def test_exact_trace_uses_rational_strings(self):
        space, Fm, gamma = dyadic_halving_truncated(4)
        trace = solve(space, Fm, gamma, F(1))
        doc = trace_document(trace)
        assert doc["mode"] == "startpoint"
        assert doc["start"] == "1"
        assert doc["initial_defect"] == "2"
        assert doc["steps"] == [
            {"n": 1, "x": "1", "y": "0", "d": "2", "gamma_d": "1", "defect": "0"}
        ]
        assert doc["outcome"] == {
            "status": "converged",
            "point": "0",
            "defect": "0",
            "steps": 1,
            "cycle": False,
        }

    @pytest.mark.parametrize(
        "mode, name",
        [
            (ContractionMode.STARTPOINT, "startpoint"),
            (ContractionMode.ENDPOINT, "endpoint"),
            (ContractionMode.FIXEDPOINT, "fixedpoint"),
        ],
    )
    def test_trace_mode_is_the_point_name(self, mode, name):
        space, Fm, gamma = dyadic_halving_truncated(4)
        trace = solve(space, Fm, gamma, F(1), SolverConfig(mode=mode))
        assert trace_document(trace)["mode"] == name

    def test_violated_trace_document(self, swap_system):
        space, Fm, gamma = swap_system
        doc = trace_document(solve(space, Fm, gamma, "a"))
        assert doc["outcome"]["status"] == "contraction_violated"
        assert doc["outcome"]["point"] == "a"

    def test_infinite_defect_serializes_as_inf(self):
        # User oracles may return INFINITY; EXACT traces write it as "inf".
        far = {("a", "b"): INFINITY}
        space = from_oracle(lambda x, y: far.get((x, y), F(0)), points=("a", "b"))
        Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
        doc = trace_document(solve(space, Fm, linear(F(1, 2)), "a"))
        assert doc["initial_defect"] == "inf"
        assert doc["outcome"]["status"] == "contraction_violated"
        assert doc["outcome"]["defect"] == "inf"
        assert json.loads(json.dumps(doc)) == doc

    def test_float_trace_is_strict_json(self, tmp_path):
        # A FLOAT oracle returning math.inf must not leave a bare Infinity.
        far = {("a", "b"): math.inf}
        space = from_oracle(
            lambda x, y: far.get((x, y), 0.0), points=("a", "b"), exact=False
        )
        Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
        path = tmp_path / "trace.json"
        config = SolverConfig(tolerance=space.tolerance)
        dump_trace(path, solve(space, Fm, linear(F(1, 2)), "a", config))

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["initial_defect"] == "inf"
        assert doc["outcome"]["defect"] == "inf"

    def test_documents_never_hold_bare_nan(self, tmp_path):
        space, Fm, gamma = dyadic_halving_truncated(2)
        with pytest.raises(ValueError):
            dump_system(tmp_path / "nan.json", space, Fm, gamma, meta={"w": math.nan})

    @pytest.mark.parametrize("exact", [True, False])
    def test_non_finite_values_encode_as_strings(self, exact):
        assert encode_value(math.inf, exact) == "inf"
        assert encode_value(math.nan, exact) == "nan"
        assert encode_value(F(1, 2), exact) == ("1/2" if exact else 0.5)

    def test_rational_shrink_trace_serializes(self):
        space, Fm, _ = dyadic_halving_truncated(3)
        trace = solve(space, Fm, rational_shrink(), F(1, 2), SolverConfig())
        doc = trace_document(trace)
        for step in doc["steps"]:
            Fraction(step["d"])
            Fraction(step["gamma_d"])


rationals = st.fractions(min_value=F(0), max_value=F(10**9))


@given(v=rationals)
def test_exact_value_roundtrip(v):
    # What a document writes, the one reader reads back exactly.
    assert _read_value(encode_value(v, True), True, "x") == v


def test_the_reader_names_the_field():
    with pytest.raises(space_module.FieldError) as err:
        _read_value("1/0", True, "d[3][4]")
    assert err.value.field == "d[3][4]"
    # A document names the same field, as a DocumentError.
    doc = _doc(points=["p0", "p1", "p2", "p3", "p4"], d=[["0"] * 5 for _ in range(5)])
    doc["d"][3][4] = "1/0"
    with pytest.raises(DocumentError) as err:
        parse_system(doc)
    assert err.value.field == "d[3][4]"


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DocumentError):
        load_system(path)


# One value rule: (entry, accepted in EXACT, accepted in FLOAT).
VALUE_RULE_CASES = [
    (True, False, False),
    (math.nan, False, False),
    (math.inf, False, False),
    (-math.inf, False, False),
    ("1/0", False, False),
    ("x", False, False),
    (-1, False, False),
    (1e400, False, False),
    ("1e400", True, False),
    ("1/2", True, True),
    (3, True, True),
    (F(1, 3), True, True),
    # Strings the direct route of from_matrix reads or hands to the rule.
    ("007/3", True, True),
    ("3/006", True, True),
    ("0/5", True, True),
    ("-0/1", True, True),
    ("1/00", False, False),
    ("+1/2", True, True),
    (" 1/2", True, True),
    # Fraction reads PEP 515 underscores from Python 3.11 on.
    ("1_000/3", sys.version_info >= (3, 11), sys.version_info >= (3, 11)),
    ("\u0661/\u0662", True, True),  # Arabic-Indic digits: int() reads them
    ("\u00b2/3", False, False),  # "²".isdigit() is True, but int() rejects it
    ("1/2/3", False, False),
    ("/2", False, False),
    ("1/", False, False),
]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("entry, ok_exact, ok_float", VALUE_RULE_CASES, ids=repr)
def test_from_matrix_and_documents_share_one_value_rule(entry, ok_exact, ok_float, exact):
    matrix = [[0, 0], [entry, 0]]
    doc = {"points": ["a", "b"], "d": matrix, "arithmetic": "exact" if exact else "float"}
    if ok_exact if exact else ok_float:
        direct = from_matrix(("a", "b"), matrix, exact=exact).d("b", "a")
        parsed = parse_system(doc).space.d("b", "a")
        assert direct == parsed
        assert type(direct) is type(parsed) is (F if exact else float)
        return
    with pytest.raises(ValueError) as direct:
        from_matrix(("a", "b"), matrix, exact=exact)
    with pytest.raises(DocumentError) as parsed:
        parse_system(doc)
    assert parsed.value.field == "d[1][0]"
    assert str(direct.value) == str(parsed.value)
    assert str(direct.value).startswith("d[1][0]: ")


#: Strings past the value rule's size bounds, in both arithmetic modes.
#: Each also ends quickly where the rule has no bound.
OVERSIZED = [
    ("1e4301", "decimal exponent beyond 4300 in magnitude"),
    (" 1.5E-4_301 ", "decimal exponent beyond 4300 in magnitude"),
    ("1" * 4301, "more than 4300 digits"),
    ("1/" + "1" * 4301, "more than 4300 digits"),
    ("0." + "1" * 4301, "more than 4300 digits"),
    ("1e" + "1" * 4301, "more than 4300 digits"),
    # Values of 4,301 or more digits, which str() cannot write back.
    ("1e4300", "more than 4300 digits"),
    ("1e-4300", "more than 4300 digits"),
    ("1.5e+4300", "more than 4300 digits"),
    ("12e4300", "more than 4300 digits"),
]


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", int)() != 4300, reason="needs the default int-string limit"
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("entry, message", OVERSIZED, ids=lambda v: repr(v)[:16])
def test_oversized_strings_are_refused_by_the_value_rule(entry, message, exact):
    matrix = [[0, 0], [entry, 0]]
    doc = {"points": ["a", "b"], "d": matrix, "arithmetic": "exact" if exact else "float"}
    with pytest.raises(ValueError) as direct:
        from_matrix(("a", "b"), matrix, exact=exact)
    with pytest.raises(DocumentError) as parsed:
        parse_system(doc)
    assert str(direct.value) == str(parsed.value) == f"d[1][0]: {message}"


@pytest.mark.parametrize("entry", ["1e4299", "1e-4299", "1.5e+4299", "1" * 4300, "12e0000000000"])
def test_the_value_rule_reads_strings_at_its_bounds(entry):
    space = from_matrix(("a", "b"), [[0, 0], [entry, 0]])
    assert space.d("b", "a") == F(entry)


class TestUnreadableDocuments:
    @pytest.fixture(params=["missing", "directory", "not-utf8"])
    def unreadable(self, request, tmp_path):
        path = tmp_path / "doc.json"
        if request.param == "directory":
            path.mkdir()
        elif request.param == "not-utf8":
            path.write_bytes(b'{"points": ["\xff"]}')
        return path

    def test_load_system_names_document(self, unreadable):
        with pytest.raises(DocumentError) as err:
            load_system(unreadable)
        assert err.value.field == "document"

    def test_cli_exits_two_naming_document(self, unreadable, capsys):
        from qpmetric.cli import main

        assert main(["check", str(unreadable)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: document: ")


def _parity_systems():
    """(name, space, F, gamma, meta) cases for the document writer."""
    half = linear(F(1, 2))
    for size in (2, 40, 240):
        space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=size, size=size), half)
        yield f"generated-{size}", space, Fm, half, {"seed": size, "size": size}
    one = from_matrix(("only",), [[0]])
    yield "one-point", one, SetValuedMap({"only": ["only"]}), half, None
    wide = from_matrix(
        ("a", "b", "c"),
        [[0, F(1, 3**700), 1], [F(2, 5**700), 0, F(7, 2)], [3, F(1, 7**400), 0]],
    )
    assert wide.den is None  # Past the 1,024-bit bound: the rows hold Fractions.
    yield "fraction-rows", wide, SetValuedMap({"a": ["b", "c"], "b": ["b"], "c": ["a"]}), half, None
    floats = from_matrix(
        ("a", "b", "c"),
        [[0, 0.1, 1e-300], [1e300, 0, 2.5], [3, 1 / 3, 0]],
        exact=False,
        tolerance=1e-6,
    )
    table = user_table([(F(1, 8), F(1, 16)), (8, 4)])
    yield "float", floats, SetValuedMap({"a": ["b"], "b": ["c"], "c": ["c"]}), table, None
    yield "float-bare", floats, None, None, None
    yield "no-map", one, None, rational_shrink(), None
    yield "no-gamma", wide, SetValuedMap({"a": ["a"], "b": ["a"], "c": ["a"]}), None, {}
    far = {("a", "b"): INFINITY}
    for exact in (True, False):
        oracle = from_oracle(lambda x, y: far.get((x, y), 0), points=("a", "b"), exact=exact)
        yield f"oracle-inf-{exact}", oracle, None, None, None
    ids = ['q"uote', "back\\slash", "ctrl\x01\x1f\x7f", "tab\tnl\n", "caf\u00e9", "\u2603", "", "/"]
    n = len(ids)
    odd = from_matrix(ids, [[str(F(i * j, 1 + i)) for j in range(n)] for i in range(n)])
    images = SetValuedMap({x: ids[: i + 1] for i, x in enumerate(ids)})
    meta = {
        "nested": {"a": [1, 2.5, {"b": None, "c": [[], {}]}], "empty": {}, "list": []},
        "unicode": "snow \u2603, caf\u00e9, \U0001f600",
        "escaped": 'quote " backslash \\ tab \t nl \n ctrl \x01',
        "flags": [True, False, None],
        "big": 10**30,
        "small": 1e-7,
        3: "an int key",
    }
    yield "odd-ids", odd, images, table, meta


PARITY_SYSTEMS = list(_parity_systems())


@pytest.mark.parametrize(
    "space, Fm, gamma, meta",
    [case[1:] for case in PARITY_SYSTEMS],
    ids=[case[0] for case in PARITY_SYSTEMS],
)
def test_dump_system_writes_the_bytes_of_json_dumps(tmp_path, space, Fm, gamma, meta):
    path = tmp_path / "doc.json"
    dump_system(path, space, Fm, gamma, meta)
    doc = system_document(space, Fm, gamma, meta)
    assert path.read_bytes() == (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()


def test_a_bare_space_refuses_an_empty_universe():
    # A document needs a nonempty list of point ids, so the constructor
    # refuses an empty universe before a writer can see one.
    with pytest.raises(ValueError, match="^universe must be nonempty$"):
        QSpace(lambda x, y: 0, points=())


def _circular():
    meta = {"list": []}
    meta["list"].append(meta)
    return meta


@pytest.mark.parametrize(
    "meta",
    [{"w": math.nan}, {"w": [math.inf]}, _circular(), {"w": object()}, {"w": {1j: 1}}],
    ids=["nan", "inf", "circular", "object", "complex-key"],
)
def test_a_meta_json_dumps_refuses_fails_the_same_way(tmp_path, meta):
    space, Fm, gamma = dyadic_halving_truncated(2)
    doc = system_document(space, Fm, gamma, meta)
    with pytest.raises(Exception) as want:
        json.dumps(doc, indent=2, allow_nan=False)
    path = tmp_path / "doc.json"
    with pytest.raises(Exception) as got:
        dump_system(path, space, Fm, gamma, meta)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert not path.exists()


def test_a_value_that_fails_to_encode_mid_write_leaves_no_file(tmp_path, monkeypatch):
    # The matrix rows are encoded as they are written, after the file is
    # opened: a row that fails to encode makes the writer remove what it
    # wrote.  Every value a space holds encodes, so the encoder is made to
    # fail after one row.
    ratio_rows, opened = documents_module._ratio_rows, []

    def one_row_then_fail(rows, den):
        yield next(ratio_rows(rows, den))
        opened.append(path.exists())
        raise OverflowError("the second row")

    monkeypatch.setattr(documents_module, "_ratio_rows", one_row_then_fail)
    space = from_matrix(("a", "b"), [[0, 1], [F(1, 2), 0]])
    path = tmp_path / "doc.json"
    with pytest.raises(OverflowError, match="the second row"):
        dump_system(path, space, SetValuedMap({"a": ["b"], "b": ["a"]}))
    assert opened == [True]
    assert not path.exists()


def test_an_oracle_value_that_is_no_distance_is_refused_before_the_file_is_opened(tmp_path):
    # A Decimal is no real number: an infinite one used to fail to encode
    # mid-write.
    for bad in ("junk", Decimal("Infinity"), Decimal("0.5")):
        space = from_oracle(lambda x, y: bad if (x, y) == ("b", "a") else 0, points=("a", "b"))
        path = tmp_path / "doc.json"
        message = rf"^d\('b', 'a'\): must be a real number >= 0, got {re.escape(repr(bad))}$"
        with pytest.raises(space_module.FieldError, match=message):
            dump_system(path, space, SetValuedMap({"a": ["b"], "b": ["a"]}))
        assert not path.exists()


def _clean_matrix(n):
    """An n x n matrix of "p" and "p/q" strings of ASCII digits."""
    return [[str(F((7 * i + 13 * j) % 50, 1 + i * j % 8)) for j in range(n)] for i in range(n)]


#: Entries for the string path: every value-rule case, and strings that
#: pass its character check but not its reading, or the reverse.
STRING_ROW_CASES = [entry for entry, _, _ in VALUE_RULE_CASES] + [
    "1//2",
    "2/",
    "",
    "/",
    "+1",
    " 1",
    "1_0",
    "1/0_0",
    "\u0663\u0664/\u0665",
    "1" * 4301,
    "0" * 4301 + "1",
    "1/" + "1" * 4301,
    "12e4300",
    "4300/" + "1" * 4300,
]


@pytest.mark.parametrize("entry", STRING_ROW_CASES, ids=lambda v: repr(v)[:16])
def test_a_wide_string_row_reads_each_entry_as_the_value_rule_does(entry):
    # The entry sits among clean entries in a 200-wide row: the row path
    # must leave it to the value rule, which names it or reads it.
    n = 200
    matrix = _clean_matrix(n)
    matrix[3][117] = entry
    doc = {"points": [f"p{i}" for i in range(n)], "d": matrix}
    try:
        want = space_module._entries(matrix[3], True, 3)[117]
    except space_module.FieldError as exc:
        with pytest.raises(DocumentError) as got:
            parse_system(doc)
        assert (got.value.field, got.value.message) == (exc.field, exc.message)
        return
    space = parse_system(doc).space
    for i in (3, 4):
        row = [space.d(f"p{i}", f"p{j}") for j in range(n)]
        assert row == space_module._entries(matrix[i], True, i)
    assert space.d("p3", "p117") == want


def test_a_clean_document_is_read_a_row_at_a_time(monkeypatch):
    def refuse(*args):
        raise AssertionError("the per-entry loop was reached")

    n = 200
    matrix = _clean_matrix(n)
    monkeypatch.setattr(space_module, "_entries", refuse)
    space = parse_system({"points": [f"p{i}" for i in range(n)], "d": matrix}).space
    assert all(
        space.d(f"p{i}", f"p{j}") == F(matrix[i][j]) for i in (0, 1, 199) for j in range(n)
    )
    # Rows of ints and Fractions too: the closure of weights on the 1/8 grid.
    rng = random.Random(40)
    weights = [[F(0 if i == j else rng.randint(1, 64), 8) for j in range(40)] for i in range(40)]
    closed = minplus_closure(weights)
    space = from_matrix(range(40), closed)
    assert space.den == 8
    assert [[space.d(i, j) for j in range(40)] for i in range(40)] == closed


def test_a_parsed_map_has_the_images_of_the_public_constructor():
    # parse_system hands its checked images over as they stand; the public
    # constructor still makes tuples and drops repeats.
    images = {"c": ["b", "a", "c"], "a": ["c", "a"], "b": ["b"]}
    system = parse_system(_doc(points=["a", "b", "c"], d=[["0"] * 3] * 3, F=images))
    public = SetValuedMap(images)
    for x in ("a", "b", "c"):
        assert type(system.map(x)) is tuple
        assert system.map(x) == public(x) == tuple(images[x])
    assert SetValuedMap({"a": ["b", "b"]})("a") == ("b",)
    space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=3, size=40), linear(F(1, 2)))
    doc = system_document(space, Fm)
    parsed, public = parse_system(doc).map, SetValuedMap(doc["F"])
    assert all(parsed(x) == public(x) == Fm(x) for x in space.universe())


def test_a_parsed_map_is_built_from_the_universe_s_point_ids():
    # json makes a string for each occurrence of an id; the map's keys and
    # image members are the universe's own objects instead.
    space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=3, size=40), linear(F(1, 2)))
    system = parse_system(json.loads(json.dumps(system_document(space, Fm))))
    universe = system.space
    keys = list(system.map._table)
    members = [y for x in keys for y in system.map(x)]
    assert len(keys) == 40 and len(members) > 2 * len(keys)
    assert all(y is universe.points[universe.order[y]] for y in keys + members)


def test_dump_system_holds_no_copy_of_the_document(tmp_path):
    # The writer makes each row and image as it writes it: no text of the
    # whole document, so its peak is a small part of the file.
    n = 200
    rng = random.Random(200)
    points = [f"p{i}" for i in range(n)]
    images = {x: [x] + [y for y in points if y != x and rng.getrandbits(1)] for x in points}
    system = parse_system({"points": points, "d": _clean_matrix(n), "F": images})
    path = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        dump_system(path, system.space, system.map, linear(F(1, 2)), {"size": n})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.space.den is not None and path.stat().st_size > 700_000
    assert peak < path.stat().st_size / 4


def test_a_stray_image_member_is_named_in_image_order():
    images = {"a": ["b", "y", "x"], "b": ["b"], "c": ["c"]}
    doc = _doc(points=["a", "b", "c"], d=[["0"] * 3] * 3, F=images)
    with pytest.raises(DocumentError) as err:
        parse_system(doc)
    assert (err.value.field, err.value.message) == ("F.a", "image point 'y' is not in the space")


@pytest.mark.parametrize(
    "image, message",
    [
        (["a", 1, 1], "image point ids must be strings"),
        (["zz", 1], "image point ids must be strings"),
        ([["b"]], "image point ids must be strings"),
        ([True], "image point ids must be strings"),
        (["a", "a", "zz"], "image contains duplicates"),
        (["zz", "a", "a"], "image contains duplicates"),
    ],
)
def test_an_image_names_a_non_string_then_a_repeat_then_a_stray(image, message):
    doc = _doc(F={"a": image, "b": ["b"]})
    with pytest.raises(DocumentError) as err:
        parse_system(doc)
    assert (err.value.field, err.value.message) == ("F.a", message)
