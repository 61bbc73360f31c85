import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import qpmetric
from qpmetric import (
    dump_system,
    dyadic_halving_truncated,
    from_matrix,
    linear,
    SetValuedMap,
    user_table,
)
from qpmetric.cli import main

F = Fraction

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture(autouse=True)
def _default_tolerance(monkeypatch):
    # The tests are written for the default FLOAT tolerance; an exported
    # QPM_TOLERANCE must not leak into them.
    monkeypatch.delenv("QPM_TOLERANCE", raising=False)


@pytest.fixture
def dyadic_doc(tmp_path):
    space, Fm, gamma = dyadic_halving_truncated(10)
    path = tmp_path / "dyadic.json"
    dump_system(path, space, Fm, gamma)
    return str(path)


@pytest.fixture
def swap_doc(tmp_path, swap_system):
    space, Fm, gamma = swap_system
    path = tmp_path / "swap.json"
    dump_system(path, space, Fm, gamma)
    return str(path)


@pytest.fixture
def sampled_doc(tmp_path):
    space, Fm, _ = dyadic_halving_truncated(10)
    path = tmp_path / "sampled.json"
    dump_system(path, space, Fm, user_table([(F(1, 8), F(1, 16)), (8, 4)]))
    return str(path)


#: The one stderr line of a solve with a SAMPLED gamma.
SAMPLED_WARNING = (
    "warning: gamma is only SAMPLED: the summability condition (g2) is not "
    "certified, so convergence is not guaranteed\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_dyadic_document_passes(self, dyadic_doc, capsys):
        code, out, _ = run(capsys, "check", dyadic_doc)
        assert code == 0
        assert "axiom identity: PASS" in out
        assert "axiom triangle: PASS" in out
        assert "axiom t0: PASS" in out
        assert "gamma (linear): gamma1 PASS" in out
        assert out.strip().endswith("RESULT: PASS")

    def test_nonzero_diagonal_names_identity(self, tmp_path, capsys):
        doc = {"points": ["a", "b"], "d": [["1", "1"], ["1", "0"]], "t0": False}
        path = tmp_path / "bad_diag.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "axiom identity: FAIL witness=(a)" in out

    def test_nonsquare_matrix_is_malformed(self, tmp_path, capsys):
        doc = {"points": ["a", "b"], "d": [["0", "1"]]}
        path = tmp_path / "nonsquare.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "d" in err

    @pytest.mark.parametrize(
        "arithmetic, entry",
        [("float", "NaN"), ("exact", "true"), ("float", "true"), ("float", '"1e400"')],
    )
    def test_bad_distance_names_the_entry(self, tmp_path, capsys, arithmetic, entry):
        path = tmp_path / "bad_entry.json"
        path.write_text(
            '{"points": ["a", "b"], "d": [["0", "1"], [%s, "0"]], "arithmetic": "%s"}'
            % (entry, arithmetic)
        )
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: d[1][0]:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/nope.json")
        assert code == 2
        assert "error" in err


#: A well-formed two-point document; each malformed case replaces one field.
GOOD_DOC = {
    "points": ["a", "b"],
    "d": [["0", "1"], ["1", "0"]],
    "F": {"a": ["b"], "b": ["b"]},
    "gamma": {"kind": "linear", "c": "1/2"},
}
#: Past the value rule's bounds, but small enough to end quickly without them.
BIG_EXPONENT = "1e4301"
LONG_DIGITS = "1" * 5000
#: Within both bounds, but a value of 4,302 digits, which str() cannot write.
MANY_DIGITS = "12e4300"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "field, change",
        [
            ("F.a", {"F": {"a": [["b"]], "b": ["b"]}}),
            ("F.a", {"F": {"a": [1], "b": ["b"]}}),
            ("d[0][1]", {"d": [["0", BIG_EXPONENT], ["1", "0"]]}),
            ("d[0][1]", {"d": [["0", "1E-4_301"], ["1", "0"]]}),
            ("d[0][1]", {"d": [["0", LONG_DIGITS], ["1", "0"]]}),
            ("d[0][1]", {"d": [["0", "1/" + LONG_DIGITS], ["1", "0"]]}),
            ("d[0][1]", {"d": [["0", LONG_DIGITS], ["1", "0"]], "arithmetic": "float"}),
            ("gamma.c", {"gamma": {"kind": "linear", "c": BIG_EXPONENT}}),
            ("gamma.table[0][1]", {"gamma": {"kind": "user", "table": [["1", BIG_EXPONENT]]}}),
            ("d[0][1]", {"d": [["0", MANY_DIGITS], ["1", "0"]]}),
            ("d[0][1]", {"d": [["0", MANY_DIGITS], ["1", "0"]], "arithmetic": "float"}),
            ("gamma.c", {"gamma": {"kind": "linear", "c": "1e-4300"}}),
            ("gamma.table[0][0]", {"gamma": {"kind": "user", "table": [[MANY_DIGITS, "1"]]}}),
            ("meta", {"meta": [["k", 1]]}),
        ],
    )
    @pytest.mark.parametrize("argv", [["check"], ["verify"], ["solve", "--from", "a"]])
    def test_field_is_named_with_exit_two(self, tmp_path, capsys, field, change, argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**GOOD_DOC, **change}))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1

    def test_a_json_number_past_the_digit_limit_names_the_document(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(GOOD_DOC).replace('"1"', LONG_DIGITS, 1))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: document: ")

    def test_tolerances_past_the_bound_are_named(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(GOOD_DOC))
        code, out, err = run(capsys, "solve", str(path), "--from", "a", "--tol", BIG_EXPONENT)
        assert (code, out) == (2, "")
        assert err.startswith("error: --tol: decimal exponent beyond 4300")
        monkeypatch.setenv("QPM_TOLERANCE", BIG_EXPONENT)
        code, out, err = run(capsys, "enumerate", str(path), "--float")
        assert (code, out) == (2, "")
        assert err.startswith("error: QPM_TOLERANCE: decimal exponent beyond 4300")

    def test_tolerances_past_the_digit_limit_are_named(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(GOOD_DOC))
        code, out, err = run(capsys, "solve", str(path), "--from", "a", "--tol", "1e-4300")
        assert (code, out, err) == (2, "", "error: --tol: more than 4300 digits\n")
        monkeypatch.setenv("QPM_TOLERANCE", "1e-4300")
        code, out, err = run(capsys, "enumerate", str(path), "--float")
        assert (code, out, err) == (2, "", "error: QPM_TOLERANCE: more than 4300 digits\n")


class TestVerify:
    def test_forward_certificate_witnesses_zero(self, dyadic_doc, capsys):
        code, out, _ = run(capsys, "verify", dyadic_doc, "--mode", "forward")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("CERTIFICATE mode=forward")
        witness_lines = [l for l in lines[1:] if "->" in l]
        assert len(witness_lines) == 12
        assert all(l.endswith("-> 0") for l in witness_lines)

    def test_swap_violation(self, swap_doc, capsys):
        code, out, _ = run(capsys, "verify", swap_doc)
        assert code == 1
        assert out.startswith("VIOLATION a")

    def test_missing_gamma_is_malformed(self, tmp_path, capsys):
        doc = {
            "points": ["a"],
            "d": [["0"]],
            "F": {"a": ["a"]},
        }
        path = tmp_path / "nogamma.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "gamma" in err


#: A one-point document lacking F, and one lacking gamma.
NO_MAP = {"points": ["a"], "d": [["0"]], "gamma": {"kind": "linear", "c": "1/2"}}
NO_GAMMA = {"points": ["a"], "d": [["0"]], "F": {"a": ["a"]}}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (NO_MAP, ["verify"], "error: F: document has no set-valued map"),
        (NO_MAP, ["solve", "--from", "a"], "error: F: document has no set-valued map"),
        (NO_MAP, ["enumerate"], "error: F: document has no set-valued map"),
        (NO_GAMMA, ["verify"], "error: gamma: document has no comparison function"),
        (NO_GAMMA, ["solve", "--from", "a"], "error: gamma: document has no comparison function"),
    ],
)
def test_missing_part_is_malformed(tmp_path, capsys, doc, argv, message):
    path = tmp_path / "part.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", message + "\n")


class TestSolve:
    def test_dyadic_from_one(self, dyadic_doc, capsys):
        code, out, _ = run(capsys, "solve", dyadic_doc, "--from", "1", "--tol", "0")
        assert code == 0
        assert out.strip() == "CONVERGED 0 defect=0 steps=1"

    def test_from_startpoint_zero_steps(self, dyadic_doc, capsys):
        code, out, _ = run(capsys, "solve", dyadic_doc, "--from", "0")
        assert code == 0
        assert out.strip() == "CONVERGED 0 defect=0 steps=0"

    def test_swap_system_fails(self, swap_doc, capsys):
        code, out, _ = run(capsys, "solve", swap_doc, "--from", "a")
        assert code == 1
        assert out.startswith("CONTRACTION_VIOLATED a")

    def test_unknown_start_point(self, dyadic_doc, capsys):
        code, _, err = run(capsys, "solve", dyadic_doc, "--from", "1/4096")
        assert code == 2
        assert "--from" in err

    def test_trace_written_and_wellformed(self, dyadic_doc, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "solve", dyadic_doc, "--from", "1/2", "--trace", str(trace_path)
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert doc["outcome"]["status"] == "converged"
        assert doc["steps"][0]["x"] == "1/2"

    @pytest.mark.parametrize("mode", ["startpoint", "endpoint", "fixedpoint"])
    def test_trace_mode_is_the_mode_flag(self, dyadic_doc, tmp_path, capsys, mode):
        trace_path = tmp_path / "trace.json"
        argv = ["solve", dyadic_doc, "--mode", mode, "--from", "1", "--trace", str(trace_path)]
        assert run(capsys, *argv)[0] == 0
        assert json.loads(trace_path.read_text())["mode"] == mode

    def test_unwritable_trace_is_named(self, dyadic_doc, tmp_path, capsys):
        trace_path = tmp_path / "missing" / "trace.json"
        argv = ["solve", dyadic_doc, "--from", "1/2", "--trace", str(trace_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --trace: cannot write {trace_path}: ")
        assert err.count("\n") == 1

    def test_sampled_gamma_warns_in_one_fixed_line(self, dyadic_doc, sampled_doc, capsys):
        want = run(capsys, "solve", dyadic_doc, "--from", "1")
        assert want[0] == 0
        # Twice: the warnings module shows a default-action warning once
        # per source line, and every run must print it.
        for _ in range(2):
            assert run(capsys, "solve", sampled_doc, "--from", "1") == (*want[:2], SAMPLED_WARNING)

    def test_endpoint_and_fixedpoint_modes(self, dyadic_doc, capsys):
        for mode in ("endpoint", "fixedpoint"):
            code, out, _ = run(capsys, "solve", dyadic_doc, "--mode", mode, "--from", "1")
            assert code == 0
            assert out.startswith("CONVERGED 0")

    def test_first_selection_flag(self, tmp_path, funnel_system, capsys):
        space, Fm, gamma = funnel_system
        path = tmp_path / "funnel.json"
        dump_system(path, space, Fm, gamma)
        code, out, _ = run(capsys, "solve", str(path), "--from", "a", "--select", "first")
        assert code == 0
        assert out.strip() == "CONVERGED c defect=0 steps=2"

    def test_bad_tolerance_flag(self, dyadic_doc, capsys):
        code, out, err = run(capsys, "solve", dyadic_doc, "--from", "1", "--tol", "huh")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol: ")

    @pytest.mark.parametrize(
        "flags, arithmetic, named",
        [
            (["--tol", "-1"], "exact", "--tol"),
            (["--tol", "nan"], "exact", "--tol"),
            (["--tol", "1/0"], "exact", "--tol"),
            (["--tol", "-1"], "float", "--tol"),
            (["--tol", "nan"], "float", "--tol"),
            (["--tol", "1e400"], "float", "--tol"),
            (["--tol", "0"], "float", "--tol"),
            (["--max-iter", "0"], "exact", "--max-iter"),
            (["--max-iter", "-3"], "float", "--max-iter"),
        ],
    )
    def test_bad_solve_flags_are_named(self, dyadic_doc, capsys, flags, arithmetic, named):
        argv = ["solve", dyadic_doc, "--from", "1", *flags]
        if arithmetic == "float":
            argv.append("--float")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {named}: ")

    @pytest.mark.parametrize("source", ["document", "environment"])
    def test_zero_float_tolerance_without_tol_is_named(
        self, dyadic_doc, capsys, monkeypatch, source
    ):
        if source == "document":
            doc = json.loads(Path(dyadic_doc).read_text())
            doc["tolerance"] = 0
            Path(dyadic_doc).write_text(json.dumps(doc))
        else:
            monkeypatch.setenv("QPM_TOLERANCE", "0")
        code, out, err = run(capsys, "solve", dyadic_doc, "--from", "1", "--float")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance: ")
        assert "QPM_TOLERANCE" in err and "--tol" in err


class TestGenEnumerate:
    def test_gen_then_enumerate_nonempty(self, tmp_path, capsys):
        out_path = tmp_path / "gen.json"
        code, out, _ = run(capsys, "gen", "--seed", "9", "--size", "6", "--out", str(out_path))
        assert code == 0
        assert str(out_path) in out
        code, out, _ = run(capsys, "enumerate", str(out_path), "--what", "startpoints")
        assert code == 0
        assert out.strip()
        doc = json.loads(out_path.read_text())
        assert doc["meta"] == {"seed": 9, "size": 6}

    def test_unwritable_out_is_named(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "gen.json"
        code, out, err = run(capsys, "gen", "--seed", "1", "--size", "4", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --out: cannot write {out_path}: ")
        assert err.count("\n") == 1

    def test_gen_roundtrip_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--seed", "4", "--size", "5", "--out", str(a))
        run(capsys, "gen", "--seed", "4", "--size", "5", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_enumerate_dyadic_startpoints(self, dyadic_doc, capsys):
        code, out, _ = run(capsys, "enumerate", dyadic_doc)
        assert code == 0
        assert out.strip() == "0"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--seed", "-1", "--size", "4"], "--seed"),
            (["--seed", str(2**64), "--size", "4"], "--seed"),
            (["--seed", "1", "--size", "1"], "--size"),
        ],
    )
    def test_bad_gen_flags_are_named(self, tmp_path, capsys, flags, named):
        out_path = tmp_path / "gen.json"
        code, out, err = run(capsys, "gen", *flags, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {named}: ")
        assert not out_path.exists()

    @pytest.mark.parametrize("what", ["startpoints", "endpoints", "fixedpoints"])
    def test_enumerate_image_outside_universe_exits_two(self, tmp_path, capsys, what):
        path = tmp_path / "stray.json"
        doc = {"points": ["a", "b"], "d": [["0", "1"], ["1", "0"]], "F": {"a": ["c"], "b": ["b"]}}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "enumerate", str(path), "--what", what)
        assert code == 2
        assert out == ""
        assert "error: F.a:" in err and "'c'" in err

    def test_enumerate_empty_exits_one(self, swap_doc, capsys):
        code, out, _ = run(capsys, "enumerate", swap_doc, "--what", "fixedpoints")
        assert code == 1
        assert out.strip() == ""


@pytest.mark.parametrize(
    "command, line",
    [
        ("verify", "--mode {forward,dual,symmetric}"),
        ("solve", "--mode {startpoint,endpoint,fixedpoint}"),
        ("enumerate", "--what {endpoints,fixedpoints,startpoints}"),
    ],
)
def test_mode_spellings_in_help(capsys, command, line):
    # The help, not an invalid-choice message: its quoting differs across
    # Python versions.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert line in [text.strip() for text in capsys.readouterr().out.splitlines()]


class TestFloatAndEnvironment:
    def test_env_tolerance_applies_in_float_mode(self, tmp_path, capsys, monkeypatch):
        # Defect 1e-7 counts as zero only once the env loosens the tolerance.
        space = from_matrix(
            ("a", "b"), [[0, 1e-7], [1, 0]], exact=False
        )
        Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
        path = tmp_path / "float.json"
        dump_system(path, space, Fm, linear(F(1, 2)))
        raw = json.loads(path.read_text())
        del raw["tolerance"]
        path.write_text(json.dumps(raw))

        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0
        assert out.split() == ["b"]

        monkeypatch.setenv("QPM_TOLERANCE", "1e-6")
        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0
        assert out.split() == ["a", "b"]

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "abc"])
    def test_bad_env_tolerance_is_named(self, dyadic_doc, capsys, monkeypatch, value):
        monkeypatch.setenv("QPM_TOLERANCE", value)
        code, out, err = run(capsys, "enumerate", dyadic_doc, "--float")
        assert code == 2
        assert out == ""
        assert err.startswith("error: QPM_TOLERANCE: ")

    def test_float_flag_overrides_exact(self, tmp_path, capsys, monkeypatch):
        space = from_matrix(("a", "b"), [[0, "1/1000000000000"], [1, 0]], t0=True)
        Fm = SetValuedMap({"a": ["b"], "b": ["b"]})
        path = tmp_path / "exact.json"
        dump_system(path, space, Fm, linear(F(1, 2)))
        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0
        assert out.split() == ["b"]  # exact: 1e-12 is not zero
        code, out, _ = run(capsys, "enumerate", str(path), "--float")
        assert code == 0
        assert out.split() == ["a", "b"]  # float tolerance absorbs it


def _run_child(argv, env=None):
    return subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=60
    )


def test_console_script_is_installed(dyadic_doc):
    """pyproject.toml declares the `qpm` script, and it runs this CLI.

    Runs the entry point the way a generated console script does, so it
    holds in an uninstalled checkout; the installed binary itself is
    exercised by test_installed_qpm_on_path where it exists.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["qpm"] == "qpmetric.cli:main"

    ep = EntryPoint(name="qpm", value=scripts["qpm"], group="console_scripts")
    assert ep.load() is main

    script = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(qpmetric.__file__).resolve().parent.parent)

    def qpm(*argv):
        return _run_child([sys.executable, "-c", script, *argv], env)

    res = qpm("--help")
    assert res.returncode == 0
    assert res.stdout.startswith("usage: qpm")

    res = qpm("enumerate", dyadic_doc)
    assert res.returncode == 0
    assert res.stdout.strip() == "0"

    res = qpm("solve", dyadic_doc, "--from", "1/4096")
    assert res.returncode == 2
    assert "--from" in res.stderr


@pytest.mark.skipif(shutil.which("qpm") is None, reason="qpm is not on PATH")
def test_installed_qpm_on_path(dyadic_doc):
    exe = shutil.which("qpm")

    res = _run_child([exe, "--help"])
    assert res.returncode == 0
    assert res.stdout.startswith("usage: qpm")

    res = _run_child([exe, "enumerate", dyadic_doc])
    assert res.returncode == 0
    assert res.stdout.strip() == "0"


def test_sampled_gamma_warning_in_a_child(sampled_doc):
    """The child's stderr is the one fixed line, wherever the package is
    installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(qpmetric.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "qpmetric.cli", "solve", sampled_doc, "--from", "1"]
    res = _run_child(argv, env)
    assert res.returncode == 0
    assert (res.stdout, res.stderr) == ("CONVERGED 0 defect=0 steps=1\n", SAMPLED_WARNING)


def test_closed_stdout_ends_quietly(dyadic_doc):
    """A reader that has closed the pipe (as `qpm verify ... | head -1`
    does once it has its line) gets no traceback, and qpm exits 1."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(qpmetric.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "qpmetric.cli", "verify", dyadic_doc],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert res.stderr == ""
    assert res.returncode == 1
