"""What importing the package loads, and the lazy names it resolves.

``qpmetric`` imports no submodule until one of its names is read, and
``qpmetric.space`` reads its four axiom names from ``qpmetric.axioms`` on
first use, so a ``qpm`` command that runs no kernel compiles none.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qpmetric
import qpmetric.axioms as axioms_module
import qpmetric.corpus as corpus_module
import qpmetric.space as space_module
from qpmetric import SetValuedMap, dump_system, from_matrix, linear

SRC = Path(qpmetric.__file__).resolve().parent.parent
#: The modules only ``qpm check`` and ``qpm gen`` need.
KERNEL_MODULES = ("qpmetric.axioms", "qpmetric.corpus")
AXIOM_NAMES = ("check_axioms", "AxiomCheck", "AxiomReport", "minplus_closure")


def _child(script, *argv):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    package; its stdout, which must be the JSON of one value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


LOADED = 'json.dumps(sorted(m for m in sys.modules if m.startswith("qpmetric")))'


def test_importing_the_cli_loads_no_kernel():
    loaded = _child(f"import json, sys, qpmetric.cli; print({LOADED})")
    assert "qpmetric.cli" in loaded
    assert not set(KERNEL_MODULES) & set(loaded)


@pytest.fixture
def system_doc(tmp_path):
    space = from_matrix(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]], t0=True)
    F = SetValuedMap({"a": ["b", "c"], "b": ["c"], "c": ["c"]})
    path = tmp_path / "system.json"
    dump_system(path, space, F, linear(Fraction(1, 2)))
    return str(path)


def test_solve_verify_and_enumerate_load_no_kernel(system_doc):
    script = f"""
import contextlib, io, json, sys
from qpmetric.cli import main
doc = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [
        main(["solve", doc, "--from", "a"]),
        main(["verify", doc, "--mode", "symmetric"]),
        main(["enumerate", doc, "--what", "fixedpoints"]),
    ]
print(json.dumps([codes, out.getvalue(), {LOADED}]))
"""
    codes, out, loaded = _child(script, system_doc)
    assert codes == [0, 0, 0]
    assert out.startswith("CONVERGED c defect=0 steps=1\nCERTIFICATE mode=symmetric points=3\n")
    assert out.endswith("\nc\n")
    assert not set(KERNEL_MODULES) & set(loaded)


def test_check_loads_the_kernels(system_doc):
    script = f"""
import contextlib, io, json, sys
from qpmetric.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["check", sys.argv[1]])
print(json.dumps([code, {LOADED}]))
"""
    code, loaded = _child(script, system_doc)
    assert code == 0
    assert "qpmetric.axioms" in loaded and "qpmetric.corpus" not in loaded


@pytest.mark.parametrize("name", AXIOM_NAMES)
def test_space_resolves_the_axiom_names_from_axioms(name):
    assert getattr(space_module, name) is getattr(axioms_module, name)
    assert getattr(qpmetric, name) is getattr(axioms_module, name)


def test_corpus_closure_is_the_axioms_closure():
    assert corpus_module.minplus_closure is axioms_module.minplus_closure


def test_space_resolves_no_other_axioms_name():
    # Only the four public names: the kernels' privates stay in axioms.
    for name in ("_kernel_rows", "_closure", "_pack", "_MAX_LANE_BITS"):
        with pytest.raises(AttributeError, match=name):
            getattr(space_module, name)


def test_every_public_name_resolves():
    namespace = {}
    exec("from qpmetric import *", namespace)
    listed = dir(qpmetric)
    for name in qpmetric.__all__:
        value = getattr(qpmetric, name)
        assert namespace[name] is value
        assert name in listed
    assert set(namespace) - {"__builtins__"} == set(qpmetric.__all__)


def test_submodules_resolve_without_an_import():
    script = """
import json, sys, qpmetric
before = sorted(m for m in sys.modules if m.startswith("qpmetric"))
listed = "space" in dir(qpmetric)
space = qpmetric.space
print(json.dumps([before, listed, space.__name__, space is sys.modules["qpmetric.space"]]))
"""
    assert _child(script) == [["qpmetric"], True, "qpmetric.space", True]


@pytest.mark.parametrize("module", [qpmetric, space_module], ids=["qpmetric", "space"])
def test_an_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert getattr(module, "no_such_name", None) is None
    with pytest.raises(ImportError):
        exec(f"from {module.__name__} import no_such_name", {})
