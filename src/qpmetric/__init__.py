"""Quasi-pseudometric spaces, asymmetric set distances, and
startpoint/endpoint/fixed-point machinery for set-valued maps.

The public surface re-exports the main operations of each module:

* :mod:`qpmetric.space`: spaces, transforms, set distances;
* :mod:`qpmetric.axioms`: axiom checks and the min-plus closure;
* :mod:`qpmetric.comparison`: comparison functions and the (g1) grid check;
* :mod:`qpmetric.contraction`: defect functionals, weak-contraction
  verification, brute-force enumeration;
* :mod:`qpmetric.solver`: the admissible-step iteration and trace replay;
* :mod:`qpmetric.corpus`: reference systems and seeded random generators;
* :mod:`qpmetric.documents`: JSON system documents and trace output.

Importing the package imports none of them: each public name, and each
submodule as ``qpmetric.<module>``, is resolved on first use (PEP 562),
so a program compiles only the modules it reads.

The ``qpm`` console script (:mod:`qpmetric.cli`) exposes the same
operations over JSON documents.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names of each submodule.
_EXPORTS = {
    "axioms": ("AxiomCheck", "AxiomReport", "check_axioms", "minplus_closure"),
    "comparison": (
        "ComparisonFunction",
        "Gamma1Report",
        "SampledComparisonWarning",
        "default_grid",
        "linear",
        "rational_shrink",
        "user_function",
        "user_table",
        "verify_gamma1",
    ),
    "contraction": (
        "ContractionCertificate",
        "ContractionMode",
        "SetValuedMap",
        "Violation",
        "admissibility_bound",
        "endpoint_defect",
        "enumerate_endpoints",
        "enumerate_fixed_points",
        "enumerate_startpoints",
        "fixed_defect",
        "mode_defect",
        "startpoint_defect",
        "verify_weak_contraction",
    ),
    "corpus": (
        "GeneratorSeed",
        "dyadic_halving_system",
        "dyadic_halving_truncated",
        "halving_point",
        "random_t0_qspace",
        "random_weakly_contractive_system",
    ),
    "documents": (
        "DocumentError",
        "System",
        "dump_system",
        "dump_trace",
        "load_system",
        "parse_system",
        "system_document",
        "trace_document",
    ),
    "solver": (
        "EPSILON_SCHEDULE",
        "IterationTrace",
        "Outcome",
        "Selection",
        "SolveMode",
        "SolverConfig",
        "Status",
        "Step",
        "TraceReport",
        "admissible_candidates",
        "solve",
        "validate_trace",
    ),
    "space": (
        "DEFAULT_TOLERANCE",
        "INFINITY",
        "QSpace",
        "ball_contains",
        "conjugate",
        "dist_point_set",
        "dist_set_point",
        "distance_matrix",
        "from_matrix",
        "from_oracle",
        "hausdorff",
        "symmetrize",
    ),
}
#: The submodule each public name is read from.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """A public name from its submodule, or a submodule itself, imported on
    first use (PEP 562); any other name is an AttributeError."""
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
