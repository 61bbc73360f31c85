"""Quasi-pseudometric spaces, asymmetric set distances, and
startpoint/endpoint/fixed-point machinery for set-valued maps.

The public surface re-exports the main operations of each module:

* :mod:`qpmetric.space`: spaces, transforms, set distances, axiom checks, closure;
* :mod:`qpmetric.comparison`: comparison functions and the (g1) grid check;
* :mod:`qpmetric.contraction`: defect functionals, weak-contraction
  verification, brute-force enumeration;
* :mod:`qpmetric.solver`: the admissible-step iteration and trace replay;
* :mod:`qpmetric.corpus`: reference systems and seeded random generators;
* :mod:`qpmetric.documents`: JSON system documents and trace output.

The ``qpm`` console script (:mod:`qpmetric.cli`) exposes the same
operations over JSON documents.
"""

from .comparison import (
    ComparisonFunction,
    Gamma1Report,
    SampledComparisonWarning,
    default_grid,
    linear,
    rational_shrink,
    user_function,
    user_table,
    verify_gamma1,
)
from .contraction import (
    ContractionCertificate,
    ContractionMode,
    SetValuedMap,
    Violation,
    admissibility_bound,
    endpoint_defect,
    enumerate_endpoints,
    enumerate_fixed_points,
    enumerate_startpoints,
    fixed_defect,
    mode_defect,
    startpoint_defect,
    verify_weak_contraction,
)
from .corpus import (
    GeneratorSeed,
    dyadic_halving_system,
    dyadic_halving_truncated,
    halving_point,
    random_t0_qspace,
    random_weakly_contractive_system,
)
from .documents import (
    DocumentError,
    System,
    dump_system,
    dump_trace,
    load_system,
    parse_system,
    system_document,
    trace_document,
)
from .solver import (
    EPSILON_SCHEDULE,
    IterationTrace,
    Outcome,
    Selection,
    SolveMode,
    SolverConfig,
    Status,
    Step,
    TraceReport,
    admissible_candidates,
    solve,
    validate_trace,
)
from .space import (
    DEFAULT_TOLERANCE,
    INFINITY,
    AxiomCheck,
    AxiomReport,
    QSpace,
    ball_contains,
    check_axioms,
    conjugate,
    dist_point_set,
    dist_set_point,
    distance_matrix,
    from_matrix,
    from_oracle,
    hausdorff,
    minplus_closure,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "ComparisonFunction",
    "ContractionCertificate",
    "ContractionMode",
    "DEFAULT_TOLERANCE",
    "DocumentError",
    "EPSILON_SCHEDULE",
    "Gamma1Report",
    "GeneratorSeed",
    "INFINITY",
    "IterationTrace",
    "Outcome",
    "QSpace",
    "SampledComparisonWarning",
    "Selection",
    "SetValuedMap",
    "SolveMode",
    "SolverConfig",
    "Status",
    "Step",
    "System",
    "TraceReport",
    "Violation",
    "admissibility_bound",
    "admissible_candidates",
    "ball_contains",
    "check_axioms",
    "conjugate",
    "default_grid",
    "dist_point_set",
    "dist_set_point",
    "distance_matrix",
    "dump_system",
    "dump_trace",
    "dyadic_halving_system",
    "dyadic_halving_truncated",
    "endpoint_defect",
    "enumerate_endpoints",
    "enumerate_fixed_points",
    "enumerate_startpoints",
    "fixed_defect",
    "from_matrix",
    "from_oracle",
    "halving_point",
    "hausdorff",
    "linear",
    "load_system",
    "minplus_closure",
    "mode_defect",
    "parse_system",
    "random_t0_qspace",
    "random_weakly_contractive_system",
    "rational_shrink",
    "solve",
    "startpoint_defect",
    "symmetrize",
    "system_document",
    "trace_document",
    "user_function",
    "user_table",
    "validate_trace",
    "verify_gamma1",
    "verify_weak_contraction",
]
