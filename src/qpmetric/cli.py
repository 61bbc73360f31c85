"""qpm: command-line front end for system documents.

Exit codes are the contract: 0 on success (all checks pass, solver
converged, nonempty enumeration), 1 on a semantic failure (an axiom or
contraction violation, no convergence, empty enumeration), 2 on malformed
input or bad flags.  stdout formats are line-oriented and stable; see the
README for the full list.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction

from . import contraction, documents
from .comparison import linear, verify_gamma1
from .contraction import ContractionMode, Violation, verify_weak_contraction
from .documents import DocumentError
from .solver import Selection, SolverConfig, Status, solve
from .space import DEFAULT_TOLERANCE, FieldError, Value

_ENV_TOLERANCE = "QPM_TOLERANCE"


def _tolerance(raw: str, exact: bool, name: str) -> Value:
    tolerance = documents.parse_value(raw, exact, name)
    if tolerance < 0:
        raise DocumentError(name, "tolerance must be nonnegative")
    return tolerance


def _env_tolerance() -> float:
    raw = os.environ.get(_ENV_TOLERANCE)
    return DEFAULT_TOLERANCE if raw is None else _tolerance(raw, False, _ENV_TOLERANCE)


def _value(v) -> str:
    return str(Fraction(v)) if isinstance(v, (Fraction, int)) else repr(v)


#: The mode seeking each kind of point, by the name ``contraction._MODES`` gives it.
_SEEKING = {name: mode for mode, (_, _, name) in contraction._MODES.items()}


def cmd_check(args: argparse.Namespace) -> int:
    # The kernels are imported here and in cmd_gen only: no other command
    # runs them.
    from .axioms import check_axioms

    system = args.system
    # The T0 check runs only when the document claims the condition.
    report = check_axioms(system.space)
    ok = report.ok
    for check in report.checks:
        line = f"axiom {check.axiom}: {check.status(report.sampled)}"
        if check.witness is not None:
            line += " witness=(" + ", ".join(str(w) for w in check.witness) + ")"
        print(line)
    if system.gamma is not None:
        g1 = verify_gamma1(system.gamma)
        status = "PASS" if g1.passed else "FAIL"
        line = f"gamma ({system.gamma.kind}): gamma1 {status}"
        if g1.bound_witness is not None:
            line += f" witness={g1.bound_witness}"
        if g1.monotonicity_witness is not None:
            a, b = g1.monotonicity_witness
            line += f" witness=({a}, {b})"
        print(line)
        ok = ok and g1.passed
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _system(args: argparse.Namespace, gamma: bool = True) -> documents.System:
    """``args.system``; a document without F, or without gamma when asked, is malformed."""
    system = args.system
    if system.map is None:
        raise DocumentError("F", "document has no set-valued map")
    if gamma and system.gamma is None:
        raise DocumentError("gamma", "document has no comparison function")
    return system


def _write(flag: str, dump, path: str, *parts) -> None:
    """``dump(path, *parts)``; a path it cannot write is an error naming ``flag``."""
    try:
        dump(path, *parts)
    except OSError as exc:
        raise DocumentError(flag, f"cannot write {path}: {exc}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    system = _system(args)
    mode = ContractionMode(args.mode)
    result = verify_weak_contraction(system.space, system.map, system.gamma, mode)
    if isinstance(result, Violation):
        print(f"VIOLATION {result.point} mode={mode.value}")
        return 1
    print(f"CERTIFICATE mode={mode.value} points={len(result.checked_points)}")
    for x in result.checked_points:
        print(f"  {x} -> {result.witnesses[x]}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    system = _system(args)
    space = system.space
    if args.start not in space.universe():
        raise DocumentError("--from", f"unknown point {args.start!r}")
    if args.tol is None:
        tol = Fraction(0) if space.exact else space.tolerance
    else:
        tol = _tolerance(args.tol, space.exact, "--tol")
    if tol == 0 and not space.exact:
        if args.tol is not None:
            raise DocumentError("--tol", "tolerance 0 requires EXACT arithmetic")
        raise DocumentError(
            "tolerance",
            f"0 from the document or ${_ENV_TOLERANCE} requires EXACT "
            "arithmetic; --tol sets a positive one",
        )
    if args.max_iter < 1:
        raise DocumentError("--max-iter", "max_iterations must be positive")
    config = SolverConfig(
        mode=_SEEKING[args.mode],
        tolerance=tol,
        max_iterations=args.max_iter,
        selection=Selection(args.select),
    )
    # One fixed stderr line per warning: the warnings format names this file.
    with warnings.catch_warnings(record=True) as caught:
        trace = solve(space, system.map, system.gamma, args.start, config)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.trace is not None:
        _write("--trace", documents.dump_trace, args.trace, trace)
    out = trace.outcome
    if out.status is Status.CONVERGED:
        print(f"CONVERGED {out.point} defect={_value(out.defect)} steps={len(trace.steps)}")
        return 0
    if out.status is Status.CONTRACTION_VIOLATED:
        print(f"CONTRACTION_VIOLATED {out.point} steps={len(trace.steps)}")
        return 1
    cycle = " cycle=true" if out.cycle else ""
    print(
        f"MAX_ITERATIONS last={out.point} defect={_value(out.defect)} "
        f"steps={len(trace.steps)}{cycle}"
    )
    return 1


def cmd_gen(args: argparse.Namespace) -> int:
    from .corpus import GeneratorSeed, random_weakly_contractive_system

    try:
        g = GeneratorSeed(seed=args.seed, size=args.size)
    except FieldError as exc:
        raise DocumentError(f"--{exc.field}", exc.message) from exc
    gamma = linear(Fraction(1, 2))
    space, smap = random_weakly_contractive_system(g, gamma)
    meta = {"seed": g.seed, "size": g.size}
    _write("--out", documents.dump_system, args.out, space, smap, gamma, meta)
    print(f"wrote {args.out} (seed={g.seed}, size={g.size})")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    system = _system(args, gamma=False)
    found = contraction._enumerate(system.space, system.map, _SEEKING[args.what[:-1]])
    for point in found:
        print(point)
    return 0 if found else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpm",
        description="Check, verify, solve and generate quasi-pseudometric systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_float(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--float",
            action="store_true",
            help="use float arithmetic with a comparison tolerance "
            f"(default exact; tolerance from the document or ${_ENV_TOLERANCE})",
        )

    p = sub.add_parser("check", help="check the space axioms (and gamma1 if present)")
    p.add_argument("path")
    add_float(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="verify the weak-contraction condition")
    p.add_argument("path")
    p.add_argument(
        "--mode", choices=[m.value for m in ContractionMode], default="forward"
    )
    add_float(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve", help="iterate toward a startpoint/endpoint/fixed point")
    p.add_argument("path")
    p.add_argument("--mode", choices=list(_SEEKING), default="startpoint")
    p.add_argument("--from", dest="start", required=True, metavar="POINT")
    p.add_argument("--tol", default=None, help="termination tolerance (rational)")
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--select", choices=[s.value for s in Selection], default="greedy")
    p.add_argument("--trace", default=None, metavar="OUT", help="write the JSON trace here")
    add_float(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gen", help="generate a weakly contractive system document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("enumerate", help="brute-force startpoints/endpoints/fixed points")
    p.add_argument("path")
    p.add_argument("--what", choices=sorted(name + "s" for name in _SEEKING), default="startpoints")
    add_float(p)
    p.set_defaults(fn=cmd_enumerate)

    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        if "path" in args:
            args.system = documents.load_system(
                args.path, force_float=args.float, default_tolerance=_env_tolerance()
            )
        return args.fn(args)
    except ValueError as exc:
        # DocumentError names the field or flag; other ValueErrors are
        # malformed input met past parsing.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (say, `qpm verify doc.json | head
        # -1`): end quietly with exit code 1.  Python flushes stdout again at
        # exit, so point it at devnull first (the SIGPIPE recipe of the
        # Python docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
