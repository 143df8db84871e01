"""Command-line front end: matrix ingestion, solver runs, JSON/CSV output.

Results go to stdout and optionally to ``--json``; per-sample certificate
trace records go to ``--trace`` as CSV for plotting.  The ``verify``
subcommand runs the independent grid oracle for spot checks.  Exit codes:
0 for Converged/TrivialNormal, 2 for UnstableInfinite, 1 for MaxRestarts,
Uncertified (a best estimate, not certified) or any error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .linalg import norm2
from .localopt import InfeasibleStart, Objective, check_start
from .mmio import read_matrix
from .oracle import GridSpec, grid_min
from .pencils import PencilKind
from .solver import SolveResult, SolveStatus, SolverConfig, dtu, kreiss_continuous, kreiss_discrete

__all__ = ["emit_result", "emit_trace", "main", "parse_args"]

_KINDS = {
    "kreiss-c": PencilKind.KREISS_CONTINUOUS,
    "kreiss-d": PencilKind.KREISS_DISCRETE,
    "dtu": PencilKind.DIST_UNCONTROLLABLE,
}


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; argparse's default of 2 is reserved for
    # the UnstableInfinite outcome
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex number {text!r}") from None


def _attach_start_values(argv) -> list[str]:
    # argparse reads a value such as -1-1i as an option flag, so it would
    # leave "--start -1-1i" without a value; "--start=-1-1i" parses
    out: list[str] = []
    for tok in argv:
        out.append(tok)
        if out[-2:-1] == ["--start"]:
            with contextlib.suppress(argparse.ArgumentTypeError):
                _parse_complex(tok)
                out[-2:] = ["--start=" + tok]
    return out


def _count(text: str) -> int:
    # a worker count or restart budget: an integer of at least 1
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is less than 1")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("matrix", help="Matrix Market file for A")
    p.add_argument(
        "--start",
        action="append",
        type=_parse_complex,
        default=None,
        metavar="RE±IMi",
        help="starting point (repeatable)",
    )
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write result JSON")
    p.add_argument("--trace", dest="trace_path", metavar="PATH", help="write certificate trace CSV")
    p.add_argument("--workers", type=_count, default=1, help="concurrent certificate evaluations")
    p.add_argument("--max-restarts", type=_count, default=50, help="restart budget")


def _build_parser() -> _Parser:
    parser = _Parser(prog="globcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("kreiss-c", help="continuous-time Kreiss constant")
    _add_common(pc)

    pd = sub.add_parser("kreiss-d", help="discrete-time Kreiss constant")
    _add_common(pd)

    pt = sub.add_parser("dtu", help="distance to uncontrollability")
    _add_common(pt)
    pt.add_argument("b_path", metavar="b_matrix", help="Matrix Market file for B")

    pv = sub.add_parser("verify", help="independent grid-oracle spot check")
    pv.add_argument("target", choices=sorted(_KINDS), help="quantity to verify")
    pv.add_argument("matrix", help="Matrix Market file for A")
    pv.add_argument("b_path", nargs="?", metavar="b_matrix", help="Matrix Market file for B (dtu only)")
    pv.add_argument("--resolution", type=int, default=200, help="grid points per axis")
    pv.add_argument("--expect", type=float, default=None, help="value to compare against")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate ``argv`` (excluding the program name).

    A solve command's namespace also holds its ``starts`` (the defaults when
    no ``--start`` is given) and its ``SolverConfig`` as ``config``.
    """
    ns = _build_parser().parse_args(_attach_start_values(argv))
    ns.b_path = getattr(ns, "b_path", None)
    for path in (ns.matrix, ns.b_path):
        if path is not None and not os.path.isfile(path):
            print(f"globcert {ns.command}: error: matrix file {path!r} not found", file=sys.stderr)
            raise SystemExit(1)
    if ns.command == "verify":
        if ns.target == "dtu" and ns.b_path is None:
            print("globcert verify: error: dtu requires a B matrix", file=sys.stderr)
            raise SystemExit(1)
        return ns

    defaults = {"kreiss-c": (1 + 1j,), "kreiss-d": (2 + 0j,), "dtu": ()}
    ns.starts = tuple(ns.start) if ns.start else defaults[ns.command]
    for z in ns.starts:
        try:
            check_start(_KINDS[ns.command], z)
        except InfeasibleStart as exc:  # "start <z> is infeasible (<rule broken>)"
            print(f"globcert {ns.command}: error: --{exc}", file=sys.stderr)
            raise SystemExit(1) from None
    ns.config = SolverConfig(max_restarts=ns.max_restarts, workers=ns.workers)
    return ns


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def result_to_dict(res: SolveResult) -> dict:
    """JSON-ready representation; schema is stable across status variants."""
    def point(z):
        return None if z is None else {"re": z.real, "im": z.imag}

    return {
        "quantity": res.quantity if np.isfinite(res.quantity) else None,
        "gamma_final": res.gamma_final,
        "minimizer": point(res.minimizer),
        "status": res.status.value,
        "restarts": [
            {
                "gamma_before": r.gamma_before,
                "gamma_after": r.gamma_after,
                "trigger": r.trigger,
                "points_used": [point(z) for z in r.points_used],
            }
            for r in res.restarts
        ],
        "samples_per_round": list(res.certificate_samples),
        "wall_time_s": res.wall_time_s,
    }


def emit_result(res: SolveResult, json_path) -> None:
    """Write the result JSON to ``json_path``."""
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(result_to_dict(res), fh, indent=2)
        fh.write("\n")


def emit_trace(records, csv_path) -> None:
    """Write certificate sample records as CSV, one row per sample."""
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("round,gamma,theta,value,n_candidates,stage\n")
        for r in records:
            fh.write(
                f"{r.round},{_fmt(r.gamma)},{_fmt(r.theta)},{_fmt(r.value)},"
                f"{r.n_candidates},{r.stage}\n"
            )


def _run_verify(req: argparse.Namespace) -> int:
    kind = _KINDS[req.target]
    a = read_matrix(req.matrix)
    b = read_matrix(req.b_path) if req.b_path else None
    scale = max(norm2(a), 1.0)
    if kind is PencilKind.KREISS_CONTINUOUS:
        spec = GridSpec((1e-3, 4 * scale, -4 * scale, 4 * scale), req.resolution, req.resolution)
    elif kind is PencilKind.KREISS_DISCRETE:
        spec = GridSpec((1 + 1e-6, 4 * scale + 2, -np.pi, np.pi), req.resolution, req.resolution, polar=True)
    else:
        spec = GridSpec((-2 * scale, 2 * scale, -2 * scale, 2 * scale), req.resolution, req.resolution)
    z, val = grid_min(Objective(kind, a, b), spec)
    quantity = val if kind is PencilKind.DIST_UNCONTROLLABLE else 1.0 / val
    print(f"oracle {req.target}: quantity = {_fmt(quantity)} at z = {_fmt(z.real)} + {_fmt(z.imag)}i")
    if req.expect is not None:
        rel = abs(quantity - req.expect) / max(abs(req.expect), 1e-300)
        print(f"relative difference vs --expect: {_fmt(rel)}")
    return 0


def run(req: argparse.Namespace) -> int:
    """Execute parsed arguments; returns the process exit code."""
    if req.command == "verify":
        return _run_verify(req)
    a = read_matrix(req.matrix)
    if req.command == "kreiss-c":
        res = kreiss_continuous(a, list(req.starts), req.config)
        label = "K(A) [continuous]"
    elif req.command == "kreiss-d":
        res = kreiss_discrete(a, list(req.starts), req.config)
        label = "K(A) [discrete]"
    else:
        b = read_matrix(req.b_path)
        res = dtu(a, b, list(req.starts), req.config)
        label = "tau(A,B)"

    qty = "inf" if not np.isfinite(res.quantity) else _fmt(res.quantity)
    print(f"{label} = {qty}   status = {res.status.value}")
    print(
        f"gamma_final = {_fmt(res.gamma_final)}   restarts = {len(res.restarts)}   "
        f"certificate samples per round = {list(res.certificate_samples)}"
    )
    if res.minimizer is not None:
        print(f"minimizer = {_fmt(res.minimizer.real)} + {_fmt(res.minimizer.imag)}i")
    if req.json_path:
        emit_result(res, req.json_path)
    if req.trace_path:
        emit_trace(res.trace, req.trace_path)
    if res.status in (SolveStatus.CONVERGED, SolveStatus.TRIVIAL_NORMAL):
        return 0
    if res.status is SolveStatus.UNSTABLE_INFINITE:
        return 2
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        req = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return run(req)
    except Exception as exc:
        print(f"globcert: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
