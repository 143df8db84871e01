"""Robust stability measures to near machine precision.

Computes continuous- and discrete-time Kreiss constants and the distance to
uncontrollability of linear control systems by optimization with restarts,
certified globally optimal by adaptive interpolation of one-variable
angular certificate functions.
"""

from .certificates import CertificateValue, eval_f, eval_g, eval_h
from .chebinterp import PiecewiseCheb, approximate
from .localopt import Objective, minimize
from .pencils import PencilKind, build_dtu_pencil, build_kc_pencil, build_kd_pencil
from .solver import (
    SolveResult,
    SolveStatus,
    SolverConfig,
    dtu,
    kreiss_continuous,
    kreiss_discrete,
)

__all__ = [
    "CertificateValue",
    "Objective",
    "PencilKind",
    "PiecewiseCheb",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "approximate",
    "build_dtu_pencil",
    "build_kc_pencil",
    "build_kd_pencil",
    "dtu",
    "eval_f",
    "eval_g",
    "eval_h",
    "kreiss_continuous",
    "kreiss_discrete",
    "minimize",
]

__version__ = "0.1.0"
