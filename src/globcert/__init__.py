"""Robust stability measures to near machine precision.

Computes continuous- and discrete-time Kreiss constants and the distance to
uncontrollability of linear control systems by optimization with restarts,
certified globally optimal by adaptive interpolation of one-variable
angular certificate functions.
"""

from .certificates import CertificateValue, eval_certificate
from .chebinterp import PiecewiseCheb, approximate
from .localopt import Objective, minimize
from .pencils import PencilKind
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
    "dtu",
    "eval_certificate",
    "kreiss_continuous",
    "kreiss_discrete",
    "minimize",
]

__version__ = "0.1.0"
