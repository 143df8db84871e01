"""The three two-variable singular-value objectives, and their local minimization.

Each objective is sigma_min of one matrix at the point z, over a divisor:

* continuous-time transient growth: ``sigma_min(zI - A) / Re z``
* discrete-time transient growth:   ``sigma_min(zI - A) / (|z| - 1)``
* distance to uncontrollability:    ``sigma_min([A - zI, B])``

This module is the one home of that formula.  ``objective_values``
evaluates it at many points, with value-only SVDs, for the certificate's
recheck of each nominated level-set point and for the oracle's grids and
ray scans.  ``objective_value_grad`` returns ``(value, grad)`` at one point
from one full SVD, for the descents; both build the matrix with the same
code and divide by the same divisor.

Gradients come from the singular-triplet identity: for a matrix function F
of a real parameter t, the derivative of sigma_min(F) along t is
``Re(u* dF/dt v)`` with u, v the unit singular vectors of sigma_min.  The
continuous-time and uncontrollability objectives are minimized in Cartesian
coordinates, the discrete-time one in polar coordinates.

This module holds the package's one feasibility rule, and the solver and the
command line ask ``check_start`` rather than test points themselves.  Every
point must be finite.  A continuous-time point needs Re z > 0 and also a
normal (not subnormal) Re z · Re z, since the gradient divides by (Re z)²:
starts such as 1e-160 and 1e-200 are infeasible.  A discrete-time point
needs |z| > 1; every finite point is feasible for the uncontrollability
objective.  A start must also stay feasible once rounded into the working
parameters below.  Feasibility is kept by smooth reparametrization
(x = e^w for Re z > 0, r = 1 + e^w for |z| > 1), so iterates can never
leave the feasible region and no projection nonsmoothness is introduced.

The search itself is a two-variable BFGS with backtracking line search;
Hessians are not used.  Its cost varies widely: without the floor stop
below, Kahan(60)'s restarts took 10 to 127 evaluations each, and its descent
from the origin ran to the ``MAX_ITER = 200`` cap.  A trial point that
overflows or leaves the feasible region shrinks the step to at most a unit
move in the working parameters, so a start such as 1e-150, whose first
working gradient is about -1e150, still takes a step.  A descent stops when
the gradient vanishes relative to the value, when the step stalls, or when
the value reaches the objective's noise floor ``Objective.floor``.  For the
uncontrollability objective that floor is 1e-12·max(‖[A B]‖₂, 1): below it
sigma_min is rounding noise and the pair is numerically uncontrollable.  The
Kreiss objectives are always positive, and their floor is 0.

``descend`` is the search as a generator that yields once after each
iteration and returns the ``LocalMin``, so a caller can advance several
descents in lockstep and stop them all once one reaches the floor;
``minimize`` runs one to its end.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    DecompositionError,
    as_complex_matrix,
    norm2,
    sigma_min,
    stack_length,
    svd_triplet,
)
from .pencils import PencilKind

__all__ = [
    "InfeasiblePoint",
    "InfeasibleStart",
    "LocalMin",
    "Objective",
    "check_start",
    "descend",
    "minimize",
    "objective_value_grad",
    "objective_values",
]

# The stop tests of ``descend``; its docstring says what each one bounds.
GRAD_TOL = 1e-12
STEP_TOL = 1e-14
MAX_ITER = 200


class InfeasiblePoint(ValueError):
    """Evaluation point violates the strict feasibility of the objective."""


class InfeasibleStart(ValueError):
    """Starting point violates the strict feasibility of the objective."""


@dataclass(frozen=True)
class Objective:
    """One of the three singular-value objectives over the complex plane.

    ``floor`` is the value at or below which a minimum is numerically zero:
    1e-12·max(‖[A B]‖₂, 1) for the uncontrollability objective, 0 for the
    Kreiss objectives, whose values are always positive.
    """

    kind: PencilKind
    a: np.ndarray
    b: Optional[np.ndarray] = None
    floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", as_complex_matrix(self.a))
        if self.a.shape[0] != self.a.shape[1]:
            raise ValueError(f"A must be square, got {self.a.shape}")
        floor = 0.0
        if self.kind is PencilKind.DIST_UNCONTROLLABLE:
            if self.b is None:
                raise ValueError("the uncontrollability objective requires B")
            object.__setattr__(self, "b", as_complex_matrix(self.b))
            if self.b.shape[0] != self.a.shape[0]:
                raise ValueError(f"B must have {self.a.shape[0]} rows, got {self.b.shape}")
            floor = 1e-12 * max(norm2(np.hstack([self.a, self.b])), 1.0)
        elif self.b is not None:
            raise ValueError("B is only meaningful for the uncontrollability objective")
        object.__setattr__(self, "floor", floor)


@dataclass(frozen=True)
class LocalMin:
    """Result of a local minimization run."""

    z: complex
    value: float


# The one feasibility rule of the package: per objective, the conditions a
# point must meet, in order, each with the reason a point that fails it
# breaks the rule.  Each test takes one point or an array of points.  Every
# point must be finite first: an infinite or NaN part would pass or fail the
# later tests for the wrong reason.  The continuous-time gradient divides by
# (Re z)², which must not underflow to 0 or to a subnormal number, whose
# reciprocal overflows.
_FINITE = ("z is not finite", np.isfinite)
_RULE = {
    PencilKind.KREISS_CONTINUOUS: (
        _FINITE,
        ("Re z <= 0", lambda z: z.real > 0.0),
        ("Re z * Re z underflows", lambda z: z.real * z.real >= sys.float_info.min),
    ),
    PencilKind.KREISS_DISCRETE: (_FINITE, ("|z| <= 1", lambda z: abs(z) > 1.0)),
    PencilKind.DIST_UNCONTROLLABLE: (_FINITE,),
}


def _infeasibility(kind: PencilKind, z: complex) -> Optional[str]:
    """The reason ``z`` breaks the feasibility rule, or None."""
    return next((reason for reason, holds in _RULE[kind] if not holds(z)), None)


def check_start(kind: PencilKind, z) -> complex:
    """``z`` as a complex number if a descent can start there.

    Raises ``InfeasibleStart``, naming ``z`` and the rule it breaks, unless
    ``z`` is strictly feasible and stays so once rounded into the descent's
    working parameters.
    """
    z = complex(z)
    reason = _infeasibility(kind, z)
    if reason is None and _infeasibility(kind, _unpack(kind, _pack(kind, z))) is not None:
        reason = "rounds onto the boundary"
    if reason is not None:
        raise InfeasibleStart(f"start {z} is infeasible ({reason})")
    return z


def _matrices(kind: PencilKind, a: np.ndarray, b, zs: np.ndarray) -> np.ndarray:
    """The family's matrix at each point of the 1-D array ``zs``, as a stack:
    zI - A for the Kreiss objectives, [A - zI, B] for the uncontrollability one.

    The stack is written in place, so it takes no temporary of its own size.
    """
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    if kind is PencilKind.DIST_UNCONTROLLABLE:
        out = np.empty((len(zs), n, n + b.shape[1]), dtype=np.complex128)
        shift = np.multiply(zs[:, None, None], eye, out=out[:, :, :n])
        np.subtract(a, shift, out=shift)
        out[:, :, n:] = b
        return out
    out = np.multiply(zs[:, None, None], eye)
    return np.subtract(out, a, out=out)


def _divisor(kind: PencilKind, z):
    """What sigma_min is divided by at ``z`` (a point or an array): Re z, |z| - 1 or 1."""
    if kind is PencilKind.KREISS_CONTINUOUS:
        return z.real
    if kind is PencilKind.KREISS_DISCRETE:
        return abs(z) - 1.0
    return 1.0


def objective_values(kind: PencilKind, a: np.ndarray, b, zs) -> np.ndarray:
    """The objective at each point of ``zs``, +inf at the infeasible ones.

    ``a`` and ``b`` are validated complex matrices, ``b`` None for the
    Kreiss objectives.  Each sigma_min comes from a value-only SVD of the
    matrix that ``objective_value_grad`` builds.  The SVDs run on stacks of
    at most ``linalg.CHUNK_BYTES`` bytes of matrices, and no value depends
    on where the stacks split.
    """
    zs = np.asarray(zs, dtype=np.complex128).reshape(-1)
    out = np.full(zs.shape, np.inf)
    feasible = np.ones(zs.shape, dtype=bool)
    for _, holds in _RULE[kind]:
        feasible &= holds(zs)
    ok = np.flatnonzero(feasible)
    cols = a.shape[1] + (b.shape[1] if kind is PencilKind.DIST_UNCONTROLLABLE else 0)
    step = stack_length(a.shape[0], cols)
    for i in range(0, len(ok), step):
        idx = ok[i : i + step]
        out[idx] = sigma_min(_matrices(kind, a, b, zs[idx])) / _divisor(kind, zs[idx])
    return out


def objective_value_grad(obj: Objective, z: complex):
    """Objective value and analytic gradient at a strictly feasible point.

    Returns ``(value, grad)`` where grad is a length-2 array in the
    objective's native parametrization: (x, y) Cartesian for the
    continuous-time and uncontrollability objectives, (r, theta) polar for
    the discrete-time one.  At a multiple smallest singular value, grad is
    the subgradient of the triplet that the SVD returns.
    """
    z = complex(z)
    reason = _infeasibility(obj.kind, z)
    if reason is not None:
        raise InfeasiblePoint(f"z={z!r} is infeasible for {obj.kind.value} ({reason})")
    trip = svd_triplet(_matrices(obj.kind, obj.a, obj.b, np.array([z]))[0])[0]
    d = _divisor(obj.kind, z)
    value = trip.sigma / d

    if obj.kind is PencilKind.KREISS_CONTINUOUS:
        uv = complex(np.vdot(trip.u, trip.v))  # u* v
        s_x, s_y = uv.real, -uv.imag
        return value, np.array([(d * s_x - trip.sigma) / (d * d), s_y / d])

    if obj.kind is PencilKind.KREISS_DISCRETE:
        r, theta = abs(z), cmath.phase(z)
        w = complex(np.exp(1j * theta) * np.vdot(trip.u, trip.v))  # e^{i theta} u* v
        s_r, s_t = w.real, -r * w.imag
        return value, np.array([(s_r * d - trip.sigma) / d**2, s_t / d])

    uv1 = complex(np.vdot(trip.u, trip.v[: obj.a.shape[0]]))  # u* v_1, first n rows of v
    return value, np.array([-uv1.real, uv1.imag])


def _pack(kind: PencilKind, z: complex) -> np.ndarray:
    """Map a feasible point to unconstrained working parameters."""
    if kind is PencilKind.KREISS_CONTINUOUS:
        return np.array([math.log(z.real), z.imag])
    if kind is PencilKind.KREISS_DISCRETE:
        return np.array([math.log(abs(z) - 1.0), cmath.phase(z)])
    return np.array([z.real, z.imag])


def _unpack(kind: PencilKind, p: np.ndarray) -> complex:
    if kind is PencilKind.KREISS_CONTINUOUS:
        return complex(math.exp(p[0]), p[1])
    if kind is PencilKind.KREISS_DISCRETE:
        return (1.0 + math.exp(p[0])) * cmath.exp(1j * p[1])
    return complex(p[0], p[1])


def _working_grad(kind: PencilKind, p: np.ndarray, native_grad: np.ndarray) -> np.ndarray:
    # chain rule through x = e^w (continuous) or r = 1 + e^w (discrete)
    if kind in (PencilKind.KREISS_CONTINUOUS, PencilKind.KREISS_DISCRETE):
        return np.array([native_grad[0] * math.exp(p[0]), native_grad[1]])
    return native_grad.copy()


# What drops one descent from a race or a polish: a start off the feasible
# region, an iterate that leaves it, or an SVD that fails.  Any other error
# is a defect and propagates.
DROPPED_ERRORS = (InfeasibleStart, InfeasiblePoint, DecompositionError)


def descend(obj: Objective, z0: complex):
    """BFGS descent from ``z0`` as a generator; iterates stay strictly feasible.

    Yields once after each iteration that does not end the search, and
    returns the ``LocalMin``.  Stops when the working-parameter gradient norm
    falls below ``GRAD_TOL * max(1, value)``, when the value reaches
    ``obj.floor``, when no step length descends, when the step falls below
    ``STEP_TOL`` relative, or after ``MAX_ITER`` iterations, returning the
    best iterate.
    """
    p = _pack(obj.kind, check_start(obj.kind, z0))
    f, ng = objective_value_grad(obj, _unpack(obj.kind, p))
    g = _working_grad(obj.kind, p, ng)
    hinv = np.eye(2)

    for _ in range(MAX_ITER):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= GRAD_TOL * max(1.0, abs(f)) or f <= obj.floor:
            break
        d = -hinv @ g
        if float(d @ g) >= 0.0:  # not a descent direction: reset curvature model
            hinv = np.eye(2)
            d = -g
        # backtracking Armijo line search
        step = 1.0
        slope = float(d @ g)
        f_new = None
        for _ in range(50):
            p_try = p + step * d
            try:
                f_try, ng_try = objective_value_grad(obj, _unpack(obj.kind, p_try))
            except (OverflowError, InfeasiblePoint):
                # a trial out of range: halve the step, and move at most a
                # unit distance, so that a huge gradient far from the
                # minimizer still finds a step within 50 trials
                step = min(0.5 * step, 1.0 / float(np.linalg.norm(d)))
                continue
            if f_try <= f + 1e-4 * step * slope:
                f_new = f_try
                break
            step *= 0.5
        if f_new is None:
            break  # no descent along d at any step length: stationary
        g_try = _working_grad(obj.kind, p_try, ng_try)
        s = p_try - p
        y = g_try - g
        p, f, g = p_try, f_new, g_try
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            v = np.eye(2) - rho * np.outer(s, y)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        if float(np.linalg.norm(s)) <= STEP_TOL * max(1.0, float(np.linalg.norm(p))):
            break
        yield

    return LocalMin(z=_unpack(obj.kind, p), value=float(f))


def minimize(obj: Objective, z0: complex) -> LocalMin:
    """BFGS descent from ``z0`` run to its end; see ``descend``."""
    run = descend(obj, z0)
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return stop.value
