"""Angular certificate functions for the three radial level-set tests.

For a level ``gamma`` and ray angle ``theta``, each certificate computes the
spectrum of the corresponding reduced pencil and returns one formula for
every family: the minimum of ``Arg(mu - r_floor)^2``, with ``mu = -i*lambda``,
over eigenvalues with ``Re(lambda) <= 0``.  The radius floor is 0 for the
continuous-time and uncontrollability families and 1 for the discrete-time
family, whose crossings count only outside the unit circle.  An eigenvalue
that leaves the half-plane at ``mu > r_floor`` marks a crossing and reads 0;
one that leaves below the floor reads pi^2, the maximum, so eigenvalues
entering or leaving the half-plane cause no jump.  The value is zero exactly
when the ray meets the gamma-level set (or a lower one) of the underlying
singular-value surface beyond the floor, and every near-axis eigenvalue
nominating such a crossing is verified by a direct evaluation of the
objective at the nominated point ``r e^{i theta}``, which must come within
``VERIFY_TOL`` relative of gamma, before it may force the value to zero.
The recheck is ``localopt.objective_values``, the formula the descents
minimize, applied to a row's nominated radii at once.  That direct recheck
replaces the structured eigensolver backup pass: a nominated point is only
useful if the objective there is at most gamma, and the recheck answers
exactly that, immune to rounding in the eigensolve.

A sample costs one eigensolve of the 2n x 2n reduced matrix plus its
rechecks.  The nomination tolerance ``IMAG_TOL`` and the test for an
eigenvalue at the radius floor (``NearZeroPencilEigenvalue``) are scaled by
the family's O(1) upper bound on the reduced matrix's 2-norm
(``PencilConstants.norm_bound``), not by a per-sample SVD: the bound is exact
for the uncontrollability family and at least the norm for the other two, so
it can only widen the nominated set, and every nomination is still rechecked.
A and B are validated once, where a caller enters without per-level constants.

Angles are evaluated a chunk at a time (``eval_certificates``): the reduced
matrices of a chunk are built into one stack, which takes one
``np.linalg.eigvals`` call, and the eigenvalues are classified with
whole-array operations.  Every result is bit for bit what the angle gives
alone, so neither the chunk size nor the caller's batching changes a value.
The two degenerate-level errors are raised chunk by chunk: within a chunk, a
singular second member at any angle is raised before an eigenvalue at the
radius floor at an earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import as_complex_matrix, stack_length
from .localopt import objective_values
from .pencils import (
    PencilConstants,
    PencilKind,
    pencil_constants,
    reduced_dtu_matrix,
    reduced_kc_matrix,
    reduced_kd_matrix,
)

__all__ = [
    "CandidatePoint",
    "CertificateValue",
    "NearZeroPencilEigenvalue",
    "NoAcceptedCandidates",
    "chunk_length",
    "eval_certificate",
    "eval_certificates",
    "extract_restart_points",
]

PI_SQ = math.pi * math.pi
_TINY = np.finfo(float).tiny

# An eigenvalue within IMAG_TOL times the family's bound on the reduced
# matrix's 2-norm (``PencilConstants.norm_bound``) of ``i*[r_floor, inf)``
# nominates a level-set radius.
IMAG_TOL = 1e-8
# A nominated radius is accepted when its recheck gives
# ``sigma_min <= gamma * (1 + VERIFY_TOL)``.
VERIFY_TOL = 1e-8


class NearZeroPencilEigenvalue(ArithmeticError):
    """A pencil eigenvalue sits at the radius floor; its Arg would be noise.

    Raised when ``|mu - r_floor|`` falls below 1e-14 times the pencil norm
    bound, with ``mu = -i*lambda``.  The level is then degenerate at that
    angle, and a solver lowers it and sweeps again.
    """


class NoAcceptedCandidates(RuntimeError):
    """All nominated level-set radii failed the direct objective recheck."""


@dataclass(frozen=True, slots=True)
class CandidatePoint:
    """A nominated level-set radius on the ray, with its recheck result."""

    r: float
    theta: float
    verified_value: float
    accepted: bool


@dataclass(frozen=True, slots=True)
class CertificateValue:
    """One certificate evaluation at angle ``theta``.

    ``value`` lies in [0, pi^2] and is forced to zero only when at least one
    candidate passed verification.
    """

    theta: float
    value: float
    candidates: tuple[CandidatePoint, ...] = field(default_factory=tuple)

    @property
    def accepted(self) -> tuple[CandidatePoint, ...]:
        return tuple(c for c in self.candidates if c.accepted)

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0 and any(c.accepted for c in self.candidates)


def _eval_chunk(kind, a, b, gamma, thetas: list[float], const) -> list[CertificateValue]:
    """Certificate values at ``thetas``, from one stacked eigensolve.

    A singular second member at any angle raises ``NearSingularSecondMember``
    from the stacked build, naming the chunk's first such angle, before any
    eigenvalue is classified.  Classification is whole-array work on the
    stack; only rows that nominate radii, or whose pencil has an eigenvalue
    at the radius floor, are visited one by one, in angle order, so
    ``NearZeroPencilEigenvalue`` names the chunk's first such angle.
    """
    t = np.array(thetas)
    if kind is PencilKind.KREISS_CONTINUOUS:
        stack, r_floor = reduced_kc_matrix(a, gamma, t, const), 0.0
    elif kind is PencilKind.KREISS_DISCRETE:
        stack, r_floor = reduced_kd_matrix(a, gamma, t, const), 1.0
    else:
        stack, r_floor = reduced_dtu_matrix(a, b, gamma, t, const), 0.0
    lam = np.linalg.eigvals(stack)
    scales = [max(const.norm_bound(th), _TINY) for th in thetas]
    scale = np.array(scales)
    mu = lam / 1j  # rotate: the positive imaginary axis -> positive reals
    shifted = mu - r_floor
    # min Arg(mu - r_floor)^2 over eigenvalues in the closed left half-plane,
    # pi^2 (an upper bound of every term) where there are none
    values = np.min(np.where(lam.real <= 0.0, np.angle(shifted) ** 2, PI_SQ), axis=1)
    # Arg(mu - r_floor) is noise for an eigenvalue at the radius floor
    at_floor = np.min(np.abs(shifted), axis=1) < 1e-14 * scale
    # nominate eigenvalues close to i*[r_floor, inf) as level-set radii
    dist = np.where(mu.real >= r_floor, np.abs(mu.imag), np.abs(shifted))
    flagged = (dist <= IMAG_TOL * scale[:, None]) & (mu.real > r_floor)

    out = [CertificateValue(th, v) for th, v in zip(thetas, values.tolist())]
    for i in np.flatnonzero(at_floor | flagged.any(axis=1)):
        theta = thetas[i]
        if at_floor[i]:
            row = lam[i]
            raise NearZeroPencilEigenvalue(
                f"pencil eigenvalue at {row[np.argmin(np.abs(shifted[i]))]!r} meets the "
                f"radius floor {r_floor!r} relative to the pencil norm bound {scales[i]!r} "
                f"at theta={theta!r}"
            )
        candidates: list[CandidatePoint] = []
        radii = np.sort(mu[i, flagged[i]].real)
        rechecks = objective_values(kind, a, b, radii * np.exp(1j * theta))
        for r, verified in zip(radii.tolist(), rechecks.tolist()):
            accepted = verified <= gamma * (1.0 + VERIFY_TOL)
            if candidates and abs(r - candidates[-1].r) <= 1e-10 * max(1.0, r):
                # radii within 1e-10 relative merge, keeping the smaller recheck
                if verified < candidates[-1].verified_value:
                    candidates[-1] = CandidatePoint(r, theta, verified, accepted)
                continue
            candidates.append(CandidatePoint(r, theta, verified, accepted))
        value = 0.0 if any(c.accepted for c in candidates) else out[i].value
        out[i] = CertificateValue(theta, value, tuple(candidates))
    return out


def chunk_length(n: int) -> int:
    """Angles per stacked eigensolve: reduced matrices of order 2n fill
    about ``linalg.CHUNK_BYTES``, and a stack holds at least one."""
    return stack_length(2 * n, 2 * n)


def eval_certificates(
    kind: PencilKind,
    a,
    b,
    gamma,
    thetas,
    const: Optional[PencilConstants] = None,
) -> list[CertificateValue]:
    """Certificate values at each angle of ``thetas``, in order.

    The angles are evaluated a chunk of ``chunk_length(n)`` at a time, each
    chunk with one stacked eigensolve; every value and candidate is bit for
    bit what the same angle gives alone.  ``b`` is ignored unless evaluating
    the DTU certificate.  ``const`` holds the theta-independent parts of the
    pencil at this kind and level, from ``pencil_constants`` on validated
    complex A and B; a solver builds it once per certificate level and passes
    A and B as it validated them.  Without it, A and B are validated and the
    constants built for this one call.
    """
    if const is None:
        a = as_complex_matrix(a)
        b = as_complex_matrix(b) if kind is PencilKind.DIST_UNCONTROLLABLE else None
        const = pencil_constants(kind, a, b, gamma)
    elif const.kind is not kind or const.gamma != gamma:
        raise ValueError(
            f"constants for {const.kind.value} at gamma={const.gamma!r} "
            f"cannot evaluate {kind.value} at gamma={gamma!r}"
        )
    thetas = np.asarray(thetas, dtype=float).reshape(-1).tolist()
    step = chunk_length(a.shape[0])
    out: list[CertificateValue] = []
    for i in range(0, len(thetas), step):
        out += _eval_chunk(kind, a, b, gamma, thetas[i : i + step], const)
    return out


def eval_certificate(
    kind: PencilKind,
    a,
    b,
    gamma,
    theta,
    const: Optional[PencilConstants] = None,
) -> CertificateValue:
    """The certificate at one angle: ``eval_certificates`` on a batch of one."""
    return eval_certificates(kind, a, b, gamma, [theta], const)[0]


def extract_restart_points(cv: CertificateValue) -> list[tuple[complex, float]]:
    """Accepted candidates as Cartesian restart points for local optimization.

    Sorted ascending by verified objective value, ties by radius.  Raises
    NoAcceptedCandidates when every nomination failed its recheck.
    """
    if cv.value != 0.0:
        raise ValueError("extract_restart_points requires a zero certificate value")
    accepted = [c for c in cv.candidates if c.accepted]
    if not accepted:
        raise NoAcceptedCandidates(
            f"all {len(cv.candidates)} candidates at theta={cv.theta!r} failed verification"
        )
    accepted.sort(key=lambda c: (c.verified_value, c.r))
    return [(c.r * complex(np.exp(1j * c.theta)), c.verified_value) for c in accepted]
