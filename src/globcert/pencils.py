"""The three structured pencil families, as their reduced standard forms.

Each family pairs a Hamiltonian first member with a skew-Hamiltonian second
member; the eigenvalues ``i*r`` on the positive imaginary axis of the pair
mark radii where the family's singular-value objective (listed in
``localopt``, which also evaluates it) crosses the level ``gamma`` along the
ray at angle ``theta``.  The solver needs only the reduced matrix
``rhs^{-1} lhs`` of each pair, so that is all this module builds.

The reduced forms are written from explicit closed-form inverses of the
second member, never by numerical inversion, so the singularity guard is a
pure scalar test.

A certificate level is one ``PencilConstants``: the family, gamma, the
validated A and B, and everything in a reduced matrix that does not depend
on the angle, built once per level: A^H, I and ||A||_2, the
uncontrollability block ``B B^H / gamma - gamma I``, and an O(1)-per-angle
upper bound on ||M(theta)||_2 that scales the certificate tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "NearSingularSecondMember",
    "NonpositiveGamma",
    "PencilConstants",
    "PencilKind",
    "pencil_constants",
    "reduced_dtu_matrix",
    "reduced_kc_matrix",
    "reduced_kd_matrix",
]

SINGULARITY_GUARD = 1e-12


class NearSingularSecondMember(ValueError):
    """The second pencil member is singular to within the scalar guard."""


class NonpositiveGamma(ValueError):
    """The uncontrollability pencil requires gamma > 0."""


class PencilKind(Enum):
    KREISS_CONTINUOUS = "kreiss-continuous"
    KREISS_DISCRETE = "kreiss-discrete"
    DIST_UNCONTROLLABLE = "dist-uncontrollable"


@dataclass(frozen=True, eq=False)
class PencilConstants:
    """One certificate level: family ``kind`` at ``gamma`` on A and B.

    ``a`` and ``b`` are validated complex matrices, ``b`` None for the
    Kreiss families.  The rest are the theta-independent parts of the
    reduced matrix: ``ah``, ``eye`` and ``a_norm`` (A^H, I and ||A||_2)
    depend on A alone; ``b_tilde`` (uncontrollability only) and
    ``level_norm`` depend on gamma as well.  Build with ``pencil_constants``.
    """

    kind: PencilKind
    gamma: float
    a: np.ndarray
    b: Optional[np.ndarray]
    ah: np.ndarray
    eye: np.ndarray
    a_norm: float
    b_tilde: Optional[np.ndarray] = None
    level_norm: float = math.nan

    def norm_bound(self, theta: float) -> float:
        """An upper bound on ||M(theta)||_2 of the reduced matrix, O(1) per angle.

        Continuous-time: ``(1 + |c|) ||A|| / |1 - c^2|`` with c = gamma cos(theta).
        Discrete-time: ``(1 + |g|)(||A|| + |g|) / |1 - g^2|`` with g = gamma.
        Uncontrollability: exact, ``||[[A, B~], [-gamma I, A^H]]||_2``, since
        M(theta) is the unitary diag(i e^{-i theta} I, i e^{i theta} I) times
        that matrix.
        """
        if self.kind is PencilKind.KREISS_CONTINUOUS:
            c = abs(self.gamma * math.cos(theta))
            return (1.0 + c) * self.a_norm / abs(1.0 - c * c)
        return self.level_norm


def pencil_constants(kind: PencilKind, a: np.ndarray, b, gamma: float) -> PencilConstants:
    """The level of family ``kind`` at ``gamma`` on validated complex A (and B).

    Raises the family's guard errors when gamma itself is degenerate.
    """
    ah, eye, a_norm = a.conj().T, _eye_like(a), float(np.linalg.norm(a, 2))
    if kind is PencilKind.KREISS_CONTINUOUS:
        return PencilConstants(kind, gamma, a, b, ah, eye, a_norm)
    if kind is PencilKind.KREISS_DISCRETE:
        _check_kd_gamma(gamma)
        g = abs(gamma)
        bound = (1.0 + g) * (a_norm + g) / abs(1.0 - g * g)
        return PencilConstants(kind, gamma, a, b, ah, eye, a_norm, level_norm=bound)
    b_tilde = _b_tilde(b, gamma, eye)
    exact = float(np.linalg.norm(np.block([[a, b_tilde], [-gamma * eye, ah]]), 2))
    return PencilConstants(kind, gamma, a, b, ah, eye, a_norm, b_tilde, exact)


def _eye_like(a: np.ndarray) -> np.ndarray:
    return np.eye(a.shape[0], dtype=np.complex128)


def _check_kd_gamma(gamma: float) -> None:
    if abs(1.0 - abs(gamma)) <= SINGULARITY_GUARD:
        raise NearSingularSecondMember(f"|gamma| = {abs(gamma)!r} within 1e-12 of 1")


def _b_tilde(b: np.ndarray, gamma: float, eye: np.ndarray) -> np.ndarray:
    """``B B^H / gamma - gamma I``, the uncontrollability pencil's coupling block."""
    if gamma <= 0.0:
        raise NonpositiveGamma(f"gamma must be positive, got {gamma!r}")
    return (1.0 / gamma) * (b @ b.conj().T) - gamma * eye


def _angles(theta) -> tuple[np.ndarray, bool]:
    """``theta`` as a 1-D float array, and whether it was a single angle."""
    t = np.asarray(theta, dtype=float)
    return t.reshape(-1), t.ndim == 0


def _times(coef: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = coef[i] * m`` for k per-angle scalars and a (k, n, n) block.

    One angle is written as a 2-D product.  numpy multiplies a 3-D array of
    a single element with its plain complex kernel, not the fused
    multiply-add one it uses everywhere else, so a 1 x 1 block of a
    one-angle stack would round differently from the same product inside a
    longer stack.
    """
    if out.shape[0] == 1:
        np.multiply(coef[0], m, out=out[0])
    else:
        np.multiply(coef[:, None, None], m, out=out)


def _blocks(k: int, n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """An uninitialised (k, 2n, 2n) stack and views of its four n x n blocks."""
    out = np.empty((k, 2 * n, 2 * n), dtype=np.complex128)
    return out, (out[:, :n, :n], out[:, :n, n:], out[:, n:, :n], out[:, n:, n:])


def reduced_kc_matrix(
    a: np.ndarray, gamma: float, theta, const: Optional[PencilConstants] = None
) -> np.ndarray:
    """Closed-form reduced matrix of the continuous-time pencil.

    ``theta`` is one angle, giving the 2n x 2n matrix, or a 1-D array of k
    angles, giving the (k, 2n, 2n) stack; every builder writes its blocks
    straight into the stack, and slice i of a stack is bit for bit the matrix
    at ``theta[i]`` alone.  ``const``, from ``pencil_constants`` at the same
    A and gamma, supplies A^H; every reduced builder gives the same matrix
    with or without it.  A singular second member raises for the first
    offending angle.
    """
    t, single = _angles(theta)
    gc = gamma * np.cos(t)
    near = np.abs(1.0 - np.abs(gc)) <= SINGULARITY_GUARD
    if near.any():
        i = int(np.argmax(near))
        raise NearSingularSecondMember(
            f"|gamma*cos(theta)| = {abs(gc[i])!r} within 1e-12 of 1 at theta={float(t[i])!r}"
        )
    ah = a.conj().T if const is None else const.ah
    s = 1j / (1.0 - gc * gc)
    out, (tl, tr, bl, br) = _blocks(t.size, a.shape[0])
    _times(s * np.exp(-1j * t), a, tl)
    _times(s * gc, ah, tr)
    _times(s * gc, a, bl)
    _times(s * np.exp(1j * t), ah, br)
    return out[0] if single else out


def reduced_kd_matrix(
    a: np.ndarray, gamma: float, theta, const: Optional[PencilConstants] = None
) -> np.ndarray:
    """Closed-form reduced matrix of the discrete-time pencil (one angle or a stack)."""
    _check_kd_gamma(gamma)
    t, single = _angles(theta)
    e_p = np.exp(1j * t)
    e_m = np.exp(-1j * t)
    g = gamma
    ah, eye = (a.conj().T, _eye_like(a)) if const is None else (const.ah, const.eye)
    s = 1j / (1.0 - g * g)
    sg = s * g
    g2_eye = g * g * eye
    out, (tl, tr, bl, br) = _blocks(t.size, a.shape[0])
    # s (e^{-i theta} A - g^2 I)
    _times(e_m, a, tl)
    np.subtract(tl, g2_eye, out=tl)
    np.multiply(s, tl, out=tl)
    # s g (A^H - e^{-i theta} I)
    _times(e_m, eye, tr)
    np.subtract(ah, tr, out=tr)
    np.multiply(sg, tr, out=tr)
    # s g (A - e^{i theta} I)
    _times(e_p, eye, bl)
    np.subtract(a, bl, out=bl)
    np.multiply(sg, bl, out=bl)
    # s (e^{i theta} A^H - g^2 I)
    _times(e_p, ah, br)
    np.subtract(br, g2_eye, out=br)
    np.multiply(s, br, out=br)
    return out[0] if single else out


def reduced_dtu_matrix(
    a: np.ndarray,
    b: np.ndarray,
    gamma: float,
    theta,
    const: Optional[PencilConstants] = None,
) -> np.ndarray:
    """Closed-form reduced matrix of the uncontrollability pencil (one angle or a stack)."""
    t, single = _angles(theta)
    e_p = np.exp(1j * t)
    i_e_m = 1j * np.exp(-1j * t)
    if const is None:
        eye = _eye_like(a)
        ah, b_tilde = a.conj().T, _b_tilde(b, gamma, eye)
    else:
        eye, ah, b_tilde = const.eye, const.ah, const.b_tilde
    out, (tl, tr, bl, br) = _blocks(t.size, a.shape[0])
    _times(i_e_m, a, tl)
    _times(i_e_m, b_tilde, tr)
    _times(-1j * gamma * e_p, eye, bl)
    _times(1j * e_p, ah, br)
    return out[0] if single else out
