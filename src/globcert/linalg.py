"""Dense complex linear-algebra kernels shared by every other module.

Everything here is a thin, contract-enforcing layer over LAPACK via numpy:
validated matrix construction, smallest singular triplets, eigenvalues of
general complex matrices, spectral norms/condition numbers, and a multiset
comparator for spectra.  All functions are pure and safe to call from any
number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecompositionError",
    "SingularMatrixError",
    "SingularTriplet",
    "as_complex_matrix",
    "cond2",
    "eigenvalues",
    "is_normal",
    "norm2",
    "smallest_singular_triplet",
    "spectra_match",
    "spectral_abscissa",
    "spectral_radius",
    "svd_triplet",
]


class DecompositionError(RuntimeError):
    """An eigen/SVD routine failed to converge; message carries dimensions."""


class SingularMatrixError(ValueError):
    """cond2 was asked for a (numerically) singular matrix."""


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a dense complex128 2-D array.

    Raises ValueError for empty shapes or non-finite entries.
    """
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def norm2(m) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(m), 2))


@dataclass(frozen=True)
class SingularTriplet:
    """Smallest singular value with consistent unit singular vectors.

    Satisfies ``m @ v ~= sigma * u`` and ``m.conj().T @ u ~= sigma * v``.
    """

    sigma: float
    u: np.ndarray
    v: np.ndarray


def smallest_singular_triplet(m) -> SingularTriplet:
    """Smallest singular value of ``m`` with its left/right unit vectors."""
    return svd_triplet(as_complex_matrix(m))[0]


def svd_triplet(m: np.ndarray) -> tuple[SingularTriplet, np.ndarray]:
    """Smallest singular triplet and all singular values, from one SVD.

    ``m`` must already be a valid complex matrix; singular values come
    descending, as numpy orders them.
    """
    try:
        u_full, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"SVD failed to converge for a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    k = len(s) - 1
    trip = SingularTriplet(sigma=float(s[k]), u=u_full[:, k].copy(), v=vh[k, :].conj().copy())
    return trip, s


def sigma_min(m) -> np.ndarray:
    """Smallest singular value of each matrix of a stack (no vectors)."""
    m = np.asarray(m)
    try:
        return np.linalg.svd(m, compute_uv=False)[..., -1]
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"SVD failed to converge for a stack of {m.shape[-2]}x{m.shape[-1]} matrices"
        ) from exc


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a square matrix, with multiplicity (unordered)."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues requires a square matrix, got {m.shape}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"QR eigenvalue iteration did not converge within the LAPACK budget "
            f"for an order-{m.shape[0]} matrix"
        ) from exc


def cond2(m) -> float:
    """Spectral-norm condition number sigma_max / sigma_min."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"cond2 requires a square matrix, got {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= 1e-300:
        raise SingularMatrixError("matrix is singular to working precision")
    return float(s[0] / s[-1])


def is_normal(m, tol: float = 1e-12) -> bool:
    """True iff ``||m m* - m* m|| <= tol * ||m||^2`` in the spectral norm."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"is_normal requires a square matrix, got {m.shape}")
    comm = m @ m.conj().T - m.conj().T @ m
    scale = norm2(m) ** 2
    if scale == 0.0:
        return True
    return norm2(comm) <= tol * scale


def spectral_abscissa(m) -> float:
    """Max real part over the eigenvalues of ``m``."""
    return float(np.max(eigenvalues(m).real))


def spectral_radius(m) -> float:
    """Max modulus over the eigenvalues of ``m``."""
    return float(np.max(np.abs(eigenvalues(m))))


def spectra_match(lam_a, lam_b, tol: float) -> bool:
    """Compare two spectra as multisets with absolute tolerance ``tol``.

    Greedy nearest-neighbor matching; candidates are pre-sorted
    lexicographically by (Re, Im) so ties resolve deterministically.
    """
    a = sorted(np.asarray(lam_a, dtype=complex), key=lambda z: (z.real, z.imag))
    b = list(sorted(np.asarray(lam_b, dtype=complex), key=lambda z: (z.real, z.imag)))
    if len(a) != len(b):
        return False
    for z in a:
        dists = [abs(z - w) for w in b]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        b.pop(j)
    return True
