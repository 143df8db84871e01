"""Dense complex linear-algebra kernels shared by every other module.

Everything here is a thin, contract-enforcing layer over LAPACK via numpy:
validated matrix construction, smallest singular triplets and values,
eigenvalues of general complex matrices, spectral norms, and the size of
the stacks that batched LAPACK calls take (``CHUNK_BYTES``).  All functions
are pure and safe to call from any number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecompositionError",
    "SingularTriplet",
    "as_complex_matrix",
    "eigenvalues",
    "norm2",
    "sigma_min",
    "spectral_abscissa",
    "spectral_radius",
    "stack_length",
    "svd_triplet",
]

# Bytes of matrices stacked into one eigensolve or SVD call: the
# certificate's reduced matrices, and the objective's matrices.  The time
# per matrix of a stacked call does not fall with the stack's length, so
# small stacks cost no time and keep the working memory small.
CHUNK_BYTES = 1 << 18


class DecompositionError(RuntimeError):
    """An eigen/SVD routine failed to converge; message carries dimensions."""


def stack_length(rows: int, cols: int) -> int:
    """Complex rows x cols matrices per stacked LAPACK call: they fill about
    ``CHUNK_BYTES`` (read when called), and a stack holds at least one."""
    return max(1, CHUNK_BYTES // (16 * rows * cols))


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


def spectral_abscissa(m) -> float:
    """Max real part over the eigenvalues of ``m``."""
    return float(np.max(eigenvalues(m).real))


def spectral_radius(m) -> float:
    """Max modulus over the eigenvalues of ``m``."""
    return float(np.max(np.abs(eigenvalues(m))))
