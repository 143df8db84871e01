"""Reference computations that check the solvers, kept out of the package.

They are slow and simple on purpose.  They share with the solver only the
objective evaluator ``localopt.objective_values``, whose formula is tested
against explicitly built matrices, and the kernels of ``linalg``: no pencil
reduction, certificate or interpolant.  So agreement between a ray scan and
a certificate is evidence about the certificate rather than tautology.

* ``raw_pencil``: the Hamiltonian / skew-Hamiltonian pair whose reduced
  matrix ``rhs^{-1} lhs`` the package writes in closed form;
* ``ray_scan``: a brute-force sign-change scan of the radial objective;
* ``transient_samples``: ||e^{tA}||_2 through scipy's ``expm``;
* ``psa_grid_estimate``: a grid lower bound on the pseudospectral abscissa;
* ``cond2`` and ``spectra_match``: a condition number, and a multiset
  comparison of spectra.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg

from globcert.linalg import as_complex_matrix, norm2, sigma_min, stack_length
from globcert.localopt import Objective, objective_values
from globcert.oracle import GridSpec
from globcert.pencils import PencilKind


class SingularMatrixError(ValueError):
    """cond2 was asked for a (numerically) singular matrix."""


def raw_pencil(kind: PencilKind, a, b, gamma: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The raw pencil (lhs, rhs) of family ``kind`` at level ``gamma`` and
    ray angle ``theta``: lhs Hamiltonian, rhs skew-Hamiltonian, order 2n.

    ``b`` is read only by the uncontrollability family.
    """
    a = as_complex_matrix(a)
    eye = np.eye(a.shape[0])
    e_p, e_m = np.exp(1j * theta), np.exp(-1j * theta)
    if kind is PencilKind.KREISS_CONTINUOUS:
        gc = gamma * np.cos(theta)
        lhs = np.block([[a, 0 * eye], [0 * eye, -a.conj().T]])
        rhs = np.block([[-1j * e_p * eye, 1j * gc * eye], [-1j * gc * eye, 1j * e_m * eye]])
    elif kind is PencilKind.KREISS_DISCRETE:
        g = gamma
        lhs = np.block([[a, -g * eye], [g * eye, -a.conj().T]])
        rhs = np.block([[-1j * e_p * eye, 1j * g * eye], [-1j * g * eye, 1j * e_m * eye]])
    else:
        b = as_complex_matrix(b)
        b_tilde = (1.0 / gamma) * (b @ b.conj().T) - gamma * eye
        lhs = np.block([[a, b_tilde], [gamma * eye, -a.conj().T]])
        rhs = np.block([[-1j * e_p * eye, 0 * eye], [0 * eye, 1j * e_m * eye]])
    return lhs, rhs


def ray_scan(
    kind: PencilKind,
    a,
    b,
    gamma: float,
    theta: float,
    r_grid,
) -> bool:
    """True iff the radial objective crosses (or touches) level gamma.

    Scans the strictly increasing radii in ``r_grid`` for a sign change of
    (objective - gamma) between consecutive points, or a touch |.| <= 1e-9.
    """
    a = as_complex_matrix(a)
    r = np.asarray(r_grid, dtype=float)
    if np.any(np.diff(r) <= 0.0):
        raise ValueError("r_grid must be strictly increasing")
    if kind is PencilKind.KREISS_DISCRETE and np.any(r <= 1.0):
        raise ValueError("discrete-time radii must all exceed 1")
    if kind is not PencilKind.KREISS_DISCRETE and np.any(r <= 0.0):
        raise ValueError("radii must be positive")
    zs = r * np.exp(1j * theta)
    obj = Objective(kind, a, as_complex_matrix(b) if b is not None else None)
    diff = objective_values(kind, obj.a, obj.b, zs) - gamma
    if np.any(np.abs(diff) <= 1e-9):
        return True
    return bool(np.any(diff[:-1] * diff[1:] < 0.0))


def transient_samples(a, t_grid) -> np.ndarray:
    """Spectral norms of the matrix exponential e^{tA} at each t >= 0.

    Uses scaling-and-squaring with Pade approximation.  Raises OverflowError
    when a strongly unstable A drives the norm out of double range.
    """
    a = as_complex_matrix(a)
    out = []
    for t in np.asarray(t_grid, dtype=float):
        if t < 0.0:
            raise ValueError("t_grid must be nonnegative")
        e = scipy.linalg.expm(t * a)
        if not np.all(np.isfinite(e)):
            raise OverflowError(f"matrix exponential overflowed at t={t!r}")
        out.append(norm2(e))
    return np.array(out)


def psa_grid_estimate(a, eps: float, spec: GridSpec, refine: int = 3) -> float:
    """Grid lower bound on the pseudospectral abscissa at perturbation eps.

    Takes the max real part over grid points where sigma_min(zI - A) <= eps,
    then refines with ``refine`` local subgrids around the best point.
    Returns -inf when no grid point qualifies.  Always a lower bound.  The
    SVDs run on stacks of at most ``linalg.CHUNK_BYTES`` bytes of matrices.
    """
    a = as_complex_matrix(a)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)

    def scan(zs: np.ndarray) -> tuple[float, Optional[complex]]:
        step = stack_length(n, n)
        s = np.concatenate(
            [sigma_min(zs[i : i + step, None, None] * eye - a) for i in range(0, len(zs), step)]
        )
        ok = s <= eps
        if not np.any(ok):
            return -np.inf, None
        k = int(np.argmax(np.where(ok, zs.real, -np.inf)))
        return float(zs[k].real), complex(zs[k])

    best, best_z = scan(spec.points())
    if best_z is None:
        return -np.inf
    u0, u1, v0, v1 = spec.bounds
    dx = (u1 - u0) / spec.nx
    dy = (v1 - v0) / spec.ny
    for _ in range(refine):
        x = np.linspace(best_z.real - 2 * dx, best_z.real + 2 * dx, 41)
        y = np.linspace(best_z.imag - 2 * dy, best_z.imag + 2 * dy, 41)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        cand, cand_z = scan((xx + 1j * yy).ravel())
        if cand_z is None:
            break
        best, best_z = max(best, cand), cand_z
        dx /= 10.0
        dy /= 10.0
    return best


def cond2(m) -> float:
    """Spectral-norm condition number sigma_max / sigma_min."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"cond2 requires a square matrix, got {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= 1e-300:
        raise SingularMatrixError("matrix is singular to working precision")
    return float(s[0] / s[-1])


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
