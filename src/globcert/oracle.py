"""Brute-force reference computations used by tests and spot checks.

These are intentionally slow and simple.  They share the objective
evaluator ``localopt.objective_values`` with the solver, whose formula is
tested against explicitly built matrices, and nothing else of its search:
no pencil, certificate or interpolant.  So agreement between a grid or ray
scan and a certified solve is evidence about the certificate rather than
tautology.  The grid is evaluated in stacks of at most
``certificates.CHUNK_BYTES``, so its memory does not grow with the
resolution.  Grid minimization optionally polishes the best grid points
with the local optimizer: the grid certifies basin coverage while the
optimizer's own correctness is certified separately by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_complex_matrix, norm2
from .localopt import Objective, minimize, objective_values
from .pencils import PencilKind

__all__ = [
    "GridSpec",
    "grid_min",
    "psa_grid_estimate",
    "ray_scan",
    "transient_samples",
]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular search region, Cartesian (x, y) or polar (r, theta).

    ``bounds`` is (x0, x1, y0, y1), or (r0, r1, t0, t1) when polar=True.
    """

    bounds: tuple[float, float, float, float]
    nx: int = 200
    ny: int = 200
    polish: bool = True
    polar: bool = False

    def __post_init__(self):
        if self.nx < 50 or self.ny < 50:
            raise ValueError("grid resolution must be at least 50 per axis")

    def points(self) -> np.ndarray:
        u0, u1, v0, v1 = self.bounds
        u = np.linspace(u0, u1, self.nx)
        v = np.linspace(v0, v1, self.ny)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        if self.polar:
            return (uu * np.exp(1j * vv)).ravel()
        return (uu + 1j * vv).ravel()


def grid_min(obj: Objective, spec: GridSpec) -> tuple[complex, float]:
    """Minimum of the objective over the grid, optionally polished.

    With polishing, local optimization is run from the 10 best spatially
    separated grid points and the best result wins.
    """
    zs = spec.points()
    vals = objective_values(obj.kind, obj.a, obj.b, zs)
    finite = np.isfinite(vals)
    zs, vals = zs[finite], vals[finite]
    order = np.argsort(vals, kind="stable")
    best_z = complex(zs[order[0]])
    best_v = float(vals[order[0]])
    if not spec.polish:
        return best_z, best_v
    u0, u1, v0, v1 = spec.bounds
    sep = 2.0 * max((u1 - u0) / spec.nx, (v1 - v0) / spec.ny)
    starts: list[complex] = []
    for idx in order:
        z = complex(zs[idx])
        if all(abs(z - w) > sep for w in starts):
            starts.append(z)
        if len(starts) >= 10:
            break
    for z0 in starts:
        try:
            res = minimize(obj, z0)
        except Exception:
            continue
        if res.value < best_v:
            best_v, best_z = res.value, res.z
    return best_z, best_v


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
    import scipy.linalg  # the only scipy user; kept off the import path

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
    Returns -inf when no grid point qualifies.  Always a lower bound.
    """
    a = as_complex_matrix(a)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)

    def scan(zs: np.ndarray) -> tuple[float, Optional[complex]]:
        s = np.linalg.svd(zs[:, None, None] * eye - a, compute_uv=False)[:, -1]
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
