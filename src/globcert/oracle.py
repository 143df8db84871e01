"""The grid oracle behind ``globcert verify``: a brute-force spot check.

It is intentionally slow and simple.  It shares the objective evaluator
``localopt.objective_values`` with the solver, whose formula is tested
against explicitly built matrices, and nothing else of its search: no
pencil, certificate or interpolant.  So agreement between the grid and a
certified solve is evidence about the certificate rather than tautology.
The grid is evaluated in stacks of at most ``linalg.CHUNK_BYTES``, so its
memory does not grow with the resolution.  Grid minimization optionally
polishes the best grid points with the local optimizer: the grid certifies
basin coverage while the optimizer's own correctness is certified
separately by finite differences.  The test suite's other references (ray
scans, matrix exponentials, pseudospectral abscissae) are in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .localopt import DROPPED_ERRORS, Objective, minimize, objective_values

__all__ = ["GridSpec", "grid_min"]


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
        # drop a start as the solver's race drops one; any other error is a
        # defect and propagates
        try:
            res = minimize(obj, z0)
        except DROPPED_ERRORS:
            continue
        if res.value < best_v:
            best_v, best_z = res.value, res.z
    return best_z, best_v
