"""Brute-force references: grid minimization, ray scans, transients, PSA."""

import numpy as np
import pytest

from conftest import assert_close, rng, stable_continuous
from globcert import certificates
from globcert.localopt import Objective
from globcert.oracle import GridSpec, grid_min, psa_grid_estimate, ray_scan, transient_samples
from globcert.pencils import PencilKind


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((0, 1, 0, 1), nx=10)


def test_grid_min_dtu_closed_form():
    obj = Objective(PencilKind.DIST_UNCONTROLLABLE, [[2.0]], [[1.0]])
    z, v = grid_min(obj, GridSpec((0.0, 4.0, -2.0, 2.0), 200, 200))
    assert_close(z.real, 2.0, rel=1e-8)
    assert abs(z.imag) <= 1e-6
    assert_close(v, 1.0, rel=1e-8)


def test_grid_min_normal_monotone_toward_infinity():
    obj = Objective(PencilKind.KREISS_CONTINUOUS, -np.eye(2))
    _, v10 = grid_min(obj, GridSpec((1e-3, 10.0, -5.0, 5.0), 100, 100, polish=False))
    _, v40 = grid_min(obj, GridSpec((1e-3, 40.0, -5.0, 5.0), 100, 100, polish=False))
    assert v40 < v10
    assert v40 > 1.0  # no interior minimizer: value only approaches 1


def test_grid_min_discrete_zero_matrix_boundary():
    obj = Objective(PencilKind.KREISS_DISCRETE, np.zeros((2, 2)))
    _, v = grid_min(obj, GridSpec((1 + 1e-9, 10.0, -np.pi, np.pi), 100, 100, polar=True, polish=False))
    assert_close(v, 10.0 / 9.0, rel=1e-6)


def test_ray_scan_examples():
    grid = np.geomspace(0.01, 100, 2000)
    a = np.diag([-1.0, -2.0])
    assert ray_scan(PencilKind.KREISS_CONTINUOUS, a, None, 2.0, 0.0, grid)
    assert not ray_scan(PencilKind.KREISS_CONTINUOUS, a, None, 0.5, 0.0, grid)
    assert ray_scan(PencilKind.DIST_UNCONTROLLABLE, [[2.0]], [[1.0]], 1.25, 0.0, grid)


def test_ray_scan_validation():
    with pytest.raises(ValueError):
        ray_scan(PencilKind.KREISS_DISCRETE, np.eye(2), None, 0.5, 0.0, [0.5, 2.0])
    with pytest.raises(ValueError):
        ray_scan(PencilKind.KREISS_CONTINUOUS, np.eye(2), None, 0.5, 0.0, [2.0, 1.0])


def test_transient_samples():
    assert np.allclose(transient_samples(np.zeros((3, 3)), [0.0, 1.0, 5.0]), 1.0)
    t = np.linspace(0, 3, 7)
    vals = transient_samples(np.array([[-1.0]]), t)
    assert np.allclose(vals, np.exp(-t), rtol=1e-10)


def test_transient_against_taylor_series():
    a = np.array([[-0.1, 10.0], [0.0, -0.1]])
    (val,) = transient_samples(a, [1.0])
    # direct Taylor summation after scaling: e^{A} = (e^{A/32})^{32}
    small = a / 32.0
    term = np.eye(2)
    acc = np.eye(2)
    for k in range(1, 30):
        term = term @ small / k
        acc = acc + term
    ref = np.linalg.matrix_power(acc, 32)
    assert_close(val, np.linalg.norm(ref, 2), rel=1e-10)
    assert val >= 10.0 * np.exp(-0.2) - 1e-9  # lower bound via the (1,2) entry


def test_transient_overflow():
    with pytest.raises(OverflowError):
        transient_samples(np.array([[500.0]]), [0.0, 2.0])


def test_psa_grid_estimate_normal_disk():
    a = np.diag([-1.0])
    est = psa_grid_estimate(a, 0.5, GridSpec((-2.0, 0.5, -1.0, 1.0), 101, 101))
    assert est <= -0.5 + 1e-12  # always a lower bound on -1 + eps
    assert_close(est, -0.5, rel=1e-6)


def test_psa_grid_estimate_small_eps_approaches_abscissa():
    a = np.diag([-1.0])
    for eps in (1e-2, 1e-4, 1e-6):
        # grid refined with eps so the shrinking disk stays resolved
        spec = GridSpec((-1.0 - 2 * eps, -1.0 + 2 * eps, -2 * eps, 2 * eps), 101, 101)
        est = psa_grid_estimate(a, eps, spec)
        assert -1.0 <= est <= -1.0 + eps + 1e-12  # lower bound rising to alpha(A)


def test_psa_grid_estimate_none_qualify():
    a = np.diag([-1.0])
    est = psa_grid_estimate(a, 1e-6, GridSpec((5.0, 6.0, 5.0, 6.0), 60, 60))
    assert est == -np.inf


def test_psa_grid_estimate_jordan_block():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    est = psa_grid_estimate(a, 0.01, GridSpec((-0.3, 0.3, -0.3, 0.3), 121, 121))
    # alpha_eps = sqrt(eps (1 + eps)) exactly for this block; the grid value
    # is a lower bound and must exceed the sqrt(eps) leading-order estimate
    exact = np.sqrt(0.01 * 1.01)
    assert 0.09 <= est <= exact + 1e-9


def test_grid_min_stacks_stay_within_the_chunk_budget(monkeypatch):
    # 40,000 matrices of order 30 would take 576 MB in one SVD call
    obj = Objective(PencilKind.KREISS_CONTINUOUS, stable_continuous(rng(31), 30))
    svd, shapes = np.linalg.svd, []

    def recording_svd(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    grid_min(obj, GridSpec((1e-3, 4.0, -4.0, 4.0), 200, 200, polish=False))
    stacked = [shape for shape in shapes if len(shape) == 3]
    assert sum(shape[0] for shape in stacked) == 200 * 200
    assert max(16 * np.prod(shape) for shape in stacked) <= certificates.CHUNK_BYTES
