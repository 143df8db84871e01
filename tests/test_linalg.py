"""Kernel contracts: SVD triplets, eigenvalues, condition numbers, normality."""

import numpy as np
import pytest

from conftest import assert_close, random_complex, rng
from globcert.linalg import (
    SingularMatrixError,
    as_complex_matrix,
    cond2,
    eigenvalues,
    is_normal,
    norm2,
    smallest_singular_triplet,
    spectra_match,
    spectral_abscissa,
    spectral_radius,
)


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf]])


def test_smallest_singular_triplet_identity():
    t = smallest_singular_triplet(np.eye(3))
    assert_close(t.sigma, 1.0)
    assert_close(np.linalg.norm(t.u), 1.0, rel=1e-12)
    assert_close(np.linalg.norm(t.v), 1.0, rel=1e-12)


def test_smallest_singular_triplet_rank_one_row():
    m = np.array([[2.0, 1.0]])
    t = smallest_singular_triplet(m)
    assert_close(t.sigma, np.sqrt(5.0))
    assert_close(abs(t.v[0]), 2 / np.sqrt(5), rel=1e-12)
    assert_close(abs(t.v[1]), 1 / np.sqrt(5), rel=1e-12)


def test_smallest_singular_triplet_diagonal():
    t = smallest_singular_triplet(np.diag([3.0, 0.5]))
    assert_close(t.sigma, 0.5)


def test_triplet_residuals_random():
    gen = rng(11)
    for _ in range(25):
        m = random_complex(gen, int(gen.integers(1, 7)), int(gen.integers(1, 7)))
        t = smallest_singular_triplet(m)
        scale = norm2(m)
        assert np.linalg.norm(m @ t.v - t.sigma * t.u) <= 1e-10 * max(scale, 1e-300)
        assert np.linalg.norm(m.conj().T @ t.u - t.sigma * t.v) <= 1e-10 * max(scale, 1e-300)


def test_singular_value_product_matches_determinant():
    gen = rng(12)
    for _ in range(20):
        n = int(gen.integers(1, 9))
        m = random_complex(gen, n)
        s = np.linalg.svd(m, compute_uv=False)
        assert_close(np.prod(s), abs(np.linalg.det(m)), rel=1e-8)


def test_eigenvalues_examples():
    assert spectra_match(eigenvalues(np.diag([1 + 2j, -3.0])), [1 + 2j, -3], 1e-12)
    assert spectra_match(eigenvalues([[0, 1], [-1, 0]]), [1j, -1j], 1e-12)
    companion = np.array([[3.0, -2.0], [1.0, 0.0]])  # z^2 - 3 z + 2
    assert spectra_match(eigenvalues(companion), [1.0, 2.0], 1e-10)


def test_eigenvalues_similarity_invariance():
    gen = rng(13)
    for _ in range(10):
        n = int(gen.integers(2, 7))
        m = random_complex(gen, n)
        p = random_complex(gen, n) + 3 * np.eye(n)  # well conditioned
        lam1 = eigenvalues(m)
        lam2 = eigenvalues(p @ m @ np.linalg.inv(p))
        assert spectra_match(lam1, lam2, 1e-7 * max(norm2(m), 1.0))


def test_cond2_examples():
    assert_close(cond2(np.eye(4)), 1.0)
    assert_close(cond2(np.diag([4.0, 2.0])), 2.0)
    with pytest.raises(SingularMatrixError):
        cond2(np.diag([1.0, 0.0]))


def test_cond2_block_matrix_law():
    # E = [[a I, b I], [conj(b) I, conj(a) I]] has kappa = (|a|+|b|)/||a|-|b||
    gen = rng(14)
    for _ in range(50):
        a = complex(gen.standard_normal(), gen.standard_normal())
        b = complex(gen.standard_normal(), gen.standard_normal())
        if abs(abs(a) - abs(b)) < 1e-3:
            continue
        eye = np.eye(2)
        e = np.block([[a * eye, b * eye], [np.conj(b) * eye, np.conj(a) * eye]])
        assert_close(cond2(e), (abs(a) + abs(b)) / abs(abs(a) - abs(b)), rel=1e-12)
    a, b = 3 + 4j, 1.0
    e = np.block([[a * np.eye(2), b * np.eye(2)], [np.conj(b) * np.eye(2), np.conj(a) * np.eye(2)]])
    assert_close(cond2(e), 1.5, rel=1e-12)


def test_is_normal():
    h = np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]])
    assert is_normal(h)
    assert not is_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))
    circulant = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
    assert is_normal(circulant)


def test_spectral_abscissa_radius():
    assert_close(spectral_abscissa(np.diag([-1.0, -2.0])), -1.0)
    assert_close(spectral_radius(np.diag([-1.0, -2.0])), 2.0)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(spectral_abscissa(rot)) <= 1e-12
    assert_close(spectral_radius(rot), 1.0)
    z = np.zeros((3, 3))
    assert spectral_abscissa(z) == 0.0
    assert spectral_radius(z) == 0.0


@pytest.mark.parametrize("fn", [eigenvalues, is_normal])
def test_square_only_kernels_reject_a_non_square_matrix(fn):
    with pytest.raises(ValueError, match="square"):
        fn(np.ones((2, 3)))
