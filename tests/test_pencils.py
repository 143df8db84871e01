"""Pencil families: structure, closed forms, determinants, and round trips."""

import numpy as np
import pytest

from conftest import assert_close, random_complex, rng
from globcert.linalg import eigenvalues, norm2
from globcert.localopt import objective_values
from globcert.pencils import (
    NearSingularSecondMember,
    NonpositiveGamma,
    PencilKind,
    pencil_constants,
    reduced_dtu_matrix,
    reduced_kc_matrix,
    reduced_kd_matrix,
)
from reference import cond2, raw_pencil, spectra_match

KC, KD, DTU = PencilKind.KREISS_CONTINUOUS, PencilKind.KREISS_DISCRETE, PencilKind.DIST_UNCONTROLLABLE


def _j(n):
    z = np.zeros((n, n))
    return np.block([[z, np.eye(n)], [-np.eye(n), z]])


def _assert_structure(pair):
    lhs, rhs = pair
    n = lhs.shape[0] // 2
    j = _j(n)
    lhs_scale = max(norm2(lhs), 1e-300)
    rhs_scale = max(norm2(rhs), 1e-300)
    assert norm2((j @ lhs).conj().T - j @ lhs) <= 1e-14 * lhs_scale
    assert norm2(rhs.conj().T @ j - j @ rhs) <= 1e-14 * rhs_scale


def test_kc_closed_form_diagonal():
    a = np.diag([-1.0, -2.0])
    red = reduced_kc_matrix(a, 0.5, 0.0)
    expect = [-2j, -2j / 3, -4j, -4j / 3]
    assert spectra_match(eigenvalues(red), expect, 1e-10)
    red = reduced_kc_matrix(a, 2.0, 0.0)
    assert spectra_match(eigenvalues(red), [1j, 2j, -1j / 3, -2j / 3], 1e-10)


def test_kc_zero_gamma_block_diagonal():
    gen = rng(21)
    a = random_complex(gen, 3)
    th = 0.7
    red = reduced_kc_matrix(a, 0.0, th)
    expect = 1j * np.block(
        [
            [np.exp(-1j * th) * a, np.zeros((3, 3))],
            [np.zeros((3, 3)), np.exp(1j * th) * a.conj().T],
        ]
    )
    assert norm2(red - expect) <= 1e-14 * norm2(expect)


def test_kd_closed_form_zero_matrix():
    red = reduced_kd_matrix(np.zeros((2, 2)), 0.5, 0.3)
    assert spectra_match(eigenvalues(red), [1j / 3, 1j / 3, -1j, -1j], 1e-10)
    red = reduced_kd_matrix(np.zeros((1, 1)), 2.0, 0.0)
    assert spectra_match(eigenvalues(red), [2j / 3, 2j], 1e-10)


def test_dtu_closed_form_scalar():
    red = reduced_dtu_matrix(np.array([[2.0]]), np.array([[1.0]]), 1.25, 0.0)
    assert spectra_match(eigenvalues(red), [1.25j, 2.75j], 1e-10)
    red = reduced_dtu_matrix(np.array([[2.0]]), np.array([[1.0]]), 0.5, 0.0)
    root = np.sqrt(0.75)
    assert spectra_match(eigenvalues(red), [root + 2j, -root + 2j], 1e-10)


def test_reduced_matrix_is_the_raw_pencil_reduced():
    # the closed-form reduced matrices are rhs^{-1} lhs of the raw pencils
    gen = rng(32)
    for _ in range(30):
        n = int(gen.integers(1, 6))
        a = random_complex(gen, n)
        b = random_complex(gen, n, int(gen.integers(1, 4)))
        th = float(gen.uniform(-np.pi, np.pi))
        g = float(gen.uniform(0.05, 3.0))
        cases = [(DTU, b, reduced_dtu_matrix(a, b, g, th))]
        if abs(1 - abs(g * np.cos(th))) > 1e-6:
            cases.append((KC, None, reduced_kc_matrix(a, g, th)))
        if abs(1 - g) > 1e-6:
            cases.append((KD, None, reduced_kd_matrix(a, g, th)))
        for kind, bk, reduced in cases:
            lhs, rhs = raw_pencil(kind, a, bk, g, th)
            assert norm2(np.linalg.solve(rhs, lhs) - reduced) <= 1e-12 * norm2(reduced), kind


def test_dtu_b_zero_substitution():
    a = random_complex(rng(22), 3)
    lhs, _ = raw_pencil(DTU, a, np.zeros((3, 1)), 1.0, 0.0)
    n = 3
    assert norm2(lhs[:n, n:] + np.eye(n)) <= 1e-14
    assert norm2(lhs[n:, :n] - np.eye(n)) <= 1e-14


def test_guards():
    a = np.eye(2)
    with pytest.raises(NearSingularSecondMember):
        reduced_kc_matrix(a, 1.0, 0.0)
    with pytest.raises(NearSingularSecondMember):
        reduced_kd_matrix(a, 1.0 + 5e-13, 0.2)
    with pytest.raises(NonpositiveGamma):
        reduced_dtu_matrix(a, np.ones((2, 1)), 0.0, 0.1)
    # the constants of a degenerate level raise the same errors
    gen = rng(30)
    a, b = random_complex(gen, 4), random_complex(gen, 4, 2)
    with pytest.raises(NearSingularSecondMember):
        pencil_constants(PencilKind.KREISS_DISCRETE, a, None, 1.0 - 5e-13)
    with pytest.raises(NonpositiveGamma):
        pencil_constants(PencilKind.DIST_UNCONTROLLABLE, a, b, 0.0)


def test_structure_invariants_random():
    gen = rng(23)
    for _ in range(100):
        n = int(gen.integers(1, 6))
        a = random_complex(gen, n)
        b = random_complex(gen, n, int(gen.integers(1, 4)))
        th = float(gen.uniform(-np.pi, np.pi))
        g = float(gen.uniform(0.05, 3.0))
        if abs(1 - abs(g * np.cos(th))) > 1e-6:
            _assert_structure(raw_pencil(KC, a, None, g, th))
        if abs(1 - g) > 1e-6:
            _assert_structure(raw_pencil(KD, a, None, g, th))
        _assert_structure(raw_pencil(DTU, a, b, g, th))


def test_norm_bound_dominates_reduced_norm():
    # the per-level tolerance scale must never fall below ||M(theta)||_2, so
    # it can only widen the nominated set; for dtu it is the norm itself
    gen = rng(29)
    kc, kd, dtu = (
        PencilKind.KREISS_CONTINUOUS,
        PencilKind.KREISS_DISCRETE,
        PencilKind.DIST_UNCONTROLLABLE,
    )
    for _ in range(200):
        n = int(gen.integers(1, 7))
        a = random_complex(gen, n) * float(gen.uniform(0.1, 3.0))
        b = random_complex(gen, n, int(gen.integers(1, 4)))
        th = float(gen.uniform(-np.pi, np.pi))
        g = float(gen.uniform(0.05, 3.0))
        cases = [(dtu, lambda c: reduced_dtu_matrix(a, b, g, th, c), True)]
        if abs(1 - abs(g * np.cos(th))) > 1e-6:
            cases.append((kc, lambda c: reduced_kc_matrix(a, g, th, c), False))
        if abs(1 - g) > 1e-6:
            cases.append((kd, lambda c: reduced_kd_matrix(a, g, th, c), False))
        for kind, build, exact in cases:
            const = pencil_constants(kind, a, b if kind is dtu else None, g)
            m = build(const)
            assert np.array_equal(m, build(None))
            norm = np.linalg.norm(m, 2)
            bound = const.norm_bound(th)
            assert bound >= norm * (1.0 - 1e-14), (kind, bound, norm)
            if exact:
                assert_close(bound, norm, rel=1e-12)


def test_determinant_identities():
    gen = rng(24)
    for _ in range(20):
        g = float(gen.uniform(0.05, 2.0))
        th = float(gen.uniform(-np.pi, np.pi))
        if abs(1 - abs(g * np.cos(th))) > 1e-6:
            _, rhs = raw_pencil(KC, np.eye(1), None, g, th)
            assert_close(np.linalg.det(rhs).real, 1 - (g * np.cos(th)) ** 2, rel=1e-10)
        if abs(1 - g) > 1e-6:
            _, rhs = raw_pencil(KD, np.eye(1), None, g, th)
            assert_close(np.linalg.det(rhs).real, 1 - g * g, rel=1e-10)


def test_condition_number_laws():
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 37)
    for g in (0.2, 0.5, 0.9):
        conds = []
        for th in thetas:
            _, rhs_c = raw_pencil(KC, np.eye(2), None, g, float(th))
            gc = abs(g * np.cos(th))
            assert_close(cond2(rhs_c), (1 + gc) / abs(1 - gc), rel=1e-10)
            conds.append(cond2(rhs_c))
            _, rhs_d = raw_pencil(KD, np.eye(2), None, g, float(th))
            assert_close(cond2(rhs_d), (1 + g) / (1 - g), rel=1e-10)
        # max over theta attained at theta = 0 with value (1+g)/(1-g)
        assert conds[len(thetas) // 2] == max(conds)
        assert conds[len(thetas) // 2] <= (1 + g) / (1 - g) * (1 + 1e-10)
    for th in np.linspace(-np.pi, np.pi, 17):
        _, rhs = raw_pencil(DTU, np.eye(2), np.ones((2, 1)), 0.8, float(th))
        assert abs(cond2(rhs) - 1.0) <= 1e-12


def test_spectral_symmetry_about_imaginary_axis():
    gen = rng(25)
    for _ in range(30):
        n = int(gen.integers(1, 5))
        a = random_complex(gen, n)
        b = random_complex(gen, n, 2)
        th = float(gen.uniform(-np.pi, np.pi))
        for builder in (
            lambda: reduced_kc_matrix(a, 0.6, th),
            lambda: reduced_kd_matrix(a, 0.6, th),
            lambda: reduced_dtu_matrix(a, b, 0.6, th),
        ):
            red = builder()
            lam = eigenvalues(red)
            assert spectra_match(lam, -lam.conj(), 1e-8 * max(norm2(red), 1.0))


def _direct(kind, a, b, th):
    """The objective on the ray at angle ``th``, as a function of the radius."""
    return lambda rr: objective_values(kind, a, b, [rr * np.exp(1j * th)])[0]


def test_round_trip_small():
    # direction (i): singular values map to imaginary eigenvalues; (ii) back
    gen = rng(26)
    for _ in range(15):
        n = int(gen.integers(2, 6))
        a = random_complex(gen, n)
        b = random_complex(gen, n, 2)
        th = float(gen.uniform(-1.3, 1.3))
        r = float(gen.uniform(0.3, 2.5))

        for kind, builder, direct, valid in (
            ("kc", lambda s: reduced_kc_matrix(a, s, th), _direct(PencilKind.KREISS_CONTINUOUS, a, None, th), lambda rr: rr > 1e-6),
            ("kd", lambda s: reduced_kd_matrix(a, s, th), _direct(PencilKind.KREISS_DISCRETE, a, None, th), lambda rr: rr > 1 + 1e-6),
            ("dtu", lambda s: reduced_dtu_matrix(a, b, s, th), _direct(PencilKind.DIST_UNCONTROLLABLE, a, b, th), lambda rr: rr > 1e-6),
        ):
            rr = r + 1.0 if kind == "kd" else r
            z = rr * np.exp(1j * th)
            if kind == "dtu":
                mat = np.hstack([a - z * np.eye(n), b])
            elif kind == "kd":
                mat = (z * np.eye(n) - a) / (rr - 1.0)
            else:
                mat = (z * np.eye(n) - a) / (rr * np.cos(th))
            for s in np.linalg.svd(mat, compute_uv=False):
                try:
                    red = builder(float(s))
                except (NearSingularSecondMember, NonpositiveGamma):
                    continue
                lam = eigenvalues(red)
                assert np.min(np.abs(lam - 1j * rr)) <= 1e-8 * max(1.0, rr), kind
            # direction (ii) at a fresh gamma
            g = float(gen.uniform(0.2, 0.9))
            red = builder(g)
            lam = eigenvalues(red)
            scale = max(norm2(red), 1.0)
            for lam_k in lam[np.abs(lam.real) <= 1e-9 * scale]:
                rr2 = float(lam_k.imag)
                if valid(rr2):
                    assert abs(direct(rr2) - g) <= 1e-8 * max(1.0, g) or direct(rr2) < g, kind


def test_zero_eigenvalue_theorems():
    gen = rng(27)
    # kc: zero eigenvalue iff A singular
    a_sing = np.diag([0.0, 2.0])
    red = reduced_kc_matrix(a_sing, 0.5, 0.4)
    assert np.min(np.abs(eigenvalues(red))) <= 1e-12
    a = random_complex(gen, 3) + 2 * np.eye(3)
    red = reduced_kc_matrix(a, 0.5, 0.4)
    assert np.min(np.abs(eigenvalues(red))) > 1e-8
    # kd: zero eigenvalue iff gamma^2 in spectrum of A A*
    s = np.linalg.svd(a, compute_uv=False)
    red = reduced_kd_matrix(a / (2 * s[0]), float(s[1] / (2 * s[0])), 0.7)
    assert np.min(np.abs(eigenvalues(red))) <= 1e-10 * norm2(red)
    # dtu: zero eigenvalue iff gamma^2 in spectrum of A A* + B B*
    b = random_complex(gen, 3, 2)
    lam = np.linalg.eigvalsh(a @ a.conj().T + b @ b.conj().T)
    red = reduced_dtu_matrix(a, b, float(np.sqrt(lam[1])), 0.2)
    assert np.min(np.abs(eigenvalues(red))) <= 1e-10 * norm2(red)
