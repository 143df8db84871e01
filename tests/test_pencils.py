"""Pencil families: structure, closed forms, determinants, and round trips."""

import numpy as np
import pytest

from conftest import assert_close, random_complex, rng
from globcert.linalg import cond2, eigenvalues, norm2, spectra_match
from globcert.localopt import objective_values
from globcert.pencils import (
    NearSingularSecondMember,
    NonpositiveGamma,
    PencilKind,
    build_dtu_pencil,
    build_kc_pencil,
    build_kd_pencil,
    pencil_constants,
    reduced_dtu_matrix,
    reduced_kc_matrix,
    reduced_kd_matrix,
)


def _j(n):
    z = np.zeros((n, n))
    return np.block([[z, np.eye(n)], [-np.eye(n), z]])


def _assert_structure(pair):
    n = pair.lhs.shape[0] // 2
    j = _j(n)
    lhs_scale = max(norm2(pair.lhs), 1e-300)
    rhs_scale = max(norm2(pair.rhs), 1e-300)
    assert norm2((j @ pair.lhs).conj().T - j @ pair.lhs) <= 1e-14 * lhs_scale
    assert norm2(pair.rhs.conj().T @ j - j @ pair.rhs) <= 1e-14 * rhs_scale


def test_kc_closed_form_diagonal():
    a = np.diag([-1.0, -2.0])
    _, red = build_kc_pencil(a, 0.5, 0.0)
    expect = [-2j, -2j / 3, -4j, -4j / 3]
    assert spectra_match(eigenvalues(red.matrix), expect, 1e-10)
    _, red = build_kc_pencil(a, 2.0, 0.0)
    assert spectra_match(eigenvalues(red.matrix), [1j, 2j, -1j / 3, -2j / 3], 1e-10)


def test_kc_zero_gamma_block_diagonal():
    gen = rng(21)
    a = random_complex(gen, 3)
    th = 0.7
    _, red = build_kc_pencil(a, 0.0, th)
    expect = 1j * np.block(
        [
            [np.exp(-1j * th) * a, np.zeros((3, 3))],
            [np.zeros((3, 3)), np.exp(1j * th) * a.conj().T],
        ]
    )
    assert norm2(red.matrix - expect) <= 1e-14 * norm2(expect)


def test_kd_closed_form_zero_matrix():
    _, red = build_kd_pencil(np.zeros((2, 2)), 0.5, 0.3)
    assert spectra_match(eigenvalues(red.matrix), [1j / 3, 1j / 3, -1j, -1j], 1e-10)
    _, red = build_kd_pencil(np.zeros((1, 1)), 2.0, 0.0)
    assert spectra_match(eigenvalues(red.matrix), [2j / 3, 2j], 1e-10)


def test_dtu_closed_form_scalar():
    _, red = build_dtu_pencil([[2.0]], [[1.0]], 1.25, 0.0)
    assert spectra_match(eigenvalues(red.matrix), [1.25j, 2.75j], 1e-10)
    _, red = build_dtu_pencil([[2.0]], [[1.0]], 0.5, 0.0)
    root = np.sqrt(0.75)
    assert spectra_match(eigenvalues(red.matrix), [root + 2j, -root + 2j], 1e-10)


def test_dtu_b_zero_substitution():
    a = random_complex(rng(22), 3)
    pair, _ = build_dtu_pencil(a, np.zeros((3, 1)), 1.0, 0.0)
    n = 3
    assert norm2(pair.lhs[:n, n:] + np.eye(n)) <= 1e-14
    assert norm2(pair.lhs[n:, :n] - np.eye(n)) <= 1e-14


def test_guards():
    a = np.eye(2)
    with pytest.raises(NearSingularSecondMember):
        build_kc_pencil(a, 1.0, 0.0)
    with pytest.raises(NearSingularSecondMember):
        build_kd_pencil(a, 1.0 + 5e-13, 0.2)
    with pytest.raises(NonpositiveGamma):
        build_dtu_pencil(a, np.ones((2, 1)), 0.0, 0.1)


def test_structure_invariants_random():
    gen = rng(23)
    for _ in range(100):
        n = int(gen.integers(1, 6))
        a = random_complex(gen, n)
        b = random_complex(gen, n, int(gen.integers(1, 4)))
        th = float(gen.uniform(-np.pi, np.pi))
        g = float(gen.uniform(0.05, 3.0))
        if abs(1 - abs(g * np.cos(th))) > 1e-6:
            pair, _ = build_kc_pencil(a, g, th)
            _assert_structure(pair)
        if abs(1 - g) > 1e-6:
            pair, _ = build_kd_pencil(a, g, th)
            _assert_structure(pair)
        pair, _ = build_dtu_pencil(a, b, g, th)
        _assert_structure(pair)


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


def test_pencil_constants_reuse_base():
    gen = rng(30)
    a = random_complex(gen, 4)
    b = random_complex(gen, 4, 2)
    first = pencil_constants(PencilKind.DIST_UNCONTROLLABLE, a, b, 0.3)
    second = pencil_constants(PencilKind.DIST_UNCONTROLLABLE, a, b, 0.7, base=first)
    fresh = pencil_constants(PencilKind.DIST_UNCONTROLLABLE, a, b, 0.7)
    assert second.ah is first.ah and second.a_norm == first.a_norm
    assert np.array_equal(second.b_tilde, fresh.b_tilde)
    assert second.level_norm == fresh.level_norm
    with pytest.raises(NearSingularSecondMember):
        pencil_constants(PencilKind.KREISS_DISCRETE, a, None, 1.0 - 5e-13, base=first)
    with pytest.raises(NonpositiveGamma):
        pencil_constants(PencilKind.DIST_UNCONTROLLABLE, a, b, 0.0, base=first)


def test_determinant_identities():
    gen = rng(24)
    for _ in range(20):
        g = float(gen.uniform(0.05, 2.0))
        th = float(gen.uniform(-np.pi, np.pi))
        if abs(1 - abs(g * np.cos(th))) > 1e-6:
            pair, _ = build_kc_pencil(np.eye(1), g, th)
            assert_close(np.linalg.det(pair.rhs).real, 1 - (g * np.cos(th)) ** 2, rel=1e-10)
        if abs(1 - g) > 1e-6:
            pair, _ = build_kd_pencil(np.eye(1), g, th)
            assert_close(np.linalg.det(pair.rhs).real, 1 - g * g, rel=1e-10)


def test_condition_number_laws():
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 37)
    for g in (0.2, 0.5, 0.9):
        conds = []
        for th in thetas:
            pair_c, _ = build_kc_pencil(np.eye(2), g, float(th))
            gc = abs(g * np.cos(th))
            assert_close(cond2(pair_c.rhs), (1 + gc) / abs(1 - gc), rel=1e-10)
            conds.append(cond2(pair_c.rhs))
            pair_d, _ = build_kd_pencil(np.eye(2), g, float(th))
            assert_close(cond2(pair_d.rhs), (1 + g) / (1 - g), rel=1e-10)
        # max over theta attained at theta = 0 with value (1+g)/(1-g)
        assert conds[len(thetas) // 2] == max(conds)
        assert conds[len(thetas) // 2] <= (1 + g) / (1 - g) * (1 + 1e-10)
    for th in np.linspace(-np.pi, np.pi, 17):
        pair, _ = build_dtu_pencil(np.eye(2), np.ones((2, 1)), 0.8, float(th))
        assert abs(cond2(pair.rhs) - 1.0) <= 1e-12


def test_spectral_symmetry_about_imaginary_axis():
    gen = rng(25)
    for _ in range(30):
        n = int(gen.integers(1, 5))
        a = random_complex(gen, n)
        b = random_complex(gen, n, 2)
        th = float(gen.uniform(-np.pi, np.pi))
        for builder in (
            lambda: build_kc_pencil(a, 0.6, th),
            lambda: build_kd_pencil(a, 0.6, th),
            lambda: build_dtu_pencil(a, b, 0.6, th),
        ):
            _, red = builder()
            lam = eigenvalues(red.matrix)
            assert spectra_match(lam, -lam.conj(), 1e-8 * max(norm2(red.matrix), 1.0))


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
            ("kc", lambda s: build_kc_pencil(a, s, th), _direct(PencilKind.KREISS_CONTINUOUS, a, None, th), lambda rr: rr > 1e-6),
            ("kd", lambda s: build_kd_pencil(a, s, th), _direct(PencilKind.KREISS_DISCRETE, a, None, th), lambda rr: rr > 1 + 1e-6),
            ("dtu", lambda s: build_dtu_pencil(a, b, s, th), _direct(PencilKind.DIST_UNCONTROLLABLE, a, b, th), lambda rr: rr > 1e-6),
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
                    _, red = builder(float(s))
                except (NearSingularSecondMember, NonpositiveGamma):
                    continue
                lam = eigenvalues(red.matrix)
                assert np.min(np.abs(lam - 1j * rr)) <= 1e-8 * max(1.0, rr), kind
            # direction (ii) at a fresh gamma
            g = float(gen.uniform(0.2, 0.9))
            _, red = builder(g)
            lam = eigenvalues(red.matrix)
            scale = max(norm2(red.matrix), 1.0)
            for lam_k in lam[np.abs(lam.real) <= 1e-9 * scale]:
                rr2 = float(lam_k.imag)
                if valid(rr2):
                    assert abs(direct(rr2) - g) <= 1e-8 * max(1.0, g) or direct(rr2) < g, kind


def test_zero_eigenvalue_theorems():
    gen = rng(27)
    # kc: zero eigenvalue iff A singular
    a_sing = np.diag([0.0, 2.0])
    _, red = build_kc_pencil(a_sing, 0.5, 0.4)
    assert np.min(np.abs(eigenvalues(red.matrix))) <= 1e-12
    a = random_complex(gen, 3) + 2 * np.eye(3)
    _, red = build_kc_pencil(a, 0.5, 0.4)
    assert np.min(np.abs(eigenvalues(red.matrix))) > 1e-8
    # kd: zero eigenvalue iff gamma^2 in spectrum of A A*
    s = np.linalg.svd(a, compute_uv=False)
    _, red = build_kd_pencil(a / (2 * s[0]), float(s[1] / (2 * s[0])), 0.7)
    assert np.min(np.abs(eigenvalues(red.matrix))) <= 1e-10 * norm2(red.matrix)
    # dtu: zero eigenvalue iff gamma^2 in spectrum of A A* + B B*
    b = random_complex(gen, 3, 2)
    lam = np.linalg.eigvalsh(a @ a.conj().T + b @ b.conj().T)
    _, red = build_dtu_pencil(a, b, float(np.sqrt(lam[1])), 0.2)
    assert np.min(np.abs(eigenvalues(red.matrix))) <= 1e-10 * norm2(red.matrix)
