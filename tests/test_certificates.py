"""Certificate functions: closed forms, guards, range, and scan equivalence."""

import numpy as np
import pytest

from conftest import assert_close, random_complex, rng, stable_continuous
from globcert.certificates import (
    CandidatePoint,
    CertificateValue,
    NoAcceptedCandidates,
    eval_certificate,
    eval_f,
    eval_g,
    eval_h,
    extract_restart_points,
)
from globcert.demos import grcar
from globcert.linalg import spectral_radius
from globcert.oracle import ray_scan
from globcert.pencils import PencilKind, pencil_constants

PI_SQ = np.pi**2


def test_g_diag_no_crossing():
    cv = eval_g(np.diag([-1.0, -2.0]), 0.5, 0.0)
    assert_close(cv.value, PI_SQ, rel=1e-12)
    assert cv.candidates == ()


def test_g_diag_crossings_verified():
    cv = eval_g(np.diag([-1.0, -2.0]), 2.0, 0.0)
    assert cv.value == 0.0
    radii = sorted(c.r for c in cv.candidates)
    assert_close(radii[0], 1.0, rel=1e-10)
    assert_close(radii[1], 2.0, rel=1e-10)
    by_r = {round(c.r): c for c in cv.candidates}
    assert_close(by_r[1].verified_value, 2.0, rel=1e-10)  # on the level set
    assert_close(by_r[2].verified_value, 1.5, rel=1e-10)  # a lower level set
    assert all(c.accepted for c in cv.candidates)


def test_h_zero_matrix_no_false_zeros_below_unit_radius():
    cv = eval_h(np.zeros((2, 2)), 0.5, 0.0)
    assert_close(cv.value, PI_SQ, rel=1e-12)
    assert cv.candidates == ()
    cv = eval_h(np.zeros((1, 1)), 2.0, 0.0)
    assert cv.value == 0.0
    assert len(cv.candidates) == 1
    assert_close(cv.candidates[0].r, 2.0, rel=1e-10)
    assert_close(cv.candidates[0].verified_value, 2.0, rel=1e-10)


def test_f_scalar_examples():
    cv = eval_f([[2.0]], [[1.0]], 1.25, 0.0)
    assert cv.value == 0.0
    radii = sorted(c.r for c in cv.candidates)
    assert_close(radii[0], 1.25, rel=1e-10)
    assert_close(radii[1], 2.75, rel=1e-10)
    for c in cv.candidates:
        assert_close(c.verified_value, 1.25, rel=1e-10)
    cv = eval_f([[2.0]], [[1.0]], 0.5, 0.0)
    assert_close(cv.value, np.arctan2(np.sqrt(0.75), 2.0) ** 2, rel=1e-10)
    assert cv.candidates == ()
    cv = eval_f([[2.0]], [[1.0]], 1.25, np.pi)
    assert cv.value > 1.0  # level circle around z=2 misses the negative axis


def test_range_and_zero_iff_candidates():
    gen = rng(31)
    for _ in range(60):
        n = int(gen.integers(1, 5))
        a = random_complex(gen, n)
        b = random_complex(gen, n, 1)
        g = float(gen.uniform(0.05, 2.5))
        th = float(gen.uniform(-np.pi, np.pi))
        for cv in (
            eval_g(a, g, min(max(th, -1.4), 1.4)) if abs(1 - abs(g * np.cos(th))) > 1e-6 else None,
            eval_h(a, g, th) if abs(1 - g) > 1e-6 else None,
            eval_f(a, b, g, th),
        ):
            if cv is None:
                continue
            assert 0.0 <= cv.value <= PI_SQ + 1e-12
            if cv.value == 0.0:
                assert cv.candidates
            if any(c.accepted for c in cv.candidates):
                assert cv.value == 0.0
                for c in c_accepted(cv):
                    assert c.verified_value <= g * (1 + 1e-10)


def test_eval_certificate_same_with_and_without_constants():
    gen = rng(35)
    kinds = list(PencilKind)
    evaluated = 0
    for _ in range(40):
        n = int(gen.integers(1, 6))
        a = random_complex(gen, n)
        b = random_complex(gen, n, 1)
        g = float(gen.uniform(0.05, 2.5))
        const = {}
        for th in gen.uniform(-1.4, 1.4, 4):
            th = float(th)
            for kind in kinds:
                bk = b if kind is PencilKind.DIST_UNCONTROLLABLE else None
                try:
                    plain = eval_certificate(kind, a, bk, g, th)
                except (ArithmeticError, ValueError):
                    continue  # a degenerate level or a zero pencil eigenvalue
                if kind not in const:
                    const[kind] = pencil_constants(kind, a, bk, g)
                assert eval_certificate(kind, a, bk, g, th, const[kind]) == plain
                evaluated += 1
    assert evaluated > 300
    with pytest.raises(ValueError):
        eval_certificate(PencilKind.DIST_UNCONTROLLABLE, a, b, 2 * g, 0.0,
                         const[PencilKind.DIST_UNCONTROLLABLE])


def c_accepted(cv):
    return [c for c in cv.candidates if c.accepted]


def test_h_tiny_matrix_eigenvalue_inside_unit_radius_reads_no_zero():
    # for A near 0 the reduced pencil at level 0.5 has eigenvalues at
    # mu = -i*lambda ~ 1/3, a rounding-level distance from the real axis and
    # inside radius 1; measured from r = 1 they read about pi^2, not ~0
    a = 1e-9 * random_complex(rng(43), 2)
    for th in np.linspace(-np.pi, np.pi, 9):
        cv = eval_h(a, 0.5, float(th))
        assert cv.value > 1.0
        assert not any(c.accepted and c.r <= 1.0 for c in cv.candidates)


def test_h_continuous_across_inner_crossing():
    # on scaled Grcar(10) at the certified level a pencil eigenvalue crosses
    # the real mu-axis inside radius 1 near theta = 0.5632; measured from
    # mu = 0 the certificate jumped there by 0.054
    a = grcar(10)
    a = a / (1.01 * spectral_radius(a))
    gamma = 0.4144828902275395 * (1.0 - 1e-14)
    values = [eval_h(a, gamma, float(th)).value for th in np.linspace(0.55, 0.58, 301)]
    assert np.max(np.abs(np.diff(values))) <= 1e-3


def test_h_near_unimodular_eigenvalue_stays_positive():
    # rotation-like A with an eigenvalue on the unit circle: the pencil has an
    # eigenvalue at exactly i at the aligned angle; exclusions keep h > 0
    a = np.diag([np.exp(0.3j) * 0.9999999999, 0.5])
    cv = eval_h(a, 0.7, 0.3)
    assert cv.value >= 0.0
    assert not any(c.accepted and c.r <= 1.0 for c in cv.candidates)


def test_h_at_a_singular_value_of_a_reads_a_value():
    # at gamma = sigma_i(A) the pencil has an eigenvalue at mu = 0, below the
    # radius floor 1; measured from mu = 0 that raised NearZeroPencilEigenvalue
    a = np.array([[0.5, 0.3], [0.0, 0.2]])
    for sigma in np.linalg.svd(a, compute_uv=False):
        at = eval_h(a, float(sigma), 0.3).value
        below = eval_h(a, float(sigma) * (1.0 - 1e-9), 0.3).value
        assert 0.0 <= at <= PI_SQ
        assert abs(at - below) <= 1e-8


def test_extract_restart_points_contract():
    mk = lambda r, v, acc, th=0.0: CandidatePoint(r=r, theta=th, verified_value=v, accepted=acc)
    cv = CertificateValue(theta=0.0, value=0.0, candidates=(mk(1.0, 2.0, True), mk(2.0, 1.5, True)))
    pts = extract_restart_points(cv)
    assert_close(pts[0][0].real, 2.0, rel=1e-14)
    assert_close(pts[0][1], 1.5, rel=1e-14)
    assert_close(pts[1][0].real, 1.0, rel=1e-14)

    cv = CertificateValue(
        theta=np.pi / 4, value=0.0, candidates=(mk(2.0, 1.0, True, np.pi / 4),)
    )
    (z, _), = extract_restart_points(cv)
    assert_close(z, 2 * np.exp(1j * np.pi / 4), rel=1e-14)

    cv = CertificateValue(theta=0.0, value=0.0, candidates=(mk(1.0, 9.0, False),))
    with pytest.raises(NoAcceptedCandidates):
        extract_restart_points(cv)
    with pytest.raises(ValueError):
        extract_restart_points(CertificateValue(theta=0.0, value=1.0))


def test_monotone_zero_sets():
    # the global minimum of this instance is ~0.5946, so both levels cross
    a = np.array([[-0.4, 3.0], [0.0, -0.6]])
    grid = np.linspace(-1.35, 1.35, 181)
    g1, g2 = 0.7, 0.9
    z1 = {i for i, th in enumerate(grid) if eval_g(a, g1, float(th)).value == 0.0}
    z2 = {i for i, th in enumerate(grid) if eval_g(a, g2, float(th)).value == 0.0}
    assert z1, "lower level should still be crossed somewhere"
    assert z1 <= z2


def test_large_gamma_saturation_continuous():
    a = np.array([[-0.5, 2.0], [0.0, -0.5]])
    for th in np.linspace(-1.2, 1.2, 9):
        g = 2.0 / np.cos(th)
        cv = eval_g(a, float(g), float(th))
        assert cv.value == 0.0 and any(c.accepted for c in cv.candidates)


def test_saturation_discrete_above_one():
    a = np.array([[0.5, 0.6], [0.0, -0.3]])
    for th in np.linspace(-np.pi, np.pi, 9):
        cv = eval_h(a, 1.5, float(th))
        assert cv.value == 0.0


def test_saturation_dtu_above_center_value():
    gen = rng(33)
    a = random_complex(gen, 3)
    b = random_complex(gen, 3, 2)
    f0 = np.linalg.svd(np.hstack([a, b]), compute_uv=False)[-1]
    for th in np.linspace(-np.pi, np.pi, 9):
        cv = eval_f(a, b, float(f0 * 1.001), float(th))
        assert cv.value == 0.0


def test_certificate_vs_ray_scan_equivalence_small():
    gen = rng(34)
    r_grid = np.geomspace(0.01, 100.0, 2000)
    disagreements = 0
    for _ in range(5):
        a = stable_continuous(gen, 4)
        g = float(gen.uniform(0.3, 0.9))
        for th in gen.uniform(-1.4, 1.4, 10):
            cv = eval_g(a, g, float(th))
            crossed = ray_scan(PencilKind.KREISS_CONTINUOUS, a, None, g, float(th), r_grid)
            disagreements += int(crossed != (cv.value == 0.0))
    assert disagreements <= 1
