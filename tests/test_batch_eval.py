"""Batched certificate evaluation: bit for bit the per-angle formulas, in any chunking.

The reference below evaluates one angle at a time with numpy scalars, as
the certificate is defined: build the reduced matrix block by block, take
its eigenvalues, then classify them and recheck the nominated radii in
ascending order.  Every batched result must equal it bitwise, however the
angles are split into stacked eigensolves.
"""

import numpy as np
import pytest

from conftest import random_complex, rng
from globcert import certificates
from globcert.certificates import (
    NearZeroPencilEigenvalue,
    chunk_length,
    eval_certificate,
    eval_certificates,
)
from globcert.demos import grcar
from globcert.linalg import spectral_abscissa, spectral_radius
from globcert.localopt import objective_values
from globcert.pencils import (
    NearSingularSecondMember,
    PencilKind,
    pencil_constants,
    reduced_dtu_matrix,
    reduced_kc_matrix,
    reduced_kd_matrix,
)
from globcert.solver import SolverConfig, dtu, kreiss_continuous

KC, KD, DTU = PencilKind.KREISS_CONTINUOUS, PencilKind.KREISS_DISCRETE, PencilKind.DIST_UNCONTROLLABLE
PI_SQ = np.pi * np.pi


def _reference_matrix(kind, a, b, gamma, theta):
    """The reduced matrix at one angle, from numpy scalars block by block."""
    eye = np.eye(a.shape[0], dtype=np.complex128)
    ah = a.conj().T
    e_p, e_m = np.exp(1j * theta), np.exp(-1j * theta)
    if kind is KC:
        gc = gamma * np.cos(theta)
        s = 1j / (1.0 - gc * gc)
        blocks = (s * e_m * a, s * gc * ah, s * gc * a, s * e_p * ah)
    elif kind is KD:
        g = gamma
        s = 1j / (1.0 - g * g)
        blocks = (
            s * (e_m * a - g * g * eye),
            s * g * (ah - e_m * eye),
            s * g * (a - e_p * eye),
            s * (e_p * ah - g * g * eye),
        )
    else:
        b_tilde = (1.0 / gamma) * (b @ b.conj().T) - gamma * eye
        blocks = (1j * e_m * a, 1j * e_m * b_tilde, -1j * gamma * e_p * eye, 1j * e_p * ah)
    return np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])


def _reference_certificate(kind, a, b, gamma, theta, const):
    """(value, candidates as field tuples, merges) at one angle."""
    lam = np.linalg.eigvals(_reference_matrix(kind, a, b, gamma, theta))
    scale = max(const.norm_bound(theta), np.finfo(float).tiny)
    r_floor = 1.0 if kind is KD else 0.0
    mu = lam / 1j
    if np.min(np.abs(mu - r_floor)) < 1e-14 * scale:
        raise NearZeroPencilEigenvalue(f"pencil eigenvalue at the radius floor at theta={theta!r}")
    relevant = mu[lam.real <= 0.0]
    value = PI_SQ if relevant.size == 0 else float(np.min(np.angle(relevant - r_floor) ** 2))
    tol = certificates.IMAG_TOL * scale
    dist = np.where(mu.real >= r_floor, np.abs(mu.imag), np.abs(mu - r_floor))
    flagged = np.sort(mu[(dist <= tol) & (mu.real > r_floor)].real)

    def verify(r):
        return float(objective_values(kind, a, b, [r * np.exp(1j * theta)])[0])

    cands, merges = [], 0
    for r in flagged:
        r = float(r)
        verified = verify(r)
        accepted = verified <= gamma * (1.0 + certificates.VERIFY_TOL)
        if cands and abs(r - cands[-1][0]) <= 1e-10 * max(1.0, r):
            merges += 1
            if verified < cands[-1][2]:
                cands[-1] = (r, theta, verified, accepted)
            continue
        cands.append((r, theta, verified, accepted))
    if any(c[3] for c in cands):
        value = 0.0
    return value, tuple(cands), merges


def _bits(x) -> int:
    return int(np.array(x, dtype=np.float64).view(np.int64))


def _same_cv(cv, theta, ref) -> bool:
    """A CertificateValue equals the reference bitwise: value and every candidate field."""
    value, cands, _ = ref
    if _bits(cv.theta) != _bits(theta) or _bits(cv.value) != _bits(value):
        return False
    if len(cv.candidates) != len(cands):
        return False
    for c, (r, th, verified, accepted) in zip(cv.candidates, cands):
        if (_bits(c.r), _bits(c.theta), _bits(c.verified_value), c.accepted) != (
            _bits(r), _bits(th), _bits(verified), accepted
        ):
            return False
    return True


def _shifted_grcar(n):
    a = grcar(n)
    return a - (spectral_abscissa(a) + 0.1) * np.eye(n)


def _cases():
    """(kind, a, b, gamma, angles) per family; the angles include the domain endpoints."""
    gen = rng(71)
    kc_grid = np.concatenate([[0.0, np.pi / 2, -np.pi / 2], np.linspace(0.0, np.pi / 2, 23)[1:-1]])
    circle = np.concatenate([[0.0, np.pi, -np.pi], np.linspace(-np.pi, np.pi, 31)[1:-1]])
    half = np.concatenate([[0.0, np.pi], np.linspace(0.0, np.pi, 25)[1:-1]])
    grcar_d = grcar(6) / (1.01 * spectral_radius(grcar(6)))
    pair = random_complex(gen, 4), random_complex(gen, 4, 1)
    return [
        (KC, _shifted_grcar(6), None, 0.45, kc_grid),
        (KC, np.diag([-1.0, -1.0, -2.0]), None, 1.998, kc_grid),  # double radii merge
        (KC, np.diag([-1.0, -1.0, -2.0]), None, 0.5, kc_grid),  # pi^2 near theta = 0
        (KD, grcar_d, None, 0.6, half),
        (KD, np.diag([0.5, 0.5, -0.3]), None, 1.5, circle),  # double radii merge
        (KD, np.diag([0.5, 0.5, -0.3]), None, 0.8, circle),  # pi^2: crossings inside r = 1
        (DTU, pair[0], pair[1], 0.9, circle),
        (DTU, 2.0 * np.eye(2), np.eye(2), 1.25, circle),  # pi^2 at theta = +-pi
    ]


def _prepared(kind, a, b, gamma):
    a = np.asarray(a, dtype=np.complex128)
    b = None if b is None else np.asarray(b, dtype=np.complex128)
    return a, b, pencil_constants(kind, a, b, gamma)


def _build(kind, a, b, gamma, theta, const):
    if kind is KC:
        return reduced_kc_matrix(a, gamma, theta, const)
    if kind is KD:
        return reduced_kd_matrix(a, gamma, theta, const)
    return reduced_dtu_matrix(a, b, gamma, theta, const)


def test_stacked_matrices_equal_per_angle_formulas_bitwise():
    for kind, a, b, gamma, thetas in _cases():
        a, b, const = _prepared(kind, a, b, gamma)
        for c in (const, None):
            stack = _build(kind, a, b, gamma, thetas, c)
            assert stack.shape == (len(thetas), 2 * a.shape[0], 2 * a.shape[0])
            for i, th in enumerate(thetas):
                ref = _reference_matrix(kind, a, b, gamma, float(th))
                assert np.array_equal(stack[i].view(np.int64), ref.view(np.int64)), (kind, th)
                single = _build(kind, a, b, gamma, float(th), c)
                assert np.array_equal(single.view(np.int64), ref.view(np.int64)), (kind, th)


def test_stacks_of_order_one_and_two_match_single_angles():
    # a 1 x 1 block in a one-angle stack is one element, where numpy picks
    # another complex multiply kernel than inside a longer stack
    gen = rng(72)
    for n in (1, 2):
        a = random_complex(gen, n)
        b = random_complex(gen, n, 1)
        thetas = gen.uniform(-1.4, 1.4, 9)
        for kind in PencilKind:
            bk = b if kind is DTU else None
            for k in (1, 2, 9):
                stack = _build(kind, a, bk, 0.7, thetas[:k], None)
                for i in range(k):
                    ref = _reference_matrix(kind, a, bk, 0.7, float(thetas[i]))
                    assert np.array_equal(stack[i].view(np.int64), ref.view(np.int64)), (kind, n, k)


def test_batched_certificates_equal_per_angle_reference_bitwise():
    seen = {kind: {"zero": 0, "pi_sq": 0, "merged": 0} for kind in PencilKind}
    for kind, a, b, gamma, thetas in _cases():
        a, b, const = _prepared(kind, a, b, gamma)
        thetas = [float(t) for t in thetas]
        cvs = eval_certificates(kind, a, b, gamma, thetas, const)
        assert len(cvs) == len(thetas)
        for th, cv in zip(thetas, cvs):
            ref = _reference_certificate(kind, a, b, gamma, th, const)
            assert _same_cv(cv, th, ref), (kind, gamma, th)
            assert _same_cv(eval_certificate(kind, a, b, gamma, th, const), th, ref)
            seen[kind]["zero"] += cv.is_zero
            seen[kind]["pi_sq"] += cv.value == PI_SQ
            seen[kind]["merged"] += ref[2] > 0
    # every family met an accepted zero, a pi^2 row and merged candidates
    for kind, counts in seen.items():
        assert all(counts.values()), (kind, counts)


@pytest.mark.parametrize("kind", list(PencilKind))
def test_chunk_boundaries_change_no_bits(kind, monkeypatch):
    case = next(c for c in _cases() if c[0] is kind)
    _, a, b, gamma, thetas = case
    a, b, const = _prepared(kind, a, b, gamma)
    thetas = [float(t) for t in thetas]
    k = len(thetas)
    refs = [_reference_certificate(kind, a, b, gamma, th, const) for th in thetas]
    per_matrix = 16 * (2 * a.shape[0]) ** 2
    assert chunk_length(a.shape[0]) >= k  # by default the whole set is one chunk
    for length in (1, k - 1, 4):
        monkeypatch.setattr(certificates, "CHUNK_BYTES", length * per_matrix)
        assert chunk_length(a.shape[0]) == length
        cvs = eval_certificates(kind, a, b, gamma, thetas, const)
        assert all(_same_cv(cv, th, ref) for cv, th, ref in zip(cvs, thetas, refs)), length
    # one angle, alone
    cv = eval_certificates(kind, a, b, gamma, thetas[:1], const)
    assert len(cv) == 1 and _same_cv(cv[0], thetas[0], refs[0])


def _fingerprint(res):
    def hx(x):
        return float(x).hex()

    trace = tuple((t.round, hx(t.gamma), hx(t.theta), hx(t.value), t.n_candidates, t.stage) for t in res.trace)
    z = res.minimizer
    return (hx(res.gamma_final), hx(z.real), hx(z.imag), res.status, res.certificate_samples,
            len(res.restarts), trace)


def test_solves_do_not_depend_on_chunking(monkeypatch):
    gen = rng(73)
    a, b = random_complex(gen, 3), random_complex(gen, 3, 1)
    cfg = SolverConfig(max_restarts=3)
    solves = (
        lambda: kreiss_continuous(_shifted_grcar(5), [1 + 1j], cfg),
        lambda: dtu(a, b, [1.0], cfg),
    )
    base = [_fingerprint(solve()) for solve in solves]
    for chunk_bytes, workers in ((16 * 100, 1), (16 * 100, 2), (1, 2)):
        monkeypatch.setattr(certificates, "CHUNK_BYTES", chunk_bytes)
        cfg = SolverConfig(max_restarts=3, workers=workers)
        again = [
            _fingerprint(kreiss_continuous(_shifted_grcar(5), [1 + 1j], cfg)),
            _fingerprint(dtu(a, b, [1.0], cfg)),
        ]
        assert again == base, (chunk_bytes, workers)


def test_near_singular_second_member_names_first_offending_angle():
    a = np.diag([-1.0, -2.0]).astype(np.complex128)
    gamma = 1.5
    bad = float(np.arccos(1.0 / gamma))  # gamma * cos(theta) rounds to within 1e-12 of 1
    const = pencil_constants(KC, a, None, gamma)
    thetas = [0.1, bad, 0.2, -bad]
    with pytest.raises(NearSingularSecondMember, match=f"at theta={bad!r}$"):
        reduced_kc_matrix(a, gamma, np.array(thetas), const)
    with pytest.raises(NearSingularSecondMember, match=f"at theta={bad!r}$"):
        eval_certificates(KC, a, None, gamma, thetas, const)
    with pytest.raises(NearSingularSecondMember, match=f"at theta={-bad!r}$"):
        eval_certificates(KC, a, None, gamma, [0.1, -bad, bad], const)


def test_near_zero_eigenvalue_names_first_offending_angle():
    # a tiny eigenvalue of A leaves a pencil eigenvalue below 1e-14 times the
    # continuous-time norm bound for theta < ~0.9 at gamma = 1.5, not above
    a = np.diag([-1.0, -3e-14]).astype(np.complex128)
    gamma = 1.5
    const = pencil_constants(KC, a, None, gamma)
    singular = float(np.arccos(1.0 / gamma))
    ok = [cv.value for cv in eval_certificates(KC, a, None, gamma, [1.2, 1.4], const)]
    assert len(ok) == 2
    for th in (0.1, 0.3):
        with pytest.raises(NearZeroPencilEigenvalue):
            eval_certificate(KC, a, None, gamma, th, const)
    with pytest.raises(NearZeroPencilEigenvalue, match=f"at theta={0.3!r}$"):
        eval_certificates(KC, a, None, gamma, [1.4, 0.3, 1.2, 0.1], const)
    # errors of both kinds: the one at the earlier angle is raised
    with pytest.raises(NearZeroPencilEigenvalue, match=f"at theta={0.3!r}$"):
        eval_certificates(KC, a, None, gamma, [1.4, 0.3, singular], const)
    with pytest.raises(NearSingularSecondMember, match=f"at theta={singular!r}$"):
        eval_certificates(KC, a, None, gamma, [1.4, singular, 0.3], const)
