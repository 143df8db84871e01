"""Acceptance criteria for the full artifact, one test per criterion.

Each test prints one `[acceptance] criterion N (<name>): PASS/FAIL` line
(visible with `pytest -s` or in captured output on failure) and enforces the
stated tolerance.  Instance generation is fully seeded, so results are
reproducible run to run.

The two Table-style reference values for externally generated demo matrices
are out of reach without their generator sources (stretch goal); everything
else is covered by closed forms, independent brute-force oracles, and
property checks.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_complex, rng, stable_continuous, stable_discrete
from globcert.certificates import eval_f, eval_g, eval_h
from globcert.chebinterp import Aborted, approximate
from globcert.cli import result_to_dict
from globcert.linalg import cond2, eigenvalues, norm2, spectra_match
from globcert.localopt import Objective, objective_values
from globcert.oracle import GridSpec, grid_min, psa_grid_estimate, ray_scan, transient_samples
from globcert.pencils import (
    NearSingularSecondMember,
    PencilKind,
    build_dtu_pencil,
    build_kc_pencil,
    build_kd_pencil,
)
from globcert.solver import SolveStatus, SolverConfig, dtu, kreiss_continuous, kreiss_discrete
from globcert.solver import _Driver

E = np.e
PI_SQ = np.pi**2


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _mk_instance(gen, kind):
    n = int(gen.integers(3, 7))
    if kind is PencilKind.KREISS_CONTINUOUS:
        return stable_continuous(gen, n), None
    if kind is PencilKind.KREISS_DISCRETE:
        return stable_discrete(gen, n), None
    return random_complex(gen, n), random_complex(gen, n, int(gen.integers(1, 4)))


def test_c01_pencil_round_trip():
    gen = rng(101)
    t0 = time.time()
    worst = 0.0
    for kind in PencilKind:
        for _ in range(100):
            a, b = _mk_instance(gen, kind)
            n = a.shape[0]
            theta = float(gen.uniform(-1.3, 1.3))
            r = float(gen.uniform(1.3, 3.0)) if kind is PencilKind.KREISS_DISCRETE else float(
                gen.uniform(0.3, 3.0)
            )
            z = r * np.exp(1j * theta)
            if kind is PencilKind.KREISS_CONTINUOUS:
                mat = (z * np.eye(n) - a) / (r * np.cos(theta))
                build = lambda s: build_kc_pencil(a, s, theta)
                direct = lambda rr: objective_values(kind, a, None, [rr * np.exp(1j * theta)])[0]
                valid = lambda rr: rr > 1e-6
            elif kind is PencilKind.KREISS_DISCRETE:
                mat = (z * np.eye(n) - a) / (r - 1.0)
                build = lambda s: build_kd_pencil(a, s, theta)
                direct = lambda rr: objective_values(kind, a, None, [rr * np.exp(1j * theta)])[0]
                valid = lambda rr: rr > 1 + 1e-6
            else:
                mat = np.hstack([a - z * np.eye(n), b])
                build = lambda s: build_dtu_pencil(a, b, s, theta)
                direct = lambda rr: objective_values(kind, a, b, [rr * np.exp(1j * theta)])[0]
                valid = lambda rr: rr > 1e-6
            # direction (i): every singular value yields i*r in the spectrum
            for s in np.linalg.svd(mat, compute_uv=False):
                try:
                    _, red = build(float(s))
                except NearSingularSecondMember:
                    continue
                lam = eigenvalues(red.matrix)
                worst = max(worst, float(np.min(np.abs(lam - 1j * r)) / max(1.0, r)))
            # direction (ii): imaginary eigenvalues yield singular values
            g = float(gen.uniform(0.15, 0.9))
            _, red = build(g)
            lam = eigenvalues(red.matrix)
            scale = max(norm2(red.matrix), 1.0)
            for lam_k in lam[np.abs(lam.real) <= 1e-9 * scale]:
                rr = float(lam_k.imag)
                if not valid(rr):
                    continue
                zz = rr * np.exp(1j * theta)
                if kind is PencilKind.KREISS_CONTINUOUS:
                    m2 = (zz * np.eye(n) - a) / (rr * np.cos(theta))
                elif kind is PencilKind.KREISS_DISCRETE:
                    m2 = (zz * np.eye(n) - a) / (rr - 1.0)
                else:
                    m2 = np.hstack([a - zz * np.eye(n), b])
                svals = np.linalg.svd(m2, compute_uv=False)
                worst = max(worst, float(np.min(np.abs(svals - g)) / max(1.0, g)))
    elapsed = time.time() - t0
    report(
        1,
        "pencil round trip",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst={worst:.2e} time={elapsed:.1f}s",
    )


def test_c02_closed_form_fixtures():
    checks = []

    def close(x, y, rel=1e-10):
        checks.append(abs(x - y) <= rel * max(abs(y), 1e-300))

    a_diag = np.diag([-1.0, -2.0])
    _, red = build_kc_pencil(a_diag, 0.5, 0.0)
    checks.append(spectra_match(eigenvalues(red.matrix), [-2j, -2j / 3, -4j, -4j / 3], 1e-10))
    _, red = build_kc_pencil(a_diag, 2.0, 0.0)
    checks.append(spectra_match(eigenvalues(red.matrix), [1j, 2j, -1j / 3, -2j / 3], 1e-10))
    _, red = build_kd_pencil(np.zeros((2, 2)), 0.5, 0.7)
    checks.append(spectra_match(eigenvalues(red.matrix), [1j / 3, 1j / 3, -1j, -1j], 1e-10))
    _, red = build_kd_pencil(np.zeros((1, 1)), 2.0, 0.0)
    checks.append(spectra_match(eigenvalues(red.matrix), [2j / 3, 2j], 1e-10))
    _, red = build_dtu_pencil([[2.0]], [[1.0]], 1.25, 0.0)
    checks.append(spectra_match(eigenvalues(red.matrix), [1.25j, 2.75j], 1e-10))
    _, red = build_dtu_pencil([[2.0]], [[1.0]], 0.5, 0.0)
    checks.append(
        spectra_match(eigenvalues(red.matrix), [np.sqrt(0.75) + 2j, -np.sqrt(0.75) + 2j], 1e-10)
    )

    cv = eval_g(a_diag, 0.5, 0.0)
    close(cv.value, PI_SQ)
    cv = eval_g(a_diag, 2.0, 0.0)
    checks.append(cv.value == 0.0)
    by_r = {round(c.r): c for c in cv.candidates}
    close(by_r[1].verified_value, 2.0)
    close(by_r[2].verified_value, 1.5)
    cv = eval_h(np.zeros((2, 2)), 0.5, 0.0)
    close(cv.value, PI_SQ)
    cv = eval_h(np.zeros((1, 1)), 2.0, 0.0)
    checks.append(cv.value == 0.0 and abs(cv.candidates[0].verified_value - 2.0) <= 2e-10)
    cv = eval_f([[2.0]], [[1.0]], 1.25, 0.0)
    checks.append(cv.value == 0.0)
    for c in cv.candidates:
        close(c.verified_value, 1.25)
    cv = eval_f([[2.0]], [[1.0]], 0.5, 0.0)
    close(cv.value, np.arctan2(np.sqrt(0.75), 2.0) ** 2)  # the 0.16699 fixture
    report(2, "closed-form fixtures", all(checks), f"{sum(checks)}/{len(checks)} ok")


def test_c03_condition_number_law():
    worst = 0.0
    ok_max = True
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 41)
    for g in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        conds_c = []
        for th in thetas:
            pair, _ = build_kc_pencil(np.eye(2), g, float(th))
            gc = abs(g * np.cos(th))
            pred = (1 + gc) / abs(1 - gc)
            worst = max(worst, abs(cond2(pair.rhs) - pred) / pred)
            conds_c.append(cond2(pair.rhs))
            pair, _ = build_kd_pencil(np.eye(2), g, float(th))
            pred_d = (1 + g) / (1 - g)
            worst = max(worst, abs(cond2(pair.rhs) - pred_d) / pred_d)
        k_mid = len(thetas) // 2  # theta = 0
        ok_max &= conds_c[k_mid] == max(conds_c)
        ok_max &= abs(conds_c[k_mid] - (1 + g) / (1 - g)) <= 1e-10 * (1 + g) / (1 - g)
    worst_d = 0.0
    for th in np.linspace(-np.pi, np.pi, 21):
        pair, _ = build_dtu_pencil(np.eye(3), np.ones((3, 2)), 0.7, float(th))
        worst_d = max(worst_d, abs(cond2(pair.rhs) - 1.0))
    report(
        3,
        "condition-number law",
        worst <= 1e-10 and ok_max and worst_d <= 1e-12,
        f"worst rel={worst:.2e}, kappa(D)-1={worst_d:.2e}",
    )


def test_c04_certificate_ray_scan_equivalence():
    gen = rng(104)
    t0 = time.time()
    trials = 0
    disagreements = []
    for kind in PencilKind:
        for _ in range(20):
            a, b = _mk_instance(gen, kind)
            if kind is PencilKind.KREISS_CONTINUOUS:
                r_grid = np.geomspace(0.01, 100.0, 2000)
                evaluate = lambda g, th: eval_g(a, g, th)
                th_lo, th_hi = -1.45, 1.45
            elif kind is PencilKind.KREISS_DISCRETE:
                r_grid = 1.0 + np.geomspace(1e-4, 100.0, 2000)
                evaluate = lambda g, th: eval_h(a, g, th)
                th_lo, th_hi = -np.pi, np.pi
            else:
                r_grid = np.geomspace(0.01, 100.0, 2000)
                evaluate = lambda g, th: eval_f(a, b, g, th)
                th_lo, th_hi = -np.pi, np.pi
            gamma = float(gen.uniform(0.2, 0.95))
            if kind is PencilKind.DIST_UNCONTROLLABLE:
                gamma *= objective_values(kind, a, b, [0j])[0]  # keep below the center value
            for th in gen.uniform(th_lo, th_hi, 50):
                trials += 1
                cert_zero = evaluate(gamma, float(th)).value == 0.0
                scan_hit = ray_scan(kind, a, b, gamma, float(th), r_grid)
                if cert_zero != scan_hit:
                    disagreements.append((kind.value, gamma, float(th), cert_zero))
    for d in disagreements:
        print(f"[acceptance] c04 disagreement (grid-resolution suspect): {d}")
    elapsed = time.time() - t0
    allowed = trials // 1000
    report(
        4,
        "certificate vs ray scan",
        len(disagreements) <= allowed and elapsed < 300.0,
        f"{len(disagreements)} disagreements in {trials} trials (allowed {allowed}), "
        f"time={elapsed:.0f}s",
    )


def _oracle_region_continuous(a, gamma_hat):
    bound = (norm2(a) + 1.0) / max(1.0 - min(gamma_hat, 0.95), 0.05) * 1.2
    return GridSpec((1e-4, bound, -bound, bound), 240, 240)


def _oracle_region_discrete(a, gamma_hat):
    bound = max(4.0, (norm2(a) + 1.0) / max(1.0 - min(gamma_hat, 0.95), 0.05) * 1.1)
    return GridSpec((1.0 + 1e-9, bound, -np.pi, np.pi), 240, 360, polar=True)


def _oracle_region_dtu(a, b):
    r = norm2(a) + norm2(b) + 1.0
    return GridSpec((-r, r, -r, r), 220, 220)


def test_c05_solvers_match_grid_oracle():
    gen = rng(105)
    t0 = time.time()
    worst = 0.0
    cases = []
    for _ in range(20):
        a = stable_continuous(gen, int(gen.integers(3, 7)))
        res = kreiss_continuous(a, [1 + 1j])
        obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
        _, v = grid_min(obj, _oracle_region_continuous(a, res.gamma_final))
        rel = abs(res.quantity - 1.0 / v) / (1.0 / v)
        worst = max(worst, rel)
        cases.append(("kc", res.quantity, rel))
    for _ in range(20):
        a = stable_discrete(gen, int(gen.integers(3, 7)))
        res = kreiss_discrete(a, [2.0 + 0.5j])
        obj = Objective(PencilKind.KREISS_DISCRETE, a)
        _, v = grid_min(obj, _oracle_region_discrete(a, res.gamma_final))
        rel = abs(res.quantity - 1.0 / v) / (1.0 / v)
        worst = max(worst, rel)
        cases.append(("kd", res.quantity, rel))
    for _ in range(20):
        n = int(gen.integers(3, 7))
        a = random_complex(gen, n)
        b = random_complex(gen, n, int(gen.integers(1, 4)))
        res = dtu(a, b, [1.0 + 0j])
        obj = Objective(PencilKind.DIST_UNCONTROLLABLE, a, b)
        _, v = grid_min(obj, _oracle_region_dtu(a, b))
        rel = abs(res.quantity - v) / max(v, 1e-300)
        worst = max(worst, rel)
        cases.append(("dtu", res.quantity, rel))
    elapsed = time.time() - t0
    for tag, q, rel in cases:
        if rel > 1e-8:
            print(f"[acceptance] c05 mismatch {tag}: quantity={q} rel={rel:.2e}")
    report(
        5,
        "solver vs oracle",
        worst <= 1e-8 and elapsed < 600.0,
        f"worst rel={worst:.2e} over 60 instances, time={elapsed:.0f}s",
    )


def test_c06_exact_analytic_targets():
    gen = rng(106)
    checks = []
    for _ in range(10):
        n = int(gen.integers(2, 7))
        a = random_complex(gen, n)
        res = dtu(a, np.eye(n), [1.0 + 0j])
        checks.append(abs(res.quantity - 1.0) <= 1e-8)
    # uncontrollable pairs: unreachable states give tau = 0
    pairs = [
        (np.diag([1.0, 2.0]), np.array([[1.0], [0.0]])),
        (np.diag([1.0, 2.0, 3.0]), np.array([[1.0, 0.5], [2.0, 1.0], [0.0, 0.0]])),
    ]
    q, _ = np.linalg.qr(random_complex(gen, 2))
    pairs.append((q @ pairs[0][0] @ q.conj().T, q @ pairs[0][1]))
    for a, b in pairs:
        res = dtu(a, b, [0.5 + 0j])
        checks.append(res.quantity <= 1e-8)
    for _ in range(10):
        n = int(gen.integers(2, 7))
        q, _ = np.linalg.qr(random_complex(gen, n))
        lam_c = -gen.uniform(0.1, 2.0, n) + 1j * gen.standard_normal(n)
        res = kreiss_continuous(q @ np.diag(lam_c) @ q.conj().T, [1 + 1j])
        checks.append(res.status is SolveStatus.TRIVIAL_NORMAL and res.quantity == 1.0)
        lam_d = gen.uniform(0.1, 0.99, n) * np.exp(2j * np.pi * gen.uniform(0, 1, n))
        res = kreiss_discrete(q @ np.diag(lam_d) @ q.conj().T, [2.0])
        checks.append(res.status is SolveStatus.TRIVIAL_NORMAL and res.quantity == 1.0)
    report(6, "exact analytic targets", all(checks), f"{sum(checks)}/{len(checks)} ok")


def test_c07_kreiss_matrix_theorem_sandwich():
    gen = rng(107)
    t0 = time.time()
    checks = []
    for _ in range(10):
        n = int(gen.integers(3, 7))
        a = stable_continuous(gen, n, -0.5, -0.05)
        res = kreiss_continuous(a, [1 + 1j])
        k = res.quantity
        t_grid = np.linspace(0.0, 60.0, 200)
        peak = float(np.max(transient_samples(a, t_grid)))
        checks.append(k <= peak * (1 + 1e-6) + 1e-9 or peak <= 1.0 + 1e-9)
        checks.append(peak <= E * n * k * (1 + 1e-6))
        scale = norm2(a) + 1.0
        spec = GridSpec((-scale, scale, -scale, scale), 90, 90)
        for eps in np.geomspace(1e-3, 1.0, 20):
            est = psa_grid_estimate(a, float(eps), spec, refine=2)
            if np.isfinite(est) and est > 0:
                checks.append(est / eps <= k * (1 + 1e-6))
    for _ in range(10):
        n = int(gen.integers(3, 7))
        a = stable_discrete(gen, n)
        res = kreiss_discrete(a, [2.0 + 0.5j])
        k = res.quantity
        powers = [np.linalg.norm(np.linalg.matrix_power(a, j), 2) for j in range(501)]
        checks.append(max(powers) <= E * n * k * (1 + 1e-6))
    elapsed = time.time() - t0
    report(
        7,
        "transient-growth sandwich",
        all(checks),
        f"{sum(checks)}/{len(checks)} ok, time={elapsed:.0f}s",
    )


def test_c08_restart_behavior():
    # discrete two-basin instance: a bad start marches toward the shallow
    # direction and the certificate must pull it into the deep basin
    a = np.block(
        [
            [np.array([[0.9, 0.8], [0.0, 0.9]]), np.zeros((2, 2))],
            [np.zeros((2, 2)), np.array([[-0.85, 0.3], [0.0, -0.85]])],
        ]
    )
    res_d = kreiss_discrete(a, [-1.5])
    obj = Objective(PencilKind.KREISS_DISCRETE, a)
    _, v = grid_min(obj, GridSpec((1 + 1e-9, 6.0, -np.pi, np.pi), 300, 300, polar=True))
    ok_d = len(res_d.restarts) >= 1 and abs(res_d.quantity - 1.0 / v) <= 1e-8 / v

    # DTU two-basin instance: the public driver's mandatory origin start
    # already descends to the (symmetric) global value, so the restart
    # machinery is exercised on the core driver from the interior saddle
    a2 = np.diag([1.0 + 0j, 5.0])
    b2 = np.array([[1.0 + 0j], [1.0]])
    drv = _Driver(
        PencilKind.DIST_UNCONTROLLABLE, a2, b2, [3.0 + 0j], SolverConfig(), (0.0, np.pi)
    ).run()
    obj2 = Objective(PencilKind.DIST_UNCONTROLLABLE, a2, b2)
    _, v2 = grid_min(obj2, GridSpec((0.0, 6.0, -2.0, 2.0), 200, 200))
    ok_t = len(drv.restarts) >= 1 and abs(drv.gamma - v2) <= 1e-8 * v2

    # invariants over every trace: strictly decreasing gammas across restart
    # records and certificate levels strictly below the round's gamma
    invariants = True
    for run in (res_d,):
        gseq = [r.gamma_before for r in run.restarts] + [run.gamma_final]
        invariants &= all(g2 < g1 for g1, g2 in zip(gseq, gseq[1:]))
        gammas = [run.restarts[0].gamma_before] + [r.gamma_after for r in run.restarts]
        by_round = {}
        for rec in run.trace:
            by_round.setdefault(rec.round, set()).add(rec.gamma)
        for rnd, levels in by_round.items():
            g_round = gammas[min(rnd, len(gammas)) - 1]
            invariants &= all(level < g_round for level in levels)
    report(
        8,
        "restart behavior",
        ok_d and ok_t and invariants,
        f"discrete restarts={len(res_d.restarts)}, dtu restarts={len(drv.restarts)}",
    )


def test_c09_interpolation_engine():
    checks = []

    def batch(f):
        return lambda xs: [f(float(x)) for x in xs]

    grid = np.linspace(-1, 1, 4001)
    runge = lambda x: 1.0 / (1.0 + 25.0 * x * x)
    p = approximate(batch(runge), -1, 1).interpolant
    checks.append(max(abs(p.evaluate(float(x)) - runge(float(x))) for x in grid) <= 1e-12)
    p = approximate(batch(np.exp), -1, 1).interpolant
    checks.append(max(abs(p.evaluate(float(x)) - np.exp(float(x))) for x in grid) <= 1e-12)
    p = approximate(batch(abs), -1, 1).interpolant
    checks.append(len(p.pieces) == 2 and abs(p.pieces[0].b) <= 1e-12)
    checks.append(max(abs(p.evaluate(float(x)) - abs(float(x))) for x in grid) <= 1e-12)
    p = approximate(batch(np.sin), 0, 10).interpolant
    roots = p.roots()
    expect = np.array([0.0, np.pi, 2 * np.pi, 3 * np.pi])
    checks.append(len(roots) == 4 and np.max(np.abs(roots - expect)) <= 1e-10)

    # abort fires on the same batch for any evaluation concurrency
    outcomes = []
    for workers in (1, 4, 8):
        def fn(xs, w=workers):
            with ThreadPoolExecutor(max_workers=w) as ex:
                return list(ex.map(np.sin, xs))

        out = approximate(fn, 0, 10, abort_on=lambda v: v <= 0.0)
        outcomes.append((tuple(x for x, _ in out.trigger_samples), out.sample_count))
    checks.append(isinstance(out, Aborted))
    checks.append(outcomes[0] == outcomes[1] == outcomes[2])
    report(9, "interpolation engine", all(checks), f"{sum(checks)}/{len(checks)} ok")


def test_c10_determinism_across_workers():
    a = np.block(
        [
            [np.array([[0.9, 0.8], [0.0, 0.9]]), np.zeros((2, 2))],
            [np.zeros((2, 2)), np.array([[-0.85, 0.3], [0.0, -0.85]])],
        ]
    )
    payloads = []
    for workers in (1, 4, 8):
        res = kreiss_discrete(a, [-1.5], SolverConfig(workers=workers))
        d = result_to_dict(res)
        d.pop("wall_time_s")
        payloads.append(json.dumps(d, sort_keys=True))
    report(
        10,
        "worker determinism",
        payloads[0] == payloads[1] == payloads[2],
        f"{len(payloads[0])} bytes of JSON compared",
    )


@pytest.mark.skip(
    reason="stretch goal: reference values correspond to externally generated "
    "demo matrices whose deterministic generators are not available here"
)
def test_c11_stretch_table_values():
    pass
