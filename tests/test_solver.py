"""End-to-end solver behavior: fast paths, restarts, invariants, determinism."""

import dataclasses
import re

import numpy as np
import pytest

import globcert.chebinterp as chebinterp
import globcert.localopt as localopt
import globcert.solver as solver
from conftest import assert_close, random_complex, rng, stable_continuous
from globcert.certificates import NearZeroPencilEigenvalue
from globcert.cli import result_to_dict
from globcert.demos import grcar, kahan
from globcert.linalg import norm2, spectral_abscissa, spectral_radius
from globcert.localopt import InfeasibleStart, Objective, minimize, objective_value_grad
from globcert.oracle import GridSpec, grid_min
from globcert.pencils import NearSingularSecondMember, PencilKind
from globcert.solver import (
    SolveStatus,
    SolverConfig,
    ZeroEigenvalue,
    _Driver,
    dtu,
    kreiss_continuous,
    kreiss_discrete,
)


def two_basin_discrete():
    return np.block(
        [
            [np.array([[0.9, 0.8], [0.0, 0.9]]), np.zeros((2, 2))],
            [np.zeros((2, 2)), np.array([[-0.85, 0.3], [0.0, -0.85]])],
        ]
    )


def test_normal_fast_paths():
    res = kreiss_continuous(np.diag([-1.0, -2.0]), [1 + 1j])
    assert res.status is SolveStatus.TRIVIAL_NORMAL
    assert res.quantity == 1.0
    res = kreiss_discrete(np.diag([0.5, -0.3]), [2.0])
    assert res.status is SolveStatus.TRIVIAL_NORMAL
    assert res.quantity == 1.0


def _k_equals_one(family, gen, n):
    """A seeded order-n matrix whose Kreiss constant is exactly 1, with its solver."""
    if family == "dissipative":
        a = random_complex(gen, n)
        omega = np.linalg.eigvalsh(0.5 * (a + a.conj().T))[-1]
        return kreiss_continuous, a - (omega + gen.uniform(0.01, 1.0)) * np.eye(n)
    if family == "imaginary-axis":  # normal, every eigenvalue on the boundary
        q = np.linalg.qr(random_complex(gen, n))[0]
        lam = 1j * gen.uniform(0.5, 5.0, n) * gen.choice([-1.0, 1.0], n)
        return kreiss_continuous, q @ np.diag(lam) @ q.conj().T
    if family == "contractive":
        a = random_complex(gen, n)
        return kreiss_discrete, a * (gen.uniform(0.3, 1.0) / norm2(a))
    m = random_complex(gen, n) if family == "unitary" else gen.standard_normal((n, n))
    return kreiss_discrete, np.linalg.qr(m)[0]


@pytest.mark.parametrize(
    "family", ["dissipative", "imaginary-axis", "contractive", "unitary", "orthogonal"]
)
def test_kreiss_constant_one_takes_the_fast_path(family):
    # omega(A) <= 0 (kc) or ||A||_2 <= 1 (kd) gives K = 1 exactly.  The
    # non-normal inputs descended toward infinity and returned Converged with
    # K = 0.99999999999...; the normal ones on the boundary need the tests'
    # tolerance, since their computed omega or ||A||_2 is off by rounding
    for n in range(2, 9):
        solve, a = _k_equals_one(family, rng(4100 + n), n)
        res = solve(a, [1 + 1j if solve is kreiss_continuous else 2.0])
        assert res.status is SolveStatus.TRIVIAL_NORMAL, n
        assert res.quantity == 1.0 and res.minimizer is None, n
        assert res.certificate_samples == () and res.trace == (), n


@pytest.mark.parametrize("start", [1e-153, 1e-150])
def test_continuous_start_whose_descent_cannot_move_converges(start):
    # on 1e6 * A the descent's first gradient overflows and it ends at its
    # start, where K = 2.3e-159 (1e-153) or 2.3e-156 (1e-150); the solve
    # returned Uncertified with that K after 0 samples, since every
    # certificate level at its gamma degenerated.  From gamma = 1 the
    # certificate round finds the peak
    a = 1e6 * np.array([[-1.0, 4.0], [0.0, -2.0]])
    res = kreiss_continuous(a, [start])
    assert res.status is SolveStatus.CONVERGED
    assert abs(res.quantity - 1.0556083778682213) <= 1e-12


def _two_block_discrete_3037():
    # a Jordan block at 0.5 beside a weakly coupled one near the unit circle
    gen = np.random.default_rng(3037)
    phi, rho = gen.uniform(0.5, 3), gen.uniform(0.95, 0.995)
    c, k = gen.uniform(0.02, 0.1), gen.uniform(0.5, 3)
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = [[0.5, k], [0.0, 0.5]]
    a[2:, 2:] = rho * np.exp(1j * phi) * np.eye(2) + [[0.0, c], [0.0, 0.0]]
    return a


@pytest.mark.parametrize(
    "a, start",
    [(np.array([[-1.0, -1.0], [0.0, -1.0]]), 2.0), (_two_block_discrete_3037(), 1.5)],
    ids=["defective-on-the-circle", "two-block-3037"],
)
def test_kreiss_discrete_never_reports_below_one(a, start):
    # each descent ran off toward infinity and stopped where the objective
    # read 1 + 5e-13 to 1 + 7e-13, so K was reported as 0.99999999999928
    # and 0.99999999999949
    res = kreiss_discrete(a, [start])
    assert res.quantity >= 1.0


def test_unstable_infinite():
    res = kreiss_continuous(np.array([[0.5, 1.0], [0.0, 0.2]]), [1 + 1j])
    assert res.status is SolveStatus.UNSTABLE_INFINITE
    assert not np.isfinite(res.quantity)
    res = kreiss_discrete(np.array([[1.5, 1.0], [0.0, 0.2]]), [2.0])
    assert res.status is SolveStatus.UNSTABLE_INFINITE


def test_zero_eigenvalue_rejected():
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(ZeroEigenvalue):
        kreiss_continuous(a, [1 + 1j])


def test_infeasible_starts_rejected():
    a = np.array([[-0.5, 5.0], [0.0, -0.5]])
    with pytest.raises(InfeasibleStart):
        kreiss_continuous(a, [-1 + 1j])
    with pytest.raises(InfeasibleStart):
        kreiss_discrete(two_basin_discrete(), [0.5])


@pytest.mark.parametrize("start", [1e-200 + 0j, 1e-170 + 1j, 1e-160 + 0j])
def test_continuous_start_whose_square_underflows_is_rejected_by_name(start):
    # Re z > 0 holds, but Re z * Re z underflows: every descent used to drop
    # such a start, and the solve raised a RuntimeError that named no start.
    # At 1e-160 the square is positive but subnormal: the first gradient was
    # -inf, and its direction NaN
    a = np.array([[-1.0, 4.0], [0.0, -2.0]])
    with pytest.raises(InfeasibleStart, match=re.escape(str(start))):
        kreiss_continuous(a, [start])


_A_NONFINITE = np.array([[-1.0, 4.0], [0.0, -2.0]])
_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "solve, start",
    [
        (lambda z: kreiss_continuous(_A_NONFINITE, [z]), complex(_INF, 0.0)),
        (lambda z: kreiss_continuous(_A_NONFINITE, [z]), complex(1.0, _INF)),
        (lambda z: kreiss_discrete(_A_NONFINITE / 4, [z]), complex(_INF, 0.0)),
        (lambda z: kreiss_discrete(_A_NONFINITE / 4, [z]), complex(_NAN, 0.0)),
        (lambda z: dtu(_A_NONFINITE, [[1.0], [0.0]], [z]), complex(_NAN, 0.0)),
        (lambda z: dtu(_A_NONFINITE, [[1.0], [0.0]], [z]), complex(_INF, 0.0)),
    ],
    ids=["kc-inf", "kc-1+inf-i", "kd-inf", "kd-nan", "dtu-nan", "dtu-inf"],
)
def test_non_finite_start_is_rejected_by_name(solve, start):
    # the Kreiss infinite starts raised RuntimeError naming no start, a
    # discrete NaN start was rejected for "|z| <= 1", and dtu dropped
    # either start and returned Converged from the origin alone
    message = f"start {start} is infeasible (z is not finite)"
    with pytest.raises(InfeasibleStart, match=re.escape(message)):
        solve(start)


def test_continuous_tiny_start_converges():
    # the first working gradient is about -1e150, so each of the line
    # search's 50 halved trials overflowed; the descent stopped at its start,
    # and 50 restarts later the solve returned MaxRestarts with K = 1.65e-99
    a = np.array([[-1.0, 4.0], [0.0, -2.0]])
    res = kreiss_continuous(a, [1e-150])
    assert res.status is SolveStatus.CONVERGED
    assert_close(res.quantity, 1.0556083778682215, rel=1e-12)


@pytest.mark.parametrize(
    "solve, a",
    [
        (kreiss_continuous, np.array([[-0.5, 5.0], [0.0, -0.5]])),
        (kreiss_discrete, np.array([[0.9, 0.8], [0.0, 0.5]])),
    ],
)
def test_solve_without_starts_is_rejected(solve, a):
    with pytest.raises(ValueError, match="at least one starting point"):
        solve(a, [])


def test_continuous_matches_oracle():
    a = np.array([[-0.5, 5.0], [0.0, -0.5]])
    res = kreiss_continuous(a, [1 + 1j])
    assert res.status is SolveStatus.CONVERGED
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    _, v = grid_min(obj, GridSpec((1e-3, 6.0, -6.0, 6.0), 200, 200))
    assert_close(res.quantity, 1.0 / v, rel=1e-8)
    # upper-bound soundness: gamma_final is the objective at the minimizer
    val, _ = objective_value_grad(obj, res.minimizer)
    assert val == res.gamma_final


def test_discrete_matches_oracle():
    a = np.array([[0.9, 0.8], [0.0, 0.5]])
    res = kreiss_discrete(a, [1.5])
    obj = Objective(PencilKind.KREISS_DISCRETE, a)
    _, v = grid_min(obj, GridSpec((1 + 1e-9, 8.0, -np.pi, np.pi), 300, 300, polar=True))
    assert_close(res.quantity, 1.0 / v, rel=1e-8)
    assert objective_value_grad(obj, res.minimizer)[0] == res.gamma_final


def test_dtu_scalar_closed_form():
    res = dtu([[2.0]], [[1.0]], [3.0])
    assert res.status is SolveStatus.CONVERGED
    assert_close(res.quantity, 1.0, rel=1e-10)
    assert_close(res.minimizer.real, 2.0, rel=1e-8)
    obj = Objective(PencilKind.DIST_UNCONTROLLABLE, np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]))
    assert objective_value_grad(obj, res.minimizer)[0] == res.gamma_final


def test_dtu_minimum_at_the_origin_is_reported_as_attained():
    # sigma_min([A - z, B]) = sqrt(|z|^2 + 1) is minimal at the origin, where
    # it is exactly 1; a guard used to report gamma = 1 - 1e-13 instead
    res = dtu([[0.0]], [[1.0]], [])
    assert res.status is SolveStatus.CONVERGED
    assert res.minimizer == 0j
    obj = Objective(PencilKind.DIST_UNCONTROLLABLE, np.zeros((1, 1), complex), np.ones((1, 1), complex))
    assert res.quantity == res.gamma_final == objective_value_grad(obj, 0j)[0] == 1.0


def test_dtu_uncontrollable_pair():
    res = dtu(np.diag([1.0, 2.0]), [[1.0], [0.0]], [0.5])
    assert res.quantity <= 1e-8
    assert res.status is SolveStatus.CONVERGED
    assert res.certificate_samples == ()  # short-circuit: no globality check


def test_dtu_b_identity():
    gen = rng(61)
    a = random_complex(gen, 3)
    res = dtu(a, np.eye(3), [1.0])
    assert_close(res.quantity, 1.0, rel=1e-8)


def test_restart_forced_discrete_two_basin():
    a = two_basin_discrete()
    res = kreiss_discrete(a, [-1.5])
    assert len(res.restarts) >= 1
    obj = Objective(PencilKind.KREISS_DISCRETE, a)
    _, v = grid_min(obj, GridSpec((1 + 1e-9, 6.0, -np.pi, np.pi), 300, 300, polar=True))
    assert_close(res.quantity, 1.0 / v, rel=1e-8)
    assert objective_value_grad(obj, res.minimizer)[0] == res.gamma_final
    # monotone gamma across restart records
    gammas = [res.restarts[0].gamma_before] + [r.gamma_after for r in res.restarts]
    assert all(g2 < g1 for g1, g2 in zip(gammas, gammas[1:]))


def test_restart_forced_dtu_two_basin_internal():
    # the public driver always adds the origin, which descends to the global
    # basin of this symmetric instance; exercise the restart machinery by
    # starting the core driver at the interior saddle point only
    a = np.diag([1.0, 5.0])
    b = np.array([[1.0], [1.0]])
    drv = _Driver(
        PencilKind.DIST_UNCONTROLLABLE, a.astype(complex), b.astype(complex),
        [3.0 + 0j], SolverConfig(), (0.0, np.pi),
    ).run()
    assert len(drv.restarts) >= 1
    assert_close(drv.gamma, 0.9682458365518539, rel=1e-8)
    assert objective_value_grad(drv.obj, drv.zstar)[0] == drv.gamma
    # public API with the same bad start still lands on the global value
    res = dtu(a, b, [3.0])
    assert_close(res.quantity, 0.9682458365518539, rel=1e-8)


def test_safeguard_trace_levels_strictly_below_round_gamma():
    # the certificate is always evaluated below the round's gamma, never at it
    a = two_basin_discrete()
    res = kreiss_discrete(a, [-1.5])
    assert res.trace
    by_round = {}
    for rec in res.trace:
        assert rec.stage in ("probe", "final-min", "root-midpoint")
        by_round.setdefault(rec.round, set()).add(rec.gamma)
    gammas = [res.restarts[0].gamma_before] + [r.gamma_after for r in res.restarts]
    for rnd, levels in by_round.items():
        gamma_round = gammas[min(rnd, len(gammas)) - 1]
        for level in levels:
            assert level < gamma_round


def test_solver_deterministic_across_workers():
    a = two_basin_discrete()
    results = []
    for workers in (1, 4):
        cfg = SolverConfig(workers=workers)
        res = kreiss_discrete(a, [-1.5], cfg)
        results.append(res)
    r1, r2 = results
    assert r1.quantity == r2.quantity
    assert r1.gamma_final == r2.gamma_final
    assert r1.minimizer == r2.minimizer
    assert r1.certificate_samples == r2.certificate_samples
    assert [dataclasses.astuple(t) for t in r1.trace] == [
        dataclasses.astuple(t) for t in r2.trace
    ]


def test_max_restarts_caps_certification():
    a = two_basin_discrete()
    res = kreiss_discrete(a, [-1.5], SolverConfig(max_restarts=1))
    assert res.status is SolveStatus.MAX_RESTARTS
    assert len(res.restarts) == 1
    # the best value found so far is still reported as a valid upper bound
    assert_close(res.quantity, 2.125, rel=1e-8)


def test_budget_exhaustion_returns_uncertified(monkeypatch):
    # the second certificate round on discrete Grcar(10) needs two pieces;
    # a budget of one runs out there, which used to raise BudgetExceeded out
    # of the solve
    a = grcar(10)
    a = a / (1.01 * spectral_radius(a))
    monkeypatch.setattr(chebinterp, "MAX_PIECES", 1)
    res = kreiss_discrete(a, [1.5])
    assert res.status is SolveStatus.UNCERTIFIED
    assert np.isfinite(res.quantity) and res.quantity == 1.0 / res.gamma_final
    assert abs(res.minimizer) > 1.0
    obj = Objective(PencilKind.KREISS_DISCRETE, a)
    assert objective_value_grad(obj, res.minimizer)[0] == res.gamma_final
    assert len(res.certificate_samples) == 2 and res.certificate_samples[-1] > 0
    assert sum(res.certificate_samples) == len(res.trace)


_DEGENERATE_LEVEL_ERRORS = [NearSingularSecondMember, NearZeroPencilEigenvalue]


@pytest.mark.parametrize("error", _DEGENERATE_LEVEL_ERRORS)
def test_one_degenerate_level_retry_leaves_the_answer_unchanged(monkeypatch, error):
    # a retry lowers the certificate level only; lowering gamma as well used
    # to report K = 2.600000000000261, a value no point attains
    a = np.array([[-0.5, 5.0], [0.0, -0.5]])
    real = solver.eval_certificates
    calls = [0]

    def once(*args):
        calls[0] += 1
        if calls[0] == 1:
            raise error("injected at theta=0.0")
        return real(*args)

    monkeypatch.setattr(solver, "eval_certificates", once)
    res = kreiss_continuous(a, [1 + 1j])
    assert calls[0] > 1
    assert res.status is SolveStatus.CONVERGED
    assert res.quantity == 2.600000000000001
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    assert objective_value_grad(obj, res.minimizer)[0] == res.gamma_final


@pytest.mark.parametrize("error", _DEGENERATE_LEVEL_ERRORS)
def test_spent_degenerate_level_retries_end_uncertified(monkeypatch, error):
    def always(*args):
        raise error("injected at theta=0.0")

    monkeypatch.setattr(solver, "eval_certificates", always)
    a = np.array([[-0.5, 5.0], [0.0, -0.5]])
    res = kreiss_continuous(a, [1 + 1j])
    assert res.status is SolveStatus.UNCERTIFIED
    start = minimize(Objective(PencilKind.KREISS_CONTINUOUS, a), 1 + 1j)
    assert (res.gamma_final, res.minimizer) == (start.value, start.z)
    assert res.certificate_samples == (0,) and res.trace == ()


def test_a_retry_lowers_the_clamped_level_it_failed_at(monkeypatch):
    # the descent cannot leave its start, so round 1 runs at gamma = 1, where
    # the level is clamped to 1 - 1e-6.  Lowering gamma before the clamp
    # left the retried level at exactly 1 - 1e-6, the level that failed
    a = 1e6 * np.array([[-1.0, 4.0], [0.0, -2.0]])
    real = solver.eval_certificates
    calls = [0]

    def once(*args):
        calls[0] += 1
        if calls[0] == 1:
            raise NearZeroPencilEigenvalue("injected at theta=0.0")
        return real(*args)

    monkeypatch.setattr(solver, "eval_certificates", once)
    res = kreiss_continuous(a, [1e-153])
    levels = {t.gamma for t in res.trace if t.round == 1}
    assert levels and max(levels) < 1.0 - 1e-6
    assert res.status is SolveStatus.CONVERGED
    assert abs(res.quantity - 1.0556083778682213) <= 1e-12


def test_discrete_grcar20_converges():
    # measured from mu = 0, the discrete certificate jumped wherever a pencil
    # eigenvalue crossed the real axis inside radius 1, and the graded splits
    # into those jumps ran out of the piece budget (Uncertified)
    a = grcar(20)
    a = a / (1.01 * spectral_radius(a))
    res = kreiss_discrete(a, [1.5])
    assert res.status is SolveStatus.CONVERGED
    assert_close(res.quantity, 26.186897001806397, rel=1e-12)


def _narrow_basin(omega):
    # K = 1.25 from the left block; the right block's basin near angle pi/2
    # gives K = 1.45 but its zero set is narrow
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = [[-1.0, 4.0], [0.0, -1.0]]
    a[2:, 2:] = (-0.01 + 1j * omega) * np.eye(2) + np.array([[0.0, 0.05], [0.0, 0.0]])
    return a


def test_certificate_finds_narrow_deep_basin():
    res = kreiss_continuous(_narrow_basin(10.0), [1 + 1j])
    assert res.status is SolveStatus.CONVERGED
    assert_close(res.quantity, 1.4500000000000004, rel=1e-12)
    assert [r.trigger for r in res.restarts] == ["Probe"]
    res = kreiss_continuous(_narrow_basin(40.0), [1, 0.01 + 40j])
    assert res.status is SolveStatus.CONVERGED
    assert_close(res.quantity, 1.45, rel=1e-12)


def test_continuous_grcar20_certificate_sample_count():
    # the certificate is resolved to tol only where it nears 0; resolving
    # it to tol everywhere took 11,116 samples
    a = grcar(20)
    a = a - (spectral_abscissa(a) + 0.1) * np.eye(20)
    res = kreiss_continuous(a, [1 + 1j])
    assert res.status is SolveStatus.CONVERGED
    assert_close(res.quantity, 6.890661736429734, rel=1e-12)
    assert sum(res.certificate_samples) <= 1000


def _continuous_state():
    a = np.array([[-0.5, 5.0], [0.0, -0.5]], dtype=complex)
    return _Driver(PencilKind.KREISS_CONTINUOUS, a, None, [], SolverConfig(), (0.0, np.pi / 2))


def test_optimize_from_propagates_unexpected_errors(monkeypatch):
    def broken(obj, z0):
        raise ZeroDivisionError("a defect, not an infeasible start")

    monkeypatch.setattr(solver, "descend", broken)
    with pytest.raises(ZeroDivisionError):
        _continuous_state()._optimize_from([1 + 1j])


def test_optimize_from_drops_infeasible_starts(monkeypatch):
    real = solver.descend
    calls = []

    def picky(obj, z0):
        calls.append(z0)
        if z0 == 2 + 2j:
            raise InfeasibleStart("rejected")
        return real(obj, z0)

    monkeypatch.setattr(solver, "descend", picky)
    drv = _continuous_state()
    res = drv._optimize_from([2 + 2j, 1 + 1j])
    assert calls == [2 + 2j, 1 + 1j]
    assert res == minimize(drv.obj, 1 + 1j)
    assert drv._optimize_from([2 + 2j]) is None


@pytest.mark.parametrize(
    "kind, a, b, points",
    [
        (PencilKind.KREISS_DISCRETE, two_basin_discrete(), None, [-1.5, 1.5, 2j, 1.2 - 1.2j]),
        (
            PencilKind.DIST_UNCONTROLLABLE,
            random_complex(rng(73), 4),
            random_complex(rng(74), 4, 1),
            [0j, 1.0, -1 + 1j, 2j],
        ),
    ],
)
def test_race_without_floor_hit_is_the_best_of_all_descents(kind, a, b, points):
    drv = _Driver(kind, a, b, [], SolverConfig(), (0.0, np.pi))
    runs = [minimize(drv.obj, z) for z in points]
    assert all(r.value > drv.obj.floor for r in runs)
    assert drv._optimize_from(points) == min(runs, key=lambda r: r.value)


def _kahan_pair(n):
    b = np.zeros((n, 1), dtype=complex)
    b[-1, 0] = 1.0
    return kahan(n), b


def test_race_stops_at_the_noise_floor(monkeypatch):
    # Kahan(40) with B = e_40 is numerically uncontrollable; racing its
    # restarts to the first one at the floor cut 1,341 evaluations to 837
    a, b = _kahan_pair(40)
    real = localopt.objective_value_grad
    calls = [0]

    def counted(obj, z):
        calls[0] += 1
        return real(obj, z)

    monkeypatch.setattr(localopt, "objective_value_grad", counted)
    res = dtu(a, b, [0.5])
    assert res.status is SolveStatus.CONVERGED
    assert res.quantity <= 1e-12 * max(norm2(np.hstack([a, b])), 1.0)
    assert calls[0] <= 1000


def test_race_deterministic_across_workers_at_the_floor():
    a, b = _kahan_pair(40)
    payloads = []
    for workers in (1, 2):
        d = result_to_dict(dtu(a, b, [0.5], SolverConfig(workers=workers)))
        d.pop("wall_time_s")
        payloads.append(d)
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_zeros_consumed_mid_sweep(workers):
    # the first round's probe zero restarts optimization; the second round
    # samples zeros whose restarts lower gamma by less than RESTART_REL, so
    # each is consumed, gamma moves without a restart record and sampling
    # goes on until the sweep and both checks complete
    a, b = _kahan_pair(10)
    res = dtu(a, b, [0.5], SolverConfig(workers=workers))
    assert res.status is SolveStatus.CONVERGED
    assert res.certificate_samples == (17, 7925)
    assert [(r.trigger, r.gamma_before, r.gamma_after) for r in res.restarts] == [
        ("Probe", 8.809802130112499e-05, 1.1883525263201706e-05)
    ]
    assert res.quantity == 1.1883525263137764e-05
    assert res.quantity < res.restarts[0].gamma_after


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_found_by_the_minimizer_check(workers):
    # a pin of this solve: the sweep completes without a zero, and the
    # certificate at the interpolant's minimizer is one, consumed since its
    # restart gains less than RESTART_REL.  Whether the minimizer lands in
    # the tangency's zero window turns on its last digits, so
    # test_final_min_check_restarts_by_construction covers that path by design
    gen = rng([4242, 58])
    a = random_complex(gen, 4)
    b = random_complex(gen, 4, 1)
    res = dtu(a, b, [1.0], SolverConfig(workers=workers))
    assert res.status is SolveStatus.CONVERGED
    assert res.certificate_samples == (697,)
    assert res.restarts == ()
    assert [t.value for t in res.trace if t.stage == "final-min"] == [0.0]
    assert res.quantity == 0.48711224253338264


def test_final_min_check_restarts_by_construction(monkeypatch):
    # gamma 1% above a local minimum, and an interpolant whose only
    # minimizer is that minimum's angle: the final-min sample there meets
    # the level set, and its restart regains the 1%, so it ends the round
    a = np.array([[-1.0 + 1.0j, 4.0], [0.0, -2.0]])
    kind = PencilKind.KREISS_CONTINUOUS
    best = minimize(Objective(kind, a), 1 + 1j)
    theta = float(np.angle(best.z))
    real = chebinterp.approximate

    def one_piece(fn, lo, hi, **kwargs):
        out = real(lambda x: (np.asarray(x) - theta) ** 2, lo, hi)
        assert len(out.interpolant.pieces) == 1
        return out

    monkeypatch.setattr(solver, "approximate", one_piece)
    drv = _Driver(kind, a, None, [1 + 1j], SolverConfig(), (-np.pi / 2, np.pi / 2))
    drv.gamma, drv.round = 1.01 * best.value, 1
    assert drv._certificate_round() is None  # a restart ended the round
    [sample] = drv.trace
    assert sample.stage == "final-min" and sample.value == 0.0
    assert abs(sample.theta - theta) <= 1e-12
    [record] = drv.restarts
    assert record.trigger == "FinalMinCheck" and record.gamma_before == 1.01 * best.value
    assert record.gamma_after < best.value * (1.0 + 1e-6)


def test_zero_free_ladder_stalls_over_two_doublings():
    # the seed-0 complex Gaussian pair of order 10, drawn as perfbench's
    # dtu-rand10 is: its piece [-pi, -1.763] samples no zero, and its tail
    # alternates between falls of more and less than 8 per doubling, so the
    # rung-by-rung stall test ran that ladder to 4,097 points (6,704 samples
    # in all).  Over two doublings the tail falls by less than 64, so the
    # piece stalls and splits early.  Kahan(10) in
    # test_zeros_consumed_mid_sweep pins the other branch: its answer comes
    # from high rungs of pieces that sample a zero
    gen = np.random.default_rng(0)
    a = gen.standard_normal((10, 10)) + 1j * gen.standard_normal((10, 10))
    b = gen.standard_normal((10, 1)) + 1j * gen.standard_normal((10, 1))
    res = dtu(a, b, [1.0])
    assert res.status is SolveStatus.CONVERGED
    assert res.certificate_samples == (895,)
    assert res.quantity == 0.0550827470274255


def _two_block_continuous(k, omega, d, c):
    # a Jordan block at -1 beside a weakly damped one at -d + i*omega; the
    # second block's peak lies far from a start near the first
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = [[-1.0, k], [0.0, -1.0]]
    a[2:, 2:] = (-d + 1j * omega) * np.eye(2) + [[0.0, c], [0.0, 0.0]]
    return a


def test_zero_without_gain_does_not_end_the_sweep():
    # the descent from 1 ends at K = 1.25, the first block's peak; a sampled
    # zero whose restart gains nothing must not end the round, or the
    # second block's higher peak is never found
    a = _two_block_continuous(4.0, 40.0, 0.01, 0.05)
    res = kreiss_continuous(a, [1 + 0j])
    assert res.status is SolveStatus.CONVERGED
    assert_close(res.quantity, 1.4499999999999997, rel=1e-12)


def test_one_start_finds_the_far_block():
    # seeded slice of the two-block family: one start must give what a
    # second start beside the far block's eigenvalue gives.  Seeds 2034 and
    # 2035 draw dissipative matrices (omega(A) = -0.0296 and -0.0214), whose
    # K is exactly 1
    for seed in range(2000, 2040):
        gen = np.random.default_rng(seed)
        k, omega = gen.uniform(1, 6), gen.uniform(5, 60)
        d, c = gen.uniform(0.005, 0.05), gen.uniform(0.02, 0.2)
        a = _two_block_continuous(k, omega, d, c)
        one = kreiss_continuous(a, [1 + 0j])
        two = kreiss_continuous(a, [1 + 0j, d + 1j * omega])
        if seed in (2034, 2035):
            assert one.status is SolveStatus.TRIVIAL_NORMAL and one.quantity == 1.0, seed
        else:
            assert one.status is SolveStatus.CONVERGED, seed
        assert_close(one.quantity, two.quantity, rel=1e-8, label=f"seed {seed}")


def test_continuous_underflowing_line_search_step_is_infeasible():
    # a line-search trial point reached x = 1.46e-265, where the gradient's
    # x*x underflowed to 0 and raised ZeroDivisionError out of the solve
    gen = np.random.default_rng([7, 30])
    n = 7
    a = random_complex(gen, n)
    a += np.triu(2 * gen.standard_normal((n, n)), 1)
    target = -0.1 * gen.uniform(0.2, 2)
    a = a - (spectral_abscissa(a) - target) * np.eye(n)
    res = kreiss_continuous(a, [1 + 1j])
    assert res.status is SolveStatus.CONVERGED
    s = norm2(a)
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    _, v = grid_min(obj, GridSpec((1e-3, 3 * s, -3 * s, 3 * s), 300, 300))
    assert_close(res.quantity, 1.0 / v, rel=1e-8)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(workers=0)
    with pytest.raises(ValueError):
        SolverConfig(max_restarts=0)
    # a fractional count was accepted, and the solve then raised TypeError
    for bad in ({"workers": 1.5}, {"max_restarts": 2.0}, {"workers": "2"}):
        with pytest.raises(ValueError, match="must be integers"):
            SolverConfig(**bad)
    assert SolverConfig(max_restarts=np.int64(3), workers=np.int32(2)).workers == 2


def test_dtu_hermitian_symmetry_reduction():
    # Hermitian A with complex B still has real-axis-symmetric level sets,
    # so the reduced sweep must agree with a full-circle sweep
    gen = rng(64)
    a = random_complex(gen, 3)
    a = a + a.conj().T
    b = random_complex(gen, 3, 2)
    res_half = dtu(a, b, [1.0 + 0j])
    full = _Driver(
        PencilKind.DIST_UNCONTROLLABLE, a, b, [1.0 + 0j, 0j], SolverConfig(), (-np.pi, np.pi)
    ).run()
    assert_close(res_half.quantity, full.gamma, rel=1e-9)


def test_shift_center_invariance():
    # a shift along the imaginary axis maps the right half-plane onto
    # itself: K(A - iyI), solved from the start shifted by -iy, is K(A).
    # The random instance is dissipative (omega(A) = -0.0059), and so is its
    # shift, so K = 1 exactly; the 2x2 one has K = 2.6 at z = 13/24, which
    # the shift moves to 13/24 - iy
    gen = rng(62)
    a = stable_continuous(gen, 4)
    cases = [(a, float(np.mean(np.linalg.eigvals(a).imag)), SolveStatus.TRIVIAL_NORMAL),
             (np.array([[-0.5, 5.0], [0.0, -0.5]]), 0.7, SolveStatus.CONVERGED)]
    for m, y, status in cases:
        assert abs(y) > 0.1
        res0 = kreiss_continuous(m, [1 + 1j])
        res1 = kreiss_continuous(m - 1j * y * np.eye(len(m)), [1 + 1j - 1j * y])
        assert res0.status is res1.status is status
        assert_close(res1.quantity, res0.quantity, rel=1e-9)
        if status is SolveStatus.TRIVIAL_NORMAL:
            assert res0.quantity == res1.quantity == 1.0
    assert_close(res1.quantity, 2.6, rel=1e-12)
    assert abs(res1.minimizer - (13 / 24 - 0.7j)) <= 1e-8


def test_random_instances_match_oracle_spot():
    gen = rng(63)
    a = stable_continuous(gen, 4)
    res = kreiss_continuous(a, [1 + 1j])
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    bound = norm2(a) / max(1e-3, 1.0 - res.gamma_final) * 1.2
    _, v = grid_min(obj, GridSpec((1e-3, bound, -bound, bound), 220, 220))
    assert_close(res.quantity, 1.0 / v, rel=1e-8)


def test_solve_whose_every_start_fails_its_svd_raises(monkeypatch):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "svd", fails)
    a = np.array([[-0.5, 5.0], [0.0, -0.5]])
    with pytest.raises(RuntimeError, match="no starting point produced a feasible local minimum"):
        kreiss_continuous(a, [1 + 1j, 2 + 1j])


def test_start_that_rounds_onto_the_boundary_is_rejected_before_any_descent(monkeypatch):
    # |z| = 1 + 2**-52, but log(|z| - 1) maps back to a radius of 1
    z = 0.7378616051399289 + 0.674952036562842j

    def no_descent(obj, z0):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(solver, "descend", no_descent)
    message = f"start {z} is infeasible (rounds onto the boundary)"
    with pytest.raises(InfeasibleStart, match=re.escape(message)):
        kreiss_discrete(np.array([[0.5, 1.0], [0.0, 0.5]]), [2.0, z])


def test_trace_is_a_packed_sequence_of_records():
    res = kreiss_continuous(np.array([[-0.5, 5.0], [0.0, -0.5]]), [1 + 1j])
    trace = res.trace
    records = list(trace)
    assert len(trace) == len(records) == sum(res.certificate_samples) > 2
    assert all(type(r) is solver.TraceRecord for r in records)
    assert [trace[i] for i in range(len(trace))] == records
    assert trace[-1] == records[-1] and trace[1:3] == tuple(records[1:3])
    with pytest.raises(IndexError):
        trace[len(trace)]
    # equal to any sequence of the same records, hashed as their tuple
    assert trace == tuple(records) and tuple(records) == trace and trace == records
    assert hash(trace) == hash(tuple(records))
    assert trace != () and trace != records[:-1] and trace != records[::-1]
    assert (trace == "probe") is False
    # a non-sequence is not compared at all
    assert (trace == 5) is False and trace != 5
    assert repr(trace) == f"Trace(<{len(trace)} records>)"
    assert solver.Trace() == () and solver.Trace() == solver.Trace()
    # a second solve gives an equal trace; the results compare and hash equal
    again = kreiss_continuous(np.array([[-0.5, 5.0], [0.0, -0.5]]), [1 + 1j])
    again = dataclasses.replace(again, wall_time_s=res.wall_time_s)
    assert again.trace == trace and again == res and hash(again) == hash(res)
    assert not hasattr(trace, "append") and not hasattr(trace, "__dict__")
