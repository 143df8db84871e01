"""Objectives and the quasi-Newton minimizer: gradients, feasibility, descent."""

import re
import sys

import numpy as np
import pytest

import globcert.localopt as localopt
from conftest import assert_close, random_complex, rng, stable_continuous, stable_discrete
from globcert.linalg import as_complex_matrix, svd_triplet
from globcert.localopt import (
    InfeasiblePoint,
    InfeasibleStart,
    Objective,
    check_start,
    descend,
    minimize,
    objective_value_grad,
    objective_values,
)
from globcert.oracle import GridSpec, grid_min
from globcert.pencils import PencilKind


def _descend_counting(obj, z0):
    """(yields, LocalMin) of one descent: a descent that stops before the
    ``MAX_ITER`` cap yields fewer than ``MAX_ITER`` times, one at the cap
    exactly ``MAX_ITER`` times."""
    run = descend(obj, z0)
    yields = 0
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return yields, stop.value
        yields += 1


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(PencilKind.DIST_UNCONTROLLABLE, np.eye(2))  # missing B
    with pytest.raises(ValueError):
        Objective(PencilKind.KREISS_CONTINUOUS, np.eye(2), np.eye(2))  # stray B
    with pytest.raises(ValueError):
        Objective(PencilKind.DIST_UNCONTROLLABLE, np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="square"):
        Objective(PencilKind.KREISS_CONTINUOUS, np.ones((2, 3)))


def test_objective_values_bitwise_equal_to_smallest_singular_value():
    # the objectives read sigma_min from svd_triplet on matrices they built
    # from validated inputs; validating again would change no bit
    gen = rng(18)
    for n in (1, 3, 6):
        a, b = random_complex(gen, n), random_complex(gen, n, 2)
        z = complex(gen.uniform(0.3, 3), gen.uniform(-2, 2))
        eye = np.eye(n)
        cases = (
            (PencilKind.KREISS_CONTINUOUS, None, z, z * eye - a, z.real),
            (PencilKind.KREISS_DISCRETE, None, 1 + z, (1 + z) * eye - a, abs(1 + z) - 1.0),
            (PencilKind.DIST_UNCONTROLLABLE, b, z, np.hstack([a - z * eye, b]), 1.0),
        )
        for kind, bm, w, m, scale in cases:
            value, _ = objective_value_grad(Objective(kind, a, bm), w)
            assert value == svd_triplet(as_complex_matrix(m))[0].sigma / scale


def test_objective_values_are_infinite_off_the_feasible_region():
    a = np.array([[-1.0, 4.0], [0.0, -2.0]], dtype=complex)
    kc = objective_values(PencilKind.KREISS_CONTINUOUS, a, None, [-1 + 1j, 2j, -0.0, 1e-160, 1 + 1j])
    assert np.all(np.isinf(kc[:4])) and np.isfinite(kc[4])
    kd = objective_values(PencilKind.KREISS_DISCRETE, 0.5 * a, None, [0.9j, 1.0, -0.5, 1.5])
    assert np.all(np.isinf(kd[:3])) and np.isfinite(kd[3])


def test_objective_values_agree_with_objective_value_grad():
    # one matrix builder for both; a value-only SVD may round differently
    gen = rng(19)
    for n in (1, 3, 6):
        instances = (
            (PencilKind.KREISS_CONTINUOUS, stable_continuous(gen, n), None),
            (PencilKind.KREISS_DISCRETE, stable_discrete(gen, n), None),
            (PencilKind.DIST_UNCONTROLLABLE, random_complex(gen, n), random_complex(gen, n, 2)),
        )
        for kind, a, b in instances:
            obj = Objective(kind, a, b)
            if kind is PencilKind.KREISS_DISCRETE:
                zs = (1.05 + gen.uniform(0, 2, 20)) * np.exp(1j * gen.uniform(-np.pi, np.pi, 20))
            else:
                zs = gen.uniform(0.01, 3, 20) + 1j * gen.uniform(-2, 2, 20)
            values = objective_values(kind, obj.a, obj.b, zs)
            for z, v in zip(zs, values):
                assert_close(v, objective_value_grad(obj, z)[0], rel=1e-14, label=f"{kind} {z}")


def test_dtu_scalar_value_and_gradient():
    obj = Objective(PencilKind.DIST_UNCONTROLLABLE, [[2.0]], [[1.0]])
    v, g = objective_value_grad(obj, 3.0 + 0j)
    assert_close(v, np.sqrt(2.0), rel=1e-12)
    assert_close(g[0], 1 / np.sqrt(2.0), rel=1e-12)
    assert abs(g[1]) <= 1e-12


def test_continuous_value_and_gradient_at_one():
    obj = Objective(PencilKind.KREISS_CONTINUOUS, -np.eye(2))
    v, g = objective_value_grad(obj, 1.0 + 0j)
    assert_close(v, 2.0, rel=1e-14)
    assert_close(g[0], -1.0, rel=1e-10)
    assert abs(g[1]) <= 1e-10


def test_infeasible_points_raise():
    obj = Objective(PencilKind.KREISS_CONTINUOUS, -np.eye(2))
    with pytest.raises(InfeasiblePoint):
        objective_value_grad(obj, -1.0 + 0j)
    with pytest.raises(InfeasibleStart):
        minimize(obj, -1.0 + 0j)
    obj = Objective(PencilKind.KREISS_DISCRETE, 0.5 * np.eye(2))
    with pytest.raises(InfeasiblePoint):
        objective_value_grad(obj, 0.5 + 0j)
    with pytest.raises(InfeasibleStart):
        minimize(obj, 0.9j)


def _fd_gradient(obj, z, kind, h=1e-6):
    f = lambda w: objective_value_grad(obj, w)[0]
    if kind is PencilKind.KREISS_DISCRETE:
        r, t = abs(z), np.angle(z)
        return np.array(
            [
                (f((r + h) * np.exp(1j * t)) - f((r - h) * np.exp(1j * t))) / (2 * h),
                (f(r * np.exp(1j * (t + h))) - f(r * np.exp(1j * (t - h)))) / (2 * h),
            ]
        )
    return np.array(
        [(f(z + h) - f(z - h)) / (2 * h), (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)]
    )


def test_gradients_match_finite_differences():
    gen = rng(51)
    for kind in PencilKind:
        checked = 0
        trial = 0
        while checked < 100 and trial < 400:
            trial += 1
            n = int(gen.integers(2, 6))
            a = random_complex(gen, n)
            b = random_complex(gen, n, 2) if kind is PencilKind.DIST_UNCONTROLLABLE else None
            obj = Objective(kind, a, b)
            if kind is PencilKind.KREISS_DISCRETE:
                z = complex((1.3 + gen.uniform(0, 2)) * np.exp(1j * gen.uniform(-3, 3)))
            else:
                z = complex(gen.uniform(0.3, 3), gen.uniform(-2, 2))
            v, g = objective_value_grad(obj, z)
            fd = _fd_gradient(obj, z, kind)
            if np.linalg.norm(fd) < 1e-3:
                continue  # too flat for a meaningful relative check
            rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert rel <= 1e-6, (kind, z, rel)
            checked += 1
        assert checked == 100


def test_minimize_dtu_scalar():
    obj = Objective(PencilKind.DIST_UNCONTROLLABLE, [[2.0]], [[1.0]])
    yields, res = _descend_counting(obj, 3.0 + 0j)
    assert_close(res.z.real, 2.0, rel=1e-8)
    assert_close(res.value, 1.0, rel=1e-12)
    assert yields < localopt.MAX_ITER


def test_minimize_two_basin_lands_locally():
    obj = Objective(PencilKind.DIST_UNCONTROLLABLE, np.diag([1.0, 5.0]), [[1.0], [1.0]])
    f09, _ = objective_value_grad(obj, 0.9 + 0j)
    r1 = minimize(obj, 0.9 + 0j)
    assert abs(r1.z - 1.0) < 0.5 and r1.value < f09
    r2 = minimize(obj, 5.1 + 0j)
    assert abs(r2.z - 5.0) < 0.5
    # values certified by a grid oracle
    _, v = grid_min(obj, GridSpec((0.0, 6.0, -2.0, 2.0), 200, 200, polish=False))
    assert r1.value <= v + 1e-6


def test_minimize_continuous_matches_grid_polish_oracle():
    a = np.array([[-0.5, 5.0], [0.0, -0.5]])
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    res = minimize(obj, 1.0 + 1.0j)
    _, v = grid_min(obj, GridSpec((1e-3, 6.0, -6.0, 6.0), 200, 200))
    assert_close(res.value, v, rel=1e-8)


def test_descent_monotone_and_feasible():
    gen = rng(52)
    for kind in (PencilKind.KREISS_CONTINUOUS, PencilKind.KREISS_DISCRETE):
        for _ in range(5):
            a = stable_continuous(gen, 4) if kind is PencilKind.KREISS_CONTINUOUS else None
            if a is None:
                a = random_complex(gen, 4)
                a *= 0.9 / max(abs(np.linalg.eigvals(a)))
            obj = Objective(kind, a)
            z0 = 1.5 + 0.5j if kind is PencilKind.KREISS_CONTINUOUS else 2.0 + 0.5j
            f0 = objective_value_grad(obj, z0)[0]
            res = minimize(obj, z0)
            assert res.value <= f0 + 1e-14
            if kind is PencilKind.KREISS_CONTINUOUS:
                assert res.z.real >= 1e-12 * abs(res.z)
            else:
                assert abs(res.z) > 1.0


def test_local_optimality_compass():
    gen = rng(53)
    a = stable_continuous(gen, 4)
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    res = minimize(obj, 1.0 + 0.5j)
    r = 1e-5 * (1 + abs(res.z))
    for k in range(8):
        w = res.z + r * np.exp(2j * np.pi * k / 8)
        if w.real <= 0:
            continue
        v, _ = objective_value_grad(obj, w)
        assert v >= res.value - 1e-10


def test_descend_is_minimize_one_iteration_at_a_time():
    a = stable_continuous(rng(75), 4)
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    yields, res = _descend_counting(obj, 1 + 1j)
    assert res == minimize(obj, 1 + 1j)
    assert 1 <= yields < localopt.MAX_ITER


def test_descend_stops_at_the_iteration_cap(monkeypatch):
    # the cap is read when a descent runs, so patching the module constant
    # takes effect; the best iterate so far is returned after MAX_ITER yields
    a = stable_continuous(rng(75), 4)
    obj = Objective(PencilKind.KREISS_CONTINUOUS, a)
    start, _ = objective_value_grad(obj, 1 + 1j)
    assert _descend_counting(obj, 1 + 1j)[0] > 2
    monkeypatch.setattr(localopt, "MAX_ITER", 2)
    yields, res = _descend_counting(obj, 1 + 1j)
    assert yields == 2
    assert res == minimize(obj, 1 + 1j)
    assert res.value <= start


def test_objective_floors():
    assert Objective(PencilKind.KREISS_CONTINUOUS, -np.eye(2)).floor == 0.0
    assert Objective(PencilKind.KREISS_DISCRETE, 0.5 * np.eye(2)).floor == 0.0
    a, b = 3.0 * np.eye(2), np.array([[4.0], [0.0]])  # ‖[A B]‖₂ = 5
    assert_close(Objective(PencilKind.DIST_UNCONTROLLABLE, a, b).floor, 5e-12, rel=1e-14)
    assert Objective(PencilKind.DIST_UNCONTROLLABLE, [[0.1]], [[0.0]]).floor == 1e-12


def test_minimize_stops_at_the_noise_floor_of_an_uncontrollable_pair():
    # eigenvalue 2 of diag(1, 2) is unreachable from B = e_1: tau = 0 at z = 2
    obj = Objective(PencilKind.DIST_UNCONTROLLABLE, np.diag([1.0, 2.0]), [[1.0], [0.0]])
    yields, res = _descend_counting(obj, 1.7 + 0.4j)
    assert yields < localopt.MAX_ITER
    assert res.value <= obj.floor
    # a start on the floor takes no iteration
    yields, at_zero = _descend_counting(obj, 2.0 + 0j)
    assert yields == 0 and at_zero.value <= obj.floor


def test_continuous_point_whose_square_underflows_is_infeasible():
    obj = Objective(PencilKind.KREISS_CONTINUOUS, -np.eye(2))
    with pytest.raises(InfeasiblePoint):
        objective_value_grad(obj, 1e-170 + 1j)


def _stable(kind):
    return Objective(kind, -np.eye(2) if kind is PencilKind.KREISS_CONTINUOUS else 0.5 * np.eye(2))


@pytest.mark.parametrize(
    "kind, z, rule",
    [
        (PencilKind.KREISS_CONTINUOUS, -1 + 1j, "Re z <= 0"),
        (PencilKind.KREISS_CONTINUOUS, 1e-200 + 0j, "underflows"),
        (PencilKind.KREISS_CONTINUOUS, 1e-170 + 1j, "underflows"),
        (PencilKind.KREISS_DISCRETE, 0.9j, "|z| <= 1"),
    ],
)
def test_check_start_names_the_start_and_the_rule(kind, z, rule):
    with pytest.raises(InfeasibleStart, match=f"start {re.escape(str(z))} is infeasible") as info:
        check_start(kind, z)
    assert rule in str(info.value)
    with pytest.raises(InfeasiblePoint):
        objective_value_grad(_stable(kind), z)


def test_check_start_rejects_a_start_that_rounds_onto_the_boundary():
    # |z| = 1 + 2**-52 is feasible, but its working parameter log(|z| - 1)
    # maps back to a point on the unit circle
    kind, z = PencilKind.KREISS_DISCRETE, 0.7378616051399289 + 0.674952036562842j
    assert abs(z) > 1.0
    assert abs(localopt._unpack(kind, localopt._pack(kind, z))) <= 1.0
    with pytest.raises(InfeasibleStart) as info:
        check_start(kind, z)
    assert str(info.value) == f"start {z} is infeasible (rounds onto the boundary)"


def test_every_accepted_start_is_evaluated():
    # starts at the edge of the feasible region: where check_start accepts
    # one, the descent's first point, the start rounded into its working
    # parameters, is feasible too.  Just above the smallest x whose square
    # is a normal number, exp(log(x)) can round below it
    lo, hi = 1e-155, 1e-153
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if mid * mid >= sys.float_info.min else (mid, hi)
    gen = rng(76)
    points = {
        PencilKind.KREISS_CONTINUOUS: [complex(hi * (1 + k * 1e-15), 1.0) for k in range(-20, 400)],
        PencilKind.KREISS_DISCRETE: [
            (1 + int(gen.integers(-2, 8)) * 2.0**-52) * np.exp(1j * gen.uniform(-np.pi, np.pi))
            for _ in range(1000)
        ],
    }
    for kind, zs in points.items():
        obj = _stable(kind)
        accepted = 0
        for z in zs:
            try:
                check_start(kind, z)
            except InfeasibleStart:
                continue
            objective_value_grad(obj, localopt._unpack(kind, localopt._pack(kind, z)))
            accepted += 1
        assert 0.5 * len(zs) <= accepted < len(zs)
