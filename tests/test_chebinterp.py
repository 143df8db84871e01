"""Adaptive interpolation engine: convergence, splitting, roots, abort."""

import numpy as np
import pytest

import globcert.chebinterp as chebinterp
from conftest import assert_close, rng
from globcert.chebinterp import (
    Aborted,
    BudgetExceeded,
    ChebPiece,
    Completed,
    OutOfDomain,
    PiecewiseCheb,
    approximate,
    coeffs2vals,
    vals2coeffs,
)


def batch(f):
    return lambda xs: [f(float(x)) for x in xs]


def max_err(p, f, lo, hi, n=4001):
    xs = np.linspace(lo, hi, n)
    return max(abs(p.evaluate(float(x)) - f(float(x))) for x in xs)


def test_vals2coeffs_reproduces_samples():
    gen = rng(41)
    for m in (8, 16, 33):
        v = gen.standard_normal(m + 1)
        c = vals2coeffs(v)
        t = np.cos(np.pi * np.arange(m, -1, -1) / m)
        recon = np.polynomial.chebyshev.chebval(t, c)
        assert np.max(np.abs(recon - v)) <= 1e-14 * max(1.0, np.max(np.abs(v)))


def test_transforms_of_one_value_are_the_identity():
    assert vals2coeffs([3.0]).tolist() == [3.0] and coeffs2vals([3.0]).tolist() == [3.0]


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def test_transforms_bitwise_equal_to_scipy_dct():
    # the numpy DCT-I must reproduce the former scipy.fft.dct(type=1) forms
    # bit for bit, so that no certificate sample path moves
    from scipy.fft import dct

    gen = rng(43)
    lengths = [2, 3, 4, 5] + [2**k + 1 for k in range(4, 15)]  # 17 .. 16,385
    for size in lengths:
        m = size - 1
        for scale in (1.0, 1e-9, 1e7):
            v = scale * gen.standard_normal(size)
            c = dct(v[::-1], type=1) / m
            c[0] /= 2.0
            c[m] /= 2.0
            assert _same_bits(vals2coeffs(v), c), size
            u = v.copy()
            u[0] *= 2.0
            u[m] *= 2.0
            assert _same_bits(coeffs2vals(v), (dct(u, type=1) / 2.0)[::-1]), size


def test_vals2coeffs_matches_cosine_sum():
    gen = rng(44)
    for m in range(1, 65):
        v = gen.standard_normal(m + 1)
        j = np.arange(m + 1)
        w = np.full(m + 1, 2.0 / m)
        w[[0, m]] /= 2.0
        # c_k = (2/m) sum'' v(x_j) cos(pi j k / m), x_j = cos(pi j / m) descending
        ref = (np.cos(np.pi * np.outer(j, j) / m) * w) @ v[::-1]
        ref[[0, m]] /= 2.0
        err = np.max(np.abs(vals2coeffs(v) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref)), m


def test_square_is_exact_single_piece():
    out = approximate(batch(lambda x: x * x), -1, 1)
    assert isinstance(out, Completed)
    p = out.interpolant
    assert len(p.pieces) == 1
    c = p.pieces[0].coeffs
    assert len(c) == 3
    assert_close(c[0], 0.5, rel=1e-12)
    assert abs(c[1]) <= 1e-14
    assert_close(c[2], 0.5, rel=1e-12)
    assert_close(p.evaluate(0.5), 0.25, rel=1e-12)


def test_abs_splits_at_zero():
    out = approximate(batch(abs), -1, 1)
    p = out.interpolant
    assert len(p.pieces) == 2
    assert abs(p.pieces[0].b) <= 1e-12
    assert max_err(p, abs, -1, 1) <= 1e-12
    assert abs(p.evaluate(0.0)) <= 1e-12


def test_analytic_convergence():
    out = approximate(batch(np.exp), -1, 1)
    assert max_err(out.interpolant, np.exp, -1, 1) <= 1e-12
    runge = lambda x: 1.0 / (1.0 + 25.0 * x * x)
    out = approximate(batch(runge), -1, 1)
    assert max_err(out.interpolant, runge, -1, 1) <= 1e-12


def test_roots_of_sin():
    out = approximate(batch(np.sin), 0, 10)
    roots = out.interpolant.roots()
    expect = [0.0, np.pi, 2 * np.pi, 3 * np.pi]
    assert len(roots) == 4
    for r, e in zip(roots, expect):
        assert abs(r - e) <= 1e-10


def test_roots_of_a_high_degree_piece():
    # the pole at +-i/5 slows the coefficient decay enough that one piece
    # needs more than 129 coefficients, so its roots are bracketed on the
    # oversampled grid rather than taken from the colleague matrix
    f = lambda x: np.sin(30.0 * x) / (1.0 + 25.0 * x * x)
    interp = approximate(batch(f), -1, 1).interpolant
    assert max(len(p.coeffs) for p in interp.pieces) > 129
    expect = np.pi / 30.0 * np.arange(-9, 10)
    roots = interp.roots()
    assert len(roots) == len(expect)
    assert np.max(np.abs(roots - expect)) <= 1e-10
    xs = np.linspace(-1, 1, 41)
    assert np.array_equal(interp(xs), [interp.evaluate(float(x)) for x in xs])
    assert interp(0.3) == interp.evaluate(0.3)


@pytest.mark.parametrize(
    "f, a, b, size, expect",
    [
        # two simple roots 1e-4 apart
        (lambda x: (x - 0.3) * (x - 0.3001) * (2.0 + np.sin(15.0 * x)), -1.0, 1.0, 50, [0.3, 0.3001]),
        (lambda x: np.sin(40.0 * x) * np.exp(x), -1.0, 1.0, 73, np.pi / 40.0 * np.arange(-12, 13)),
        # a root at the left endpoint of the piece
        (lambda x: np.sin(30.0 * (x - 2.0)) * np.exp(-x), 2.0, 5.0, 90, 2.0 + np.pi / 30.0 * np.arange(29)),
        (lambda x: np.sin(72.0 * x), -1.0, 1.0, 120, np.pi / 72.0 * np.arange(-22, 23)),
    ],
    ids=["close-pair", "sin40-exp", "sin30-offset", "sin72"],
)
def test_roots_at_moderate_degree(f, a, b, size, expect):
    # one piece of 50 to 120 coefficients, interpolating f at that many
    # points: every known root is found to 1e-10, none missing, none extra
    piece = ChebPiece(a, b, vals2coeffs(f(chebinterp.chebpts(size - 1, a, b))))
    roots = PiecewiseCheb((piece,), (a, b)).roots()
    assert len(roots) == len(expect)
    assert np.max(np.abs(roots - np.asarray(expect))) <= 1e-10


def test_roots_none_and_double():
    out = approximate(batch(lambda x: x * x + 1.0), -1, 1)
    assert len(out.interpolant.roots()) == 0
    out = approximate(batch(lambda x: x * x), -1, 1)
    roots = out.interpolant.roots()
    assert len(roots) == 1
    assert abs(roots[0]) <= 1e-10


def test_global_min_examples():
    out = approximate(batch(lambda x: (x - 0.3) ** 2), -1, 1)
    xs, v = out.interpolant.global_minimizers()
    assert_close(xs[0], 0.3, rel=1e-9)
    assert abs(v) <= 1e-12
    out = approximate(batch(np.cos), 0, 2 * np.pi)
    x0, v = out.interpolant.global_min()
    assert_close(x0, np.pi, rel=1e-9)
    assert_close(v, -1.0, rel=1e-9)
    out = approximate(batch(lambda x: 3.0), -1, 1)
    xs, v = out.interpolant.global_minimizers()
    assert xs[0] == -1.0 and v == 3.0 and len(xs) >= 2


def test_global_min_high_degree_path():
    # degree well above the derivative-rootfinding cutoff
    f = lambda x: np.cos(40.0 * x) + 0.2 * x
    out = approximate(batch(f), -4, 4)
    assert max(len(p.coeffs) for p in out.interpolant.pieces) > 65
    xs = np.linspace(-4, 4, 200001)
    vals = f(xs)
    k = int(np.argmin(vals))
    x0, v = out.interpolant.global_min()
    assert abs(v - vals[k]) <= 1e-8
    assert abs(x0 - xs[k]) <= 1e-4


def test_roots_and_min_match_dense_scan():
    gen = rng(42)
    for trial in range(20):
        freq = float(gen.uniform(0.5, 3.0))
        shift = float(gen.uniform(-0.5, 0.5))
        f = lambda x: np.sin(freq * x + shift) + 0.3 * np.cos(2.1 * freq * x)
        out = approximate(batch(f), -2, 2)
        xs = np.linspace(-2, 2, 100001)
        vals = np.array([f(x) for x in xs])
        k = int(np.argmin(vals))
        x0, v = out.interpolant.global_min()
        assert v <= vals[k] + 1e-8
        assert abs(v - vals[k]) <= 1e-8
        # every dense-scan sign change matches a reported root
        roots = out.interpolant.roots()
        crossings = xs[:-1][vals[:-1] * vals[1:] < 0.0]
        assert len(roots) == len(crossings)
        for r, c in zip(roots, crossings):
            assert abs(r - c) <= 1e-4  # within one dense-grid cell


def test_evaluate_boundaries_and_domain():
    out = approximate(batch(abs), -1, 1)
    p = out.interpolant
    assert_close(p.evaluate(-1.0), 1.0, rel=1e-12)
    assert_close(p.evaluate(1.0), 1.0, rel=1e-12)
    with pytest.raises(OutOfDomain):
        p.evaluate(1.5)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, -1.0), (0.0, np.inf), (np.nan, 1.0)])
def test_approximate_rejects_an_empty_or_non_finite_interval(lo, hi):
    with pytest.raises(ValueError, match="invalid interval"):
        approximate(batch(np.exp), lo, hi)


def test_approximate_rejects_a_batch_of_the_wrong_length():
    with pytest.raises(ValueError, match="wrong number of results"):
        approximate(lambda xs: [1.0] * (len(xs) - 1), -1, 1)


def test_all_zero_piece_stands_for_its_whole_interval():
    # p = 0 on [0, 1] and p = x - 1 on [1, 2]: the zero piece's endpoints
    # stand in for its roots, and its midpoint for its minimizers
    p = PiecewiseCheb(
        (ChebPiece(0.0, 1.0, np.zeros(5)), ChebPiece(1.0, 2.0, np.array([0.5, 0.5]))),
        (0.0, 2.0),
    )
    assert np.array_equal(p.roots(), [0.0, 1.0])
    xs, vmin = p.global_minimizers()
    assert vmin == 0.0
    assert 0.5 in xs and all(0.0 <= x <= 1.0 for x in xs)


def test_abort_on_first_triggering_batch():
    calls = []

    def fn(xs):
        calls.append(list(xs))
        return [np.sin(x) for x in xs]

    out = approximate(fn, 0, 10, abort_on=lambda v: v <= 0.0)
    assert isinstance(out, Aborted)
    assert len(calls) == 1  # the very first batch contains sin <= 0 points
    assert out.sample_count == len(calls[0])
    assert all(v <= 0.0 for _, v in out.trigger_samples)
    assert any(x >= np.pi for x, _ in out.trigger_samples)


def test_abort_deterministic_under_evaluation_order():
    def make_fn(reverse):
        def fn(xs):
            idx = np.argsort(xs)[::-1] if reverse else np.arange(len(xs))
            vals = [None] * len(xs)
            for i in idx:  # simulate out-of-order completion
                vals[int(i)] = float(np.sin(xs[int(i)]))
            return vals

        return fn

    outs = [
        approximate(make_fn(rev), 0, 10, abort_on=lambda v: v <= 0.0)
        for rev in (False, True)
    ]
    t0 = [x for x, _ in outs[0].trigger_samples]
    t1 = [x for x, _ in outs[1].trigger_samples]
    assert t0 == t1
    assert outs[0].sample_count == outs[1].sample_count


def test_min_samples_ladder(monkeypatch):
    monkeypatch.setattr(chebinterp, "MIN_SAMPLES", 9)
    out = approximate(batch(np.exp), -1, 1)
    assert max_err(out.interpolant, np.exp, -1, 1) <= 1e-12


def test_budget_exceeded_stops_sampling(monkeypatch):
    # white-noise function cannot be interpolated: budget must trip, and no
    # sample is drawn after the stall that trips it
    monkeypatch.setattr(chebinterp, "MAX_DEGREE", 65)
    monkeypatch.setattr(chebinterp, "MAX_PIECES", 4)
    gen = rng(43)
    noise = {}

    def f(x):
        if x not in noise:
            noise[x] = float(gen.standard_normal())
        return noise[x]

    calls = []

    def fn(xs):
        calls.append(len(xs))
        return batch(f)(xs)

    calls_at_stall = []
    run_ladder = chebinterp._run_ladder

    def recording_ladder(*args):
        try:
            return run_ladder(*args)
        except chebinterp._NeedSplit:
            calls_at_stall.append(len(calls))
            raise

    monkeypatch.setattr(chebinterp, "_run_ladder", recording_ladder)
    with pytest.raises(BudgetExceeded, match="MAX_PIECES"):
        approximate(fn, -1, 1)
    assert calls_at_stall and calls_at_stall[-1] == len(calls)


# One case per outcome of a stalled ladder, on 1 + s|x|: the kink's
# coefficients are 4s / (pi (m^2 - 1)) at even m, so the tail falls by 4 per
# doubling and the ladder has stalled twice by 65 points, with a tail of
# 3.1e-4 s against a scale of about 1.  At s = 4e-9 that tail (1.5e-12) is
# within 50 * TOL and the piece is kept; at s = 2.5e-8 (9.6e-12) the ladder
# doubles once more to 129 points, where the tail (2.4e-12) is within the
# contract; at s = 1e-5 (3.1e-9, above 1e3 * TOL) the piece splits at 0.
@pytest.mark.parametrize(
    "s, rung, n_pieces",
    [(4e-9, 65, 1), (2.5e-8, 129, 1), (1e-5, 65, 2)],
    ids=["within-contract-keeps", "closing-in-doubles", "far-above-splits"],
)
def test_stalled_ladder_keeps_doubles_or_splits(monkeypatch, s, rung, n_pieces):
    samples = []

    def fn(xs):
        samples.extend(xs)
        return [1.0 + s * abs(float(x)) for x in xs]

    recorded = []
    run_ladder = chebinterp._run_ladder

    def recording_ladder(*args):
        try:
            coeffs = run_ladder(*args)
        except chebinterp._NeedSplit:
            recorded.append(("stall", len(samples)))
            raise
        recorded.append(("accept", len(samples)))
        return coeffs

    monkeypatch.setattr(chebinterp, "_run_ladder", recording_ladder)
    out = approximate(fn, -1, 1)
    assert isinstance(out, Completed)
    assert recorded[0] == ("stall", rung)
    assert len(out.interpolant.pieces) == n_pieces
    if n_pieces == 1:
        assert len(recorded) == 1
        assert len(out.interpolant.pieces[0].coeffs) == rung
    else:
        assert out.interpolant.pieces[0].b == 0.0
        assert all(kind == "accept" for kind, _ in recorded[1:])


# The zero-set ladder's two stall tests, on a kink at 0.123 off the grid:
# its tail falls by about 4 per doubling, but not by at least 8 on two rungs
# in a row before 257 points.  A piece that samples no zero stalls once the
# tail fell by less than 64 over two doublings, at 129 points.  The twin
# samples a zero at its left end, (x + 1) = 0 at x = -1, and keeps the
# rung-by-rung test.  Each splits first near the kink.  The twin's search
# zooms to 16 eps, so its cut lands on the kink and two pieces suffice.  The
# zero-free search stops once its window is as narrow as the end cell of
# the 17-point grid on [-1, 1], 1 - cos(pi / 16), and cuts at the window's
# middle; the piece right of that cut holds the kink near its left end,
# stalls at 65 points and splits once more, graded toward the kink.
STOP_WIDTH = 1.0 - np.cos(np.pi / 16.0)


@pytest.mark.parametrize(
    "f, stall_counts, total, n_pieces, cut_tol",
    [
        (lambda x: 1e-3 + abs(x - 0.123), [129, 222], 307, 3, STOP_WIDTH),
        (lambda x: (x + 1.0) * (1e-3 + abs(x - 0.123)), [257], 462, 2, 1e-12),
    ],
    ids=["zero-free-two-doublings", "zero-holding-two-stalls"],
)
def test_zero_set_stall_test_depends_on_a_sampled_zero(
    monkeypatch, f, stall_counts, total, n_pieces, cut_tol
):
    samples = []

    def fn(xs):
        samples.extend(xs)
        return batch(f)(xs)

    stalls = []
    run_ladder = chebinterp._run_ladder

    def recording_ladder(*args):
        try:
            return run_ladder(*args)
        except chebinterp._NeedSplit:
            stalls.append(len(samples))
            raise

    monkeypatch.setattr(chebinterp, "_run_ladder", recording_ladder)
    out = approximate(fn, -1, 1, zero_set_only=True)
    assert isinstance(out, Completed)
    assert stalls == stall_counts
    assert out.sample_count == total
    assert len(out.interpolant.pieces) == n_pieces
    assert abs(out.interpolant.pieces[0].b - 0.123) <= cut_tol


def test_zero_free_edge_search_starts_from_the_stalled_rung(monkeypatch):
    # 1e-3 + the upper of a line and a sine, which cross at x = 0.0358 and
    # 0.945; no sample on [-1, 1] is 0.  Each search's first window comes
    # from the stalled rung at no cost, and each zoom adds only the 4
    # midpoints of the 5 points it keeps
    batches = []

    def fn(xs):
        batches.append(len(xs))
        return [1e-3 + max(np.sin(3.0 * x), 0.2 * x + 0.1) for x in xs]

    searches = []
    locate_edge = chebinterp._locate_edge

    def recording_edge(*args):
        start = len(batches)
        x = locate_edge(*args)
        searches.append(batches[start:])
        return x

    monkeypatch.setattr(chebinterp, "_locate_edge", recording_edge)
    out = approximate(fn, -1, 1, zero_set_only=True)
    assert isinstance(out, Completed)
    assert searches == [[4, 4, 4, 4], []]
    assert out.sample_count == 262
    assert len(out.interpolant.pieces) == 3


# One case per give-up exit of the ladder, each a feature at 0.3 that no
# piece resolves to TOL: a stalled tail within the 50 * TOL contract (square
# root), a noise-limited plateau (cube root), a piece at the width floor
# (jump), and a tail within the contract at MAX_DEGREE (|x|^1.5 on a short
# ladder).  Without its exit a case splits further, costs several times the
# samples or raises BudgetExceeded; the bounds sit just above the counts
# with every exit in place.
@pytest.mark.parametrize(
    "f, max_degree, max_pieces, max_samples",
    [
        (lambda x: np.sqrt(abs(x - 0.3)), chebinterp.MAX_DEGREE, 40, 6_400),
        (lambda x: np.cbrt(x - 0.3), chebinterp.MAX_DEGREE, 40, 7_000),
        (lambda x: float(x >= 0.3), chebinterp.MAX_DEGREE, 20, 2_000),
        (lambda x: abs(x - 0.3) ** 1.5, 65, 9, 1_200),
    ],
    ids=["sqrt-stall", "cbrt-noise-limited", "jump-width-floor", "pow1.5-max-degree"],
)
def test_give_up_exits_keep_unresolved_features(monkeypatch, f, max_degree, max_pieces, max_samples):
    monkeypatch.setattr(chebinterp, "MAX_DEGREE", max_degree)
    out = approximate(batch(f), -1, 1)
    assert isinstance(out, Completed)
    p = out.interpolant
    assert len(p.pieces) <= max_pieces
    assert out.sample_count <= max_samples
    xs = [float(x) for x in np.linspace(-1, 1, 2001) if abs(x - 0.3) > 0.01]
    scale = max(abs(f(x)) for x in xs)
    assert max(abs(p.evaluate(x) - f(x)) for x in xs) <= 50 * chebinterp.TOL * scale


def test_pieces_tile_domain():
    out = approximate(batch(lambda x: abs(np.sin(3 * x)) ), -4, 4)
    p = out.interpolant
    assert p.pieces[0].a == -4.0 and p.pieces[-1].b == 4.0
    for left, right in zip(p.pieces[:-1], p.pieces[1:]):
        assert left.b == right.a
    assert max_err(p, lambda x: abs(np.sin(3 * x)), -4, 4) <= 1e-11


def test_zero_set_only_resolves_relative_to_the_minimum():
    # a positive function needs accuracy only relative to its own minimum
    # when the caller asks for its zero set alone
    runge = lambda x: 1.0 / (1.0 + 25.0 * x * x)
    full = approximate(batch(runge), -1, 1)
    rel = approximate(batch(runge), -1, 1, zero_set_only=True)
    assert isinstance(rel, Completed)
    assert rel.sample_count < full.sample_count
    assert max_err(rel.interpolant, runge, -1, 1) <= 0.1 * runge(1.0)


def test_zero_set_only_still_finds_a_narrow_zero_set():
    # zero on an interval of width 1e-2, with linear, square-root and
    # quadratic edges: their coefficients decay slowly enough that a tail
    # test alone accepts a series that never samples the interval
    gen = rng(45)
    for c in gen.uniform(-0.99, 0.99, 30):
        for p in (0.5, 1.0, 2.0):
            f = lambda x: max(0.0, abs(x - c) - 0.005) ** p
            out = approximate(batch(f), -1, 1, abort_on=lambda v: v == 0.0, zero_set_only=True)
            assert isinstance(out, Aborted), (c, p)
