"""Adaptive piecewise Chebyshev approximation on a finite interval.

The engine samples a real function at Chebyshev points of the second kind,
doubling the grid (17 -> 33 -> 65 -> ...) until the trailing coefficients pass
below the relative tolerance ``TOL``.  The ladder is fixed: it starts at
``MIN_SAMPLES`` points per piece and stops at ``MAX_DEGREE``, and an
interpolant has at most ``MAX_PIECES`` pieces; running out raises
``BudgetExceeded``.  A caller that needs only the zero set of a
nonnegative function relaxes that tolerance, piece by piece, to a fraction
of the piece's smallest sample (``approximate(..., zero_set_only=True)``).
A ladder that stalls hands its series to ``approximate``, which alone
decides whether the piece is kept or split.  A split locates the nonsmooth
feature by a shrinking-window scan of fourth differences and cuts the
interval there, recursing on both halves; features hugging a boundary yield
geometrically graded pieces.

Each rung takes one of two policies, by one predicate: whether it is a
zero-set rung that samples no exact 0.  Such a zero-free rung needs low
fidelity only.  Its floor is a fraction of its smallest sample; it stalls
once its tail fell by less than 64 over the last two doublings, so a kink
whose tail alternates between large and small falls splits early; and its
split starts from the stalled rung's own samples, zooms on nested grids at
4 samples a halving, and stops once the window is as narrow as the end cell
of the ``MIN_SAMPLES``-point grid, since a cut that close serves.  Every
other rung, in full accuracy or in a zero-set piece that samples a 0, is
resolved to ``TOL`` (a sample of 0 makes a zero-set floor 0), stalls after
two doublings in a row that each cut the tail by less than 8, and is split
by a scan of fresh 9-point grids down to a window 16 eps wide.  A zero-set piece
that samples a 0 keeps that precise policy because its higher rungs and the
pieces it leaves sample the zero set more finely, and the zeros they find
start the descents that set the caller's answer.

Sampling happens in batches: every batch may be evaluated concurrently by
the caller, and a caller-supplied predicate can abort the whole
construction as soon as any batch contains a triggering sample.  The
construction is deterministic: it depends only on the sampled values, never
on evaluation order.

Values and coefficients are exchanged by a DCT-I computed as numpy's real
FFT of the even extension, so the engine imports nothing beyond numpy.

Roots of a series of degree at most 128 are the real eigenvalues of its
colleague matrix; above that, sign changes are bracketed on an oversampled
value grid.  Global minimization combines piece endpoints with derivative
roots (degree at most 64) or polished grid minima (higher degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Aborted",
    "BudgetExceeded",
    "ChebPiece",
    "Completed",
    "OutOfDomain",
    "PiecewiseCheb",
    "approximate",
    "chebpts",
    "coeffs2vals",
    "vals2coeffs",
]

# off-grid abscissae (in [-1,1] piece coordinates) for the per-piece accuracy
# check; fixed so the batch schedule is reproducible
_SAMPLE_TEST_NODES = (-0.357998918959666, 0.036412078216417)

# with ``approximate(..., zero_set_only=True)``, a piece is accepted once its
# error is below this fraction of its smallest sample
ZERO_SET_REL = 1e-2

# The adaptive ladder: each piece is sampled on 17, 33, 65, ... Chebyshev
# points, from MIN_SAMPLES up to MAX_DEGREE, and an interpolant has at most
# MAX_PIECES pieces.  MIN_SAMPLES must be at least 5, and MAX_DEGREE must sit
# on the 2^k + 1 ladder above MIN_SAMPLES.  All four are read when
# ``approximate`` runs.
TOL = 1e-13
MIN_SAMPLES = 17
MAX_DEGREE = 2**12 + 1
MAX_PIECES = 64


class OutOfDomain(ValueError):
    """Evaluation point lies outside the interpolant's domain."""


class BudgetExceeded(RuntimeError):
    """Degree and piece budgets exhausted before convergence."""


def chebpts(m: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Chebyshev points of the second kind, ascending, mapped to [a, b]."""
    t = np.cos(np.pi * np.arange(m, -1, -1) / m)
    return 0.5 * (a + b) + 0.5 * (b - a) * t


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I: the real FFT of the even extension of ``x``.

    This is pocketfft's own DCT-I, bit for bit, reached through numpy's
    FFT alone; the test suite pins the bits.  Needs ``x.size >= 2``.
    """
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]])).real


def vals2coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients interpolating values at second-kind points.

    ``values[j]`` is taken at the ascending points returned by chebpts.
    """
    v = np.asarray(values, dtype=float)
    m = v.size - 1
    if m == 0:
        return v.copy()
    c = _dct1(v[::-1]) / m
    c[0] /= 2.0
    c[m] /= 2.0
    return c


def coeffs2vals(c: np.ndarray) -> np.ndarray:
    """Values at the ascending second-kind points; inverse of vals2coeffs."""
    c = np.asarray(c, dtype=float)
    m = c.size - 1
    if m == 0:
        return c.copy()
    u = c.copy()
    u[0] *= 2.0
    u[m] *= 2.0
    return (_dct1(u) / 2.0)[::-1]


def _clenshaw(c: np.ndarray, t) -> np.ndarray:
    """Evaluate a Chebyshev series at points t in [-1, 1]."""
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim == 0:
        # scalar fast path: plain floats beat numpy scalars by an order
        cl = c.tolist() if isinstance(c, np.ndarray) else list(c)
        tt = float(t_arr)
        b1 = b2 = 0.0
        for k in range(len(cl) - 1, 0, -1):
            b1, b2 = 2.0 * tt * b1 - b2 + cl[k], b1
        return np.float64(tt * b1 - b2 + cl[0])
    b1 = np.zeros_like(t_arr)
    b2 = np.zeros_like(t_arr)
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = 2.0 * t_arr * b1 - b2 + c[k], b1
    return t_arr * b1 - b2 + c[0]


def _cheb_derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative series on [-1, 1]."""
    n = len(c) - 1
    if n <= 0:
        return np.zeros(1)
    d = np.zeros(n)
    d[n - 1] = 2.0 * n * c[n]
    if n >= 2:
        d[n - 2] = 2.0 * (n - 1) * c[n - 1]
    for k in range(n - 3, -1, -1):
        d[k] = d[k + 2] + 2.0 * (k + 1) * c[k + 1]
    d[0] /= 2.0
    return d


def _colleague_roots(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the colleague matrix of a Chebyshev series."""
    n = len(c) - 1
    mat = np.zeros((n, n))
    if n == 1:
        return np.array([-c[0] / c[1]])
    mat[0, 1] = 1.0
    for i in range(1, n - 1):
        mat[i, i - 1] = 0.5
        mat[i, i + 1] = 0.5
    mat[n - 1, :] = -c[:n] / (2.0 * c[n])
    mat[n - 1, n - 2] += 0.5
    return np.linalg.eigvals(mat)


def _trim_coeffs(c: np.ndarray, floor: float) -> np.ndarray:
    """Drop trailing coefficients below ``floor``, keeping at least two."""
    keep = len(c)
    while keep > 2 and abs(c[keep - 1]) <= floor:
        keep -= 1
    return c[:keep].copy()


def _newton_polish(c: np.ndarray, dc: np.ndarray, x: float, steps: int = 3) -> float:
    for _ in range(steps):
        px = float(_clenshaw(c, x))
        dpx = float(_clenshaw(dc, x))
        if dpx == 0.0:
            break
        xn = min(1.0, max(-1.0, x - px / dpx))
        if abs(float(_clenshaw(c, xn))) <= abs(px):
            x = xn
        else:
            break
    return x


def _newton_on_derivative(c: np.ndarray, dc: np.ndarray, x: float, steps: int = 3) -> float:
    """Refine a local minimizer of the series by Newton on its derivative."""
    d2c = _cheb_derivative(dc)
    fx = float(_clenshaw(c, x))
    for _ in range(steps):
        dx = float(_clenshaw(dc, x))
        d2x = float(_clenshaw(d2c, x))
        if d2x <= 0.0:
            break
        xn = min(1.0, max(-1.0, x - dx / d2x))
        fn_ = float(_clenshaw(c, xn))
        if fn_ <= fx:
            x, fx = xn, fn_
        else:
            break
    return x


def _unit_roots(c: np.ndarray, tiny: float) -> list[float]:
    """Real roots of a Chebyshev series in [-1, 1].

    Up to degree 128, the real eigenvalues of the colleague matrix, each
    polished by Newton; above it, sign changes are bracketed on a
    twice-oversampled value grid (obtained by the real-FFT DCT-I) and each
    bracket is resolved by bisection plus Newton polish.  Grid minima of |p|
    that dip to the rounding floor are kept as tangential-root candidates.
    Both callers pass a series whose largest coefficient exceeds ``tiny``.
    """
    c = _trim_coeffs(c, tiny)
    cmax = np.max(np.abs(c))
    c = _trim_coeffs(c, 1e-15 * cmax)
    n = len(c) - 1
    if n == 0 or (n == 1 and c[1] == 0.0):
        return []
    dc = _cheb_derivative(c)
    if n <= 128:
        z = _colleague_roots(c)
        keep = z[(np.abs(z.imag) <= 1e-8) & (np.abs(z.real) <= 1.0 + 1e-8)].real
        return [_newton_polish(c, dc, min(1.0, max(-1.0, float(x)))) for x in np.sort(keep)]
    # high degree: bracket sign changes on an oversampled grid
    m = 2 * n
    vals = coeffs2vals(np.concatenate([c, np.zeros(m - n)]))
    xs = chebpts(m)
    roots: list[float] = []
    # values below the root-residual floor are roots wherever they sit; a
    # maximal run of them contributes one representative instead of a
    # bracket per rounding-noise oscillation
    floor = 1e5 * tiny  # tiny is 1e-15 * the caller's value scale
    significant = np.abs(vals) > floor
    i = 0
    while i <= m:
        if not significant[i]:
            j = i
            while j < m and not significant[j + 1]:
                j += 1
            roots.append(float(xs[(i + j) // 2]))
            i = j + 1
            continue
        i += 1
    for i in np.nonzero((vals[:-1] * vals[1:] < 0.0) & significant[:-1] & significant[1:])[0]:
        # a genuine crossing; the 2x-oversampled cell is tight enough that
        # bracket-clamped Newton settles in a couple of evaluations
        lo, hi = float(xs[i]), float(xs[i + 1])
        flo = float(vals[i])
        x = 0.5 * (lo + hi)
        for _ in range(6):
            px = float(_clenshaw(c, x))
            if abs(px) <= 1e-13 * cmax:
                break
            if flo * px <= 0.0:
                hi = x
            else:
                lo, flo = x, px
            dpx = float(_clenshaw(dc, x))
            xn = x - px / dpx if dpx != 0.0 else 0.5 * (lo + hi)
            x = xn if lo < xn < hi else 0.5 * (lo + hi)
        roots.append(x)
    return sorted(roots)


@dataclass(frozen=True)
class ChebPiece:
    """One polynomial piece: interval [a, b] and Chebyshev coefficients."""

    a: float
    b: float
    coeffs: np.ndarray

    def to_unit(self, x):
        return (2.0 * np.asarray(x, dtype=float) - self.a - self.b) / (self.b - self.a)

    def __call__(self, x):
        return _clenshaw(self.coeffs, self.to_unit(x))


@dataclass(frozen=True)
class PiecewiseCheb:
    """Piecewise Chebyshev interpolant tiling [domain[0], domain[1]]."""

    pieces: tuple[ChebPiece, ...]
    domain: tuple[float, float]

    def _piece_index(self, x: float) -> int:
        lo, hi = self.domain
        span = hi - lo
        if x < lo - 1e-12 * span or x > hi + 1e-12 * span:
            raise OutOfDomain(f"x={x!r} outside domain [{lo!r}, {hi!r}]")
        rights = [p.b for p in self.pieces]
        # a shared endpoint belongs to the left piece
        idx = int(np.searchsorted(rights, x, side="left"))
        return min(idx, len(self.pieces) - 1)

    def evaluate(self, x: float) -> float:
        """Clenshaw evaluation on the piece containing x."""
        return float(self.pieces[self._piece_index(x)](x))

    def __call__(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array([self.evaluate(v) for v in xs])
        return out if np.ndim(x) else float(out[0])

    @property
    def coeff_scale(self) -> float:
        return max(float(np.max(np.abs(p.coeffs))) for p in self.pieces)

    def _distinct(self, xs) -> np.ndarray:
        """``xs`` ascending, less each point within 1e-12 times the domain's
        length of the last point kept: merged points keep the leftmost."""
        span = self.domain[1] - self.domain[0]
        out: list[float] = []
        for x in sorted(xs):
            if not out or x - out[-1] > 1e-12 * span:
                out.append(x)
        return np.array(out)

    def roots(self) -> np.ndarray:
        """All real roots in the domain, ascending, deduplicated.

        Every reported root x satisfies |p(x)| <= 1e-10 * coefficient scale.
        """
        scale = max(self.coeff_scale, 1e-300)
        found = []
        for p in self.pieces:
            if np.max(np.abs(p.coeffs)) <= 1e-10 * scale:
                # numerically zero piece: every point satisfies the root
                # tolerance; its endpoints stand in for the continuum
                found.extend((p.a, p.b))
                continue
            dc = _cheb_derivative(p.coeffs)
            for u in _unit_roots(p.coeffs, 1e-15 * scale):
                u = _newton_polish(p.coeffs, dc, u)  # against the full piece polynomial
                if abs(float(_clenshaw(p.coeffs, u))) <= 1e-10 * scale:
                    found.append(0.5 * (p.a + p.b) + 0.5 * (p.b - p.a) * u)
        return self._distinct(found)

    def global_minimizers(self) -> tuple[np.ndarray, float]:
        """All global minimizers (ties within 1e-12 of the min) and the min.

        Critical points come from derivative roots for moderate degrees; for
        high-degree pieces, differentiating amplifies coefficient noise by
        the squared degree, so interior grid minima of the oversampled
        values are used instead, each polished by a few local Newton steps.
        """
        lo, hi = self.domain
        cands: list[float] = []
        scale = max(self.coeff_scale, 1e-300)
        for p in self.pieces:
            cands.extend((p.a, p.b))
            c = p.coeffs
            n = len(c) - 1
            if np.max(np.abs(c)) <= 1e-10 * scale:
                cands.append(0.5 * (p.a + p.b))  # numerically zero piece
                continue
            mid = 0.5 * (p.a + p.b)
            half = 0.5 * (p.b - p.a)
            if n <= 64:
                dc = _cheb_derivative(c)
                if np.max(np.abs(dc)) > 1e-15 * scale:
                    for u in _unit_roots(dc, 1e-15 * max(np.max(np.abs(dc)), 1e-300)):
                        cands.append(mid + half * u)
                continue
            m = 2 * n
            vals = coeffs2vals(np.concatenate([c, np.zeros(m - n)]))
            ts = chebpts(m)
            interior_min = np.nonzero(
                (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
            )[0] + 1
            if len(interior_min) > 16:
                interior_min = interior_min[np.argsort(vals[interior_min], kind="stable")[:16]]
            dc = _cheb_derivative(c)
            for i in interior_min:
                u = float(ts[i])
                u = min(float(ts[i + 1]), max(float(ts[i - 1]), _newton_on_derivative(c, dc, u)))
                cands.append(mid + half * u)
        cands = [min(hi, max(lo, x)) for x in cands]
        vals = np.array([self.evaluate(x) for x in cands])
        vmin = float(np.min(vals))
        return self._distinct(x for x, v in zip(cands, vals) if v <= vmin + 1e-12), vmin

    def global_min(self) -> tuple[float, float]:
        """Leftmost global minimizer and the minimum value."""
        xs, vmin = self.global_minimizers()
        return float(xs[0]), vmin


@dataclass(frozen=True)
class Completed:
    interpolant: PiecewiseCheb
    sample_count: int


@dataclass(frozen=True)
class Aborted:
    """Sampling hit the abort predicate; all triggers from that batch."""

    trigger_samples: tuple[tuple[float, Any], ...]
    sample_count: int


class _Abort(Exception):
    def __init__(self, triggers):
        self.triggers = triggers


class _NeedSplit(Exception):
    """A stalled ladder: its series, trimmed as a kept piece's, and its tail.

    ``rung`` holds the stalled rung's points and values when the piece is a
    zero-set piece that samples no exact 0, and is None otherwise.
    """

    def __init__(self, coeffs, plateau, rung=None):
        self.coeffs = coeffs
        self.plateau = plateau
        self.rung = rung


class _Sampler:
    """Caches values by exact abscissa and checks the abort predicate per batch."""

    def __init__(self, fn, abort_on):
        self.fn = fn
        self.abort_on = abort_on
        self.cache: dict[float, float] = {}
        self.count = 0
        self.scale = 0.0

    def eval(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        new = [float(x) for x in xs if float(x) not in self.cache]
        if new:
            results = self.fn(np.array(new))
            if len(results) != len(new):
                raise ValueError("batch function returned wrong number of results")
            triggers = []
            for x, res in zip(new, results):
                val = float(res)
                self.cache[x] = val
                self.count += 1
                self.scale = max(self.scale, abs(val))
                if self.abort_on is not None and self.abort_on(res):
                    triggers.append((x, res))
            if triggers:
                raise _Abort(tuple(triggers))
        return np.array([self.cache[float(x)] for x in xs])


def _fourth_differences(v: np.ndarray) -> np.ndarray:
    """Absolute fourth differences of consecutive values, in index order."""
    return np.abs(v[:-4] - 4.0 * v[1:-3] + 6.0 * v[2:-2] - 4.0 * v[3:-1] + v[4:])


def _locate_edge(sampler: _Sampler, a: float, b: float, rung=None) -> float:
    """Shrink a window onto the dominant nonsmooth feature.

    Tracks normalized fourth differences on successively halved 9-point
    grids: their maxima keep growing while the feature looks singular at the
    current scale and level off once it is resolved, which is where the
    split should land.  Fourth differences annihilate cubic trends, so
    smooth curvature of the function itself cannot masquerade as an edge.

    Without ``rung``, the search starts from a uniform grid on the whole
    piece, samples a fresh uniform grid on each window and zooms until the
    window is 16 eps wide.  A zero-set piece that samples a 0 takes this
    search: the pieces its precise cut leaves are the ones whose rungs find
    the zeros that set the caller's answer.

    With ``rung``, the points and values of the stalled rung of a zero-set
    piece that samples no 0, the search starts from the 4 cells around the
    rung's largest fourth difference, taken in index order since the rung
    is uniform in arccos, so its first window costs no sample.  Each zoom
    keeps the 5 points around the largest difference and adds the 4
    midpoints, and the search stops once the window is as narrow as the end
    cell of the ``MIN_SAMPLES``-point grid on the piece: a cut that close to
    the feature leaves pieces that a low-fidelity ladder resolves.

    Both searches share the growth and noise stops, cut at the middle of the
    last window, and bisect the piece when the window held no feature.
    """
    eps = np.finfo(float).eps
    if rung is None:
        xs = np.array([a, b])
        width_floor = 16.0 * eps * max(abs(a), abs(b), 1.0)
    else:
        k = int(np.argmax(_fourth_differences(rung[1]))) + 2
        xs = rung[0][k - 2 : k + 3]
        end_cell = chebpts(MIN_SAMPLES - 1, a, b)[:2]
        width_floor = end_cell[1] - end_cell[0]
    prev_growth = 0.0
    zooms = 0
    located = False
    for _ in range(60):
        if xs[-1] - xs[0] <= width_floor:
            located = True
            break
        if rung is None:
            xs = np.linspace(xs[0], xs[-1], 9)
        else:
            xs = np.insert(xs, np.arange(1, 5), 0.5 * (xs[:-1] + xs[1:]))
        d4 = _fourth_differences(sampler.eval(xs))
        m4 = float(np.max(d4))
        if m4 <= 1e3 * eps * max(sampler.scale, 1e-300):
            # differences vanished into rounding noise: success if we had
            # zoomed onto a feature, otherwise the window held nothing
            located = zooms >= 3
            break
        h = (xs[-1] - xs[0]) / 8.0
        growth = m4 / h**4
        if prev_growth > 0.0 and growth <= 2.0 * prev_growth:
            # derivative estimates stopped growing: either the feature is now
            # resolved at this scale (after a genuine zoom-in) or the window
            # was smooth-dominated from the start and holds no localized edge
            located = zooms >= 3
            break
        if prev_growth > 0.0:
            zooms += 1
        prev_growth = growth
        k = int(np.argmax(d4)) + 2
        xs = xs[k - 2 : k + 3]
    x = 0.5 * (xs[0] + xs[-1])
    w = b - a
    if not located or not (a + 64.0 * eps * w < x < b - 64.0 * eps * w):
        x = 0.5 * (a + b)  # no interior edge found: plain bisection
    return float(x)


def _zero_set_floor(vals: np.ndarray, prev: Optional[np.ndarray]) -> float:
    """``ZERO_SET_REL`` times the smallest sample, once the rung is trusted.

    A rung is trusted when the previous rung's series predicts the samples
    this rung adds to within 10 times that floor; otherwise, and on the first
    rung, the floor is 0.  The tail alone is fooled by kinks and cusps such
    as the edges of a narrow zero set: their coefficients decay slowly, so
    the tail falls below 1e-2 of the smallest sample while the series still
    misses the set by far more.  The prediction measures that error directly
    and costs no sample.
    """
    if prev is None:
        return 0.0
    floor = ZERO_SET_REL * float(np.min(vals))
    padded = np.concatenate([prev, np.zeros(len(vals) - len(prev))])
    predicted = coeffs2vals(padded)[1::2]  # odd points are the new ones
    return floor if np.max(np.abs(predicted - vals[1::2])) <= 10.0 * floor else 0.0


def _run_ladder(sampler: _Sampler, a: float, b: float, zero_set_only: bool) -> np.ndarray:
    """Grow the grid on [a, b] until converged; raise _NeedSplit on a stall.

    One acceptance rule: the tail is at most ``target = max(TOL * scale,
    floor)``, and the function agrees with the series at two off-grid points
    to ``max(100 * TOL * scale, 10 * floor)``; coefficients below half the
    target are trimmed.  The floor is 0 unless the rung is zero-free, when
    ``_zero_set_floor`` sets it from the smallest sample: for a nonnegative
    function whose zero set is all the caller needs, an error small relative
    to the piece's own minimum cannot move that set, so only pieces that
    sample values near 0 are resolved to ``TOL``.  With a floor of 0 the
    rule is the uniform ``TOL`` contract.

    Any other exit raises ``_NeedSplit`` with the series, trimmed the same
    way, and its tail, and ``approximate`` keeps or splits the piece.  That
    exit comes at ``MAX_DEGREE``, or earlier once the tail has stalled from
    65 points on, unless the tail lies in (50, 1e3] times ``TOL * scale``:
    above the validation contract, but close enough to finish by doubling.
    The stall test is the rung's policy (module docstring): a zero-free
    rung has stalled when its tail fell by less than 64 over the last two
    doublings, and hands on its points and values, where ``_locate_edge``
    starts its search; every other rung when its tail fell by less than 8
    on each of the last two.  A kink's tail falls by about 4 per doubling
    but may alternate between falls above and below 8, which the second
    test never sees as a stall.
    """
    m = MIN_SAMPLES - 1
    tails = [np.inf, np.inf]  # the tails of the last two rungs
    coeffs = None
    while True:
        pts = chebpts(m, a, b)
        vals = sampler.eval(pts)
        prev, coeffs = coeffs, vals2coeffs(vals)
        fscale = max(sampler.scale, np.finfo(float).tiny)
        zero_free = zero_set_only and np.all(vals != 0.0)
        floor = _zero_set_floor(vals, prev) if zero_free else 0.0
        target = max(TOL * fscale, floor)
        tail = float(np.max(np.abs(coeffs[-2:])))
        if tail <= target:
            # off-grid accuracy check guards against aliasing on the grid
            xs = np.array([0.5 * (a + b) + 0.5 * (b - a) * t for t in _SAMPLE_TEST_NODES])
            err = np.max(np.abs(sampler.eval(xs) - _clenshaw(coeffs, np.asarray(_SAMPLE_TEST_NODES))))
            if err <= max(100.0 * TOL * fscale, 10.0 * floor):
                return _trim_coeffs(coeffs, 0.5 * target)
        if zero_free:
            stalled = tail > tails[-2] / 64.0
        else:
            stalled = tail > 0.125 * tails[-1] and tails[-1] > 0.125 * tails[-2]
        tails = [tails[-1], tail]
        closing_in = 50.0 * TOL * fscale < tail <= 1e3 * TOL * fscale
        if (stalled and m + 1 >= 65 and not closing_in) or 2 * m + 1 > MAX_DEGREE:
            rung = (pts, vals) if zero_free else None
            raise _NeedSplit(_trim_coeffs(coeffs, 0.5 * target), tail, rung)
        m *= 2


def approximate(
    fn: Callable[[np.ndarray], Sequence[float]],
    lo: float,
    hi: float,
    abort_on: Optional[Callable[[float], bool]] = None,
    *,
    zero_set_only: bool = False,
) -> Completed | Aborted:
    """Adaptively approximate ``fn`` on [lo, hi], or abort on a trigger.

    Each piece's ladder either accepts a series or stalls (``_run_ladder``),
    and this function alone keeps or splits a stalled piece.  It keeps the
    stalled series when its plateau is within the validation contract of
    50 * ``TOL`` times the sampled scale (splitting such a piece chases
    sub-contract wiggles, e.g. square-root kinks of rounding-level
    amplitude), when the plateau is noise-limited (at most 1e-6 of the scale
    and at least half its parent's: splitting barely lowered it, e.g. a
    defective eigenvalue coalescence under the hood), or when the piece is
    no wider than 64 eps times the domain.  Otherwise it splits.

    Parameters
    ----------
    fn : callable
        Maps a 1-D array of new sample points to a sequence of values, one
        per point, in order; each value is read with ``float``.
    abort_on : callable, optional
        Predicate over a single value.  As soon as any batch contains a
        triggering sample, sampling halts and all triggers from that batch
        are returned in an ``Aborted`` outcome.
    zero_set_only : bool, keyword-only
        The caller needs only the zero set of a nonnegative ``fn``.  A piece
        is then accepted once its error is below ``ZERO_SET_REL`` of its
        smallest sample, instead of ``TOL`` of the sampled scale, and
        the interpolant is accurate to that only.  Pieces whose samples near
        0 are still resolved to ``TOL``.

    Returns
    -------
    Completed(interpolant, sample_count) or Aborted(trigger_samples, sample_count).

    Raises
    ------
    BudgetExceeded
        When a stalled piece is to be split, early or at ``MAX_DEGREE``
        points, and splitting it would exceed ``MAX_PIECES`` pieces.  No
        sample is drawn after that stall.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid interval [{lo!r}, {hi!r}]")
    sampler = _Sampler(fn, abort_on)
    # work items: interval, parent stall plateau, known feature location
    pending: list[tuple[float, float, float, Optional[float]]] = [
        (float(lo), float(hi), np.inf, None)
    ]
    done: list[ChebPiece] = []
    splits_used = 0
    width_floor = 64.0 * np.finfo(float).eps * (hi - lo)

    try:
        while pending:
            a, b, parent_plateau, hint = pending.pop(0)
            try:
                done.append(ChebPiece(a, b, _run_ladder(sampler, a, b, zero_set_only)))
                continue
            except _NeedSplit as ns:
                coeffs, plateau, rung = ns.coeffs, ns.plateau, ns.rung
            scale = max(sampler.scale, np.finfo(float).tiny)
            if (
                plateau <= 50.0 * TOL * scale  # within the validation contract
                or 0.5 * parent_plateau <= plateau <= 1e-6 * scale  # noise-limited
                or b - a <= width_floor
            ):
                done.append(ChebPiece(a, b, coeffs))
                continue
            if splits_used + 1 >= MAX_PIECES:
                raise BudgetExceeded(f"piece budget MAX_PIECES={MAX_PIECES} exhausted")
            # reuse a feature already located in this interval by the
            # parent; only fresh features pay for edge location, which
            # starts from the stalled rung when it comes with the stall
            x = hint if hint is not None and a < hint < b else _locate_edge(sampler, a, b, rung)
            feature = x
            # a feature hugging a boundary would otherwise shave slivers
            # off the piece; clamping the cut to the inner 80% grades the
            # pieces geometrically toward the feature instead
            x = min(max(x, a + 0.1 * (b - a)), b - 0.1 * (b - a))
            splits_used += 1
            pending.insert(0, (x, b, plateau, feature))
            pending.insert(0, (a, x, plateau, feature))
    except _Abort as ab:
        return Aborted(trigger_samples=ab.triggers, sample_count=sampler.count)

    done.sort(key=lambda p: p.a)
    interp = PiecewiseCheb(tuple(done), (float(lo), float(hi)))
    return Completed(interpolant=interp, sample_count=sampler.count)
