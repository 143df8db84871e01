"""Optimization-with-restarts drivers certified by interpolation.

Each driver alternates two phases.  Local optimization lowers the current
estimate ``gamma`` of the target quantity.  A certificate round then sweeps
the angular domain, adaptively interpolating the certificate function
evaluated at the safeguarded level ``gamma * (1 - GAMMA_GUARD)``, and
re-evaluates the true certificate at the completed interpolant's global
minimizers and then at midpoints of consecutive interpolant roots.

Each zero is assessed once, in the batch that first samples it, whatever the
stage: the batch's zeros nominate level-set points, and optimization
restarts from all of them (a sampled zero always has an accepted nomination,
since a nomination that fails its recheck does not zero the certificate).
A restart that improves gamma by at least ``RESTART_REL`` relative ends the
round, and the next round certifies the new gamma.  Zeros whose restarts
improve gamma by less (including not at all) are consumed and sampling
continues.  Only a round that completes the sweep and both checks declares
convergence.

The certificate is nonnegative and only its zero set matters, so the
interpolant is built with ``approximate(..., zero_set_only=True)``: it is
resolved to ``tol`` only where its samples near 0, around the minimizer's
angle, and elsewhere to 1e-2 of each piece's smallest sample.  Where the
certificate dips between samples the interpolant may dip below 0; the
minimizer and midpoint checks evaluate the true certificate there.

The estimate gamma changes only when a descent attains a lower value
(``_adopt``), so it is always the objective at the reported minimizer.  A certificate level
where the pencil family degenerates at a sampled angle (a singular second
member, or an eigenvalue at the radius floor) has one remedy: the round
lowers its level by ``10 * GAMMA_GUARD`` relative and sweeps again, leaving
gamma as it is.  A round whose six levels all degenerate, or whose
interpolation exhausts its degree and piece budgets, ends the solve as
``Uncertified``, with the best gamma and minimizer found so far.

Local optimization from several points (the starts, or every point that a
batch of certificate zeros nominates) is a race.  Each round advances every
running descent by one BFGS iteration, spread over the workers.  The first
descent in point order that ends at or below the objective's noise floor
wins at once: for ``dtu`` a value there ends the solve whatever its digits.
Otherwise every descent runs to its end and the lowest value wins.  The
descents do not interact, so the winner does not depend on the worker count,
and a race without a floor hit returns what the sequential runs would.

Fast paths: normal stable matrices have transient bound exactly 1 (the
infimum is approached only as r grows without bound, so the loop could not
terminate on it), and unstable matrices have an infinite bound.  Past the
fast paths, every start is checked with ``localopt.check_start``, the
package's one feasibility rule, and an infeasible start raises
``InfeasibleStart`` naming it before any descent runs.  So the solve raises
``RuntimeError`` only when the SVD fails in every descent from the starts.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .certificates import (
    CertificateValue,
    NearZeroPencilEigenvalue,
    chunk_length,
    eval_certificates,
    extract_restart_points,
)
from .chebinterp import BudgetExceeded, approximate
from .linalg import (
    DecompositionError,
    as_complex_matrix,
    eigenvalues,
    is_normal,
    norm2,
    spectral_radius,
)
from .localopt import (
    InfeasiblePoint,
    InfeasibleStart,
    LocalMin,
    Objective,
    check_start,
    descend,
)
from .pencils import (
    NearSingularSecondMember,
    PencilConstants,
    PencilKind,
    pencil_constants,
)

__all__ = [
    "RestartRecord",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "TraceRecord",
    "ZeroEigenvalue",
    "dtu",
    "kreiss_continuous",
    "kreiss_discrete",
]


class ZeroEigenvalue(ValueError):
    """Continuous-time input has a (numerically) zero eigenvalue.

    The certificate sweeps rays from the origin and assumes the origin is
    not in the spectrum, so this is reported instead of guessed around.
    """


# Relative thresholds of the restart loop, described in the module docstring.
# Their order must stay 0 < GAMMA_GUARD < RESTART_REL < 1.
RESTART_REL = 1e-6
GAMMA_GUARD = 1e-14


class SolveStatus(Enum):
    CONVERGED = "Converged"
    MAX_RESTARTS = "MaxRestarts"
    UNCERTIFIED = "Uncertified"  # a round ran out of interpolation budget or of levels
    TRIVIAL_NORMAL = "TrivialNormal"
    UNSTABLE_INFINITE = "UnstableInfinite"


@dataclass(frozen=True)
class SolverConfig:
    """Restart budget and parallelism width.

    The tolerances are module constants: ``RESTART_REL`` and ``GAMMA_GUARD``
    here, ``IMAG_TOL`` and ``VERIFY_TOL`` in ``certificates``,
    ``GRAD_TOL``, ``STEP_TOL`` and ``MAX_ITER`` in ``localopt``, and the
    interpolation ladder ``TOL``, ``MIN_SAMPLES``, ``MAX_DEGREE`` and
    ``MAX_PIECES`` in ``chebinterp``.
    """

    max_restarts: int = 50
    workers: int = 1

    def __post_init__(self):
        if self.max_restarts < 1 or self.workers < 1:
            raise ValueError("max_restarts and workers must be at least 1")


@dataclass(frozen=True)
class RestartRecord:
    gamma_before: float
    gamma_after: float
    trigger: str  # Probe | FinalMinCheck | RootMidpointCheck
    points_used: tuple[complex, ...]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    round: int
    gamma: float
    theta: float
    value: float
    n_candidates: int
    stage: str  # probe | final-min | root-midpoint


@dataclass(frozen=True)
class SolveResult:
    """Final value, derived quantity, minimizer, and the run's history."""

    quantity: float
    gamma_final: float
    minimizer: Optional[complex]
    status: SolveStatus
    restarts: tuple[RestartRecord, ...] = ()
    certificate_samples: tuple[int, ...] = ()
    trace: tuple[TraceRecord, ...] = ()
    wall_time_s: float = 0.0


def _pmap(fn, items, pool: Optional[ThreadPoolExecutor]) -> list:
    items = list(items)
    if pool is None or len(items) <= 1:
        return [fn(x) for x in items]
    return list(pool.map(fn, items))


class _RoundEnd(Exception):
    """Newly sampled zeros restarted optimization with a lower gamma."""


_TRIGGERS = {"probe": "Probe", "final-min": "FinalMinCheck", "root-midpoint": "RootMidpointCheck"}


def _is_real(m: np.ndarray) -> bool:
    scale = max(norm2(m), np.finfo(float).tiny)
    return float(np.max(np.abs(m.imag))) <= 1e-14 * scale


def _is_hermitian(m: np.ndarray) -> bool:
    scale = max(norm2(m), np.finfo(float).tiny)
    return norm2(m - m.conj().T) <= 1e-14 * scale


class _Driver:
    """State machine for one optimization-with-restarts run."""

    def __init__(self, kind: PencilKind, a, b, starts, cfg: SolverConfig, domain):
        self.kind = kind
        self.a = a
        self.b = b
        self.cfg = cfg
        self.domain = domain
        self.obj = Objective(kind, a, b)
        self.starts = [check_start(kind, z) for z in starts]
        self.gamma = np.inf
        self.zstar: complex = complex(np.nan, np.nan)
        self.restarts: list[RestartRecord] = []
        self.trace: list[TraceRecord] = []
        self.samples_per_round: list[int] = []
        self.round = 0
        self.status = SolveStatus.CONVERGED
        self.const: Optional[PencilConstants] = None  # of the latest certificate level
        self.pool: Optional[ThreadPoolExecutor] = None  # while run() runs with workers > 1

    # -- optimization ------------------------------------------------------

    def _optimize_from(self, points) -> Optional[LocalMin]:
        """Race one descent per point; the best run, or None if all dropped.

        Every round advances each running descent by one BFGS iteration.  The
        first run in point order that ends at or below the objective's noise
        floor wins at once; otherwise all runs finish and the lowest wins.
        Runs do not interact, so the winner does not depend on ``workers``.
        """
        obj, floor = self.obj, self.obj.floor

        def run(z0):
            # a restart point off the feasible region, or one whose SVD
            # fails, is dropped; any other error is a defect and propagates
            try:
                return (yield from descend(obj, z0))
            except (InfeasibleStart, InfeasiblePoint, DecompositionError):
                return None

        def step(i):
            # one iteration of run i: (ended, its LocalMin or None)
            try:
                next(runs[i])
                return False, None
            except StopIteration as stop:
                return True, stop.value

        runs = [run(z0) for z0 in points]
        ended: list[Optional[LocalMin]] = [None] * len(runs)
        active = list(range(len(runs)))
        while active:
            running = []
            for i, (done, res) in zip(active, _pmap(step, active, self.pool)):
                if done:
                    ended[i] = res
                else:
                    running.append(i)
            active = running
            hit = next((r for r in ended if r is not None and r.value <= floor), None)
            if hit is not None:
                return hit
        results = [r for r in ended if r is not None]
        if not results:
            return None
        return min(results, key=lambda r: r.value)

    def _adopt(self, res: Optional[LocalMin]) -> float:
        """Update (gamma, zstar) if res improves; return relative improvement."""
        if res is None or not res.value < self.gamma:
            return 0.0
        improvement = (
            1.0 if not np.isfinite(self.gamma) else (self.gamma - res.value) / self.gamma
        )
        self.gamma, self.zstar = res.value, res.z
        return improvement

    # -- certificate rounds ------------------------------------------------

    def _certificate_round(self) -> str:
        """One full certificate round; returns 'restart', 'converged' or 'uncertified'."""
        gamma_round = self.gamma
        cache: dict[float, float] = {}
        self.samples_per_round.append(0)

        for _attempt in range(6):
            gamma_cert = gamma_round * (1.0 - GAMMA_GUARD)
            if self.kind is not PencilKind.DIST_UNCONTROLLABLE:
                # Keep the certificate level away from 1, where the second
                # pencil member degenerates and its inverse amplifies
                # eigenvalue noise by 1/(1-gamma): reduced pencils at level
                # 1-d have norm ~1/d, drowning the certificate in rounding
                # noise as d shrinks.  Levels within 1e-6 of 1 correspond to
                # transient bounds within 1e-6 of the floor K = 1, where no
                # meaningful discrimination is possible anyway.
                if abs(gamma_cert - 1.0) <= 1e-6:
                    gamma_cert = 1.0 - 1e-6

            def batch_eval(thetas, stage="probe") -> list[float]:
                thetas = [float(t) for t in np.atleast_1d(thetas)]
                missing = list(dict.fromkeys(t for t in thetas if t not in cache))

                def chunk(ts):
                    return eval_certificates(
                        self.kind, self.a, self.b, gamma_cert, ts, self.const
                    )

                # a chunk is one stacked eigensolve; short batches are spread
                # over the workers, and no value depends on where chunks split
                workers = self.cfg.workers
                step = max(1, min(chunk_length(self.a.shape[0]), -(-len(missing) // workers)))
                chunks = [missing[i : i + step] for i in range(0, len(missing), step)]
                cvs = list(itertools.chain.from_iterable(_pmap(chunk, chunks, self.pool)))
                for t, cv in zip(missing, cvs):
                    cache[t] = cv.value
                    self.trace.append(
                        TraceRecord(
                            round=self.round,
                            gamma=gamma_cert,
                            theta=t,
                            value=cv.value,
                            n_candidates=len(cv.candidates),
                            stage=stage,
                        )
                    )
                self.samples_per_round[-1] += len(missing)
                # each zero is assessed once, by the batch that first samples it
                zeros = [cv for cv in cvs if cv.is_zero]
                if zeros:
                    self._assess_zeros(zeros, _TRIGGERS[stage])
                return [cache[t] for t in thetas]

            try:
                self.const = pencil_constants(
                    self.kind, self.a, self.b, gamma_cert, base=self.const
                )
                return self._round_body(batch_eval)
            except (NearSingularSecondMember, NearZeroPencilEigenvalue):
                # the level is degenerate at a sampled angle: lower the level
                # alone and sweep again; gamma keeps the best attained value
                gamma_round *= 1.0 - 10.0 * GAMMA_GUARD
                cache.clear()
            except _RoundEnd:
                return "restart"
            except BudgetExceeded:
                return "uncertified"
        return "uncertified"  # every level tried was degenerate

    def _round_body(self, batch_eval) -> str:
        """Sweep the domain, then check the interpolant's minimizers and root midpoints."""
        lo, hi = self.domain
        interp = approximate(batch_eval, lo, hi, zero_set_only=True).interpolant
        batch_eval(interp.global_minimizers()[0], "final-min")
        roots = interp.roots()
        mids = list(0.5 * (roots[:-1] + roots[1:]))
        if hi - lo > 1.5 * np.pi and len(roots) >= 1:  # (-pi, pi] sweep
            wrap = 0.5 * (roots[-1] + roots[0] + 2.0 * np.pi)
            if wrap > hi:
                wrap -= 2.0 * np.pi
            mids.append(wrap)
        if mids:
            batch_eval(np.array(mids), "root-midpoint")
        return "converged"

    def _assess_zeros(self, zeros: list[CertificateValue], trigger: str) -> None:
        """Restart optimization from all accepted candidates of newly sampled zeros.

        Returns when the zeros are consumed and sampling may go on; otherwise
        ends the round by raising ``_RoundEnd``.
        """
        # every zero has an accepted candidate (``CertificateValue.is_zero``)
        points = [z for cv in zeros for z, _ in extract_restart_points(cv)]
        gamma_before = self.gamma
        improvement = self._adopt(self._optimize_from(points))
        if improvement >= RESTART_REL:
            self.restarts.append(
                RestartRecord(gamma_before, self.gamma, trigger, tuple(points))
            )
            raise _RoundEnd

    # -- main loop ----------------------------------------------------------

    def run(self) -> "_Driver":
        # one pool serves every race round and certificate batch of the solve
        if self.cfg.workers > 1:
            self.pool = ThreadPoolExecutor(self.cfg.workers)
        try:
            return self._loop()
        finally:
            if self.pool is not None:
                self.pool.shutdown()
                self.pool = None

    def _loop(self) -> "_Driver":
        if not self.starts:
            raise ValueError("at least one starting point is required")
        best = self._optimize_from(self.starts)
        if best is None:
            raise RuntimeError("no starting point produced a feasible local minimum")
        self._adopt(best)
        while True:
            if self.kind is PencilKind.DIST_UNCONTROLLABLE and self._dtu_zero():
                self.status = SolveStatus.CONVERGED
                return self
            if len(self.restarts) >= self.cfg.max_restarts:
                self.status = SolveStatus.MAX_RESTARTS
                return self
            self.round += 1
            verdict = self._certificate_round()
            if verdict == "converged":
                self.status = SolveStatus.CONVERGED
                return self
            if verdict == "uncertified":
                self.status = SolveStatus.UNCERTIFIED
                return self

    def _dtu_zero(self) -> bool:
        # a value at the sigma_min noise floor certifies itself: tau ~ 0
        return self.gamma <= self.obj.floor


def _finish(driver: _Driver, quantity_of, t0: float) -> SolveResult:
    return SolveResult(
        quantity=quantity_of(driver.gamma),
        gamma_final=driver.gamma,
        minimizer=driver.zstar,
        status=driver.status,
        restarts=tuple(driver.restarts),
        certificate_samples=tuple(driver.samples_per_round),
        trace=tuple(driver.trace),
        wall_time_s=time.perf_counter() - t0,
    )


def _trivial(status: SolveStatus, quantity: float, gamma: float, t0: float) -> SolveResult:
    return SolveResult(
        quantity=quantity,
        gamma_final=gamma,
        minimizer=None,
        status=status,
        wall_time_s=time.perf_counter() - t0,
    )


def kreiss_continuous(a, starts, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Continuous-time transient-growth bound of ``a`` (its Kreiss constant).

    ``starts`` are initial points with Re z > 0 and a normal Re z · Re z; see
    ``localopt.check_start``.  Returns quantity K with K = 1/gamma_final, or
    the trivial statuses for normal/unstable inputs.
    """
    t0 = time.perf_counter()
    a = as_complex_matrix(a)
    scale = max(norm2(a), np.finfo(float).tiny)
    lam = eigenvalues(a)
    if float(np.max(lam.real)) > 1e-12 * scale:
        return _trivial(SolveStatus.UNSTABLE_INFINITE, np.inf, 0.0, t0)
    if is_normal(a):
        return _trivial(SolveStatus.TRIVIAL_NORMAL, 1.0, 1.0, t0)
    if np.min(np.abs(lam)) <= 1e-12 * scale:
        raise ZeroEigenvalue("A has a numerically zero eigenvalue")
    domain = (0.0, np.pi / 2) if _is_real(a) else (-np.pi / 2, np.pi / 2)
    driver = _Driver(PencilKind.KREISS_CONTINUOUS, a, None, starts, cfg, domain).run()
    return _finish(driver, lambda g: 1.0 / g, t0)


def kreiss_discrete(a, starts, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Discrete-time transient-growth bound of ``a``.

    ``starts`` must satisfy |z| > 1 (``localopt.check_start``); optimization
    runs in polar coordinates.
    """
    t0 = time.perf_counter()
    a = as_complex_matrix(a)
    if spectral_radius(a) > 1.0 + 1e-12:
        return _trivial(SolveStatus.UNSTABLE_INFINITE, np.inf, 0.0, t0)
    if is_normal(a):
        return _trivial(SolveStatus.TRIVIAL_NORMAL, 1.0, 1.0, t0)
    domain = (0.0, np.pi) if _is_real(a) else (-np.pi, np.pi)
    driver = _Driver(PencilKind.KREISS_DISCRETE, a, None, starts, cfg, domain).run()
    return _finish(driver, lambda g: 1.0 / g, t0)


def dtu(a, b, starts, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Distance to uncontrollability of the pair (A, B).

    The origin is always included as a starting point.  Returns quantity
    tau = gamma_final.  A tau at or below 1e-12·max(‖[A B]‖₂, 1) means the
    pair is numerically uncontrollable; the solve stops as soon as a descent
    reaches that floor, and the digits of such a tau carry no meaning.
    """
    t0 = time.perf_counter()
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    starts = list(starts) + [0j]
    symmetric = (_is_real(a) and _is_real(b)) or _is_hermitian(a)
    domain = (0.0, np.pi) if symmetric else (-np.pi, np.pi)
    driver = _Driver(PencilKind.DIST_UNCONTROLLABLE, a, b, starts, cfg, domain).run()
    return _finish(driver, lambda g: g, t0)
