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
(``_adopt``), so it is always the objective at the reported minimizer.  A
Kreiss solve starts from gamma = 1, the objective's limit at infinity, with
no minimizer: its answer is never below 1, and a round that completes at
gamma = 1 reports K = 1 with minimizer None.  A certificate level
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

Fast paths: unstable matrices have an infinite bound, and dissipative
(continuous, ω(A) = λ_max((A + Aᴴ)/2) ≤ 0) or contractive (discrete,
‖A‖₂ ≤ 1) matrices have transient bound exactly 1, approached only at
infinity.  Each test carries the tolerance of its family's instability test,
so every stable normal matrix (ω = α, ‖A‖₂ = ρ) takes the fast path.  Past the
fast paths, every start is checked with ``localopt.check_start``, the
package's one feasibility rule, and an infeasible start raises
``InfeasibleStart`` naming it before any descent runs.  So the solve raises
``RuntimeError`` only when the SVD fails in every descent from the starts.
"""

from __future__ import annotations

import itertools
import operator
import time
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .certificates import (
    CertificateValue,
    NearZeroPencilEigenvalue,
    eval_certificates,
    extract_restart_points,
)
from .chebinterp import BudgetExceeded, approximate
from .linalg import (
    as_complex_matrix,
    eigenvalues,
    norm2,
    spectral_radius,
)
from .localopt import DROPPED_ERRORS, LocalMin, Objective, check_start, descend
from .pencils import NearSingularSecondMember, PencilKind, pencil_constants

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "RestartRecord",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "Trace",
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
    TRIVIAL_NORMAL = "TrivialNormal"  # K = 1: A dissipative (kc) or contractive (kd)
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
        # operator.index admits Python and numpy integers, nothing fractional
        try:
            operator.index(self.max_restarts), operator.index(self.workers)
        except TypeError:
            raise ValueError("max_restarts and workers must be integers") from None
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


_STAGES = ("probe", "final-min", "root-midpoint")


class Trace(Sequence):
    """The certificate samples of a solve: a read-only sequence of ``TraceRecord``.

    A solve takes one sample per certificate evaluation, tens of thousands
    of them, so the records are stored packed, one ``array`` column per
    field, and built as they are read.  A trace equals any sequence of
    equal records, ``()`` included, and hashes as the tuple of its records;
    a slice is a tuple of records.
    """

    __slots__ = ("_round", "_gamma", "_theta", "_value", "_n_candidates", "_stage")

    def __init__(self):
        self._round, self._n_candidates = array("q"), array("q")
        self._gamma, self._theta, self._value = array("d"), array("d"), array("d")
        self._stage = array("b")  # index into _STAGES

    def _append(self, rnd, gamma, theta, value, n_candidates, stage) -> None:
        self._round.append(rnd)
        self._gamma.append(gamma)
        self._theta.append(theta)
        self._value.append(value)
        self._n_candidates.append(n_candidates)
        self._stage.append(_STAGES.index(stage))

    def _columns(self):
        return (
            self._round, self._gamma, self._theta, self._value, self._n_candidates, self._stage
        )

    def __len__(self) -> int:
        return len(self._round)

    def __iter__(self):
        for *fields, stage in zip(*self._columns()):
            yield TraceRecord(*fields, _STAGES[stage])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        *fields, stage = (column[i] for column in self._columns())
        return TraceRecord(*fields, _STAGES[stage])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Trace(<{len(self)} records>)"


@dataclass(frozen=True)
class SolveResult:
    """Final value, derived quantity, minimizer, and the run's history."""

    quantity: float
    gamma_final: float
    minimizer: Optional[complex]
    status: SolveStatus
    restarts: tuple[RestartRecord, ...] = ()
    certificate_samples: tuple[int, ...] = ()
    trace: Sequence[TraceRecord] = ()
    wall_time_s: float = 0.0


def _pmap(fn, items, pool: Optional["ThreadPoolExecutor"]) -> list:
    items = list(items)
    if pool is None or len(items) <= 1:
        return [fn(x) for x in items]
    return list(pool.map(fn, items))


class _RoundEnd(Exception):
    """Newly sampled zeros restarted optimization with a lower gamma."""


_TRIGGERS = {"probe": "Probe", "final-min": "FinalMinCheck", "root-midpoint": "RootMidpointCheck"}


def _is_real(m: np.ndarray, scale: float) -> bool:
    """True iff the imaginary parts are rounding noise next to ``scale = ‖m‖₂``."""
    return float(np.max(np.abs(m.imag))) <= 1e-14 * scale


def _is_hermitian(m: np.ndarray, scale: float) -> bool:
    return norm2(m - m.conj().T) <= 1e-14 * scale


class _Driver:
    """State machine for one optimization-with-restarts run."""

    def __init__(self, kind: PencilKind, a, b, starts, cfg: SolverConfig, domain):
        self.kind = kind
        self.cfg = cfg
        self.domain = domain
        self.obj = Objective(kind, a, b)
        self.starts = [check_start(kind, z) for z in starts]
        # a Kreiss objective tends to 1 at infinity, so gamma starts at that
        # limit, attained at no point; a dtu objective has no such limit
        self.gamma = np.inf if kind is PencilKind.DIST_UNCONTROLLABLE else 1.0
        self.zstar: Optional[complex] = None
        self.restarts: list[RestartRecord] = []
        self.trace = Trace()
        self.round = 0
        self.status: Optional[SolveStatus] = None  # set by run()
        self.pool: Optional["ThreadPoolExecutor"] = None  # while run() runs with workers > 1

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
            except DROPPED_ERRORS:
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

    def _certificate_round(self) -> Optional[SolveStatus]:
        """One full certificate round: the status that ends the solve, or None to restart."""
        gamma_round = self.gamma
        a, b = self.obj.a, self.obj.b

        for _attempt in range(6):
            gamma_cert = gamma_round * (1.0 - GAMMA_GUARD)
            if self.kind is not PencilKind.DIST_UNCONTROLLABLE:
                # Keep the certificate level away from 1, where the second
                # pencil member degenerates and its inverse amplifies
                # eigenvalue noise by 1/(1-gamma): reduced pencils at level
                # 1-d have norm ~1/d, drowning the certificate in rounding
                # noise as d shrinks.  Levels within 1e-6 below 1 (a Kreiss
                # gamma never exceeds 1) correspond to transient bounds within
                # 1e-6 of the floor K = 1, where no meaningful discrimination
                # is possible anyway.
                gamma_cert = min(gamma_cert, 1.0 - 1e-6)
            cache: dict[float, float] = {}

            def batch_eval(thetas, stage="probe") -> list[float]:
                thetas = [float(t) for t in np.atleast_1d(thetas)]
                missing = list(dict.fromkeys(t for t in thetas if t not in cache))

                def part(ts):
                    return eval_certificates(self.kind, a, b, gamma_cert, ts, const)

                # one contiguous part per worker; eval_certificates sizes the
                # stacks, and no value depends on where parts or stacks split
                step = max(1, -(-len(missing) // self.cfg.workers))
                parts = [missing[i : i + step] for i in range(0, len(missing), step)]
                cvs = list(itertools.chain.from_iterable(_pmap(part, parts, self.pool)))
                for t, cv in zip(missing, cvs):
                    cache[t] = cv.value
                    self.trace._append(
                        self.round, gamma_cert, t, cv.value, len(cv.candidates), stage
                    )
                # each zero is assessed once, by the batch that first samples it
                zeros = [cv for cv in cvs if cv.is_zero]
                if zeros:
                    self._assess_zeros(zeros, _TRIGGERS[stage])
                return [cache[t] for t in thetas]

            try:
                const = pencil_constants(self.kind, a, b, gamma_cert)
                self._sweep(batch_eval)
                return SolveStatus.CONVERGED
            except (NearSingularSecondMember, NearZeroPencilEigenvalue):
                # the level is degenerate at a sampled angle: lower the level
                # alone and sweep again; gamma keeps the best attained value
                gamma_round *= 1.0 - 10.0 * GAMMA_GUARD
            except _RoundEnd:
                return None
            except BudgetExceeded:
                return SolveStatus.UNCERTIFIED
        return SolveStatus.UNCERTIFIED  # every level tried was degenerate

    def _sweep(self, batch_eval) -> None:
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
        # one pool serves every race round and certificate batch of the solve;
        # a one-worker solve never imports the thread pool
        if self.cfg.workers == 1:
            self.status = self._loop()
            return self
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(self.cfg.workers) as self.pool:
            self.status = self._loop()
        self.pool = None
        return self

    def _loop(self) -> SolveStatus:
        if not self.starts:
            raise ValueError("at least one starting point is required")
        best = self._optimize_from(self.starts)
        if best is None:
            raise RuntimeError("no starting point produced a feasible local minimum")
        self._adopt(best)
        while True:
            # a dtu value at the sigma_min noise floor certifies itself: tau ~ 0
            if self.kind is PencilKind.DIST_UNCONTROLLABLE and self.gamma <= self.obj.floor:
                return SolveStatus.CONVERGED
            if len(self.restarts) >= self.cfg.max_restarts:
                return SolveStatus.MAX_RESTARTS
            self.round += 1
            status = self._certificate_round()
            if status is not None:
                return status


def _solve(kind: PencilKind, a, b, starts, cfg: SolverConfig, domain, t0: float) -> SolveResult:
    driver = _Driver(kind, a, b, starts, cfg, domain).run()
    # each sample is one trace record; a round that took none counts 0
    samples = Counter(driver.trace._round)
    return SolveResult(
        quantity=driver.gamma if kind is PencilKind.DIST_UNCONTROLLABLE else 1.0 / driver.gamma,
        gamma_final=driver.gamma,
        minimizer=driver.zstar,
        status=driver.status,
        restarts=tuple(driver.restarts),
        certificate_samples=tuple(samples[r] for r in range(1, driver.round + 1)),
        trace=driver.trace,
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
    ``localopt.check_start``.  Returns quantity K with K = 1/gamma_final,
    never below 1.  Spectral abscissa α > 1e-12·‖A‖₂ gives
    ``UnstableInfinite``.  Numerical abscissa ω = λ_max((A + Aᴴ)/2) ≤
    1e-12·‖A‖₂ gives ``TrivialNormal`` with K = 1: then σ_min(zI − A) ≥
    Re z, and every stable normal A qualifies, since ω = α for it.  A K = 1
    approached only at infinity reports no minimizer.
    """
    t0 = time.perf_counter()
    a = as_complex_matrix(a)
    scale = max(norm2(a), np.finfo(float).tiny)
    lam = eigenvalues(a)
    if float(np.max(lam.real)) > 1e-12 * scale:
        return _trivial(SolveStatus.UNSTABLE_INFINITE, np.inf, 0.0, t0)
    if np.linalg.eigvalsh(0.5 * (a + a.conj().T))[-1] <= 1e-12 * scale:
        return _trivial(SolveStatus.TRIVIAL_NORMAL, 1.0, 1.0, t0)
    if np.min(np.abs(lam)) <= 1e-12 * scale:
        raise ZeroEigenvalue("A has a numerically zero eigenvalue")
    domain = (0.0, np.pi / 2) if _is_real(a, scale) else (-np.pi / 2, np.pi / 2)
    return _solve(PencilKind.KREISS_CONTINUOUS, a, None, starts, cfg, domain, t0)


def kreiss_discrete(a, starts, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Discrete-time transient-growth bound of ``a``.

    ``starts`` must satisfy |z| > 1 (``localopt.check_start``); optimization
    runs in polar coordinates.  Returns quantity K = 1/gamma_final, never
    below 1.  Spectral radius ρ > 1 + 1e-12 gives ``UnstableInfinite``;
    ‖A‖₂ ≤ 1 + 1e-12 gives ``TrivialNormal`` with K = 1, since then
    σ_min(zI − A) ≥ |z| − 1 (every stable normal A qualifies: ‖A‖₂ = ρ).
    """
    t0 = time.perf_counter()
    a = as_complex_matrix(a)
    if spectral_radius(a) > 1.0 + 1e-12:
        return _trivial(SolveStatus.UNSTABLE_INFINITE, np.inf, 0.0, t0)
    scale = norm2(a)
    if scale <= 1.0 + 1e-12:
        return _trivial(SolveStatus.TRIVIAL_NORMAL, 1.0, 1.0, t0)
    domain = (0.0, np.pi) if _is_real(a, scale) else (-np.pi, np.pi)
    return _solve(PencilKind.KREISS_DISCRETE, a, None, starts, cfg, domain, t0)


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
    scale = norm2(a)
    symmetric = (_is_real(a, scale) and _is_real(b, norm2(b))) or _is_hermitian(a, scale)
    domain = (0.0, np.pi) if symmetric else (-np.pi, np.pi)
    return _solve(PencilKind.DIST_UNCONTROLLABLE, a, b, starts, cfg, domain, t0)
