"""Benchmark instances, their reference answers and the answer checks.

Every instance is built from ``globcert.demos`` or a seeded random draw and
solved with the public drivers.  Seed 0 gives the instances exactly as
listed; any other seed applies a seeded random unitary similarity to the
instances marked ``seeded``.  A similarity leaves the answer and the
certificate landscape unchanged in exact arithmetic but changes every input
bit, so a claim can be re-checked on a seed that was not used while the
change was written.

Only the random pair is seeded: over 30 seeds its sample count stayed
within 11,865 to 11,884.  The other instances change their sample counts far
under a rounding-level change of the input, which would let the seed, not
the code, set the time: under similarities, discrete Grcar(10) went from
8,684 to as many as 22,829 evaluations, Kahan(10) from 9,701 to about
18,440, and continuous Grcar(20) once stopped after 17 samples instead of
11,116 (``_assess_zeros`` declaring convergence after a restart that
improved gamma by less than ``term_rel``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from globcert import SolverConfig, dtu, kreiss_continuous, kreiss_discrete
from globcert.demos import grcar, kahan
from globcert.linalg import spectral_abscissa, spectral_radius

# The answer bound of the project: answers may not move by more than this,
# relative, and a dtu answer at the sigma_min noise floor is held to this
# times ||[A B]|| absolute.
ANSWER_RTOL = 1e-12

SOLVERS = {"kc": kreiss_continuous, "kd": kreiss_discrete, "dtu": dtu}


def shifted_grcar(n: int) -> np.ndarray:
    """Grcar(n) shifted to spectral abscissa -0.1."""
    a = grcar(n)
    return a - (spectral_abscissa(a) + 0.1) * np.eye(n)


def scaled_grcar(n: int) -> np.ndarray:
    """Grcar(n) scaled to spectral radius 1/1.01."""
    a = grcar(n)
    return a / (1.01 * spectral_radius(a))


def kahan_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kahan(n) with B = e_n."""
    b = np.zeros((n, 1), dtype=np.complex128)
    b[-1, 0] = 1.0
    return kahan(n), b


def random_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex Gaussian pair (A, B) with one input column, drawn at seed 0."""
    gen = np.random.default_rng(0)
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    b = gen.standard_normal((n, 1)) + 1j * gen.standard_normal((n, 1))
    return a, b


def similarity(seed: int, n: int) -> np.ndarray:
    """Seeded random unitary matrix; the identity for seed 0."""
    if seed == 0:
        return np.eye(n)
    gen = np.random.default_rng([20191001, seed])
    q, r = np.linalg.qr(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class Instance:
    """One solve: a driver, its matrices, a start point and the reference."""

    case: str
    kind: str  # kc | kd | dtu
    make: Callable[[], tuple]  # () -> (a, b); b is None except for dtu
    start: complex
    reference: Optional[float]  # 17-digit answer at seed 0; None if unknown
    seeded: bool

    def build(self, seed: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
        a, b = self.make()
        if not self.seeded:
            return a, b
        q = similarity(seed, a.shape[0])
        a = q @ a @ q.conj().T
        return a, (None if b is None else q @ b)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[Instance, ...]
    workers: int
    # (kind, n) -> (a, b): the matrix family at any order n, for the
    # replayed per-sample split
    family: Callable[[str, int], tuple[np.ndarray, Optional[np.ndarray]]]
    listed: bool = True  # False: kept out of BENCHMARK.json (see README)

    @property
    def config(self) -> SolverConfig:
        return SolverConfig(workers=self.workers)


KC_GRCAR10 = Instance("kc-grcar10", "kc", lambda: (shifted_grcar(10), None), 1 + 1j,
                      1.6430468555919353, False)
KC_GRCAR20 = Instance("kc-grcar20", "kc", lambda: (shifted_grcar(20), None), 1 + 1j,
                      6.890661736429734, False)
KD_GRCAR10 = Instance("kd-grcar10", "kd", lambda: (scaled_grcar(10), None), 1.5 + 0j,
                      2.4126448246175567, False)
KD_GRCAR13 = Instance("kd-grcar13", "kd", lambda: (scaled_grcar(13), None), 1.5 + 0j,
                      None, False)
DTU_RAND10 = Instance("dtu-rand10", "dtu", lambda: random_pair(10), 1.0 + 0j,
                      0.0550827470274255, True)
DTU_KAHAN10 = Instance("dtu-kahan10", "dtu", lambda: kahan_pair(10), 0.5 + 0j,
                       1.1883525263139571e-05, False)
DTU_KAHAN60 = Instance("dtu-kahan60", "dtu", lambda: kahan_pair(60), 0.5 + 0j,
                       1.2758551740078389e-15, False)


def _grcar_family(kind: str, n: int):
    return (shifted_grcar(n) if kind == "kc" else scaled_grcar(n)), None


def _kahan_family(kind: str, n: int):
    return kahan_pair(n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kreiss-grcar",
            "continuous Grcar 10 and 20, discrete Grcar 10: sample counts from ladders up to 8,193 points and graded splits",
            (KC_GRCAR10, KC_GRCAR20, KD_GRCAR10),
            1,
            _grcar_family,
        ),
        Workload(
            "dtu-pairs",
            "dtu on a random pair and Kahan 10/60: full-circle sweep, B-dependent pencil, rechecks, local optimization",
            (DTU_RAND10, DTU_KAHAN10, DTU_KAHAN60),
            1,
            _kahan_family,
        ),
        # kept out of BENCHMARK.json: timings on a shared 2-CPU host swing
        # by a third over minutes, so only two workloads get runs long
        # enough to be gated; Grcar(13) fails by design
        Workload(
            "kreiss-c-2w",
            "continuous Grcar 20 on two worker threads: the thread pool built per batch",
            (KC_GRCAR20,),
            2,
            _grcar_family,
            listed=False,
        ),
        Workload(
            "kreiss-d-grcar",
            "discrete Grcar 10 alone: certificate jumps drive graded piece splits and edge location",
            (KD_GRCAR10,),
            1,
            _grcar_family,
            listed=False,
        ),
        Workload(
            "kreiss-d-budget",
            "discrete Grcar 13: the solve raises BudgetExceeded, the failure path",
            (KD_GRCAR13,),
            1,
            _grcar_family,
            listed=False,
        ),
    )
}

# tiny instances that touch every code path of a family before timing starts
WARMUP = {
    "kc": (lambda: (shifted_grcar(5), None), 1 + 1j),
    "kd": (lambda: (np.array([[0.5, 2, 0], [0, 0.4, 1], [0, 0, 0.3]], complex), None), 1.5),
    "dtu": (lambda: kahan_pair(5), 0.5),
}


def solve(kind: str, a, b, start: complex, cfg: SolverConfig):
    if kind == "dtu":
        return dtu(a, b, [start], cfg)
    return SOLVERS[kind](a, [start], cfg)


def _objective(kind: str, a, b, z: complex) -> float:
    """The radial objective at z, straight from one SVD."""
    n = a.shape[0]
    if kind == "dtu":
        return float(np.linalg.svd(np.hstack([a - z * np.eye(n), b]), compute_uv=False)[-1])
    s = float(np.linalg.svd(z * np.eye(n) - a, compute_uv=False)[-1])
    return s / (z.real if kind == "kc" else abs(z) - 1.0)


def check_answer(inst: Instance, a, b, res) -> Optional[str]:
    """Why the result fails the answer checks, or None when it passes."""
    abs_tol = 0.0
    if inst.kind == "dtu":
        floor = ANSWER_RTOL * max(float(np.linalg.norm(np.hstack([a, b]), 2)), 1.0)
        if inst.reference is not None and inst.reference <= floor:
            abs_tol = floor
    if inst.reference is not None:
        tol = max(ANSWER_RTOL * abs(inst.reference), abs_tol)
        if not abs(res.quantity - inst.reference) <= tol:
            return f"answer {res.quantity!r} is off the reference {inst.reference!r}"
    if res.minimizer is None:
        return "no minimizer returned"
    value = _objective(inst.kind, a, b, complex(res.minimizer))
    tol = max(ANSWER_RTOL * res.gamma_final, abs_tol)
    if not abs(value - res.gamma_final) <= tol:
        return f"sigma_min at the minimizer is {value!r}, not gamma_final {res.gamma_final!r}"
    return None
