"""Replayed per-sample split of one certificate evaluation.

A fixed subset of the (kind, gamma, theta) samples a traced pass drew is
replayed, outside any solve, on the workload's matrix family at each order in
``SIZES``.  Each step of an evaluation is timed on its own: the reduced
pencil build, ``np.linalg.eigvals``, the 2-norm ``np.linalg.norm(., 2)`` and
the ``as_complex_matrix`` validation.  ``classify`` is the rest of a full
``eval_certificate`` call on the same sample: eigenvalue classification and
candidate rechecks.  Each number is the median over samples and repeats.
These numbers are replayed, not taken from the solves.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from globcert import certificates
from globcert.linalg import as_complex_matrix
from globcert.pencils import PencilKind, reduced_dtu_matrix, reduced_kc_matrix, reduced_kd_matrix

SIZES = (10, 13, 20, 60)
STEPS = ("build", "eig", "norm", "validate", "classify")
SUBSET = 24
REPEATS = 3

_KIND = {
    PencilKind.KREISS_CONTINUOUS: "kc",
    PencilKind.KREISS_DISCRETE: "kd",
    PencilKind.DIST_UNCONTROLLABLE: "dtu",
}


def _builder(kind: str, a, b):
    if kind == "kc":
        return lambda g, t: reduced_kc_matrix(a, g, t)
    if kind == "kd":
        return lambda g, t: reduced_kd_matrix(a, g, t)
    return lambda g, t: reduced_dtu_matrix(a, b, g, t)


def replay(family, samples) -> dict[str, float]:
    """``replay.<step>_us.n<size>`` for every step and size.

    ``family(kind, n)`` gives (a, b) at order n; ``samples`` are the
    (PencilKind, n, gamma, theta) tuples of a traced pass, in call order.
    Each sample is replayed on the family of its own kind.
    """
    if not samples:
        return {f"replay.{step}_us.n{n}": 0.0 for n in SIZES for step in STEPS}
    idx = sorted(set(np.linspace(0, len(samples) - 1, SUBSET).round().astype(int)))
    picked = [samples[i] for i in idx]
    out = {}
    for n in SIZES:
        pts = []
        for pk, _, g, t in picked:
            kind = _KIND[pk]
            a, b = family(kind, n)
            try:
                certificates.eval_certificate(pk, a, b, g, t)
            except (ArithmeticError, ValueError):
                continue  # a sample this order cannot take, e.g. a zero pencil eigenvalue
            pts.append((pk, a, b, _builder(kind, a, b), g, t))
        # every step of one sample is timed back to back, so that a change in
        # machine speed hits the steps alike and the difference stays fair
        times = {step: [] for step in STEPS}
        for _ in range(REPEATS):
            for pk, a, b, build, g, t in pts:
                operands = (a,) if b is None else (a, b)
                t0 = perf_counter()
                for x in operands:
                    as_complex_matrix(x)
                t1 = perf_counter()
                m = build(g, t)
                t2 = perf_counter()
                np.linalg.eigvals(m)
                t3 = perf_counter()
                np.linalg.norm(m, 2)
                t4 = perf_counter()
                certificates.eval_certificate(pk, a, b, g, t)
                t5 = perf_counter()
                times["validate"].append(t1 - t0)
                times["build"].append(t2 - t1)
                times["eig"].append(t3 - t2)
                times["norm"].append(t4 - t3)
                times["classify"].append((t5 - t4) - (t4 - t0))
        for step in STEPS:
            out[f"replay.{step}_us.n{n}"] = statistics.median(times[step]) * 1e6
    return out
