"""Cross-check the stored reference answers against the brute-force oracle.

Usage, from the root of the repository (takes about a minute):

    python3 perfbench/check_references.py

For each instance of the listed workloads at seed 0 this prints the stored
reference, ``oracle.grid_min`` over a polished grid, and their relative
difference.  The grid only ever gives an upper bound on the minimum of the
objective; on Kahan(10) it stops well above the certified answer.  Not part
of the measured run.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from globcert.linalg import norm2  # noqa: E402
from globcert.localopt import Objective  # noqa: E402
from globcert.oracle import GridSpec, grid_min  # noqa: E402
from globcert.pencils import PencilKind  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def oracle(kind, a, b, reference):
    """The grid regions of the acceptance tests, sized from the answer."""
    reach = (norm2(a) + 1.0) / max(1.0 - min(1.0 / reference, 0.95), 0.05)
    if kind == "kc":
        bound = 1.2 * reach
        spec = GridSpec((1e-4, bound, -bound, bound), 240, 240)
        _, v = grid_min(Objective(PencilKind.KREISS_CONTINUOUS, a), spec)
        return 1.0 / v
    if kind == "kd":
        bound = max(4.0, 1.1 * reach)
        spec = GridSpec((1.0 + 1e-9, bound, -np.pi, np.pi), 240, 360, polar=True)
        _, v = grid_min(Objective(PencilKind.KREISS_DISCRETE, a), spec)
        return 1.0 / v
    r = norm2(a) + norm2(b) + 1.0
    _, v = grid_min(Objective(PencilKind.DIST_UNCONTROLLABLE, a, b), GridSpec((-r, r, -r, r), 220, 220))
    return v


def main():
    seen = set()
    for w in WORKLOADS.values():
        for inst in w.instances:
            if not w.listed or inst.case in seen:
                continue
            seen.add(inst.case)
            a, b = inst.build(0)
            v = oracle(inst.kind, a, b, inst.reference)
            rel = abs(v - inst.reference) / abs(inst.reference)
            print(f"{inst.case:12s} reference {inst.reference!r:24s} oracle {v!r:24s} rel {rel:.2e}", flush=True)


if __name__ == "__main__":
    main()
