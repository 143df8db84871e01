"""Spans around globcert's layer boundaries, recorded from outside the package.

While a ``Tracer`` is installed, the names that callers look up (module
attributes and two ``PiecewiseCheb`` methods) are replaced by timing
wrappers; leaving the ``with`` block puts the originals back.  Nothing under
``src/`` is edited.  Each span is (id, name, start, end, parent, solve,
thread); the layer is the part of the name before the first dot.  Spans are
kept in memory and written out once the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import globcert.certificates as certificates
import globcert.localopt as localopt
import globcert.solver as solver
from globcert.chebinterp import Aborted, Completed, PiecewiseCheb

FIELDS = ("id", "name", "start", "end", "parent", "solve", "thread")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Installs the wrappers and collects spans plus per-span payloads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.payload: dict[int, tuple] = {}
        self.solve_id = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        return self._local.__dict__.setdefault("stack", [])

    def span(self, name, fn, adapt=None, record=None):
        """``fn`` timed as span ``name``.

        ``adapt(sid, args, kwargs)`` may rewrite the arguments once the span
        id is known; ``record(sid, args, kwargs, out)`` stores a payload.
        """

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            if adapt is not None:
                args, kwargs = adapt(sid, args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, t0, t1, parent, self.solve_id, threading.get_ident())
                )
            if record is not None:
                record(sid, args, kwargs, out)
            return out

        return wrapper

    # -- adapters and recorders for the boundaries that carry payloads -------

    def _adapt_approximate(self, sid, args, kwargs):
        # the batch callback belongs to the solver; timing it separates
        # chebinterp's own work from the evaluations it asks for
        if args:
            args = (self.span("solver.callback", args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, fn=self.span("solver.callback", kwargs["fn"]))
        return args, kwargs

    def _record_approximate(self, sid, args, kwargs, out):
        if isinstance(out, Completed):
            coeffs = sum(len(p.coeffs) for p in out.interpolant.pieces)
            self.payload[sid] = ("completed", len(out.interpolant.pieces), coeffs, out.sample_count)
        elif isinstance(out, Aborted):
            self.payload[sid] = ("aborted", 0, 0, out.sample_count)

    def _adapt_pmap(self, sid, args, kwargs):
        fn = _arg(args, kwargs, 0, "fn")
        items = list(_arg(args, kwargs, 1, "items"))
        workers = _arg(args, kwargs, 2, "workers")

        def in_batch(x):
            # worker threads start with an empty stack: parent them to the batch
            stack = self._stack()
            stack.append(sid)
            try:
                return fn(x)
            finally:
                stack.pop()

        self.payload[sid] = (len(items), workers)
        return (in_batch, items, workers), {}

    def _record_eval(self, sid, args, kwargs, out):
        kind = _arg(args, kwargs, 0, "kind")
        n = _arg(args, kwargs, 1, "a").shape[0]
        gamma = _arg(args, kwargs, 3, "gamma")
        theta = _arg(args, kwargs, 4, "theta")
        self.payload[sid] = (
            kind, n, float(gamma), float(theta),
            bool(out.is_zero), len(out.candidates), len(out.accepted),
        )

    # -- installation ---------------------------------------------------------

    def _targets(self):
        yield solver, "approximate", "chebinterp.approximate", self._adapt_approximate, self._record_approximate
        yield solver, "eval_certificate", "certificates.eval", None, self._record_eval
        yield solver, "extract_restart_points", "certificates.restart_points", None, None
        yield solver, "minimize", "localopt.minimize", None, None
        yield solver, "_pmap", "solver.batch", self._adapt_pmap, None
        for attr in ("reduced_kc_matrix", "reduced_kd_matrix", "reduced_dtu_matrix"):
            yield certificates, attr, "pencils.build", None, None
        for attr in ("sigma_g", "sigma_h", "sigma_f"):
            yield certificates, attr, "pencils.recheck", None, None
        yield certificates, "as_complex_matrix", "linalg.validate", None, None
        yield localopt, "objective_value_grad", "localopt.objective", None, None
        yield PiecewiseCheb, "roots", "chebinterp.roots", None, None
        yield PiecewiseCheb, "global_minimizers", "chebinterp.minimizers", None, None

    def __enter__(self):
        for owner, attr, name, adapt, record in self._targets():
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.span(name, fn, adapt, record))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def eval_samples(self) -> list[tuple]:
        """(kind, n, gamma, theta) of every certificate evaluation, in call order."""
        return [
            self.payload[s[0]][:4]
            for s in sorted(self.spans)
            if s[1] == "certificates.eval" and s[0] in self.payload
        ]

    def write(self, path, t_origin: float) -> None:
        rows = [
            [sid, name, round((t0 - t_origin) * 1e9), round((t1 - t_origin) * 1e9), parent, solve, thread]
            for sid, name, t0, t1, parent, solve, thread in sorted(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": list(FIELDS), "time_unit": "ns", "spans": rows}, fh)


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered, hi = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, hi), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                hi = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(tracer: Tracer, results: list, workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass; ``results`` are its SolveResults."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def self_of(*names):
        return sum(own[s[0]] for name in names for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    evals = by_name["certificates.eval"]
    eval_parent = defaultdict(int)
    for s in evals:
        eval_parent[s[4]] += 1
    cert_batches = [s for s in by_name["solver.batch"] if eval_parent[s[0]]]
    batch_wall = sum(s[3] - s[2] for s in cert_batches)
    busy = total("certificates.eval")

    outcomes = [tracer.payload[s[0]] for s in by_name["chebinterp.approximate"] if s[0] in tracer.payload]
    completed = [o for o in outcomes if o[0] == "completed"]
    cert = [tracer.payload[s[0]] for s in evals if s[0] in tracer.payload]
    n_cand = sum(p[5] for p in cert)
    n_acc = sum(p[6] for p in cert)
    n_build = len(by_name["pencils.build"])
    n_obj = len(by_name["localopt.objective"])
    ok = [r for r in results if r is not None]

    m = {
        "solver.rounds": (sum(len(r.certificate_samples) for r in ok), "count"),
        "solver.restarts": (sum(len(r.restarts) for r in ok), "count"),
        "solver.batches": (len(cert_batches), "count"),
        "solver.batch_max": (max(eval_parent.values(), default=0), "count"),
        "solver.self_s": (self_of("solver.solve", "solver.batch", "solver.callback"), "s"),
        "solver.parallel_eff": (ratio(busy, workers * batch_wall), "ratio"),
        "chebinterp.calls": (len(by_name["chebinterp.approximate"]), "count"),
        "chebinterp.aborts": (sum(o[0] == "aborted" for o in outcomes), "count"),
        "chebinterp.pieces": (sum(o[1] for o in completed), "count"),
        "chebinterp.kept_frac": (ratio(sum(o[2] for o in completed), sum(o[3] for o in completed)), "ratio"),
        "chebinterp.self_s": (self_of("chebinterp.approximate"), "s"),
        "chebinterp.check_s": (total("chebinterp.roots") + total("chebinterp.minimizers"), "s"),
        "certificates.evals": (len(evals), "count"),
        "certificates.busy_s": (busy, "s"),
        "certificates.eval_us": (ratio(busy, len(evals)) * 1e6, "us"),
        "certificates.self_s": (self_of("certificates.eval"), "s"),
        "certificates.zero_frac": (ratio(sum(p[4] for p in cert), len(cert)), "ratio"),
        "certificates.rechecks": (len(by_name["pencils.recheck"]), "count"),
        "certificates.accept_frac": (ratio(n_acc, n_cand), "ratio"),
        "certificates.validate_s": (total("linalg.validate"), "s"),
        "pencils.build_s": (total("pencils.build"), "s"),
        "pencils.build_us": (ratio(total("pencils.build"), n_build) * 1e6, "us"),
        "pencils.recheck_s": (total("pencils.recheck"), "s"),
        "localopt.calls": (len(by_name["localopt.minimize"]), "count"),
        "localopt.busy_s": (total("localopt.minimize"), "s"),
        "localopt.evals": (n_obj, "count"),
        "localopt.eval_us": (ratio(total("localopt.objective"), n_obj) * 1e6, "us"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}


def per_solve(tracer: Tracer, name: str) -> dict[int, int]:
    """Number of spans called ``name`` in each solve."""
    out: dict[int, int] = defaultdict(int)
    for s in tracer.spans:
        if s[1] == name:
            out[s[5]] += 1
    return out


def pieces_per_solve(tracer: Tracer) -> dict[int, int]:
    """Pieces of the completed interpolants built in each solve."""
    out: dict[int, int] = defaultdict(int)
    for s in tracer.spans:
        p = tracer.payload.get(s[0]) if s[1] == "chebinterp.approximate" else None
        if p is not None and p[0] == "completed":
            out[s[5]] += p[1]
    return out
