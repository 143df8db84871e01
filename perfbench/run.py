"""Time to a certified answer: closed-loop benchmark of globcert.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kreiss-grcar --seed 0 --seconds 54 --trace 0

One client in one process solves every instance of the workload in turn,
each solve starting when the previous one returns, and repeats such passes
for about ``--seconds`` seconds (at least one pass).  Every answer is checked
against its reference.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, counts and the
environment record are written under ``perfbench/out/``.  ``--workload all``
runs every workload listed in BENCHMARK.json, each in a process of its own.
"""

import os

# one BLAS thread per solve; must be set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_globcert():
    """Import globcert from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "globcert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no globcert sources under {src}")
    sys.path.insert(0, str(src))
    import globcert

    if src not in Path(globcert.__file__).resolve().parents:
        raise SystemExit(f"perfbench: globcert was imported from {globcert.__file__}, not {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=54.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed):
    """Instance generation and warm-up: (instance, a, b) for each solve."""
    from workloads import WARMUP, solve

    prepared = [(inst, *inst.build(seed)) for inst in workload.instances]
    for kind in dict.fromkeys(inst.kind for inst in workload.instances):
        make, start = WARMUP[kind]
        solve(kind, *make(), start, workload.config)
    return prepared


def measure_setup(args) -> list[float]:
    """Wall seconds of fresh processes that import, generate and warm up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0))
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    if nproc <= 2:
        env["note"] = f"thread scaling past {nproc} workers cannot be measured on {nproc} CPUs"
    return env


def source_hash() -> str:
    """Hash of the solver and benchmark sources: counts are compared per hash."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


class Counts:
    """Deterministic counts per (instance, seed), checked across passes and runs.

    Every run with the same sources, whatever its workload, must see the
    same counts; Grcar(20) is solved with one worker in kreiss-c-grcar and
    with two in kreiss-c-2w.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.path = OUT / f"counts-{source_hash()}.json"
        self.known = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.errors: list[str] = []

    def check(self, case: str, counts: dict) -> None:
        key = f"{case}@seed{self.seed}"
        seen = self.known.setdefault(key, {})
        for name, value in counts.items():
            if name in seen and seen[name] != value:
                self.errors.append(f"{key}: {name} = {value}, earlier {seen[name]}")
            seen.setdefault(name, value)

    def save(self) -> None:
        # replace, not rewrite: a run cut short must not leave a torn file
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_pass(prepared, cfg, tracer=None):
    """Solve each instance once; (pass seconds, [(seconds, result or exception)])."""
    from workloads import solve

    out = []
    t_pass = perf_counter()
    for i, (inst, a, b) in enumerate(prepared):
        call = lambda: solve(inst.kind, a, b, inst.start, cfg)  # noqa: E731
        if tracer is not None:
            tracer.solve_id = i + 1
            call = tracer.span("solver.solve", call)
        t0 = perf_counter()
        try:
            res = call()
        except Exception as exc:  # a crashed solve is a failed one, timed to the crash
            res = exc
        out.append((perf_counter() - t0, res))
    return perf_counter() - t_pass, out


def judge(prepared, solves, counts: Counts, log) -> tuple[int, int]:
    """Check one pass: returns (failed solves, solves with a wrong answer)."""
    from workloads import check_answer

    failed = wrong = 0
    for (inst, a, b), (_, res) in zip(prepared, solves):
        if isinstance(res, Exception):
            failed += 1
            log(f"  {inst.case}: raised {type(res).__name__}: {res}")
            continue
        counts.check(inst.case, {
            "certificate_samples": list(res.certificate_samples),
            "restarts": len(res.restarts),
        })
        if res.status.value != "Converged":
            failed += 1
            log(f"  {inst.case}: status {res.status.value}")
            continue
        why = check_answer(inst, a, b, res)
        if why is not None:
            failed += 1
            wrong += 1
            log(f"  {inst.case}: WRONG ANSWER: {why}")
    return failed, wrong


def fingerprint(res):
    if isinstance(res, Exception):
        return (type(res).__name__, str(res))
    return (res.quantity, res.gamma_final, res.minimizer, res.status, res.certificate_samples,
            res.restarts, res.trace)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(args, workload, prepared, log):
    counts = Counts(args.seed)
    setups = measure_setup(args)
    passes, attempted, failed, wrong = [], 0, 0, 0
    t_start = perf_counter()
    while True:
        seconds, solves = run_pass(prepared, workload.config)
        passes.append(seconds)
        attempted += len(solves)
        f, w = judge(prepared, solves, counts, log)
        failed, wrong = failed + f, wrong + w
        log(f"pass {len(passes)}: {seconds:.4f} s  "
            + "  ".join(f"{inst.case} {t:.3f}s" for (inst, _, _), (t, _) in zip(prepared, solves)))
        # free this pass's results before the next pass, so that peak RSS
        # reflects what one pass retains
        del solves
        # stop before a pass that would end past the measuring window
        if perf_counter() - t_start + seconds > args.seconds:
            break
    counts.save()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q1, q3 = quartiles(passes)
    log(f"pass_s = {statistics.median(passes):.4f} s (median of {len(passes)} passes, "
        f"quartiles {q1:.4f} .. {q3:.4f})")
    log(f"setup_s = {statistics.median(setups):.4f} s (median of {len(setups)} fresh-process set-ups)")
    log(f"peak_rss_mb = {rss_mb:.2f} MB")
    log(f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted} solves)")
    metrics = {
        "pass_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, attempted, failed, wrong == 0, counts.errors, {"passes": passes, "setups": setups}


def traced(args, workload, prepared, log):
    import replay
    import spans
    from workloads import WORKLOADS

    counts = Counts(args.seed)
    t_origin = perf_counter()
    plain_s, plain = run_pass(prepared, workload.config)
    tracer = spans.Tracer()
    with tracer:
        traced_s, solves = run_pass(prepared, workload.config, tracer)
    if tracer.missing:
        log(f"not traced (names missing): {', '.join(tracer.missing)}")
    errors = []
    for (inst, _, _), (_, r0), (_, r1) in zip(prepared, plain, solves):
        if fingerprint(r0) != fingerprint(r1):
            errors.append(f"{inst.case}: traced answer differs from the untraced one")
    f0, w0 = judge(prepared, plain, counts, log)
    f1, w1 = judge(prepared, solves, counts, log)
    evals = spans.per_solve(tracer, "certificates.eval")
    pieces = spans.pieces_per_solve(tracer)
    for i, (inst, _, _) in enumerate(prepared):
        counts.check(inst.case, {"evaluations": evals[i + 1], "pieces": pieces[i + 1]})
    counts.save()
    errors += counts.errors

    results = [None if isinstance(r, Exception) else r for _, r in solves]
    metrics = spans.layer_metrics(tracer, results, workload.workers)
    cases = list(dict.fromkeys(i.case for w in WORKLOADS.values() if w.listed for i in w.instances))
    ran = {inst.case: (t, evals[i + 1]) for i, ((inst, _, _), (t, _)) in enumerate(zip(prepared, plain))}
    for case in cases:
        t, n = ran.get(case, (0.0, 0))
        metrics[f"solve_s.{case}"] = (t, "s")
        metrics[f"evals.{case}"] = (float(n), "count")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    t0 = perf_counter()
    for name, value in replay.replay(workload.family, tracer.eval_samples()).items():
        metrics[name] = (value, "us")
    log(f"untraced pass {plain_s:.4f} s, traced pass {traced_s:.4f} s, "
        f"replay {perf_counter() - t0:.2f} s; replay.* numbers are replayed samples")
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", t_origin)
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    attempted = len(plain) + len(solves)
    return metrics, attempted, f0 + f1, w0 + w1 == 0, errors, {"plain_s": plain_s, "traced_s": traced_s}


def run_all(args, names) -> int:
    """Each named workload in a fresh process of its own, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    import_globcert()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, [name for name, w in WORKLOADS.items() if w.listed])
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup(workload, args.seed)
        return 0

    def log(line):
        print(line, flush=True)

    env = environment()
    log(f"workload {workload.name} seed {args.seed}: {len(workload.instances)} instances, "
        f"closed loop, 1 client, workers={workload.workers}; {workload.why}")
    log("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    prepared = setup(workload, args.seed)
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, answers_ok, errors, extra = run(args, workload, prepared, log)
    for e in errors:
        log(f"ERROR: {e}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
              "errors": errors, **extra}
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": answers_ok and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
