"""One workload in one single-threaded process: set up, timed passes, checks.

Run by run.py, not by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, the imports and building
the configs and sets.  With ``--setup-only`` the process stops there.  The
last line on standard output is a JSON object with the measurements.
"""

import os

# pinned before numpy is imported: one BLAS/OpenMP thread, cells run in-process
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PARAFBM_WORKERS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"


def import_program():
    """Import parafbm from this checkout's src/, never from anywhere else."""
    if not (SRC / "parafbm" / "__init__.py").is_file():
        raise SystemExit(f"no parafbm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import parafbm

    if Path(parafbm.__file__).resolve().parent != (SRC / "parafbm").resolve():
        raise SystemExit(f"parafbm imported from {parafbm.__file__}, not {SRC}")


def load_reference(name, seed):
    """The stored reference units and check record for ``name``, or None off the default seed."""
    import workloads

    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())["workloads"][name]


def measure(wl, seed, seconds, reference, workdir, tracer=None, hooks=()):
    """Run passes of ``wl`` for about ``seconds``; return timings, counts and failures.

    The first pass always runs; another starts only if it should end within
    ``seconds`` at the last pass's pace.  With a ``tracer`` every second pass
    runs with the hooks installed (at least one of each kind).
    """
    import spans
    import workloads

    state = wl.setup(seed, workdir)
    ready = time.monotonic()
    steps = {}

    @contextmanager
    def timed_step(uid):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            steps.setdefault(uid, []).append(time.perf_counter() - t0)

    pass_s, traced_s = [], []
    first = {}
    failures = []
    attempted = 0
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and (len(pass_s) + len(traced_s)) % 2 == 1
        if traced:
            tracer.context = {"workload": wl.name, "seed": seed, "pass": len(traced_s)}
            unit = lambda uid: tracer.span("bench.unit", cell=uid)  # noqa: E731
            scope = spans.installed(tracer, hooks)
        else:
            unit = timed_step
            scope = nullcontext()
        with scope:
            t0 = time.perf_counter()
            outputs = wl.run_pass(state, unit)
            dt = time.perf_counter() - t0
        (traced_s if traced else pass_s).append(dt)
        units = wl.units(state, outputs)
        for u in units:
            attempted += 1
            if u.error:
                failures.append(f"{u.id}: {u.error}")
            elif first.setdefault(u.id, u.digest) != u.digest:
                failures.append(f"{u.id}: output differs from the first pass")
            elif reference is not None and not workloads.close_enough(
                    u.record, reference["units"].get(u.id, {}).get("record")):
                failures.append(f"{u.id}: output differs from the reference")
        elapsed = time.perf_counter() - begin
        need_traced = tracer is not None and not traced_s
        if elapsed + dt > seconds and not need_traced:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted += 1
    try:
        check = wl.check(state, units)
    except Exception as exc:  # the slow route itself failing is a failed check
        check = workloads.Check("?", False, f"{type(exc).__name__}: {exc}")
    if not check.ok:
        failures.append(f"check {check.unit}: {check.detail}")
    elif reference is not None and not workloads.close_enough(
            check.record, reference["check"]["record"]):
        failures.append(f"check {check.unit}: slow-route record differs from the reference")
    exact = None
    if reference is not None:
        exact = sum(reference["units"].get(u.id, {}).get("digest") == u.digest for u in units)
    return {
        "ready": ready,
        "pass_s": pass_s,
        "traced_pass_s": traced_s,
        "step_s": {uid: statistics.median(s) for uid, s in steps.items()},
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "check": {"unit": check.unit, "ok": check.ok, "detail": check.detail},
        "reference_exact": None if exact is None else f"{exact}/{len(units)}",
        "units": units,
        "check_record": check.record,
    }


def reference_entry(m):
    """What reference.json stores for one workload, from a :func:`measure` result."""
    return {
        "units": {u.id: {"record": u.record, "digest": u.digest} for u in m["units"]},
        "check": {"unit": m["check"]["unit"], "record": m["check_record"]},
    }


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "settings": dict(PINNED_ENV),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            wl.setup(args.seed, workdir)
            result = {"setup_s": time.monotonic() - args.t0}
        else:
            tracer = spans.Tracer() if args.trace else None
            hooks = spans.parafbm_hooks() if args.trace else ()
            reference = load_reference(args.workload, args.seed)
            m = measure(wl, args.seed, args.seconds, reference, workdir, tracer, hooks)
            result = {k: v for k, v in m.items()
                      if k not in ("ready", "units", "check_record")}
            result["setup_s"] = m["ready"] - args.t0
            result["env"] = environment(args.seed)
            if args.trace:
                overhead = (statistics.median(m["traced_pass_s"])
                            - statistics.median(m["pass_s"]))
                result["layers"] = spans.layer_metrics(
                    tracer.spans, len(m["traced_pass_s"]), overhead)
                spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
                tracer.write_jsonl(spans_file)
                result["spans_file"] = str(spans_file.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
