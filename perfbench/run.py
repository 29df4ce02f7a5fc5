"""parafbm benchmark: time to a verdict on three acceptance workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, default seed

Each workload runs in its own single-threaded process (worker.py pins the
thread counts before it imports numpy), after a few set-up-only processes
that time interpreter start, imports and building the configs.  The last
line on standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones (wall_s, peak_rss_mb, setup_s), with ``--trace 1`` the
per-layer ones.  The lines before it print every metric with its unit, the
quartiles and sample counts, the median time of each step of a pass,
failed_fraction and the environment.  Exit code 0 on a measurement (also
one with failed units), 2 when the benchmark cannot run here.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

WORKLOADS = ("dim-formula", "occupation-cli", "small-calls")
DEFAULT_SEED = 0

#: set-up-only processes per run; setup_s is the median over them and the
#: measuring process
SETUP_PROBES = 4

#: a run must end within this many seconds, processes included
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def _worker(args, deadline):
    """Run worker.py with ``args``; return its last stdout line as JSON."""
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f}s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(name, seed, seconds, trace, deadline):
    """Measure one workload; returns (metrics, attempted, failed, lines to print)."""
    args = ["--workload", name, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(_worker(args + ["--setup-only"], deadline)["setup_s"])
    res = _worker(args + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(res["setup_s"])
    passes = res["pass_s"]
    attempted, failed = res["attempted"], res["failed"]
    lines = [f"== {name}  seed {seed}  trace {trace}"]
    if trace:
        metrics = res["layers"]
        for k, m in metrics.items():
            lines.append(f"{k} {m['value']:.6g} {m['unit']}")
        lines.append(f"traced passes {len(res['traced_pass_s'])}, untraced {len(passes)}; "
                     f"spans in {res['spans_file']}")
    else:
        q1, q3 = _quartiles(passes)
        wall = statistics.median(passes)
        s1, s3 = _quartiles(setup)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        lines += [
            f"wall_s {wall:.4f} s (median of {len(passes)} passes; quartiles {q1:.4f} {q3:.4f})",
            f"peak_rss_mb {res['peak_rss_mb']:.1f} MB",
            f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setup)} processes; "
            f"quartiles {s1:.4f} {s3:.4f})",
        ]
        lines += [f"  step {uid}: {s:.4f} s median per pass" for uid, s in res["step_s"].items()]
    lines.append(f"failed_fraction {failed / attempted:.4g} ({failed}/{attempted} units)")
    lines.append(f"check {res['check']['unit']}: {'ok' if res['check']['ok'] else 'FAILED'} "
                 f"{res['check']['detail']}")
    if res["reference_exact"] is not None:
        lines.append(f"reference: bit-exact units {res['reference_exact']}")
    lines += [f"failure: {f}" for f in res["failures"]]
    lines.append("env " + json.dumps(res["env"], sort_keys=True))
    return metrics, attempted, failed, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "parafbm" / "__init__.py").is_file():
        print(f"error: no parafbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f, lines = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(lines), flush=True)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
