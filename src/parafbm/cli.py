"""Command-line interface.

Subcommands: generate, boxdim, energy, occupancy, gauss-sweep, experiment.
Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure.
Outputs are written atomically (temp file + rename) except the experiment
runner's report.csv: one handle, flushed and fsynced after each job.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .estimators import (
    DEFAULT_MAX_COUNT_FRACTION,
    GraphCloud,
    dyadic_deltas,
    energy_integral_mc,
    estimate_parabolic_dimension,
)
from .experiments import ExperimentConfig, atomic_writer, run_experiment
from .fbm import TimeGrid, generate_fbm_path, generate_mixed_path, path_to_csv, path_to_json
from .fractals import WeightedTimeSet
from .gaussian import detcov_margin_sweep, lnd_margin_sweep
from .occupation import interior_probe, occupation_histogram

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1 on stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def parse_delta_spec(spec):
    """Parse a scale ladder: "2^-4..2^-12" (dyadic range) or comma-separated floats.

    A range bound written as a number must be 2^-k exactly: 0.3 is not rounded.
    """
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return dyadic_deltas(_parse_pow2(lo), _parse_pow2(hi))
    try:
        vals = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError:
        raise ConfigError(f"bad delta list {spec!r}: need comma-separated numbers") from None
    return np.sort(vals)[::-1]


def _parse_pow2(token):
    token = token.strip()
    try:
        if token.startswith("2^"):
            return -int(token[2:])
        mantissa, exponent = math.frexp(float(token))
    except ValueError:
        raise ConfigError(f"bad delta bound {token!r}: need 2^-k or a number") from None
    if mantissa != 0.5:
        raise ConfigError(f"delta bound {token!r} is not a power of two 2^-k")
    return 1 - exponent


def _read_cloud_csv(path):
    """Read a t,x1..xd CSV into (times, values)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0][0] != "t":
        raise ConfigError(f"{path}: expected a CSV with header t,x1,...,xd")
    width = len(rows[0])
    if width < 2:
        raise ConfigError(f"{path}: no value columns after t")
    if len(rows) == 1:
        raise ConfigError(f"{path}: no data rows")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise ConfigError(f"{path}: data row {i} has {len(row)} cells where "
                              f"the header has {width}")
    try:
        data = np.array([[float(x) for x in r] for r in rows[1:]])
    except ValueError:
        raise ConfigError(f"{path}: rows need numeric cells") from None
    return data[:, 0], data[:, 1:]


def _cmd_generate(args):
    grid = TimeGrid.regular(args.n)
    if args.alpha_p is not None:
        path = generate_mixed_path(
            args.hurst, args.alpha_p, grid, d=args.d,
            seed_pair=(args.seed, args.seed2 if args.seed2 is not None else args.seed + 1),
        )
    else:
        path = generate_fbm_path(args.hurst, grid, d=args.d, seed=args.seed)
    with atomic_writer(args.out) as fh:
        path_to_csv(path, fh)
    if args.meta:
        doc = path_to_json(path)
        doc.pop("values")
        with atomic_writer(args.meta) as fh:
            json.dump(doc, fh, indent=2)
    print(f"wrote {Path(args.out)}")
    return EXIT_OK


def _cmd_boxdim(args):
    times, values = _read_cloud_csv(args.input)
    cloud = GraphCloud(times=times, values=values)
    deltas = parse_delta_spec(args.deltas)
    est = estimate_parabolic_dimension(
        cloud, deltas, args.hurst,
        max_count_fraction=args.max_count_fraction,
    )
    doc = est.to_json()
    print(json.dumps(doc, indent=2))
    if args.out:
        with atomic_writer(args.out) as fh:
            json.dump(doc, fh, indent=2)
    if args.curve:
        with atomic_writer(args.curve) as fh:
            est.curve.to_csv(fh)
    return EXIT_OK


def _cmd_energy(args):
    times, values = _read_cloud_csv(args.input)
    n = times.size
    points = WeightedTimeSet(times=times, weights=np.full(n, 1.0 / n))
    val = energy_integral_mc(points, values, gamma=args.gamma, hurst=args.hurst,
                             pair_seed=args.seed)
    print(json.dumps({"energy": val, "gamma": args.gamma, "hurst": args.hurst,
                      "n_points": n}))
    return EXIT_OK


def _cmd_occupancy(args):
    times, values = _read_cloud_csv(args.input)
    n = times.size
    hist = occupation_histogram(np.full(n, 1.0 / n), values, args.epsilon)
    config = {"input": str(args.input), "epsilon": args.epsilon,
              "radius_cells": args.radius}
    cells = interior_probe(hist, args.radius)   # before any write: it checks the radius
    if args.out:
        with atomic_writer(args.out) as fh:
            hist.to_csv(fh, config=config)
    # one histogram, so the fraction of seeds with an interior is 1 or 0
    report = json.dumps({"cell_size": hist.cell_size, "radius_cells": args.radius,
                         "interior_cells": cells.tolist(),
                         "fraction_of_seeds_with_interior": 1.0 if len(cells) else 0.0,
                         "config": config})
    print(report)
    if args.interior:
        with atomic_writer(args.interior) as fh:
            fh.write(report)
    return EXIT_OK


def _cmd_gauss_sweep(args):
    indices = {k: v for k, v in vars(args).items() if k in ("hurst", "alpha_p") and v is not None}
    if args.sweep == "detcov":
        if indices:
            raise ConfigError("--hurst and --alpha-p apply only to --sweep lnd")
        records = detcov_margin_sweep(args.configs, seed=args.seed)
        worst = min(r["margin"] for r in records)
        print(json.dumps({"sweep": "detcov", "configs": len(records),
                          "min_margin": worst}))
    else:
        records, inf_ratio = lnd_margin_sweep(args.configs, seed=args.seed, **indices)
        print(json.dumps({"sweep": "lnd", "configs": len(records),
                          "inf_ratio": inf_ratio}))
    if args.out:
        with atomic_writer(args.out) as fh:
            writer = csv.DictWriter(fh, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)
    return EXIT_OK


def _cmd_experiment(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from None
    config = ExperimentConfig.from_json(text)
    rows = run_experiment(config, out_dir=args.out, workers=args.workers)
    n_pass = sum(1 for r in rows if r.passed)
    n_flag = sum(1 for r in rows if r.passed is not None)
    print(f"{len(rows)} rows ({n_pass}/{n_flag} passed) -> {args.out}/report.csv")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="parafbm",
                     description="fractional Brownian motion laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a path and write CSV")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--alpha-p", dest="alpha_p", type=float, default=None,
                   help="second Hurst index: generate the mixed process")
    p.add_argument("--n", type=int, required=True, help="grid points on [0, 1]")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed2", type=int, default=None,
                   help="second seed for the mixed process")
    p.add_argument("--out", default="path.csv")
    p.add_argument("--meta", default=None, help="write the JSON envelope here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("boxdim", help="box-dimension estimate of a graph CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--deltas", default="2^-4..2^-12",
                   help='scale ladder, e.g. "2^-4..2^-12" or comma list')
    p.add_argument("--max-count-fraction", type=float, default=DEFAULT_MAX_COUNT_FRACTION)
    p.add_argument("--out", default=None, help="write the estimate JSON here")
    p.add_argument("--curve", default=None, help="write the (delta,count) CSV here")
    p.set_defaults(func=_cmd_boxdim)

    p = sub.add_parser("energy", help="pairwise energy sum of a graph CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("occupancy", help="occupation histogram + interior probe")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--out", default=None, help="write sparse histogram CSV here")
    p.add_argument("--interior", default=None, help="write interior JSON here")
    p.set_defaults(func=_cmd_occupancy)

    p = sub.add_parser("gauss-sweep", help="randomized Gaussian identity sweeps")
    p.add_argument("--sweep", choices=["detcov", "lnd"], required=True)
    p.add_argument("--configs", type=int, default=1000)
    p.add_argument("--hurst", type=float, help="lnd only")
    p.add_argument("--alpha-p", dest="alpha_p", type=float, help="lnd only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gauss_sweep)

    p = sub.add_parser("experiment", help="run a configured experiment suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="cell parallelism (default 1)")
    p.set_defaults(func=_cmd_experiment)
    return parser


def cli_main(argv=None):
    """Entry point returning the exit code (0 ok, 1 config error, 2 numerical)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:   # OSError: a file unreadable or misplaced
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
