"""Configuration-driven experiments comparing estimators to closed-form predictions.

Configs are versioned JSON with strict key checking: an unknown top-level or
``params`` key is an error, and so is a cell that lacks one of its kind's
required keys (a typo in a Hurst parameter must not pass silently).  Any
other cell key is a label, echoed into the report's ``cell`` column.  Each
kind declares its defaults, keys, runner and job grouping once, in
``_KIND_SPECS``.  Each experiment cell produces one or more report rows;
rows are appended to report.csv as jobs complete, in deterministic cell
order, with the config hash embedded so reruns are comparable.  A job is one
cell, or a run of graph-dimension cells that measure the same sample paths.
Almost-sure statements are operationalized as seed-fraction thresholds at
finite resolution; the threshold and resolution appear in every row.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, InfeasibleParameters
from .estimators import (
    GraphCloud,
    dyadic_deltas,
    estimate_parabolic_dimension,
    kernel_expectation_mc,
)
from .fbm import TimeGrid, generate_fbm_path, generate_mixed_path, validate_integer
from .fractals import (
    WeightedTimeSet,
    full_interval,
    generalized_cantor,
    middle_thirds_cantor,
    sample_natural_measure,
)
from .geometry import comparison_bounds, theoretical_graph_dimension
from .occupation import (
    drifted_image,
    interior_fraction,
    l2_density_diagnostic,
    occupation_histogram,
)

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "run_experiment",
    "atomic_writer",
    "build_set",
    "lipschitz_drift",
]

SCHEMA_VERSION = 1

WORKERS_ENV = "PARAFBM_WORKERS"

_TOP_KEYS = {"schema_version", "kind", "seeds", "seed_base", "params"}

_SET_KEYS = {"kind", "generation", "m", "r", "dim"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    kind: str
    params: dict
    seeds: int = 20
    seed_base: int = 0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        version = validate_integer(self.schema_version, "schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )
        object.__setattr__(self, "schema_version", version)
        if not isinstance(self.kind, str) or self.kind not in _KIND_SPECS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be a JSON object")
        spec = _KIND_SPECS[self.kind]
        object.__setattr__(self, "seeds", validate_integer(self.seeds, "seeds"))
        object.__setattr__(self, "seed_base", validate_integer(self.seed_base, "seed_base"))
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if self.seed_base < 0:
            raise ConfigError("seed_base must be >= 0")
        allowed = spec.param_keys
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigError(
                f"unknown params for {self.kind}: {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})"
            )
        cells = self.params.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ConfigError("params.cells must be a non-empty list")
        for cell in cells:
            if not isinstance(cell, dict):
                raise ConfigError(f"each cell must be a JSON object, got {cell!r}")
            missing = [k for k in spec.cell_keys if k not in cell]
            if missing:
                raise ConfigError(f"{self.kind} cell {cell} lacks key(s) {missing}")

    @classmethod
    def from_dict(cls, doc):
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in doc:
            raise ConfigError("config needs a 'kind'")
        return cls(
            kind=doc["kind"],
            params=doc.get("params", {}),
            seeds=doc.get("seeds", 20),
            seed_base=doc.get("seed_base", 0),
            schema_version=doc.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(doc)

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "seeds": self.seeds,
            "seed_base": self.seed_base,
            "params": self.params,
        }

    def config_hash(self):
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ReportRow:
    """One experiment outcome: parameters, theory vs estimate, diagnostics."""

    kind: str
    cell: dict
    theory: float | None
    estimate: float
    tolerance: float | None
    passed: bool | None = field(init=False)
    diagnostics: dict = field(default_factory=dict)
    config_hash: str = ""

    def __post_init__(self):
        if self.theory is not None and self.tolerance is not None:
            ok = abs(self.estimate - self.theory) <= self.tolerance
        else:
            ok = self.diagnostics.get("threshold_pass")
        object.__setattr__(self, "passed", ok)

    def csv_record(self):
        diag = dict(self.diagnostics)
        runtime = diag.pop("runtime_s", "")
        return {
            "kind": self.kind,
            "cell": json.dumps(self.cell, sort_keys=True),
            "theory": "" if self.theory is None else repr(self.theory),
            "estimate": repr(self.estimate),
            "tolerance": "" if self.tolerance is None else repr(self.tolerance),
            "passed": "" if self.passed is None else str(bool(self.passed)),
            "diagnostics": json.dumps(diag, sort_keys=True),
            "config_hash": self.config_hash,
            "runtime_s": runtime,
        }


CSV_FIELDS = [
    "kind", "cell", "theory", "estimate", "tolerance", "passed",
    "diagnostics", "config_hash", "runtime_s",
]


def build_set(spec):
    """Construct a FractalSet from its JSON spec.

    ``generation`` and ``m`` must be whole numbers: 8.5 raises ConfigError
    rather than being truncated.
    """
    unknown = set(spec) - _SET_KEYS
    if unknown:
        raise ConfigError(f"unknown set keys: {sorted(unknown)}")
    kind = spec.get("kind", "full")
    if kind in ("full", "full-interval"):
        return full_interval()
    if kind == "middle-thirds":
        return middle_thirds_cantor(validate_integer(spec.get("generation", 8), "generation"))
    if kind == "generalized-cantor":
        k = validate_integer(spec.get("generation", 8), "generation")
        m = validate_integer(spec.get("m", 2), "m")
        if "dim" in spec:
            r = m ** (-1.0 / float(spec["dim"]))
        else:
            r = float(spec["r"])
        return generalized_cantor(m, r, k)
    raise ConfigError(f"unknown set kind {kind!r}")


def lipschitz_drift(grid, d):
    """Fixed 1-Lipschitz drift f_j(t) = t / (j + 1) on the grid, shape (d, n)."""
    t = grid.times
    return np.vstack([t / (j + 1.0) for j in range(d)])


def _median(xs):
    return float(np.median(np.asarray(xs, dtype=float)))


def _cell_sort_key(cell):
    return json.dumps(cell, sort_keys=True)


# ---------------------------------------------------------------------------
# cell runners: each takes (kind, cells, common, seeds, seed_base, config_hash)
# and returns the rows of its cells.  They look up the path, estimator and
# set builders as module globals at call time, so callers can wrap those.


def _cell_d(cell):
    """The cell's dimension d, a whole number >= 1 (1.5 raises, not truncated)."""
    d = validate_integer(cell["d"], "d")
    if d < 1:
        raise ConfigError("d must be >= 1")
    return d


def _path_key(cell):
    """(alpha, d): graph-dimension cells with equal keys measure the same paths."""
    return cell["alpha"], _cell_d(cell)


def _graph_dim_fits(fitted, cells, common, seeds, seed_base):
    """Median box-dimension fits of graph-dimension cells sharing one path key.

    Per seed, the B^alpha path and its graph cloud are made once and then
    restricted to, and fitted over, each cell's set: the paper's setting of
    one sample path and many sets A.  Each cell is fitted at the Hurst index
    of every key in ``fitted`` (H, or H and H' for comparison bounds) on the
    same cloud.  Returns, per cell, one summary per fitted index, and the
    seconds of each cell's own work; the first cell also carries the shared
    work (grid, paths, clouds).
    """
    t_start = time.perf_counter()
    alpha, d = _path_key(cells[0])
    fsets = [build_set(cell.get("set", {"kind": "full"})) for cell in cells]
    hursts = [tuple(cell[key] for key in fitted) for cell in cells]
    grid = TimeGrid.regular(common["grid_n"])
    deltas = dyadic_deltas(
        common["delta_coarse_exp"], common["delta_fine_exp"], common["per_octave"]
    )
    fit_kwargs = {
        k: common[k] for k in ("trim_octaves", "max_count_fraction") if k in common
    }
    fits = [[[] for _ in hs] for hs in hursts]
    own = [0.0] * len(cells)
    for s in range(seeds):
        path = generate_fbm_path(alpha, grid, d=d, seed=seed_base + s)
        cloud = GraphCloud.from_path(path)
        for i, (fset, hs) in enumerate(zip(fsets, hursts)):
            t0 = time.perf_counter()
            sub = cloud if fset.kind == "full-interval" else cloud.restrict(fset)
            for j, hurst in enumerate(hs):
                fits[i][j].append(
                    estimate_parabolic_dimension(sub, deltas, hurst, **fit_kwargs)
                )
            own[i] += time.perf_counter() - t0
    own[0] = time.perf_counter() - t_start - sum(own[1:])
    summaries = [
        [
            {
                "dim_a": fset.theoretical_dim,
                "estimate": _median([e.exponent for e in ests]),
                "r_squared": _median([e.r_squared for e in ests]),
                "n_fit_points": _median([e.n_points_used for e in ests]),
            }
            for ests in cell_fits
        ]
        for fset, cell_fits in zip(fsets, fits)
    ]
    return summaries, own


def _dim_formula_row(cell, fits, common, seeds, config_hash, runtime):
    (out,) = fits
    d = _cell_d(cell)
    theory = theoretical_graph_dimension(cell["alpha"], cell["hurst"], out["dim_a"], d)
    tol = float(cell.get("tolerance", 0.1 if d == 1 else 0.15))
    diag = {
        "r_squared": out["r_squared"],
        "r_squared_ok": out["r_squared"] >= common["min_r_squared"],
        "n_fit_points": out["n_fit_points"],
        "seeds": seeds,
        "dim_a": out["dim_a"],
        "grid_n": common["grid_n"],
        "runtime_s": round(runtime, 3),
    }
    return ReportRow(
        kind="dim-formula", cell=cell, theory=theory,
        estimate=out["estimate"], tolerance=tol, diagnostics=diag,
        config_hash=config_hash,
    )


def _holder_bounds_row(cell, fits, common, seeds, config_hash, runtime):
    (out,) = fits
    dim_a = out["dim_a"]
    lower = dim_a
    upper = theoretical_graph_dimension(cell["alpha"], cell["hurst"], dim_a, _cell_d(cell))
    margin = common["margin"]
    est = out["estimate"]
    ok = (lower - margin) <= est <= (upper + margin)
    diag = {
        "lower": lower,
        "upper": upper,
        "margin": margin,
        "threshold_pass": bool(ok),
        "r_squared": out["r_squared"],
        "seeds": seeds,
        "grid_n": common["grid_n"],
        "runtime_s": round(runtime, 3),
    }
    return ReportRow(
        kind="holder-bounds", cell=cell, theory=None, estimate=est,
        tolerance=None, diagnostics=diag, config_hash=config_hash,
    )


def _comparison_bounds_row(cell, fits, common, seeds, config_hash, runtime):
    out_h, out_hp = fits
    lower, upper = comparison_bounds(
        out_h["estimate"], cell["hurst"], cell["hurst_prime"], _cell_d(cell)
    )
    margin = common["margin"]
    est = out_hp["estimate"]
    ok = (lower - margin) <= est <= (upper + margin)
    diag = {
        "estimate_h": out_h["estimate"],
        "lower": lower,
        "upper": upper,
        "margin": margin,
        "threshold_pass": bool(ok),
        "seeds": seeds,
        "grid_n": common["grid_n"],
        "runtime_s": round(runtime, 3),
    }
    return ReportRow(
        kind="comparison-bounds", cell=cell, theory=None, estimate=est,
        tolerance=None, diagnostics=diag, config_hash=config_hash,
    )


def _graph_dim_rows(row, fitted, kind, cells, common, seeds, seed_base, config_hash):
    """Rows of a run of graph-dimension cells with one path key, built by ``row``."""
    fits, own = _graph_dim_fits(fitted, cells, common, seeds, seed_base)
    return [
        row(cell, cell_fits, common, seeds, config_hash, runtime)
        for cell, cell_fits, runtime in zip(cells, fits, own)
    ]


def _kernel_scaling_rows(kind, cells, common, seeds, seed_base, config_hash):
    (cell,) = cells
    t0 = time.perf_counter()
    alpha, hurst, gamma, d = cell["alpha"], cell["hurst"], cell["gamma"], _cell_d(cell)
    ks = common["t_exponents"]
    ts = np.array([2.0**-k for k in ks])
    vals = [
        kernel_expectation_mc(
            t, alpha, hurst, gamma, d, common["n_samples"], seed=seed_base + i
        )
        for i, t in enumerate(ts)
    ]
    slope = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
    if gamma < hurst * d:
        theory = -gamma * alpha / hurst
        branch = "gamma<Hd"
    else:
        theory = d * (hurst - alpha) - gamma
        branch = "gamma>Hd"
    tol = common["rel_tolerance"] * abs(theory)
    diag = {
        "branch": branch,
        "n_samples": common["n_samples"],
        "t_exponents": list(ks),
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    return [ReportRow(
        kind="kernel-scaling", cell=cell, theory=theory, estimate=slope,
        tolerance=tol, diagnostics=diag, config_hash=config_hash,
    )]


def _drift_values(drift_kind, grid, d):
    if drift_kind in (None, "zero"):
        return np.zeros((d, len(grid)))
    if drift_kind == "lipschitz":
        return lipschitz_drift(grid, d)
    raise ConfigError(f"unknown drift {drift_kind!r}")


def _snap_to_grid(samples, grid):
    """Round sample times to grid nodes, merging duplicate weights.

    Pair-distance diagnostics need this: linear interpolation between nodes
    makes sub-grid pairs look far closer in value space than the process
    roughness allows, so the sampling measure is discretized to the grid.
    """
    t = grid.times
    idx = np.clip(np.searchsorted(t, samples.times), 1, t.size - 1)
    idx = np.where(
        np.abs(samples.times - t[idx - 1]) <= np.abs(samples.times - t[idx]),
        idx - 1, idx,
    )
    uniq, inv = np.unique(idx, return_inverse=True)
    weights = np.bincount(inv, weights=samples.weights)
    return WeightedTimeSet(times=t[uniq], weights=weights / weights.sum())


def _occupation_l2_rows(kind, cells, common, seeds, seed_base, config_hash):
    (cell,) = cells
    t0 = time.perf_counter()
    hurst, d = cell["hurst"], _cell_d(cell)
    fset = build_set(cell.get("set", {"kind": "full"}))
    radii = 2.0 ** -np.asarray(common["radius_exponents"], dtype=float)
    grid = TimeGrid.regular(common["grid_n"])
    samples = _snap_to_grid(
        sample_natural_measure(fset, common["n_samples"], seed=seed_base), grid
    )
    if cell.get("path", "fbm") == "constant":
        images = [np.zeros((len(samples), d))]
    else:
        drift = _drift_values(cell.get("drift", "zero"), grid, d)
        images = []
        for s in range(seeds):
            path = generate_fbm_path(hurst, grid, d=d, seed=seed_base + s)
            _, img = drifted_image(path, drift, samples)
            images.append(img)
    vals = l2_density_diagnostic(images, samples.weights, radii)
    rows = []
    base_diag = {
        "values": [float(v) for v in vals],
        "radius_exponents": list(common["radius_exponents"]),
        "seeds": seeds,
        "n_samples": common["n_samples"],
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    if cell.get("check", "bounded") == "bounded":
        ratio = float(vals.max() / vals.min())
        diag = dict(base_diag, max_ratio_allowed=common["max_ratio"],
                    threshold_pass=bool(ratio <= common["max_ratio"]))
        rows.append(ReportRow(
            kind="occupation-l2", cell=cell, theory=None, estimate=ratio,
            tolerance=None, diagnostics=diag, config_hash=config_hash,
        ))
    else:  # divergence slope for the no-density control
        slope = float(np.polyfit(np.log(radii), np.log(vals), 1)[0])
        theory = -float(d)
        tol = common["slope_tolerance"] * d
        rows.append(ReportRow(
            kind="occupation-l2", cell=cell, theory=theory, estimate=slope,
            tolerance=tol, diagnostics=base_diag, config_hash=config_hash,
        ))
    return rows


def _interior_rows(kind, cells, common, seeds, seed_base, config_hash):
    (cell,) = cells
    t0 = time.perf_counter()
    hurst, d = cell["hurst"], _cell_d(cell)
    epsilon = float(cell["epsilon"])
    radius = validate_integer(cell.get("radius_cells", 2), "radius_cells")
    expect = cell.get("expect", "interior")
    threshold = float(cell.get("threshold", 0.9))
    alpha_p = cell.get("alpha_p")
    fset = build_set(cell.get("set", {"kind": "full"}))
    if kind == "theorem41" and alpha_p is not None and expect != "evidence":
        if alpha_p * d >= fset.theoretical_dim:
            raise InfeasibleParameters(
                f"alpha'*d = {alpha_p * d} >= dim(A) = {fset.theoretical_dim}"
            )
    samples = sample_natural_measure(fset, common["n_samples"], seed=seed_base)
    grid = TimeGrid.regular(common["grid_n"])
    zeros = np.zeros((d, len(grid)))
    hists = []
    for s in range(seeds):
        if kind == "theorem41" and alpha_p is not None:
            path = generate_mixed_path(
                hurst, alpha_p, grid, d=d,
                seed_pair=(seed_base + 2 * s, seed_base + 2 * s + 1),
            )
            drift = zeros
        else:
            path = generate_fbm_path(hurst, grid, d=d, seed=seed_base + s)
            drift = _drift_values(cell.get("drift", "zero"), grid, d)
        w, img = drifted_image(path, drift, samples)
        hists.append(occupation_histogram(w, img, epsilon))
    frac, _reports = interior_fraction(hists, radius)
    if expect == "interior":
        ok = frac >= threshold
    elif expect == "no-interior":
        ok = frac <= threshold
    else:  # evidence: recorded, not thresholded
        ok = None
    diag = {
        "expect": expect,
        "threshold": threshold,
        "threshold_pass": ok,
        "epsilon": epsilon,
        "radius_cells": radius,
        "seeds": seeds,
        "n_samples": common["n_samples"],
        "grid_n": common["grid_n"],
        "dim_a": fset.theoretical_dim,
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    return [ReportRow(
        kind=kind, cell=cell, theory=None, estimate=frac, tolerance=None,
        diagnostics=diag, config_hash=config_hash,
    )]


@dataclass(frozen=True)
class _KindSpec:
    """Everything the runner knows about one experiment kind.

    ``defaults`` are its param defaults, ``optional`` the param keys allowed
    with no default, ``cell_keys`` the keys every cell must carry, ``run``
    its runner, and ``shares_paths`` whether adjacent cells with one
    (alpha, d) form one job.
    """

    defaults: dict
    cell_keys: tuple
    run: Callable
    optional: frozenset = frozenset()
    shares_paths: bool = False

    @property
    def param_keys(self):
        return {"cells", *self.defaults, *self.optional}


def _graph_spec(row, defaults, fitted=("hurst",)):
    return _KindSpec(
        defaults={"grid_n": 2**14, "delta_coarse_exp": 4, "delta_fine_exp": 12,
                  "per_octave": 2, **defaults},
        cell_keys=("alpha", *fitted, "d"),
        run=partial(_graph_dim_rows, row, fitted),
        optional=frozenset({"trim_octaves", "max_count_fraction"}),
        shares_paths=True,
    )


_INTERIOR_SPEC = _KindSpec(
    defaults={"n_samples": 2**14, "grid_n": 2**14},
    cell_keys=("hurst", "d", "epsilon"),
    run=_interior_rows,
)

_KIND_SPECS = {
    "dim-formula": _graph_spec(_dim_formula_row, {"min_r_squared": 0.98}),
    "holder-bounds": _graph_spec(_holder_bounds_row, {"margin": 0.1}),
    "comparison-bounds": _graph_spec(
        _comparison_bounds_row, {"margin": 0.1}, fitted=("hurst", "hurst_prime")
    ),
    "kernel-scaling": _KindSpec(
        defaults={"n_samples": 10**6, "t_exponents": list(range(1, 9)),
                  "rel_tolerance": 0.05},
        cell_keys=("alpha", "hurst", "gamma", "d"),
        run=_kernel_scaling_rows,
    ),
    "occupation-l2": _KindSpec(
        defaults={"n_samples": 4096, "grid_n": 2**14,
                  "radius_exponents": [4, 5, 6, 7, 8, 9, 10],
                  "max_ratio": 3.0, "slope_tolerance": 0.1},
        cell_keys=("hurst", "d"),
        run=_occupation_l2_rows,
    ),
    "interior": _INTERIOR_SPEC,
    "theorem41": _INTERIOR_SPEC,
}


def _run_one_cell(args):
    """Report rows of one job, in cell order.

    ``args`` is (kind, cells, common, seeds, seed_base, config_hash).  For the
    kinds that share paths ``cells`` is a run of cells with one path key,
    which share each seed's path; for the other kinds it holds one cell.
    """
    return _KIND_SPECS[args[0]].run(*args)


def _cell_runs(kind, cells):
    """Sorted cells split into jobs: contiguous runs of one path key for the
    kinds that share paths, one cell each otherwise."""
    if _KIND_SPECS[kind].shares_paths:
        return [list(run) for _, run in itertools.groupby(cells, key=_path_key)]
    return [[cell] for cell in cells]


def _append_rows(report_path, rows):
    """Append rows to the CSV, header first if new, flushed and synced per call."""
    if report_path is None:
        return
    new = not report_path.exists() or report_path.stat().st_size == 0
    with open(report_path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if new:
            writer.writeheader()
        for row in rows:
            writer.writerow(row.csv_record())
        fh.flush()
        os.fsync(fh.fileno())


@contextmanager
def atomic_writer(path):
    """Write a file atomically: yields a handle on ``<path>.tmp``, which
    replaces ``path`` once the block exits without an exception."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        yield fh
    os.replace(tmp, path)


def _env_workers():
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        return validate_integer(json.loads(text), WORKERS_ENV)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None


def run_experiment(config, out_dir=None, workers=None):
    """Run every cell of the configured experiment; returns the report rows.

    Cells execute in deterministic order (sorted by their canonical JSON).
    Graph-dimension cells that follow each other with the same (alpha, d)
    form one job that draws each seed's path once; every other cell is a job
    of its own.  Each completed job's rows are appended to
    <out_dir>/report.csv immediately, so an abort keeps the finished rows.
    ``workers`` > 1 distributes jobs over a process pool (default from the
    PARAFBM_WORKERS environment variable), at most one worker per job; rows
    are committed in cell order either way.
    """
    workers = _env_workers() if workers is None else validate_integer(workers, "workers")
    common = dict(_KIND_SPECS[config.kind].defaults)
    common.update({k: v for k, v in config.params.items() if k != "cells"})
    cells = sorted(config.params["cells"], key=_cell_sort_key)
    chash = config.config_hash()

    report_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with atomic_writer(out_dir / "config.json") as fh:
            json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        report_path = out_dir / "report.csv"
        if report_path.exists():
            report_path.unlink()

    jobs = [
        (config.kind, run, common, config.seeds, config.seed_base, chash)
        for run in _cell_runs(config.kind, cells)
    ]
    workers = min(workers, len(jobs))
    all_rows = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rows in pool.map(_run_one_cell, jobs):
                _append_rows(report_path, rows)
                all_rows.extend(rows)
    else:
        for job in jobs:
            rows = _run_one_cell(job)
            _append_rows(report_path, rows)
            all_rows.extend(rows)
    return all_rows
