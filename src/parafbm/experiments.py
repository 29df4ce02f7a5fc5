"""Configuration-driven experiments comparing estimators to closed-form predictions.

Configs are versioned JSON with strict key checking (an unknown key is an
error: a typo in a Hurst parameter must not pass silently).  Each experiment
cell produces one or more report rows; rows are appended to report.csv as
cells complete, in deterministic cell order, with the config hash embedded so
reruns are comparable.  Almost-sure statements are operationalized as
seed-fraction thresholds at finite resolution; the threshold and resolution
appear in every row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    "run_dim_formula_experiment",
    "run_theorem41_experiment",
    "run_remaining_experiments",
    "build_set",
    "lipschitz_drift",
]

SCHEMA_VERSION = 1

KINDS = (
    "dim-formula",
    "holder-bounds",
    "comparison-bounds",
    "kernel-scaling",
    "occupation-l2",
    "interior",
    "theorem41",
)

WORKERS_ENV = "PARAFBM_WORKERS"

_TOP_KEYS = {"schema_version", "kind", "seeds", "seed_base", "params"}

_PARAM_KEYS = {
    "dim-formula": {
        "cells", "grid_n", "delta_coarse_exp", "delta_fine_exp", "per_octave",
        "min_r_squared", "trim_octaves", "max_count_fraction",
    },
    "holder-bounds": {
        "cells", "grid_n", "delta_coarse_exp", "delta_fine_exp", "per_octave",
        "margin", "trim_octaves", "max_count_fraction",
    },
    "comparison-bounds": {
        "cells", "grid_n", "delta_coarse_exp", "delta_fine_exp", "per_octave",
        "margin", "trim_octaves", "max_count_fraction",
    },
    "kernel-scaling": {"cells", "n_samples", "t_exponents", "rel_tolerance"},
    "occupation-l2": {"cells", "n_samples", "grid_n", "radius_exponents",
                      "max_ratio", "slope_tolerance"},
    "interior": {"cells", "n_samples", "grid_n"},
    "theorem41": {"cells", "n_samples", "grid_n"},
}

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
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version} "
                f"(expected {SCHEMA_VERSION})"
            )
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        object.__setattr__(self, "seeds", validate_integer(self.seeds, "seeds"))
        object.__setattr__(self, "seed_base", validate_integer(self.seed_base, "seed_base"))
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if self.seed_base < 0:
            raise ConfigError("seed_base must be >= 0")
        allowed = _PARAM_KEYS[self.kind]
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigError(
                f"unknown params for {self.kind}: {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})"
            )
        if "cells" not in self.params or not self.params["cells"]:
            raise ConfigError("params.cells must be a non-empty list")

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
            schema_version=int(doc.get("schema_version", SCHEMA_VERSION)),
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
    """Construct a FractalSet from its JSON spec."""
    unknown = set(spec) - _SET_KEYS
    if unknown:
        raise ConfigError(f"unknown set keys: {sorted(unknown)}")
    kind = spec.get("kind", "full")
    if kind in ("full", "full-interval"):
        return full_interval()
    if kind == "middle-thirds":
        return middle_thirds_cantor(int(spec.get("generation", 8)))
    if kind == "generalized-cantor":
        k = int(spec.get("generation", 8))
        m = int(spec.get("m", 2))
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
# cell runners (module-level so the process pool can pickle them)

def _graph_dim_cell(cell, common, seeds, seed_base):
    """Median graph-dimension estimate of a B^alpha sample over the cell's set."""
    alpha = cell["alpha"]
    hurst = cell["hurst"]
    d = int(cell["d"])
    fset = build_set(cell.get("set", {"kind": "full"}))
    grid = TimeGrid.regular(common["grid_n"])
    deltas = dyadic_deltas(
        common["delta_coarse_exp"], common["delta_fine_exp"], common["per_octave"]
    )
    fit_kwargs = {}
    if "trim_octaves" in common:
        fit_kwargs["trim_octaves"] = common["trim_octaves"]
    if "max_count_fraction" in common:
        fit_kwargs["max_count_fraction"] = common["max_count_fraction"]
    exponents, r2s, npts = [], [], []
    for s in range(seeds):
        path = generate_fbm_path(alpha, grid, d=d, seed=seed_base + s)
        cloud = GraphCloud.from_path(path, h_context=hurst)
        if fset.kind != "full-interval":
            cloud = cloud.restrict(fset)
        est = estimate_parabolic_dimension(cloud, deltas, hurst, **fit_kwargs)
        exponents.append(est.exponent)
        r2s.append(est.r_squared)
        npts.append(est.n_points_used)
    return {
        "dim_a": fset.theoretical_dim,
        "estimate": _median(exponents),
        "r_squared": _median(r2s),
        "n_fit_points": _median(npts),
    }


def _dim_formula_cell(cell, common, seeds, seed_base, config_hash):
    t0 = time.perf_counter()
    out = _graph_dim_cell(cell, common, seeds, seed_base)
    theory = theoretical_graph_dimension(
        cell["alpha"], cell["hurst"], out["dim_a"], int(cell["d"])
    )
    tol = float(cell.get("tolerance", 0.1 if int(cell["d"]) == 1 else 0.15))
    diag = {
        "r_squared": out["r_squared"],
        "r_squared_ok": out["r_squared"] >= common["min_r_squared"],
        "n_fit_points": out["n_fit_points"],
        "seeds": seeds,
        "dim_a": out["dim_a"],
        "grid_n": common["grid_n"],
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    return [ReportRow(
        kind="dim-formula", cell=cell, theory=theory,
        estimate=out["estimate"], tolerance=tol, diagnostics=diag,
        config_hash=config_hash,
    )]


def _holder_bounds_cell(cell, common, seeds, seed_base, config_hash):
    t0 = time.perf_counter()
    out = _graph_dim_cell(cell, common, seeds, seed_base)
    dim_a = out["dim_a"]
    alpha, hurst, d = cell["alpha"], cell["hurst"], int(cell["d"])
    lower = dim_a
    upper = theoretical_graph_dimension(alpha, hurst, dim_a, d)
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
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    return [ReportRow(
        kind="holder-bounds", cell=cell, theory=None, estimate=est,
        tolerance=None, diagnostics=diag, config_hash=config_hash,
    )]


def _comparison_bounds_cell(cell, common, seeds, seed_base, config_hash):
    t0 = time.perf_counter()
    hurst, hurst_prime = cell["hurst"], cell["hurst_prime"]
    base = {k: v for k, v in cell.items() if k != "hurst_prime"}
    out_h = _graph_dim_cell(base, common, seeds, seed_base)
    out_hp = _graph_dim_cell({**base, "hurst": hurst_prime}, common, seeds, seed_base)
    lower, upper = comparison_bounds(out_h["estimate"], hurst, hurst_prime, int(cell["d"]))
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
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    return [ReportRow(
        kind="comparison-bounds", cell=cell, theory=None, estimate=est,
        tolerance=None, diagnostics=diag, config_hash=config_hash,
    )]


def _kernel_scaling_cell(cell, common, seeds, seed_base, config_hash):
    t0 = time.perf_counter()
    alpha, hurst, gamma, d = cell["alpha"], cell["hurst"], cell["gamma"], int(cell["d"])
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


def _occupation_l2_cell(cell, common, seeds, seed_base, config_hash):
    t0 = time.perf_counter()
    hurst, d = cell["hurst"], int(cell["d"])
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


def _interior_like_cell(kind, cell, common, seeds, seed_base, config_hash):
    t0 = time.perf_counter()
    hurst, d = cell["hurst"], int(cell["d"])
    epsilon = float(cell["epsilon"])
    radius = int(cell.get("radius_cells", 2))
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


_COMMON_DEFAULTS = {
    "dim-formula": {
        "grid_n": 2**14, "delta_coarse_exp": 4, "delta_fine_exp": 12,
        "per_octave": 2, "min_r_squared": 0.98,
    },
    "holder-bounds": {
        "grid_n": 2**14, "delta_coarse_exp": 4, "delta_fine_exp": 12,
        "per_octave": 2, "margin": 0.1,
    },
    "comparison-bounds": {
        "grid_n": 2**14, "delta_coarse_exp": 4, "delta_fine_exp": 12,
        "per_octave": 2, "margin": 0.1,
    },
    "kernel-scaling": {
        "n_samples": 10**6, "t_exponents": list(range(1, 9)),
        "rel_tolerance": 0.05,
    },
    "occupation-l2": {
        "n_samples": 4096, "grid_n": 2**14,
        "radius_exponents": [4, 5, 6, 7, 8, 9, 10],
        "max_ratio": 3.0, "slope_tolerance": 0.1,
    },
    "interior": {"n_samples": 2**14, "grid_n": 2**14},
    "theorem41": {"n_samples": 2**14, "grid_n": 2**14},
}

_CELL_RUNNERS = {
    "dim-formula": _dim_formula_cell,
    "holder-bounds": _holder_bounds_cell,
    "comparison-bounds": _comparison_bounds_cell,
    "kernel-scaling": _kernel_scaling_cell,
}


def _run_one_cell(args):
    kind, cell, common, seeds, seed_base, config_hash = args
    if kind in _CELL_RUNNERS:
        rows = _CELL_RUNNERS[kind](cell, common, seeds, seed_base, config_hash)
    elif kind == "occupation-l2":
        rows = _occupation_l2_cell(cell, common, seeds, seed_base, config_hash)
    elif kind in ("interior", "theorem41"):
        rows = _interior_like_cell(kind, cell, common, seeds, seed_base, config_hash)
    else:
        raise ConfigError(f"unknown kind {kind!r}")
    return rows


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


def _atomic_write_text(path, text):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def run_experiment(config, out_dir=None, workers=None):
    """Run every cell of the configured experiment; returns the report rows.

    Cells execute in deterministic order (sorted by their canonical JSON);
    each completed cell is appended to <out_dir>/report.csv immediately, so
    an abort keeps the finished rows.  ``workers`` > 1 distributes cells over
    a process pool (default from the PARAFBM_WORKERS environment variable);
    results are committed in cell order either way.
    """
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    common = dict(_COMMON_DEFAULTS[config.kind])
    common.update({k: v for k, v in config.params.items() if k != "cells"})
    cells = sorted(config.params["cells"], key=_cell_sort_key)
    chash = config.config_hash()

    report_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(
            out_dir / "config.json",
            json.dumps(config.to_dict(), indent=2, sort_keys=True),
        )
        report_path = out_dir / "report.csv"
        if report_path.exists():
            report_path.unlink()

    jobs = [
        (config.kind, cell, common, config.seeds, config.seed_base, chash)
        for cell in cells
    ]
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


def run_dim_formula_experiment(config, out_dir=None, workers=None):
    """Graph-dimension formula experiment (kind "dim-formula")."""
    if config.kind != "dim-formula":
        raise ConfigError("config kind must be dim-formula")
    return run_experiment(config, out_dir, workers)


def run_theorem41_experiment(config, out_dir=None, workers=None):
    """Holder-drift interior experiment (kind "theorem41")."""
    if config.kind != "theorem41":
        raise ConfigError("config kind must be theorem41")
    return run_experiment(config, out_dir, workers)


def run_remaining_experiments(config, out_dir=None, workers=None):
    """Any of the remaining kinds: holder/comparison bounds, kernel scaling, occupation, interior."""
    if config.kind not in (
        "holder-bounds", "comparison-bounds", "kernel-scaling",
        "occupation-l2", "interior",
    ):
        raise ConfigError(f"unsupported kind {config.kind!r} for run_remaining_experiments")
    return run_experiment(config, out_dir, workers)


def gauss_sweep_csv(records, file):
    """Write gaussian sweep records (config hash + margin/ratio) as CSV."""
    close = False
    if isinstance(file, (str, bytes, Path)):
        file = open(file, "w", newline="")
        close = True
    try:
        fields = list(records[0].keys())
        writer = csv.DictWriter(file, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
    finally:
        if close:
            file.close()
