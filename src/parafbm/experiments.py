"""Configuration-driven experiments comparing estimators to closed-form predictions.

Configs are versioned JSON with strict key checking: an unknown top-level,
``params`` or cell key is an error, and so is a cell that lacks one of its
kind's required keys (a typo in a Hurst parameter must not pass silently)
or gives a word-valued key a value outside ``_CELL_CHOICES``.  Every cell
value is checked when the config is built, before anything is written.  The
one free-form cell key is ``label``, echoed into the report's ``cell``
column with the rest of the cell.  Each kind declares its params (each checked by
the type of its default), keys, runner and job grouping once, in
``_KIND_SPECS``.  Each experiment cell produces one report row; rows are
appended to report.csv as jobs complete, in deterministic cell order, with
the config hash embedded so reruns are comparable.  A job is one cell, or a
run of graph-dimension cells that measure the same sample paths.
Almost-sure statements are operationalized as seed-fraction thresholds at
finite resolution; the threshold and resolution appear in every row.
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import itertools
import json
import math
import numbers
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateRange, InfeasibleParameters
from .estimators import (
    GraphCloud,
    dyadic_deltas,
    estimate_parabolic_dimension,
    kernel_expectation_mc,
)
from .fbm import (
    TimeGrid,
    generate_fbm_path,
    generate_mixed_path,
    validate_count,
    validate_hurst,
    validate_integer,
)
from .fractals import (
    WeightedTimeSet,
    full_interval,
    generalized_cantor,
    middle_thirds_cantor,
    sample_natural_measure,
)
from .geometry import comparison_bounds, holder_graph_bounds, theoretical_graph_dimension
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

_SET_KEYS = {"kind", "generation", "m", "r", "dim"}

#: the values each word-valued cell key may take, its default first
_CELL_CHOICES = {"check": ("bounded", "slope"), "path": ("fbm", "constant"),
                 "expect": ("interior", "no-interior", "evidence"),
                 "drift": ("zero", "lipschitz")}

#: the real-valued cell keys, each checked as a finite number at load
_CELL_REALS = ("epsilon", "threshold", "tolerance", "gamma")

#: the Hurst-index cell keys, each checked in (0, 1) at load (alpha_p may be null)
_CELL_HURSTS = ("alpha", "hurst", "hurst_prime", "alpha_p")

#: the whole-number cell keys, each checked >= 1 at load
_CELL_COUNTS = ("d", "radius_cells")


def _is_real(value):
    """A finite real number that is not a bool (JSON true is not 1)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
            and math.isfinite(value))


def _is_exponent_list(value):
    """A list of at least two whole numbers: the points of a log-log fit."""
    return (isinstance(value, list) and len(value) >= 2
            and all(_is_real(k) and float(k).is_integer() for k in value))


def _check_param(key, value, default):
    """Check a param by the type of its default: a whole number, a real or a list."""
    if isinstance(default, int):
        validate_integer(value, key)
    elif isinstance(default, float) and not _is_real(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    elif isinstance(default, list) and not _is_exponent_list(value):
        raise ConfigError(f"{key} must be a list of at least two whole numbers, got {value!r}")


def _nearest(word, valid):
    return difflib.get_close_matches(str(word), valid, n=1, cutoff=0.0)[0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    kind: str
    params: dict = field(default_factory=dict)
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
        object.__setattr__(self, "seeds", validate_count(self.seeds, "seeds"))
        object.__setattr__(self, "seed_base", validate_integer(self.seed_base, "seed_base"))
        if self.seed_base < 0:
            raise ConfigError("seed_base must be >= 0")
        allowed = {"cells", *spec.defaults}
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigError(
                f"unknown params for {self.kind}: {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})"
            )
        for key, value in self.params.items():
            if key != "cells":
                _check_param(key, value, spec.defaults[key])
        validate_count(self.params.get("per_octave", 1), "per_octave")
        cells = self.params.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ConfigError("params.cells must be a non-empty list")
        valid = [*spec.cell_keys, *spec.cell_optional, "label"]
        for cell in cells:
            if not isinstance(cell, dict):
                raise ConfigError(f"each cell must be a JSON object, got {cell!r}")
            for key, value in cell.items():
                if key not in valid:
                    raise ConfigError(
                        f"unknown {self.kind} cell key {key!r} (did you mean "
                        f"{_nearest(key, valid)!r}? allowed: {sorted(valid)})"
                    )
                if key in _CELL_REALS:
                    _check_param(key, value, 0.0)
                elif key in _CELL_HURSTS and not (key == "alpha_p" and value is None):
                    validate_hurst(value, key)
                elif key in _CELL_COUNTS:
                    validate_count(value, key)
                elif key == "set":
                    if not isinstance(value, dict):
                        raise ConfigError(f"set must be a JSON object, got {value!r}")
                    build_set(value)
                choices = _CELL_CHOICES.get(key)
                if choices and value not in choices:
                    raise ConfigError(
                        f"unknown {key} {value!r} in {self.kind} cell (did you mean "
                        f"{_nearest(value, choices)!r}? allowed: {list(choices)})"
                    )
            if cell.get("epsilon", 1.0) <= 0.0:
                raise ConfigError(f"epsilon must be > 0, got {cell['epsilon']!r}")
            missing = [k for k in spec.cell_keys if k not in cell]
            if missing:
                raise ConfigError(f"{self.kind} cell {cell} lacks key(s) {missing}")
            if cell.get("alpha_p") is not None and "drift" in cell:
                raise ConfigError(f"{self.kind} cell {cell} has both alpha_p and drift: "
                                  "the mixed path is drawn without a drift")

    @classmethod
    def from_dict(cls, doc):
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in doc:
            raise ConfigError("config needs a 'kind'")
        return cls(**doc)

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
        return asdict(self)

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


CSV_FIELDS = [*(f.name for f in fields(ReportRow)), "runtime_s"]


def build_set(spec):
    """Construct a FractalSet from its JSON spec.

    ``generation`` and ``m`` must be whole numbers: 8.5 raises ConfigError
    rather than being truncated; a real ``r`` or a ``dim`` in (0, 1) sets the ratio.
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
            dim = spec["dim"]
            if not (_is_real(dim) and 0.0 < dim < 1.0):
                raise ConfigError(f"dim must be a number in (0, 1), got {dim!r}")
            r = m ** (-1.0 / float(dim))
        else:
            r = spec.get("r")
            if not _is_real(r):
                raise ConfigError(f"r must be a finite number, got {r!r}")
        return generalized_cantor(m, float(r), k)
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
# cell runners: each takes (cells, common, seeds, seed_base) and returns
# one outcome per cell, a dict of theory, estimate, tolerance and
# diagnostics; ``_run_one_cell`` turns the outcomes into report rows.  They
# look up the path, estimator and set builders as module globals at call
# time, so callers can wrap those.


def _cell_d(cell):
    """The cell's dimension d, a whole number >= 1 (1.5 raises, not truncated)."""
    return validate_count(cell["d"], "d")


def _path_key(cell):
    """alpha: graph-dimension cells with equal keys measure the same paths.

    Coordinate j of a path is drawn from its own stream whatever d is, so a
    d-dimensional path is the first d coordinates of any wider one.
    """
    return cell["alpha"]


def _graph_dim_rows(row, fitted, cells, common, seeds, seed_base):
    """Outcomes of a run of graph-dimension cells sharing one path key.

    Per seed, the B^alpha path is drawn once, at the largest d of the cells,
    and each cell's graph cloud, made from the path's first d coordinates,
    is restricted to, and fitted over, the cell's set: the paper's setting
    of one sample path and many sets A.  Each cell is fitted at the Hurst
    index of every key in ``fitted`` (H, or H and H' for comparison bounds)
    on the same cloud, and ``row`` turns the cell's median fits into its
    outcome.  A cell's ``runtime_s`` is its own work; the first cell's also
    holds the shared work (grid, paths, clouds).
    """
    t_start = time.perf_counter()
    alpha = _path_key(cells[0])
    dims = [_cell_d(cell) for cell in cells]
    fsets = [build_set(cell.get("set", {"kind": "full"})) for cell in cells]
    hursts = [tuple(cell[key] for key in fitted) for cell in cells]
    grid = TimeGrid.regular(common["grid_n"])
    deltas = dyadic_deltas(
        common["delta_coarse_exp"], common["delta_fine_exp"], common["per_octave"]
    )
    fits = [[[] for _ in hs] for hs in hursts]
    own = [0.0] * len(cells)
    for s in range(seeds):
        path = generate_fbm_path(alpha, grid, d=max(dims), seed=seed_base + s)
        clouds = {
            d: GraphCloud(times=grid.times, values=path.values[:d].T, h_context=alpha)
            for d in set(dims)
        }
        for i, (fset, hs) in enumerate(zip(fsets, hursts)):
            cloud = clouds[dims[i]]
            t0 = time.perf_counter()
            sub = cloud if fset.kind == "full-interval" else cloud.restrict(fset)
            for j, hurst in enumerate(hs):
                fits[i][j].append(estimate_parabolic_dimension(
                    sub, deltas, hurst, trim_octaves=common["trim_octaves"],
                    max_count_fraction=common["max_count_fraction"],
                ))
            own[i] += time.perf_counter() - t0
    own[0] = time.perf_counter() - t_start - sum(own[1:])
    outcomes = []
    for cell, fset, cell_fits, runtime in zip(cells, fsets, fits, own):
        summaries = [
            {
                "dim_a": fset.theoretical_dim,
                "estimate": _median([e.exponent for e in ests]),
                "r_squared": _median([e.r_squared for e in ests]),
                "n_fit_points": _median([e.n_points_used for e in ests]),
            }
            for ests in cell_fits
        ]
        out = row(cell, summaries, common)
        out["diagnostics"].update(
            seeds=seeds, grid_n=common["grid_n"], runtime_s=round(runtime, 3)
        )
        outcomes.append(out)
    return outcomes


def _dim_formula_row(cell, fits, common):
    (out,) = fits
    d = _cell_d(cell)
    theory = theoretical_graph_dimension(cell["alpha"], cell["hurst"], out["dim_a"], d)
    diag = {
        "r_squared": out["r_squared"],
        "r_squared_ok": out["r_squared"] >= common["min_r_squared"],
        "n_fit_points": out["n_fit_points"],
        "dim_a": out["dim_a"],
    }
    return dict(theory=theory, estimate=out["estimate"],
                tolerance=float(cell.get("tolerance", 0.1 if d == 1 else 0.15)),
                diagnostics=diag)


def _bracket(estimate, lower, upper, margin, **diag):
    """Outcome of an estimate that passes inside [lower - margin, upper + margin]."""
    ok = (lower - margin) <= estimate <= (upper + margin)
    diag.update(lower=lower, upper=upper, margin=margin, threshold_pass=bool(ok))
    return dict(theory=None, estimate=estimate, tolerance=None, diagnostics=diag)


def _holder_bounds_row(cell, fits, common):
    (out,) = fits
    lower, upper = holder_graph_bounds(
        cell["alpha"], cell["hurst"], out["dim_a"], _cell_d(cell)
    )
    return _bracket(out["estimate"], lower, upper, common["margin"],
                    r_squared=out["r_squared"])


def _comparison_bounds_row(cell, fits, common):
    out_h, out_hp = fits
    lower, upper = comparison_bounds(
        out_h["estimate"], cell["hurst"], cell["hurst_prime"], _cell_d(cell)
    )
    return _bracket(out_hp["estimate"], lower, upper, common["margin"],
                    estimate_h=out_h["estimate"])


def _kernel_scaling_rows(cells, common, seeds, seed_base):
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
    diag = {
        "branch": branch,
        "n_samples": common["n_samples"],
        "t_exponents": list(ks),
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    return [dict(theory=theory, estimate=slope,
                 tolerance=common["rel_tolerance"] * abs(theory), diagnostics=diag)]


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


def _images(cell, grid, samples, seeds, seed_base):
    """Yield each seed's (weights, image) of ``samples`` under the cell's path.

    The path is B^H plus the cell's drift, from seed ``seed_base + s``; when
    the cell gives ``alpha_p`` it is the drift-free mixed path of indices
    (H, alpha_p), from seeds ``seed_base + 2s`` and ``seed_base + 2s + 1``.
    """
    hurst, d, alpha_p = cell["hurst"], _cell_d(cell), cell.get("alpha_p")
    drift = (lipschitz_drift(grid, d) if cell.get("drift") == "lipschitz"
             else np.zeros((d, len(grid))))
    for s in range(seeds):
        if alpha_p is None:
            path = generate_fbm_path(hurst, grid, d=d, seed=seed_base + s)
        else:
            path = generate_mixed_path(
                hurst, alpha_p, grid, d=d,
                seed_pair=(seed_base + 2 * s, seed_base + 2 * s + 1),
            )
        yield drifted_image(path, drift, samples)


def _occupation_l2_rows(cells, common, seeds, seed_base):
    (cell,) = cells
    t0 = time.perf_counter()
    d = _cell_d(cell)
    fset = build_set(cell.get("set", {"kind": "full"}))
    radii = 2.0 ** -np.asarray(common["radius_exponents"], dtype=float)
    grid = TimeGrid.regular(common["grid_n"])
    samples = _snap_to_grid(
        sample_natural_measure(fset, common["n_samples"], seed=seed_base), grid
    )
    if cell.get("path", "fbm") == "constant":
        images = [np.zeros((len(samples), d))]
    else:
        images = [img for _, img in _images(cell, grid, samples, seeds, seed_base)]
    vals = l2_density_diagnostic(images, samples.weights, radii)
    empty = np.flatnonzero(vals <= 0.0)
    if empty.size:
        raise DegenerateRange(
            f"zero pair mass within radius 2^-{common['radius_exponents'][empty[0]]}: no "
            f"two of the n_samples={common['n_samples']} sampled times map that close in "
            "any seed; use more samples or coarser radii"
        )
    diag = {
        "values": [float(v) for v in vals],
        "radius_exponents": list(common["radius_exponents"]),
        "seeds": seeds,
        "n_samples": common["n_samples"],
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    if cell.get("check", "bounded") == "bounded":
        ratio = float(vals.max() / vals.min())
        diag.update(max_ratio_allowed=common["max_ratio"],
                    threshold_pass=bool(ratio <= common["max_ratio"]))
        return [dict(theory=None, estimate=ratio, tolerance=None, diagnostics=diag)]
    # divergence slope for the no-density control
    slope = float(np.polyfit(np.log(radii), np.log(vals), 1)[0])
    return [dict(theory=-float(d), estimate=slope,
                 tolerance=common["slope_tolerance"] * d, diagnostics=diag)]


def _interior_rows(cells, common, seeds, seed_base):
    (cell,) = cells
    t0 = time.perf_counter()
    d = _cell_d(cell)
    epsilon = float(cell["epsilon"])
    radius = validate_integer(cell.get("radius_cells", 2), "radius_cells")
    expect = cell.get("expect", "interior")
    threshold = float(cell.get("threshold", 0.9))
    alpha_p = cell.get("alpha_p")
    fset = build_set(cell.get("set", {"kind": "full"}))
    if alpha_p is not None and expect != "evidence":
        if alpha_p * d >= fset.theoretical_dim:
            raise InfeasibleParameters(
                f"alpha'*d = {alpha_p * d} >= dim(A) = {fset.theoretical_dim}"
            )
    samples = sample_natural_measure(fset, common["n_samples"], seed=seed_base)
    grid = TimeGrid.regular(common["grid_n"])
    hists = [
        occupation_histogram(w, img, epsilon)
        for w, img in _images(cell, grid, samples, seeds, seed_base)
    ]
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
    return [dict(theory=None, estimate=frac, tolerance=None, diagnostics=diag)]


@dataclass(frozen=True)
class _KindSpec:
    """Everything the runner knows about one experiment kind.

    ``defaults`` holds every param besides ``cells``, with its default, whose
    type is the param's check (see ``_check_param``); ``cell_keys`` are the
    keys every cell must carry, ``cell_optional`` the other keys a cell may
    carry (besides ``label``), ``run`` its runner, and ``shares_paths``
    whether adjacent cells with one alpha form one job.
    """

    defaults: dict
    cell_keys: tuple
    run: Callable
    cell_optional: tuple = ()
    shares_paths: bool = False


def _graph_spec(row, defaults, fitted=("hurst",), cell_optional=("set",)):
    return _KindSpec(
        defaults={"grid_n": 2**14, "delta_coarse_exp": 4, "delta_fine_exp": 12,
                  "per_octave": 2, "trim_octaves": 1.0, "max_count_fraction": 1 / 3,
                  **defaults},
        cell_keys=("alpha", *fitted, "d"),
        run=partial(_graph_dim_rows, row, fitted),
        cell_optional=cell_optional,
        shares_paths=True,
    )


def _interior_spec(*cell_optional):
    return _KindSpec(
        defaults={"n_samples": 2**14, "grid_n": 2**14},
        cell_keys=("hurst", "d", "epsilon"),
        run=_interior_rows,
        cell_optional=("set", "drift", "radius_cells", "expect", "threshold",
                       *cell_optional),
    )


_KIND_SPECS = {
    "dim-formula": _graph_spec(
        _dim_formula_row, {"min_r_squared": 0.98}, cell_optional=("set", "tolerance")
    ),
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
        cell_optional=("set", "drift", "path", "check"),
    ),
    "interior": _interior_spec(),
    "theorem41": _interior_spec("alpha_p"),
}


def _run_one_cell(job):
    """Report rows of one job, in cell order: the only place rows are built.

    ``job`` is (kind, cells, common, seeds, seed_base, config_hash).  For the
    kinds that share paths ``cells`` is a run of cells with one path key,
    which share each seed's path; for the other kinds it holds one cell.
    The kind's runner returns one outcome per cell, and each row is that
    outcome stamped with the kind, the cell and the config hash.
    """
    kind, cells, common, seeds, seed_base, config_hash = job
    outcomes = _KIND_SPECS[kind].run(cells, common, seeds, seed_base)
    return [
        ReportRow(kind=kind, cell=cell, config_hash=config_hash, **outcome)
        for cell, outcome in zip(cells, outcomes)
    ]


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
        value = json.loads(text)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    return validate_count(value, WORKERS_ENV)


def run_experiment(config, out_dir=None, workers=None):
    """Run every cell of the configured experiment; returns the report rows.

    Cells execute in deterministic order (sorted by their canonical JSON).
    Graph-dimension cells that follow each other with the same alpha form
    one job that draws each seed's path once, at their largest d; every
    other cell is a job of its own.  Each completed job's rows are appended to
    <out_dir>/report.csv immediately, so an abort keeps the finished rows.
    ``workers``, a whole number >= 1 (default from the PARAFBM_WORKERS
    environment variable), above 1 distributes jobs over a process pool, at
    most one worker per job; rows are committed in cell order either way.
    """
    workers = _env_workers() if workers is None else validate_count(workers, "workers")
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
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    all_rows = []
    with pool:
        for rows in (pool.map if workers > 1 else map)(_run_one_cell, jobs):
            _append_rows(report_path, rows)
            all_rows.extend(rows)
    return all_rows
