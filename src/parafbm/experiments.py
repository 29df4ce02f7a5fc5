"""Configuration-driven experiments comparing estimators to closed-form predictions.

Configs are versioned JSON with strict key checking: an unknown top-level,
``params`` or cell key is an error, and so is a cell that lacks one of its
kind's required keys (a typo in a Hurst parameter must not pass silently)
or gives a word-valued key a value outside ``_CELL_CHOICES``.  Each cell is
parsed once, when the config is built and before anything is written, into
the one record runners and reducers read (``_parse_cell``), and each rule
that ties its keys together (alpha <= H, H < H', gamma off H*d,
alpha'*d < dim A) is checked on it.  The params are parsed once too, into
the one ``common`` every job reads (``_parse_params``), with the scales
runners use built there.  The one free-form cell key is ``label``, echoed
into the report's ``cell`` column with the rest of the cell.  Each kind
declares its params (each checked by ``_PARAM_CHECKS``), keys, runner,
reducer and job grouping once, in ``_KIND_SPECS``.
A job is one cell, or a run of graph-dimension cells that measure the same
sample paths.  Its runner yields per-seed records, and its reducer turns
each cell's records into one report row, whose ``runtime_s`` follows the
one charging rule of ``_run_one_cell``.
report.csv is opened once per run, its header written at once, and each
job's rows are written through that handle as the job completes, in
deterministic cell order, with the config hash embedded so reruns are
comparable.
Almost-sure statements are operationalized as seed-fraction thresholds at
finite resolution; the threshold and resolution appear in every row.
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import itertools
import json
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
    DEFAULT_MAX_COUNT_FRACTION,
    DEFAULT_TRIM_OCTAVES,
    GraphCloud,
    box_count_curves,
    dyadic_deltas,
    estimate_parabolic_dimension,
    kernel_expectation_mc,
    validate_fit_scales,
    validate_gamma,
    validate_kernel_times,
)
from .fbm import (
    TimeGrid,
    generate_fbm_path,
    generate_mixed_path,
    validate_count,
    validate_hurst,
    validate_integer,
    validate_real,
    validate_reals,
    validate_seed,
)
from .fractals import (
    WeightedTimeSet,
    cantor_with_dimension,
    full_interval,
    generalized_cantor,
    middle_thirds_cantor,
    sample_natural_measure,
)
from .geometry import (
    comparison_bounds,
    holder_graph_bounds,
    theoretical_graph_dimension,
    validate_alpha,
    validate_hurst_order,
)
from . import occupation
from .occupation import (
    drifted_image,
    l2_density_diagnostic,
    occupation_histogram,
    validate_radii,
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

#: per set kind, the keys its spec may give besides ``kind``
_SET_KEYS = {"full": (), "full-interval": (), "middle-thirds": ("generation",),
             "generalized-cantor": ("generation", "m", "r", "dim")}

#: the values each word-valued cell key may take, its default first
_CELL_CHOICES = {"check": ("bounded", "slope"), "path": ("fbm", "constant"),
                 "expect": ("interior", "no-interior", "evidence"),
                 "drift": ("zero", "lipschitz")}

#: each optional cell key's value when a cell leaves it out, but ``tolerance``,
#: whose default is 0.1 at d = 1 and 0.15 above
_CELL_DEFAULTS = {"set": {"kind": "full"}, "radius_cells": 2, "threshold": 0.9,
                  "alpha_p": None, **{key: values[0] for key, values in _CELL_CHOICES.items()}}

def _exponent_scales(check, value, key):
    """The scales 2^-k of a strictly increasing list of at least two whole
    numbers k, the points of a log-log fit, if ``check`` (the run's) accepts them."""
    try:
        exps = validate_reals(value, key, min_size=2) if isinstance(value, list) else None
    except ConfigError:
        exps = None
    if exps is None or np.any(exps != np.floor(exps)) or np.any(np.diff(exps) <= 0.0):
        raise ConfigError(f"{key} must be a strictly increasing list of at least two "
                          f"whole numbers, got {value!r}")
    with np.errstate(over="ignore"):
        scales = 2.0 ** -exps
    try:
        return check(scales)
    except ConfigError as exc:
        raise ConfigError(f"{key} must be exponents of scales 2^-k the run accepts, "
                          f"got {value!r}: {exc}") from None


#: per number-valued cell key, its check, which returns the value runners read
_CELL_CHECKS = {
    **dict.fromkeys(("alpha", "hurst", "hurst_prime"), validate_hurst),
    "alpha_p": lambda value, key: None if value is None else validate_hurst(value, key),
    **dict.fromkeys(("d", "radius_cells"), validate_count),
    "gamma": validate_real,
    "threshold": partial(validate_real, low=0, high=1),
    "tolerance": partial(validate_real, low=0),
    "epsilon": partial(validate_real, low=0, above=True),
}

#: per param, its check, which returns the value it stands for (an exponent
#: list stands for its scales)
_PARAM_CHECKS = {
    **dict.fromkeys(("grid_n", "n_samples", "per_octave"), validate_count),
    **dict.fromkeys(("delta_coarse_exp", "delta_fine_exp"), validate_integer),
    "trim_octaves": partial(validate_real, low=0),
    "max_count_fraction": partial(validate_real, low=0, above=True),
    "min_r_squared": partial(validate_real, high=1),
    **dict.fromkeys(("margin", "rel_tolerance", "slope_tolerance"), partial(validate_real, low=0)),
    "max_ratio": partial(validate_real, low=1),
    "radius_exponents": partial(_exponent_scales, validate_radii),
    "t_exponents": partial(_exponent_scales, validate_kernel_times),
}


def _parse_params(kind, params):
    """The ``common`` every job of a ``kind`` config reads: each param but
    ``cells`` as given (rows echo it so) or, left out, its default, each
    checked by ``_PARAM_CHECKS``; and the scales runners use, built here
    only: a graph kind's ladder ``deltas`` 2^-coarse .. 2^-fine, refused
    unless every scale lies in (0, 1] and the fit can use it, and the
    ``radii`` or kernel ``times`` 2^-k of an exponent list."""
    spec = _KIND_SPECS[kind]
    unknown = set(params) - {"cells", *spec.defaults}
    if unknown:
        raise ConfigError(f"unknown params for {kind}: {sorted(unknown)} "
                          f"(allowed: {sorted({'cells', *spec.defaults})})")
    common = {**spec.defaults, **params}
    common.pop("cells", None)
    parsed = {key: _PARAM_CHECKS[key](value, key) for key, value in common.items()}
    for key, scales in (("radius_exponents", "radii"), ("t_exponents", "times")):
        if key in parsed:
            common[scales] = parsed[key]
    if "per_octave" not in parsed:
        return common
    coarse, fine, per_octave = (parsed[key] for key in
                                ("delta_coarse_exp", "delta_fine_exp", "per_octave"))
    if coarse < 0:
        raise ConfigError(f"delta_coarse_exp must be >= 0 (scales lie in (0, 1]), got {coarse}")
    if fine <= coarse:
        raise ConfigError(f"delta_fine_exp must exceed delta_coarse_exp, got "
                          f"{fine} <= {coarse}")
    ladder = f"the scale ladder 2^-{coarse} .. 2^-{fine} at per_octave {per_octave}"
    try:
        common["deltas"] = validate_fit_scales(dyadic_deltas(coarse, fine, per_octave))
    except ConfigError as exc:
        raise ConfigError(f"{ladder}: {exc}") from None
    return common


def _nearest(word, valid):
    return difflib.get_close_matches(str(word), valid, n=1, cutoff=0.0)[0]


def _parse_cell(kind, cell):
    """The parsed cell runners and reducers read: each key ``kind`` takes but
    ``label``, as its check in ``_CELL_CHECKS`` returns it or, left out, as
    ``_CELL_DEFAULTS`` gives it; a ``set`` is built, its canonical spec JSON
    kept as ``set_key``.  The kind's ``cell_rule`` runs on the parsed cell."""
    spec = _KIND_SPECS[kind]
    if not isinstance(cell, dict):
        raise ConfigError(f"each cell must be a JSON object, got {cell!r}")
    valid = [*spec.cell_keys, *spec.cell_optional, "label"]
    parsed = {key: _CELL_DEFAULTS[key] for key in spec.cell_optional if key in _CELL_DEFAULTS}
    for key, value in cell.items():
        if key not in valid:
            raise ConfigError(f"unknown {kind} cell key {key!r} (did you mean "
                              f"{_nearest(key, valid)!r}? allowed: {sorted(valid)})")
        choices = _CELL_CHOICES.get(key)
        if choices and value not in choices:
            raise ConfigError(f"unknown {key} {value!r} in {kind} cell (did you mean "
                              f"{_nearest(value, choices)!r}? allowed: {list(choices)})")
        if key != "label":
            parsed[key] = _CELL_CHECKS[key](value, key) if key in _CELL_CHECKS else value
    if "set" in parsed:
        set_spec = parsed["set"]
        parsed.update(set=build_set(set_spec), set_key=json.dumps(set_spec, sort_keys=True))
    missing = [k for k in spec.cell_keys if k not in cell]
    if missing:
        raise ConfigError(f"{kind} cell {cell} lacks key(s) {missing}")
    if "tolerance" in spec.cell_optional:
        parsed.setdefault("tolerance", 0.1 if parsed["d"] == 1 else 0.15)
    if cell.get("alpha_p") is not None and "drift" in cell:
        raise ConfigError(f"{kind} cell {cell} has both alpha_p and drift: "
                          "the mixed path is drawn without a drift")
    if cell.get("path") == "constant" and "drift" in cell:
        raise ConfigError(f"{kind} cell {cell} has both path constant and drift: "
                          "the constant path is 0, with no drift")
    if spec.cell_rule:
        spec.cell_rule(parsed)
    return parsed


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
        object.__setattr__(self, "seeds", validate_count(self.seeds, "seeds"))
        object.__setattr__(self, "seed_base", validate_seed(self.seed_base, "seed_base"))
        object.__setattr__(self, "_common", _parse_params(self.kind, self.params))
        cells = self.params.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ConfigError("params.cells must be a non-empty list")
        # (cell, parsed cell) pairs, in the canonical cell order rows follow
        object.__setattr__(self, "_cells", sorted(
            ((cell, _parse_cell(self.kind, cell)) for cell in cells),
            key=lambda pair: json.dumps(pair[0], sort_keys=True)))

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
        except ValueError as exc:   # also an integer of more than 4300 digits
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
    """One experiment outcome: parameters, theory vs estimate, diagnostics, runtime."""

    kind: str
    cell: dict
    theory: float | None
    estimate: float
    tolerance: float | None
    passed: bool | None = field(init=False)
    diagnostics: dict = field(default_factory=dict)
    config_hash: str = ""
    runtime_s: float | None = None

    def __post_init__(self):
        if self.theory is not None and self.tolerance is not None:
            ok = abs(self.estimate - self.theory) <= self.tolerance
        else:
            ok = self.diagnostics.get("threshold_pass")
        object.__setattr__(self, "passed", ok)

    def csv_record(self):
        return {
            "kind": self.kind,
            "cell": json.dumps(self.cell, sort_keys=True),
            "theory": "" if self.theory is None else repr(self.theory),
            "estimate": repr(self.estimate),
            "tolerance": "" if self.tolerance is None else repr(self.tolerance),
            "passed": "" if self.passed is None else str(bool(self.passed)),
            "diagnostics": json.dumps(self.diagnostics, sort_keys=True),
            "config_hash": self.config_hash,
            "runtime_s": "" if self.runtime_s is None else self.runtime_s,
        }


CSV_FIELDS = [f.name for f in fields(ReportRow)]


def build_set(spec):
    """Construct a FractalSet from its JSON spec: its keys are checked here,
    its numbers by the constructor it names."""
    if not isinstance(spec, dict):
        raise ConfigError(f"set must be a JSON object, got {spec!r}")
    kind = spec.get("kind", "full")
    if not isinstance(kind, str) or kind not in _SET_KEYS:
        raise ConfigError(f"unknown set kind {kind!r}")
    unknown = set(spec) - {"kind", *_SET_KEYS[kind]}
    if unknown:
        raise ConfigError(f"unknown set keys {sorted(unknown)} for set kind {kind!r} "
                          f"(allowed: {['kind', *_SET_KEYS[kind]]})")
    if "r" in spec and "dim" in spec:
        raise ConfigError(f"set kind {kind!r} takes r or dim, not both")
    k, m = spec.get("generation", 8), spec.get("m", 2)
    if kind in ("full", "full-interval"):
        return full_interval()
    if kind == "middle-thirds":
        return middle_thirds_cantor(k)
    if "dim" in spec:
        return cantor_with_dimension(spec["dim"], k, m)
    return generalized_cantor(m, spec.get("r"), k)


def lipschitz_drift(grid, d):
    """Fixed 1-Lipschitz drift f_j(t) = t / (j + 1) on the grid, shape (d, n)."""
    t = grid.times
    return np.vstack([t / (j + 1.0) for j in range(validate_count(d, "d"))])


# ---------------------------------------------------------------------------
# cell runners yield (cell index, record) and reducers turn a cell's records
# into its outcome (see ``_run_one_cell``); both read parsed cells only.
# Runners look up the path, sampling and estimator functions as module globals
# at call time, and the probe as ``occupation.interior_probe``, so callers can
# wrap them.


def _alpha_rule(cell):
    validate_alpha(cell["alpha"], cell["hurst"])


def _comparison_rule(cell):
    validate_hurst_order(cell["hurst"], cell["hurst_prime"])


def _kernel_rule(cell):
    _alpha_rule(cell)
    validate_gamma(cell["gamma"], cell["hurst"], cell["d"])


def _feasible_rule(cell):
    """alpha'*d < dim A for a theorem41 cell with alpha_p that expects a verdict."""
    alpha_p, d, dim_a = cell["alpha_p"], cell["d"], cell["set"].theoretical_dim
    if alpha_p is not None and cell["expect"] != "evidence" and alpha_p * d >= dim_a:
        raise InfeasibleParameters(f"alpha'*d = {alpha_p * d} >= dim(A) = {dim_a}")


def _graph_records(fitted, cells, common, seeds, seed_base):
    """Yield the fits of a run of graph-dimension cells sharing one alpha.

    Per seed, the B^alpha path is drawn once, at the largest d of the cells:
    the paper's setting of one sample path and many sets A.  Coordinate j of
    a path is drawn from its own stream whatever d is, so a d-dimensional
    path is the first d coordinates of any wider one.  Each cell is fitted
    at the Hurst index of every key in ``fitted`` (H, or H and H' for
    comparison bounds), and each fit is a record of its cell.  The cells
    that share a set and a fitted H share one count: the graph cloud of the
    path's first m coordinates, m the largest d among them, is restricted to
    the set and box-counted once, and the sort of each scale also counts the
    graphs of its shorter coordinate prefixes (``box_count_curves``), so
    each cell fits the curve of its own d.  The fits, and so the rows, are
    those each cell gives alone.
    """
    # each count, (set, H), with its set and the d of every cell that fits it
    plan = {}
    for cell in cells:
        for hurst in (cell[key] for key in fitted):
            plan.setdefault((cell["set_key"], hurst), (cell["set"], []))[1].append(cell["d"])
    grid, deltas = TimeGrid.regular(common["grid_n"]), common["deltas"]
    for s in range(seeds):   # cell 0 yields first, so each path is charged to it
        path = generate_fbm_path(cells[0]["alpha"], grid, d=max(c["d"] for c in cells),
                                 seed=seed_base + s)
        curves = {}
        for i, cell in enumerate(cells):
            for hurst in (cell[key] for key in fitted):
                count = cell["set_key"], hurst
                if count not in curves:   # counted when a cell first needs it
                    fset, dims = plan[count]
                    cloud = GraphCloud(grid.times, path.values[:max(dims)].T)
                    sub = cloud if fset.kind == "full-interval" else cloud.restrict(fset)
                    curves[count] = sub, box_count_curves(sub, deltas, hurst, set(dims))
                    if len(dims) > 1:
                        yield 0, None   # a shared count is the first cell's work
                sub, curve = curves[count]
                yield i, estimate_parabolic_dimension(
                    sub, deltas, hurst, trim_octaves=common["trim_octaves"],
                    max_count_fraction=common["max_count_fraction"],
                    _curve=curve[cell["d"]],
                )


def _graph_outcome(row, fitted, cell, fits, common, seeds):
    """``row`` of the cell's median fits at each key in ``fitted``."""
    summaries = [
        {
            "estimate": float(np.median([e.exponent for e in ests])),
            "r_squared": float(np.median([e.r_squared for e in ests])),
            "n_fit_points": float(np.median([e.n_points_used for e in ests])),
        }
        for ests in (fits[j::len(fitted)] for j in range(len(fitted)))
    ]
    out = row(cell, summaries, common)
    out["diagnostics"].update(seeds=seeds, grid_n=common["grid_n"])
    return out


def _dim_formula_row(cell, fits, common):
    (out,) = fits
    dim_a = cell["set"].theoretical_dim
    theory = theoretical_graph_dimension(cell["alpha"], cell["hurst"], dim_a, cell["d"])
    diag = {
        "r_squared": out["r_squared"],
        "r_squared_ok": out["r_squared"] >= common["min_r_squared"],
        "n_fit_points": out["n_fit_points"],
        "dim_a": dim_a,
    }
    return dict(theory=theory, estimate=out["estimate"],
                tolerance=cell["tolerance"],
                diagnostics=diag)


def _bracket(estimate, lower, upper, margin, **diag):
    """Outcome of an estimate that passes inside [lower - margin, upper + margin]."""
    ok = (lower - margin) <= estimate <= (upper + margin)
    diag.update(lower=lower, upper=upper, margin=margin, threshold_pass=bool(ok))
    return dict(theory=None, estimate=estimate, tolerance=None, diagnostics=diag)


def _holder_bounds_row(cell, fits, common):
    (out,) = fits
    lower, upper = holder_graph_bounds(
        cell["alpha"], cell["hurst"], cell["set"].theoretical_dim, cell["d"]
    )
    return _bracket(out["estimate"], lower, upper, common["margin"],
                    r_squared=out["r_squared"])


def _comparison_bounds_row(cell, fits, common):
    out_h, out_hp = fits
    lower, upper = comparison_bounds(
        out_h["estimate"], cell["hurst"], cell["hurst_prime"], cell["d"]
    )
    return _bracket(out_hp["estimate"], lower, upper, common["margin"],
                    estimate_h=out_h["estimate"])


def _kernel_records(cells, common, seeds, seed_base):
    """Yield (t, the kernel's MC value at t) for each of the kernel ``times``
    2^-k, from seed ``seed_base + i`` for the i-th k of ``t_exponents``."""
    (cell,) = cells
    for i, t in enumerate(common["times"]):
        yield 0, (t, kernel_expectation_mc(t, cell["alpha"], cell["hurst"], cell["gamma"],
                                           cell["d"], common["n_samples"], seed=seed_base + i))


def _kernel_outcome(cell, records, common, seeds):
    alpha, hurst, gamma, d = cell["alpha"], cell["hurst"], cell["gamma"], cell["d"]
    ts, vals = zip(*records)
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
        "t_exponents": list(common["t_exponents"]),
    }
    return dict(theory=theory, estimate=slope,
                tolerance=common["rel_tolerance"] * abs(theory), diagnostics=diag)


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
    A ``path: constant`` cell's path is 0, whose one image stands for all seeds.
    """
    hurst, d, alpha_p = cell["hurst"], cell["d"], cell.get("alpha_p")
    if cell.get("path") == "constant":
        yield samples.weights, np.zeros((len(samples), d))
        return
    drift = (lipschitz_drift(grid, d) if cell["drift"] == "lipschitz"
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


def _occupation_l2_records(cells, common, seeds, seed_base):
    """Yield each seed's (weights, image) of the cell's sampled times."""
    (cell,) = cells
    grid = TimeGrid.regular(common["grid_n"])
    samples = _snap_to_grid(
        sample_natural_measure(cell["set"], common["n_samples"], seed=seed_base), grid
    )
    yield from ((0, image) for image in _images(cell, grid, samples, seeds, seed_base))


def _occupation_l2_outcome(cell, images, common, seeds):
    d = cell["d"]
    vals = l2_density_diagnostic([img for _, img in images], images[0][0], common["radii"])
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
    }
    if cell["check"] == "bounded":
        ratio = float(vals.max() / vals.min())
        diag.update(max_ratio_allowed=common["max_ratio"],
                    threshold_pass=bool(ratio <= common["max_ratio"]))
        return dict(theory=None, estimate=ratio, tolerance=None, diagnostics=diag)
    # divergence slope for the no-density control
    slope = float(np.polyfit(np.log(common["radii"]), np.log(vals), 1)[0])
    return dict(theory=-float(d), estimate=slope,
                tolerance=common["slope_tolerance"] * d, diagnostics=diag)


def _interior_records(cells, common, seeds, seed_base):
    """Yield each seed's interior flag: whether its occupation histogram has
    a cell whose neighborhood of the cell's radius is occupied."""
    (cell,) = cells
    samples = sample_natural_measure(cell["set"], common["n_samples"], seed=seed_base)
    grid = TimeGrid.regular(common["grid_n"])
    for w, img in _images(cell, grid, samples, seeds, seed_base):
        hist = occupation_histogram(w, img, cell["epsilon"])
        yield 0, len(occupation.interior_probe(hist, cell["radius_cells"])) > 0


def _interior_outcome(cell, flags, common, seeds):
    frac = sum(flags) / len(flags)
    expect, threshold = cell["expect"], cell["threshold"]
    # evidence is recorded, not thresholded
    ok = {"interior": frac >= threshold, "no-interior": frac <= threshold}.get(expect)
    diag = {
        "expect": expect,
        "threshold": threshold,
        "threshold_pass": ok,
        "epsilon": cell["epsilon"],
        "radius_cells": cell["radius_cells"],
        "seeds": seeds,
        "n_samples": common["n_samples"],
        "grid_n": common["grid_n"],
        "dim_a": cell["set"].theoretical_dim,
    }
    return dict(theory=None, estimate=frac, tolerance=None, diagnostics=diag)


@dataclass(frozen=True)
class _KindSpec:
    """Everything the runner knows about one experiment kind.

    ``defaults`` holds every param besides ``cells``, with its default
    (see ``_parse_params``); ``cell_keys`` are the
    keys every cell must carry, ``cell_optional`` the other keys a cell may
    carry (besides ``label``), ``run`` its runner and ``reduce`` its reducer
    (see ``_run_one_cell``), ``cell_rule`` the check of a cell's keys
    against one another, made at load, and ``shares_paths`` whether
    adjacent cells with one alpha form one job.
    """

    defaults: dict
    cell_keys: tuple
    run: Callable
    reduce: Callable
    cell_optional: tuple = ()
    cell_rule: Callable | None = None
    shares_paths: bool = False


def _graph_spec(row, defaults, fitted=("hurst",), cell_optional=("set",),
                cell_rule=_alpha_rule):
    return _KindSpec(
        defaults={"grid_n": 2**14, "delta_coarse_exp": 4, "delta_fine_exp": 12,
                  "per_octave": 2, "trim_octaves": DEFAULT_TRIM_OCTAVES,
                  "max_count_fraction": DEFAULT_MAX_COUNT_FRACTION, **defaults},
        cell_keys=("alpha", *fitted, "d"),
        run=partial(_graph_records, fitted),
        reduce=partial(_graph_outcome, row, fitted),
        cell_optional=cell_optional,
        cell_rule=cell_rule,
        shares_paths=True,
    )


def _interior_spec(*cell_optional, cell_rule=None):
    return _KindSpec(
        defaults={"n_samples": 2**14, "grid_n": 2**14},
        cell_keys=("hurst", "d", "epsilon"),
        run=_interior_records,
        reduce=_interior_outcome,
        cell_optional=("set", "drift", "radius_cells", "expect", "threshold",
                       *cell_optional),
        cell_rule=cell_rule,
    )


_KIND_SPECS = {
    "dim-formula": _graph_spec(
        _dim_formula_row, {"min_r_squared": 0.98}, cell_optional=("set", "tolerance")
    ),
    "holder-bounds": _graph_spec(_holder_bounds_row, {"margin": 0.1}),
    "comparison-bounds": _graph_spec(
        _comparison_bounds_row, {"margin": 0.1}, fitted=("hurst", "hurst_prime"),
        cell_rule=_comparison_rule,
    ),
    "kernel-scaling": _KindSpec(
        defaults={"n_samples": 10**6, "t_exponents": list(range(1, 9)),
                  "rel_tolerance": 0.05},
        cell_keys=("alpha", "hurst", "gamma", "d"),
        run=_kernel_records,
        reduce=_kernel_outcome,
        cell_rule=_kernel_rule,
    ),
    "occupation-l2": _KindSpec(
        defaults={"n_samples": 4096, "grid_n": 2**14,
                  "radius_exponents": [4, 5, 6, 7, 8, 9, 10],
                  "max_ratio": 3.0, "slope_tolerance": 0.1},
        cell_keys=("hurst", "d"),
        run=_occupation_l2_records,
        reduce=_occupation_l2_outcome,
        cell_optional=("set", "drift", "path", "check"),
    ),
    "interior": _interior_spec(),
    "theorem41": _interior_spec("alpha_p", cell_rule=_feasible_rule),
}


def _run_one_cell(job):
    """Report rows of one job, in cell order: the one place rows are built and timed.

    ``job`` is (kind, cells, common, seeds, seed_base, config_hash, parsed),
    ``common`` the parsed params, ``parsed`` the parsed ``cells``: a run of
    cells with one alpha, which share each seed's path, for the kinds that
    share paths, else one cell.
    The kind's runner yields (cell index, record) pairs, its reducer turns
    each parsed cell's records into an outcome, and each row is that outcome
    stamped with the kind, the raw cell, the config hash and ``runtime_s``.

    The charging rule: the time up to each yield goes to the cell it names,
    and each reduction to its cell.  Shared work goes to the job's first
    cell: the grid, the paths, and every count that more than one cell
    fits (named by a None record, which charges time and keeps no record).
    """
    kind, cells, common, seeds, seed_base, config_hash, parsed = job
    spec = _KIND_SPECS[kind]
    records = [[] for _ in cells]
    runtimes = [0.0] * len(cells)
    t0 = time.perf_counter()
    for i, record in spec.run(parsed, common, seeds, seed_base):
        t1 = time.perf_counter()
        runtimes[i] += t1 - t0
        t0 = t1
        if record is not None:
            records[i].append(record)
    rows = []
    for cell, parsed_cell, cell_records, runtime in zip(cells, parsed, records, runtimes):
        outcome = spec.reduce(parsed_cell, cell_records, common, seeds)
        t1 = time.perf_counter()
        rows.append(ReportRow(kind=kind, cell=cell, config_hash=config_hash,
                              runtime_s=round(runtime + t1 - t0, 3), **outcome))
        t0 = t1
    return rows


def _cell_runs(kind, pairs):
    """Sorted (cell, parsed cell) pairs split into jobs: contiguous runs of
    one alpha for the kinds that share paths, one pair each otherwise."""
    if _KIND_SPECS[kind].shares_paths:
        return [list(run) for _, run in itertools.groupby(pairs, key=lambda p: p[1]["alpha"])]
    return [[pair] for pair in pairs]


@contextmanager
def atomic_writer(path):
    """Write a file atomically: yields a handle on ``<path>.tmp``, which
    replaces ``path`` once the block exits without an exception.  If the
    block or the rename raises, ``<path>.tmp`` is removed."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    fh = open(tmp, "w", newline="")   # a failed open leaves no file to remove
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_experiment(config, out_dir=None, workers=1):
    """Run every cell of the configured experiment; returns the report rows.

    Cells execute in deterministic order (sorted by their canonical JSON).
    Graph-dimension cells that follow each other with the same alpha form
    one job that draws each seed's path once, at their largest d; every
    other cell is a job of its own.  <out_dir>/report.csv is replaced by one
    that holds the header from the start; each completed job's rows are
    written, flushed and synced at once, so an abort keeps the finished rows.
    ``workers``, a whole number >= 1, above 1 distributes jobs over a process
    pool, at most one worker per job; rows are committed in cell order
    either way.
    """
    workers = validate_count(workers, "workers")
    chash = config.config_hash()
    jobs = [
        (config.kind, [cell for cell, _ in run], config._common, config.seeds, config.seed_base,
         chash, [parsed for _, parsed in run])
        for run in _cell_runs(config.kind, config._cells)
    ]
    workers = min(workers, len(jobs))
    new_pool = partial(ProcessPoolExecutor, max_workers=workers) if workers > 1 else nullcontext
    all_rows = []
    report = nullcontext()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with atomic_writer(out_dir / "config.json") as fh:
            json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        report = open(out_dir / "report.csv", "w", newline="")
    with report as fh, new_pool() as pool:   # made once the report is open, so a raise closes it
        if fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
        for rows in (pool.map if pool else map)(_run_one_cell, jobs):
            if fh:
                writer.writerows(row.csv_record() for row in rows)
                fh.flush()
                os.fsync(fh.fileno())
            all_rows.extend(rows)
    return all_rows
