"""The four benchmark workloads, their unit outputs and their slow-route checks.

A workload is set up once per process, then run as passes; every pass feeds
the program the same inputs, made from the benchmark seed.  A pass is split
into units (one experiment cell, one path family, one Gaussian sweep), and
each unit yields a *record* (what the program computed, compared with a
tolerance against the stored reference) and a *digest* (a sha256 of the exact
output, compared between passes and between traced and untraced passes).

``check`` recomputes one unit, chosen from the seed, by an independent slow
route outside the timed region.  Why each workload exists is written down in
DESIGN.md next to this file.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
import random
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from parafbm import cli, experiments, fbm, gaussian
from parafbm.estimators import GraphCloud, box_count_curve, dyadic_deltas
from parafbm.experiments import ExperimentConfig, build_set, lipschitz_drift
from parafbm.fbm import TimeGrid
from parafbm.fractals import WeightedTimeSet, sample_natural_measure
from parafbm.occupation import drifted_image, occupation_histogram

#: relative tolerance of the reference comparison: last-bit differences from
#: another summation order or CPU code path pass, any real change does not
REL_TOL = 1e-9

#: the acceptance suite's seed, the one the stored reference is for
DEFAULT_SEED = 0


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _json_digest(obj):
    return _sha(json.dumps(obj, sort_keys=True).encode())


def close_enough(a, b, rel=REL_TOL):
    """Structural equality; floats agree to ``rel`` relative (1e-12 absolute)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            close_enough(a[k], b[k], rel) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            close_enough(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)
    return a == b


@dataclass
class Unit:
    """One unit of a pass: its id and either its record and digest, or its error."""

    id: str
    record: object = None
    digest: str | None = None
    error: str | None = None


@dataclass
class Check:
    """Outcome of the slow-route check of one sampled unit."""

    unit: str
    ok: bool
    detail: str
    record: dict = field(default_factory=dict)


def _float_or_none(text):
    return None if text == "" else float(text)


def row_record(rec):
    """Structured form of one report.csv row (a dict of strings); runtime_s is left out."""
    return {
        "kind": rec["kind"],
        "cell": json.loads(rec["cell"]),
        "theory": _float_or_none(rec["theory"]),
        "estimate": float(rec["estimate"]),
        "tolerance": _float_or_none(rec["tolerance"]),
        "passed": rec["passed"],
        "diagnostics": json.loads(rec["diagnostics"]),
        "config_hash": rec["config_hash"],
    }


def _cell_key(cell):
    return json.dumps(cell, sort_keys=True)


# ---------------------------------------------------------------------------
# experiment workloads: acceptance configs run through run_experiment or the CLI

@dataclass
class ExperimentState:
    seed: int
    configs: list
    cells: list            # (config index, cell) in run order
    files: list = field(default_factory=list)   # (config.json, out dir) per config


@dataclass
class ExperimentWorkload:
    """Experiment configs (seed_base is the benchmark seed) run as one pass.

    With ``via_cli`` each config is written to a file and run as
    ``parafbm experiment --config ... --out ...`` through ``cli_main``.
    """

    name: str
    configs: list
    via_cli: bool = False

    def setup(self, seed, workdir):
        configs = [ExperimentConfig.from_dict({**c, "seed_base": seed}) for c in self.configs]
        cells = []
        for i, cfg in enumerate(configs):
            for cell in sorted(cfg.params["cells"], key=_cell_key):
                build_set(cell.get("set", {"kind": "full"}))
                cells.append((i, cell))
        state = ExperimentState(seed=seed, configs=configs, cells=cells)
        if self.via_cli:
            for i, cfg in enumerate(configs):
                path = Path(workdir) / f"config-{i}.json"
                path.write_text(json.dumps(cfg.to_dict(), sort_keys=True))
                state.files.append((path, Path(workdir) / f"out-{i}"))
        return state

    def unit_id(self, state, i, cell):
        return f"{state.configs[i].kind}:{_cell_key(cell)}"

    def run_pass(self, state, unit=lambda uid: nullcontext()):
        """Run every config once; per config, its rows (or CLI exit code) or its exception."""
        outputs = []
        for i, cfg in enumerate(state.configs):
            with unit(cfg.kind):
                try:
                    if self.via_cli:
                        config_path, out_dir = state.files[i]
                        with redirect_stdout(io.StringIO()):
                            outputs.append(cli.cli_main([
                                "experiment", "--config", str(config_path),
                                "--out", str(out_dir),
                            ]))
                    else:
                        outputs.append(experiments.run_experiment(cfg))
                except Exception as exc:  # a raising unit is a failed unit, not a crash
                    outputs.append(exc)
        return outputs

    def _records(self, state, i, output):
        if isinstance(output, Exception):
            raise output
        if self.via_cli:
            if output != 0:
                raise RuntimeError(f"parafbm experiment exited with code {output}")
            with open(state.files[i][1] / "report.csv", newline="") as fh:
                return [row_record(r) for r in csv.DictReader(fh)]
        return [row_record(r.csv_record()) for r in output]

    def units(self, state, outputs):
        """Per-cell records of one pass; a config that raised fails all its cells."""
        by_cell = {}
        errors = {}
        for i, output in enumerate(outputs):
            try:
                for rec in self._records(state, i, output):
                    by_cell.setdefault((i, _cell_key(rec["cell"])), []).append(rec)
            except Exception as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
        result = []
        for i, cell in state.cells:
            uid = self.unit_id(state, i, cell)
            recs = by_cell.get((i, _cell_key(cell)))
            if i in errors:
                result.append(Unit(uid, error=errors[i]))
            elif not recs:
                result.append(Unit(uid, error="no report row for this cell"))
            else:
                result.append(Unit(uid, record=recs, digest=_json_digest(recs)))
        return result

    def check(self, state, units):
        """Recompute the seed's sampled cell by a slow route and compare with its row."""
        pick = random.Random(state.seed).randrange(len(state.cells))
        i, cell = state.cells[pick]
        uid = self.unit_id(state, i, cell)
        unit = next(u for u in units if u.id == uid)
        if unit.error:
            return Check(uid, False, f"unit failed: {unit.error}")
        cfg = state.configs[i]
        common = {k: v for k, v in cfg.params.items() if k != "cells"}
        route = {
            "dim-formula": _check_dim_formula,
            "occupation-l2": _check_occupation_l2,
            "theorem41": _check_interior,
            "interior": _check_interior,
        }[cfg.kind]
        ok, detail, record = route(cfg, cell, common, unit.record[0])
        return Check(uid, ok, detail, record)


# -- dim-formula slow route: lexsort box counts and a numpy polyfit ------------

def slow_box_count(times, values, delta, hurst):
    """Occupied anchored boxes counted by lexsort and adjacent differences."""
    side = delta**hurst
    ti = np.minimum(np.floor(times / delta), math.ceil(1.0 / delta) - 1)
    vi = np.floor((values - values.min(axis=0)) / side)
    keys = np.column_stack([ti, vi])
    keys = keys[np.lexsort(keys.T[::-1])]
    return 1 + int(np.count_nonzero(np.any(keys[1:] != keys[:-1], axis=1)))


def _check_dim_formula(cfg, cell, common, row):
    grid = TimeGrid.regular(common["grid_n"])
    hurst = cell["hurst"]
    path = fbm.generate_fbm_path(cell["alpha"], grid, d=int(cell["d"]), seed=cfg.seed_base)
    cloud = GraphCloud.from_path(path, h_context=hurst)
    fset = build_set(cell.get("set", {"kind": "full"}))
    if fset.kind != "full-interval":
        cloud = cloud.restrict(fset)
    deltas = dyadic_deltas(
        common["delta_coarse_exp"], common["delta_fine_exp"], common["per_octave"])
    curve = box_count_curve(cloud, deltas, hurst)
    slow = np.array([slow_box_count(cloud.times, cloud.values, d, hurst)
                     for d in curve.deltas])
    if not np.array_equal(curve.counts, slow):
        return False, f"box counts {curve.counts.tolist()} != slow {slow.tolist()}", {}
    keep = slow <= common.get("max_count_fraction", 1.0 / 3.0) * cloud.n
    trim = 2.0 ** common.get("trim_octaves", 1.0)
    if trim > 1.0:
        d = curve.deltas
        keep &= (d <= d.max() / trim * (1 + 1e-12)) & (d >= d.min() * trim * (1 - 1e-12))
    x = np.log(1.0 / curve.deltas[keep])
    slope = float(np.polyfit(x, np.log(slow[keep].astype(float)), 1)[0])
    if cfg.seeds != 1 or not math.isclose(slope, row["estimate"], rel_tol=1e-9):
        return False, f"slope {slope!r} != row estimate {row['estimate']!r}", {}
    record = {"deltas": curve.deltas.tolist(), "counts": slow.tolist(), "slope": slope}
    return True, f"{int(keep.sum())}/{keep.size} scales, slope {slope:.6f}", record


# -- occupation-l2 slow route: cdist, sort and cumulative weights --------------

def _snap_to_grid(samples, grid):
    """Nearest grid node per sample time (ties to the left), duplicate weights merged."""
    t = grid.times
    hi = np.clip(np.searchsorted(t, samples.times), 1, t.size - 1)
    left = np.abs(samples.times - t[hi - 1]) <= np.abs(samples.times - t[hi])
    node = np.where(left, hi - 1, hi)
    merged = {}
    for k, w in zip(node.tolist(), samples.weights.tolist()):
        merged[k] = merged.get(k, 0.0) + w
    keys = sorted(merged)
    weights = np.array([merged[k] for k in keys])
    return WeightedTimeSet(times=t[keys], weights=weights / weights.sum())


def slow_pair_sums(y, w, radii, block=512):
    """sum_{i != j} w_i w_j 1{|y_i - y_j| < r} per radius, by sorting each block's distances."""
    m = len(w)
    totals = np.zeros(len(radii))
    for start in range(0, m, block):
        rows = np.arange(start, min(start + block, m))
        dist = cdist(y[rows], y)
        dist[rows - start, rows] = np.inf
        order = np.argsort(dist, axis=None)
        cum = np.concatenate([[0.0], np.cumsum((w[rows, None] * w[None, :]).ravel()[order])])
        totals += cum[np.searchsorted(dist.ravel()[order], radii, side="left")]
    return totals


def _check_occupation_l2(cfg, cell, common, row):
    d = int(cell["d"])
    radii = 2.0 ** -np.asarray(common["radius_exponents"], dtype=float)
    grid = TimeGrid.regular(common["grid_n"])
    fset = build_set(cell.get("set", {"kind": "full"}))
    samples = _snap_to_grid(
        sample_natural_measure(fset, common["n_samples"], seed=cfg.seed_base), grid)
    w = samples.weights
    if cell.get("path", "fbm") == "constant":
        # every distinct pair is at distance 0, closer than any radius
        totals = np.full(radii.size, 1.0 - float(np.sum(w * w)))
    else:
        if cell.get("drift", "zero") == "lipschitz":
            drift = lipschitz_drift(grid, d)
        else:
            drift = np.zeros((d, len(grid)))
        totals = np.zeros(radii.size)
        for s in range(cfg.seeds):
            path = fbm.generate_fbm_path(cell["hurst"], grid, d=d, seed=cfg.seed_base + s)
            _, img = drifted_image(path, drift, samples)
            totals += slow_pair_sums(img, w, radii)
        totals /= cfg.seeds
    values = (totals / radii**d).tolist()
    got = row["diagnostics"]["values"]
    if not all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(values, got)):
        return False, f"pair sums {values} != row values {got}", {}
    return True, f"{len(values)} radii agree", {"values": values}


# -- interior slow route: dict histogram and neighbourhood scan ---------------

def slow_histogram(weights, values, epsilon):
    """Cell masses by a Python loop over the points; origin at the componentwise minimum."""
    origin = values.min(axis=0).tolist()
    cells = {}
    for w, v in zip(weights.tolist(), values.tolist()):
        key = tuple(math.floor((x - o) / epsilon) for x, o in zip(v, origin))
        cells[key] = cells.get(key, 0.0) + w
    return cells


def slow_has_interior(cells, radius):
    """True when some cell has its whole l-infinity neighbourhood of ``radius`` occupied."""
    d = len(next(iter(cells)))
    offsets = list(np.ndindex(*(2 * radius + 1,) * d))
    for key in cells:
        if all(tuple(k + o - radius for k, o in zip(key, off)) in cells for off in offsets):
            return True
    return False


def _check_interior(cfg, cell, common, row):
    d = int(cell["d"])
    epsilon = float(cell["epsilon"])
    radius = int(cell.get("radius_cells", 2))
    fset = build_set(cell.get("set", {"kind": "full"}))
    samples = sample_natural_measure(fset, common["n_samples"], seed=cfg.seed_base)
    grid = TimeGrid.regular(common["grid_n"])
    hits, n_cells, mass_digest = 0, [], []
    for s in range(cfg.seeds):
        if cfg.kind == "theorem41" and cell.get("alpha_p") is not None:
            path = fbm.generate_mixed_path(
                cell["hurst"], cell["alpha_p"], grid, d=d,
                seed_pair=(cfg.seed_base + 2 * s, cfg.seed_base + 2 * s + 1))
            drift = np.zeros((d, len(grid)))
        else:
            path = fbm.generate_fbm_path(cell["hurst"], grid, d=d, seed=cfg.seed_base + s)
            if cell.get("drift", "zero") == "lipschitz":
                drift = lipschitz_drift(grid, d)
            else:
                drift = np.zeros((d, len(grid)))
        w, img = drifted_image(path, drift, samples)
        slow = slow_histogram(w, img, epsilon)
        fast = occupation_histogram(w, img, epsilon).cells
        if slow.keys() != fast.keys() or not all(
                math.isclose(slow[k], fast[k], rel_tol=1e-12, abs_tol=1e-15) for k in slow):
            return False, f"histogram of seed {s} differs from the slow route", {}
        hits += slow_has_interior(slow, radius)
        n_cells.append(len(slow))
        mass_digest.append(_json_digest(sorted(slow)))
    frac = hits / cfg.seeds
    if frac != row["estimate"]:
        return False, f"interior fraction {frac} != row estimate {row['estimate']}", {}
    record = {"cells": n_cells, "cell_keys": mass_digest, "fraction": frac}
    return True, f"histograms of {cfg.seeds} seeds agree, fraction {frac}", record


# ---------------------------------------------------------------------------
# small-calls: the criterion-2 loop of 16-step paths, then the Gaussian sweeps

FBM_HURSTS = (0.2, 0.5, 0.8)
MIXED_PAIRS = ((0.6, 0.3), (0.8, 0.4))
SWEEP_HURSTS = (0.2, 0.5, 0.8)


@dataclass
class SmallState:
    seed: int
    grid: TimeGrid
    path_seeds: range


@dataclass
class SmallCallsWorkload:
    """Criterion 2 at 1/10 of its seeds, criterion 6's sweep and criterion 7's sweep at 1/10."""

    name: str = "small-calls"
    n_paths: int = 1000
    n_steps: int = 16
    detcov_per_hurst: int = 334
    lnd_configs: int = 1000

    def setup(self, seed, workdir):
        return SmallState(
            seed=seed,
            grid=TimeGrid.regular(self.n_steps + 1),
            path_seeds=range(seed * self.n_paths, (seed + 1) * self.n_paths),
        )

    def unit_ids(self):
        return ([f"fbm:H={h}" for h in FBM_HURSTS]
                + [f"mixed:H={h},a={a}" for h, a in MIXED_PAIRS]
                + ["detcov", "lnd"])

    def run_pass(self, state, unit=lambda uid: nullcontext()):
        grid, seeds = state.grid, state.path_seeds
        jobs = [lambda h=h: [fbm.generate_fbm_path(h, grid, d=1, seed=s) for s in seeds]
                for h in FBM_HURSTS]
        jobs += [lambda h=h, a=a: [fbm.generate_mixed_path(h, a, grid, seed_pair=(2 * s, 2 * s + 1))
                                   for s in seeds]
                 for h, a in MIXED_PAIRS]
        jobs.append(lambda: gaussian.detcov_margin_sweep(
            self.detcov_per_hurst, hurst_values=SWEEP_HURSTS, seed=state.seed))
        jobs.append(lambda: gaussian.lnd_margin_sweep(
            self.lnd_configs, hurst=0.7, alpha_p=0.35, interval=(0.1, 1.0),
            max_points=6, seed=state.seed))
        outputs = []
        for uid, job in zip(self.unit_ids(), jobs):
            with unit(uid):
                try:
                    outputs.append(job())
                except Exception as exc:
                    outputs.append(exc)
        return outputs

    def units(self, state, outputs):
        result = []
        for uid, out in zip(self.unit_ids(), outputs):
            if isinstance(out, Exception):
                result.append(Unit(uid, error=f"{type(out).__name__}: {out}"))
            elif uid in ("detcov", "lnd"):
                recs = out if uid == "detcov" else out[0]
                key = "margin" if uid == "detcov" else "ratio"
                vals = [r[key] for r in recs]
                record = {
                    "configs": len(recs),
                    "sum": math.fsum(vals),
                    "min": min(vals),
                    "config_hashes": _sha("".join(r["config"] for r in recs).encode()),
                }
                result.append(Unit(uid, record=record, digest=_json_digest(recs)))
            else:
                v = np.stack([p.values for p in out])
                record = {
                    "paths": len(out),
                    "sum_abs": math.fsum(np.abs(v).ravel().tolist()),
                    "sum_sq": math.fsum((v * v).ravel().tolist()),
                }
                result.append(Unit(uid, record=record, digest=_sha(v.tobytes())))
        return result

    def check(self, state, units):
        """Slow route for the seed's sampled unit: pure-Python DFT or elimination."""
        rnd = random.Random(state.seed)
        ids = self.unit_ids()
        k = rnd.randrange(len(ids))
        uid = ids[k]
        if units[k].error:
            return Check(uid, False, f"unit failed: {units[k].error}")
        if uid == "detcov":
            item = rnd.randrange(self.detcov_per_hurst * len(SWEEP_HURSTS))
            ok, detail, record = self._check_detcov(state, item)
        elif uid == "lnd":
            item = rnd.randrange(self.lnd_configs)
            ok, detail, record = self._check_lnd(state, item)
        else:
            s = state.path_seeds[rnd.randrange(self.n_paths)]
            ok, detail, record = self._check_path(state, k, s)
        return Check(uid, ok, detail, record)

    def _check_path(self, state, k, s):
        if k < len(FBM_HURSTS):
            h = FBM_HURSTS[k]
            fast = fbm.generate_fbm_path(h, state.grid, d=1, seed=s).values[0]
            slow = slow_fgn_path(h, self.n_steps, s, tag=0)
        else:
            h, a = MIXED_PAIRS[k - len(FBM_HURSTS)]
            fast = fbm.generate_mixed_path(h, a, state.grid, seed_pair=(2 * s, 2 * s + 1)).values[0]
            slow = [x + y for x, y in zip(slow_fgn_path(h, self.n_steps, 2 * s, tag=0),
                                          slow_fgn_path(a, self.n_steps, 2 * s + 1, tag=1))]
        if not all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12) for x, y in zip(fast, slow)):
            return False, f"path seed {s} differs from the naive DFT route", {}
        return True, f"path seed {s} matches the naive DFT route", {"seed": s, "values": slow}

    def _check_detcov(self, state, item):
        rng = _sweep_rng(state.seed, 0)
        for idx in range(item + 1):
            h = SWEEP_HURSTS[idx // self.detcov_per_hurst]
            n = int(rng.integers(1, 6))
            t = np.sort(rng.uniform(0.01, 1.0, size=n))
            while np.any(np.diff(t) < 1e-4):
                t = np.sort(rng.uniform(0.01, 1.0, size=n))
        rec = gaussian.detcov_margin_sweep(
            self.detcov_per_hurst, hurst_values=SWEEP_HURSTS, seed=state.seed)[item]
        times = t.tolist()
        if rec["config"] != _json_digest({"H": h, "times": times})[:16]:
            return False, f"detcov config {item} does not replay", {}
        cov = [[_fbm_cov(a, b, h) for b in times] for a in times]
        bound = 1.0
        for j, tj in enumerate(times):
            bound *= min(abs(tj - ti) for ti in [0.0] + times[:j]) ** (2 * h)
        margin = _det(cov) / bound
        if not math.isclose(margin, rec["margin"], rel_tol=1e-6):
            return False, f"detcov margin {rec['margin']!r} != slow {margin!r}", {}
        return True, f"detcov config {item} margin agrees", {"item": item, "margin": margin}

    def _check_lnd(self, state, item):
        rng = _sweep_rng(state.seed, 1)
        for _ in range(item + 1):
            n = int(rng.integers(1, 7))
            pts = np.sort(rng.uniform(0.1, 1.0, size=n + 1))
            while np.any(np.diff(pts) < 1e-5):
                pts = np.sort(rng.uniform(0.1, 1.0, size=n + 1))
            pick = int(rng.integers(0, n + 1))
        u = float(pts[pick])
        times = np.delete(pts, pick).tolist()
        recs, _ = gaussian.lnd_margin_sweep(
            self.lnd_configs, hurst=0.7, alpha_p=0.35, interval=(0.1, 1.0),
            max_points=6, seed=state.seed)
        rec = recs[item]
        if rec["config"] != _json_digest({"H": 0.7, "a": 0.35, "u": u, "times": times})[:16]:
            return False, f"lnd config {item} does not replay", {}

        def cov(a, b):
            return _fbm_cov(a, b, 0.7) + _fbm_cov(a, b, 0.35)

        cvar = cov(u, u) - _quad_form([[cov(a, b) for b in times] for a in times],
                                      [cov(a, u) for a in times])
        gap = min(abs(u - t) for t in [0.0] + times)
        ratio = cvar / (gap ** 0.7 + gap ** 1.4)
        if not math.isclose(ratio, rec["ratio"], rel_tol=1e-6):
            return False, f"lnd ratio {rec['ratio']!r} != slow {ratio!r}", {}
        return True, f"lnd config {item} ratio agrees", {"item": item, "ratio": ratio}


def _sweep_rng(seed, tag):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(5, int(tag)))
    return np.random.Generator(np.random.Philox(ss))


def _fbm_cov(s, t, h):
    return 0.5 * (abs(s) ** (2 * h) + abs(t) ** (2 * h) - abs(s - t) ** (2 * h))


def _eliminate(a, b):
    """Gaussian elimination with partial pivoting: (determinant of a, solution of a x = b)."""
    m = len(a)
    a = [row[:] for row in a]
    b = b[:]
    det = 1.0
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            det = -det
        for row in range(col + 1, m):
            f = a[row][col] / a[col][col]
            for k in range(col, m):
                a[row][k] -= f * a[col][k]
            b[row] -= f * b[col]
        det *= a[col][col]
    x = [0.0] * m
    for row in range(m - 1, -1, -1):
        x[row] = (b[row] - sum(a[row][k] * x[k] for k in range(row + 1, m))) / a[row][row]
    return det, x


def _det(a):
    return _eliminate(a, [0.0] * len(a))[0]


def _quad_form(a, b):
    """b^T a^{-1} b."""
    return sum(bi * xi for bi, xi in zip(b, _eliminate(a, b)[1]))


def slow_fgn_path(hurst, n, seed, tag, coord=0):
    """Path on linspace(0, 1, n + 1): circulant embedding with a pure-Python DFT.

    Uses the same counter-based normals as the program (stream per seed, tag,
    coordinate), so the result must equal its FFT route up to rounding.
    """
    gap = 1.0 / n
    h2 = 2.0 * hurst
    acov = [0.5 * ((k + 1) ** h2 - 2.0 * k ** h2 + abs(k - 1) ** h2) * gap ** h2
            for k in range(n + 1)]
    row = acov[:n] + [acov[n]] + acov[n - 1:0:-1]
    m2 = 2 * n
    lam = [max(sum(row[j] * math.cos(2 * math.pi * j * k / m2) for j in range(m2)), 0.0)
           for k in range(m2)]
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(tag), int(coord)))
    z = np.random.Generator(np.random.Philox(ss)).standard_normal(m2).tolist()
    zeta = [0j] * m2
    zeta[0], zeta[n] = complex(z[0]), complex(z[1])
    for k in range(1, n):
        zeta[k] = complex(z[k + 1], z[n + k]) / math.sqrt(2.0)
        zeta[m2 - k] = zeta[k].conjugate()
    inc = [sum(math.sqrt(lam[k]) * zeta[k] * cmath.exp(-2j * math.pi * j * k / m2)
               for k in range(m2)).real / math.sqrt(m2) for j in range(n)]
    return [0.0] + list(np.cumsum(inc))


# ---------------------------------------------------------------------------
# the acceptance configs; seeds per pass are the benchmark's choice

def _dim_formula_cells():
    cells = []
    for d in (1, 2):
        for alpha, hurst in ((0.5, 0.5), (0.3, 0.6), (0.4, 0.8)):
            cells.append({"alpha": alpha, "hurst": hurst, "d": d, "set": {"kind": "full"}})
            cells.append({"alpha": alpha, "hurst": hurst, "d": d,
                          "set": {"kind": "middle-thirds", "generation": 8 if d == 1 else 6}})
    return cells


DIM_FORMULA = {
    "kind": "dim-formula",
    "seeds": 1,
    "params": {
        "cells": _dim_formula_cells(),
        "grid_n": 2**16,
        "delta_coarse_exp": 4,
        "delta_fine_exp": 12,
        "per_octave": 2,
        "min_r_squared": 0.98,
        "trim_octaves": 0.0,
        "max_count_fraction": 0.2,
    },
}

OCCUPATION_L2 = {
    "kind": "occupation-l2",
    "seeds": 1,
    "params": {
        "cells": [
            {"hurst": 0.3, "d": 2, "set": {"kind": "full"}, "drift": "zero", "check": "bounded"},
            {"hurst": 0.3, "d": 2, "set": {"kind": "full"}, "drift": "lipschitz",
             "check": "bounded"},
            {"hurst": 0.3, "d": 2, "path": "constant", "check": "slope"},
        ],
        "n_samples": 4096,
        "grid_n": 2**14,
        "radius_exponents": [4, 5, 6, 7, 8, 9, 10],
        "max_ratio": 3.0,
        "slope_tolerance": 0.1,
    },
}

THEOREM41 = {
    "kind": "theorem41",
    "seeds": 4,
    "params": {
        "cells": [
            {"alpha_p": 0.6, "hurst": 0.8, "d": 1,
             "set": {"kind": "generalized-cantor", "dim": 0.7, "generation": 10},
             "epsilon": 2.0**-6, "radius_cells": 2, "expect": "interior", "threshold": 0.9},
            {"hurst": 0.5, "d": 1, "set": {"kind": "full"},
             "epsilon": 2.0**-6, "radius_cells": 2, "expect": "interior", "threshold": 0.9},
            {"hurst": 0.4, "d": 2,
             "set": {"kind": "generalized-cantor", "dim": 0.45, "generation": 8},
             "epsilon": 2.0**-4, "radius_cells": 2, "expect": "no-interior", "threshold": 0.1},
        ],
        "n_samples": 2**14,
        "grid_n": 2**16,
    },
}

INTERIOR = {
    "kind": "interior",
    "seeds": 4,
    "params": {
        "cells": [
            {"hurst": 0.3, "d": 2, "set": {"kind": "full"}, "drift": "lipschitz",
             "epsilon": 2.0**-4, "radius_cells": 2, "expect": "interior", "threshold": 0.9},
        ],
        "n_samples": 2**14,
        "grid_n": 2**16,
    },
}

WORKLOADS = {
    "dim-formula": ExperimentWorkload("dim-formula", [DIM_FORMULA]),
    "occupation-cli": ExperimentWorkload(
        "occupation-cli", [OCCUPATION_L2, THEOREM41, INTERIOR], via_cli=True),
    "small-calls": SmallCallsWorkload(),
}
