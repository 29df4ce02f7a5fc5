"""Spans recorded from outside the program, around calls into parafbm's modules.

A hook replaces one function where its callers look it up (a module or class
attribute) with a wrapper that records a span per call: name, start, end,
parent span, the cell it ran for, and counts of the work it was handed.
Hooks are installed only for the duration of a traced pass and the original
functions are put back afterwards, also when the pass raises.

A span's name is ``<layer>.<part>``; the layer is the parafbm module
(``fbm``, ``fractals``, ``estimators``, ``occupation``, ``gaussian``,
``experiments``, ``cli``).  ``bench.*`` spans belong to the benchmark itself
and are charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    cell: str | None = None
    context: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; ``context`` (workload, seed, pass) is shared by new spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.context = {}
        self._stack = []

    def open(self, name, cell=None):
        parent = self._stack[-1] if self._stack else -1
        if cell is None and parent >= 0:
            cell = self.spans[parent].cell
        span = Span(name, self.clock(), parent=parent, cell=cell, context=self.context)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name, cell=None):
        s = self.open(name, cell)
        try:
            yield s
        finally:
            self.close(s)

    def write_jsonl(self, path):
        """One JSON array per span: name, start, end, parent, cell, context, counts."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    [s.name, s.start, s.end, s.parent, s.cell, s.context, s.counts]
                ) + "\n")


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` with a span called ``name``.

    ``count(counts, args, kwargs, result)`` adds work counts after the call
    returns, outside the span.  ``cell(args, kwargs)`` names the cell the
    call runs for.  An ``optional`` hook on a private function is skipped
    when the program no longer has it.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None
    cell: Callable | None = None
    optional: bool = False


def _wrap(tracer, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell = hook.cell(args, kwargs) if hook.cell else None
        span = tracer.open(hook.name, cell)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook.count:
            hook.count(span.counts, args, kwargs, result)
        return result
    return wrapper


@contextmanager
def installed(tracer, hooks):
    """Install every hook for the body of the ``with`` block, then restore the originals."""
    saved = []
    try:
        for hook in hooks:
            attrs = vars(hook.owner)
            if hook.attr not in attrs and hook.optional:
                continue
            original = attrs[hook.attr]
            saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, _wrap(tracer, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


# ---------------------------------------------------------------------------
# the hooks: where parafbm's callers look its public functions up

def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_path(counts, args, kwargs, result):
    _add(counts, "points", int(result.values.size))


def _count_box(counts, args, kwargs, result):
    _add(counts, "points", int(args[0].n))


def _count_restrict(counts, args, kwargs, result):
    _add(counts, "in", int(args[0].n))
    _add(counts, "kept", int(result.n))


def _count_fit(counts, args, kwargs, result):
    _add(counts, "scales", int(np.size(_arg(args, kwargs, 1, "deltas"))))
    _add(counts, "kept_scales", int(result.n_points_used))


def _count_pairs(counts, args, kwargs, result):
    for img in _arg(args, kwargs, 0, "images"):
        m = len(img)
        _add(counts, "pairs", m * (m - 1))


def _count_image(counts, args, kwargs, result):
    _add(counts, "points", int(len(result[0])))


def _count_hist(counts, args, kwargs, result):
    _add(counts, "points", int(len(_arg(args, kwargs, 0, "weights"))))
    _add(counts, "cells", len(result.cells))


def _count_erosion(counts, args, kwargs, result):
    hist = _arg(args, kwargs, 0, "hist")
    if hist.cells:
        idx = np.array(list(hist.cells), dtype=np.int64)
        _add(counts, "grid_cells", int(np.prod(idx.max(axis=0) - idx.min(axis=0) + 1)))
        _add(counts, "occupied", len(hist.cells))


def _count_samples(counts, args, kwargs, result):
    _add(counts, "samples", len(result))


def _count_detcov(counts, args, kwargs, result):
    _add(counts, "configs", len(result))


def _count_lnd(counts, args, kwargs, result):
    _add(counts, "configs", len(result[0]))


def _count_run(counts, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    _add(counts, "cells", len(config.params["cells"]))
    out_dir = _arg(args, kwargs, 1, "out_dir")
    if out_dir is not None:
        report = Path(out_dir) / "report.csv"
        if report.exists():
            _add(counts, "report_bytes", report.stat().st_size)


def _cell_id(args, kwargs):
    cell = args[0][1]
    text = json.dumps(cell, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def parafbm_hooks():
    """Hooks on the lookups that parafbm's modules and the benchmark make."""
    from parafbm import cli, estimators, experiments, fbm, gaussian, occupation
    from parafbm.estimators import GraphCloud

    return [
        Hook(cli, "cli_main", "cli.main"),
        Hook(cli, "run_experiment", "experiments.run", _count_run),
        Hook(experiments, "run_experiment", "experiments.run", _count_run),
        Hook(experiments, "_run_one_cell", "experiments.cell", cell=_cell_id,
             optional=True),
        Hook(experiments, "generate_fbm_path", "fbm.path", _count_path),
        Hook(experiments, "generate_mixed_path", "fbm.mixed"),
        Hook(fbm, "generate_fbm_path", "fbm.path", _count_path),
        Hook(fbm, "generate_mixed_path", "fbm.mixed"),
        Hook(experiments, "full_interval", "fractals.set"),
        Hook(experiments, "middle_thirds_cantor", "fractals.set"),
        Hook(experiments, "generalized_cantor", "fractals.set"),
        Hook(experiments, "sample_natural_measure", "fractals.sample", _count_samples),
        Hook(GraphCloud, "restrict", "estimators.restrict", _count_restrict),
        Hook(experiments, "estimate_parabolic_dimension", "estimators.fit", _count_fit),
        Hook(estimators, "box_count_curve", "estimators.curve"),
        Hook(estimators, "parabolic_box_count", "estimators.box_count", _count_box),
        Hook(experiments, "drifted_image", "occupation.image", _count_image),
        Hook(experiments, "l2_density_diagnostic", "occupation.pairs", _count_pairs),
        Hook(experiments, "occupation_histogram", "occupation.hist", _count_hist),
        Hook(occupation, "interior_probe", "occupation.erosion", _count_erosion),
        Hook(gaussian, "detcov_margin_sweep", "gaussian.detcov", _count_detcov),
        Hook(gaussian, "lnd_margin_sweep", "gaussian.lnd", _count_lnd),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics, each per traced pass

#: (name, unit) of every per-layer metric, in the order they are reported
LAYER_METRICS = [
    ("estimators.box_count.calls", "count"),
    ("estimators.box_count.points", "count"),
    ("estimators.box_count.busy_s", "s"),
    ("estimators.box_count.ns_per_point", "ns"),
    ("estimators.curve.busy_s", "s"),
    ("estimators.restrict.busy_s", "s"),
    ("estimators.restrict.kept_fraction", "ratio"),
    ("estimators.fit.busy_s", "s"),
    ("estimators.fit.kept_scale_fraction", "ratio"),
    ("occupation.pairs.busy_s", "s"),
    ("occupation.pairs.pairs", "count"),
    ("occupation.pairs.ns_per_pair", "ns"),
    ("occupation.image.busy_s", "s"),
    ("occupation.image.points", "count"),
    ("occupation.hist.busy_s", "s"),
    ("occupation.hist.points", "count"),
    ("occupation.hist.cells", "count"),
    ("occupation.erosion.busy_s", "s"),
    ("occupation.erosion.grid_cells", "count"),
    ("occupation.erosion.occupied_fraction", "ratio"),
    ("fbm.calls", "count"),
    ("fbm.points", "count"),
    ("fbm.busy_s", "s"),
    ("fbm.us_per_call", "us"),
    ("fractals.busy_s", "s"),
    ("fractals.samples", "count"),
    ("gaussian.configs", "count"),
    ("gaussian.busy_s", "s"),
    ("gaussian.us_per_config", "us"),
    ("experiments.cells", "count"),
    ("experiments.self_s", "s"),
    ("experiments.report_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, n_passes, overhead_s):
    """Per-layer busy (self) time, work counts and ratios, averaged over ``n_passes``."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        busy[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value

    fbm_busy = busy["fbm.path"] + busy["fbm.mixed"]
    gauss_busy = busy["gaussian.detcov"] + busy["gaussian.lnd"]
    gauss_configs = counts["gaussian.detcov.configs"] + counts["gaussian.lnd.configs"]
    total = {
        "estimators.box_count.calls": calls["estimators.box_count"],
        "estimators.box_count.points": counts["estimators.box_count.points"],
        "estimators.box_count.busy_s": busy["estimators.box_count"],
        "estimators.curve.busy_s": busy["estimators.curve"],
        "estimators.restrict.busy_s": busy["estimators.restrict"],
        "estimators.fit.busy_s": busy["estimators.fit"],
        "occupation.pairs.busy_s": busy["occupation.pairs"],
        "occupation.pairs.pairs": counts["occupation.pairs.pairs"],
        "occupation.image.busy_s": busy["occupation.image"],
        "occupation.image.points": counts["occupation.image.points"],
        "occupation.hist.busy_s": busy["occupation.hist"],
        "occupation.hist.points": counts["occupation.hist.points"],
        "occupation.hist.cells": counts["occupation.hist.cells"],
        "occupation.erosion.busy_s": busy["occupation.erosion"],
        "occupation.erosion.grid_cells": counts["occupation.erosion.grid_cells"],
        "fbm.calls": calls["fbm.path"],
        "fbm.points": counts["fbm.path.points"],
        "fbm.busy_s": fbm_busy,
        "fractals.busy_s": busy["fractals.set"] + busy["fractals.sample"],
        "fractals.samples": counts["fractals.sample.samples"],
        "gaussian.configs": gauss_configs,
        "gaussian.busy_s": gauss_busy,
        "experiments.cells": counts["experiments.run.cells"],
        "experiments.self_s": busy["experiments.run"] + busy["experiments.cell"],
        "experiments.report_bytes": counts["experiments.run.report_bytes"],
        "cli.self_s": busy["cli.main"],
    }
    out = {k: v / n_passes for k, v in total.items()} if n_passes else dict(total)
    out.update({
        "estimators.box_count.ns_per_point": _ratio(
            busy["estimators.box_count"], counts["estimators.box_count.points"], 1e9),
        "estimators.restrict.kept_fraction": _ratio(
            counts["estimators.restrict.kept"], counts["estimators.restrict.in"]),
        "estimators.fit.kept_scale_fraction": _ratio(
            counts["estimators.fit.kept_scales"], counts["estimators.fit.scales"]),
        "occupation.pairs.ns_per_pair": _ratio(
            busy["occupation.pairs"], counts["occupation.pairs.pairs"], 1e9),
        "occupation.erosion.occupied_fraction": _ratio(
            counts["occupation.erosion.occupied"], counts["occupation.erosion.grid_cells"]),
        "fbm.us_per_call": _ratio(fbm_busy, calls["fbm.path"], 1e6),
        "gaussian.us_per_config": _ratio(gauss_busy, gauss_configs, 1e6),
        "trace.overhead_s": overhead_s,
    })
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in LAYER_METRICS}
