"""Tests of the benchmark's own code: span arithmetic, hooks, digests, failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from parafbm import cli, estimators, experiments, fbm, gaussian, occupation  # noqa: E402
from parafbm.estimators import GraphCloud  # noqa: E402

SMALL_OCCUPATION = {
    "kind": "occupation-l2",
    "seeds": 1,
    "params": {
        "cells": [
            {"hurst": 0.3, "d": 2, "set": {"kind": "full"}, "drift": "zero", "check": "bounded"},
            {"hurst": 0.3, "d": 2, "path": "constant", "check": "slope"},
        ],
        "n_samples": 128,
        "grid_n": 2**8,
        "radius_exponents": [2, 3, 4],
        "max_ratio": 3.0,
        "slope_tolerance": 0.1,
    },
}

SMALL_DIM = {
    "kind": "dim-formula",
    "seeds": 1,
    "params": {
        "cells": [{"alpha": 0.5, "hurst": 0.5, "d": 1,
                   "set": {"kind": "middle-thirds", "generation": 4}}],
        "grid_n": 2**10,
        "delta_coarse_exp": 2,
        "delta_fine_exp": 6,
        "per_octave": 1,
        "min_r_squared": 0.9,
        "trim_octaves": 0.0,
        "max_count_fraction": 0.5,
    },
}

SMALL_INTERIOR = {
    "kind": "interior",
    "seeds": 2,
    "params": {
        "cells": [{"hurst": 0.3, "d": 2, "set": {"kind": "full"}, "drift": "lipschitz",
                   "epsilon": 2.0**-3, "radius_cells": 1, "expect": "interior",
                   "threshold": 0.9}],
        "n_samples": 512,
        "grid_n": 2**9,
    },
}


def small_workloads():
    return [
        workloads.ExperimentWorkload("occupation", [SMALL_OCCUPATION]),
        workloads.ExperimentWorkload("dim-cli", [SMALL_DIM, SMALL_INTERIOR], via_cli=True),
        workloads.SmallCallsWorkload(n_paths=4, detcov_per_hurst=3, lnd_configs=5),
    ]


def span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent=parent)


def test_self_times_subtract_direct_children_only():
    tree = [
        span("experiments.run", 0.0, 10.0),
        span("estimators.fit", 1.0, 9.0, parent=0),
        span("estimators.curve", 2.0, 8.0, parent=1),
        span("estimators.box_count", 2.0, 4.0, parent=2),
        span("estimators.box_count", 4.5, 7.5, parent=2),
        span("fbm.path", 9.0, 9.5, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([1.5, 2.0, 1.0, 2.0, 3.0, 0.5])


def test_layer_metrics_on_a_synthetic_tree():
    tree = [
        span("estimators.fit", 0.0, 8.0),
        span("estimators.curve", 1.0, 7.0, parent=0),
        span("estimators.box_count", 1.0, 4.0, parent=1),
        span("estimators.box_count", 4.0, 6.0, parent=1),
        span("fbm.mixed", 10.0, 12.0),
        span("fbm.path", 10.0, 10.5, parent=4),
        span("fbm.path", 10.5, 11.5, parent=4),
    ]
    tree[0].counts = {"scales": 4, "kept_scales": 3}
    tree[2].counts = {"points": 1000}
    tree[3].counts = {"points": 1000}
    got = {k: m["value"] for k, m in spans.layer_metrics(tree, 2, 0.25).items()}
    assert set(got) == {name for name, _ in spans.LAYER_METRICS}
    assert got["estimators.fit.busy_s"] == pytest.approx(1.0)       # (8 - 6) / 2 passes
    assert got["estimators.curve.busy_s"] == pytest.approx(0.5)     # (6 - 5) / 2
    assert got["estimators.box_count.busy_s"] == pytest.approx(2.5)
    assert got["estimators.box_count.calls"] == 1.0
    assert got["estimators.box_count.ns_per_point"] == pytest.approx(5.0 / 2000 * 1e9)
    assert got["estimators.fit.kept_scale_fraction"] == pytest.approx(0.75)
    assert got["fbm.busy_s"] == pytest.approx(1.0)                  # whole mixed span
    assert got["fbm.calls"] == 1.0
    assert got["fbm.us_per_call"] == pytest.approx(1e6)
    assert got["trace.overhead_s"] == 0.25


def test_tracer_links_parents_and_inherits_cells():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("bench.unit", cell="c1"):
        with tracer.span("fbm.path"):
            pass
    with tracer.span("fbm.path"):
        pass
    assert [(s.parent, s.cell) for s in tracer.spans] == [(-1, "c1"), (0, "c1"), (-1, None)]
    assert [s.end - s.start for s in tracer.spans] == [3.0, 1.0, 1.0]


def _hooked_functions():
    return {(h.owner, h.attr): vars(h.owner).get(h.attr) for h in spans.parafbm_hooks()}


def test_hooks_are_restored_after_a_traced_run(tmp_path):
    before = _hooked_functions()
    tracer = spans.Tracer()
    for wl in small_workloads():
        worker.measure(wl, 0, 0.0, None, tmp_path, tracer, spans.parafbm_hooks())
    assert _hooked_functions() == before
    assert cli.run_experiment is experiments.run_experiment
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "experiments.run", "fbm.path", "fbm.mixed", "estimators.fit",
            "estimators.box_count", "estimators.restrict", "occupation.pairs",
            "occupation.hist", "occupation.erosion", "gaussian.detcov"} <= names


def test_hooks_are_restored_when_the_pass_raises():
    before = _hooked_functions()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer(), spans.parafbm_hooks()):
            assert fbm.generate_fbm_path is not before[(fbm, "generate_fbm_path")]
            raise RuntimeError("boom")
    assert _hooked_functions() == before
    assert GraphCloud.restrict is before[(GraphCloud, "restrict")]


@pytest.mark.parametrize("index", range(3))
def test_traced_and_untraced_runs_give_identical_digests(tmp_path, index):
    wl = small_workloads()[index]
    plain = worker.measure(wl, 3, 0.0, None, tmp_path)
    traced = worker.measure(wl, 3, 0.0, None, tmp_path, spans.Tracer(),
                            spans.parafbm_hooks())
    assert plain["failed"] == 0 and traced["failed"] == 0, traced["failures"]
    assert len(traced["traced_pass_s"]) == 1 and len(traced["pass_s"]) == 1
    assert [u.digest for u in plain["units"]] == [u.digest for u in traced["units"]]
    assert plain["check"]["ok"] and traced["check"]["ok"]


def test_a_matching_reference_passes_and_an_injected_mismatch_fails(tmp_path, monkeypatch):
    wl = small_workloads()[0]
    ref = worker.reference_entry(worker.measure(wl, 0, 0.0, None, tmp_path))
    clean = worker.measure(wl, 0, 0.0, ref, tmp_path)
    assert clean["failed"] == 0 and clean["attempted"] == 3
    original = experiments.l2_density_diagnostic
    monkeypatch.setattr(experiments, "l2_density_diagnostic",
                        lambda *a, **k: original(*a, **k) * (1.0 + 1e-6))
    bad = worker.measure(wl, 0, 0.0, ref, tmp_path)
    # both cells' rows differ from the reference, and the slow route disagrees
    assert bad["failed"] == 3 and bad["attempted"] == 3
    assert any("differs from the reference" in f for f in bad["failures"])


def test_a_raising_unit_is_a_failed_unit(tmp_path, monkeypatch):
    wl = workloads.SmallCallsWorkload(n_paths=2, detcov_per_hurst=2, lnd_configs=2)

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(gaussian, "lnd_margin_sweep", broken)
    m = worker.measure(wl, 0, 0.0, None, tmp_path)
    assert m["attempted"] == 8
    assert any("lnd: ValueError: injected" in f for f in m["failures"])


def test_close_enough_tolerates_rounding_only():
    rec = {"estimate": 1.2345678901234, "passed": "True", "values": [1.0, 2.0], "flag": True}
    assert workloads.close_enough(rec, json.loads(json.dumps(rec)))
    assert workloads.close_enough(rec, {**rec, "estimate": 1.2345678901234 * (1 + 1e-13)})
    assert not workloads.close_enough(rec, {**rec, "estimate": 1.2345678901234 * (1 + 1e-7)})
    assert not workloads.close_enough(rec, {**rec, "flag": 1})
    assert not workloads.close_enough(rec, {**rec, "values": [1.0]})
    assert not workloads.close_enough(rec, None)


def test_slow_routes_agree_with_the_program():
    grid = fbm.TimeGrid.regular(2**9)
    path = fbm.generate_fbm_path(0.4, grid, d=2, seed=5)
    cloud = GraphCloud.from_path(path)
    for delta in (2.0**-2, 2.0**-5, 2.0**-7):
        assert workloads.slow_box_count(cloud.times, cloud.values, delta, 0.4) == \
            estimators.parabolic_box_count(cloud, delta, 0.4)
    y = path.values.T[::4]
    w = np.random.default_rng(1).random(len(y))
    w /= w.sum()
    radii = 2.0 ** -np.arange(1.0, 6.0)
    want = occupation.l2_density_diagnostic([y], w, radii) * radii**2
    assert np.allclose(workloads.slow_pair_sums(y, w, radii, block=37), want, rtol=1e-12)
    small = fbm.TimeGrid.regular(17)
    for h in (0.2, 0.8):
        fast = fbm.generate_fbm_path(h, small, seed=11, _tag=1).values[0]
        assert np.allclose(workloads.slow_fgn_path(h, 16, 11, tag=1), fast,
                           rtol=1e-9, atol=1e-12)


def test_reference_covers_every_unit_of_every_workload():
    ref = json.loads(worker.REFERENCE.read_text())
    assert ref["seed"] == workloads.DEFAULT_SEED
    assert set(ref["workloads"]) == set(workloads.WORKLOADS)
    counts = {name: len(doc["units"]) for name, doc in ref["workloads"].items()}
    assert counts == {"dim-formula": 12, "occupation-cli": 7, "small-calls": 7}


def test_run_fails_without_printing_a_result_where_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
