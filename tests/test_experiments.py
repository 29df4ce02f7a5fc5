import csv
import inspect
import json
import re
import time

import numpy as np
import pytest

from parafbm import experiments
from parafbm.errors import ConfigError, DegenerateRange, InfeasibleParameters
from parafbm.estimators import estimate_parabolic_dimension
from parafbm.experiments import (
    ExperimentConfig,
    build_set,
    lipschitz_drift,
    run_experiment,
)
from parafbm.fbm import TimeGrid


def small_dim_formula_config(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "dim-formula",
        "seeds": 3,
        "seed_base": 0,
        "params": {
            "cells": [
                {"alpha": 0.5, "hurst": 0.5, "d": 1, "set": {"kind": "full"},
                 "tolerance": 0.15},
            ],
            "grid_n": 2**12,
            "delta_coarse_exp": 3,
            "delta_fine_exp": 10,
            "per_octave": 1,
            "min_r_squared": 0.9,
        },
    }
    doc.update(overrides)
    return doc


def zero_pair_mass_config(check):
    return {
        "kind": "occupation-l2", "seeds": 2,
        "params": {"n_samples": 256, "grid_n": 1024, "cells": [
            {"hurst": 0.3, "d": 2, "set": {"kind": "middle-thirds", "generation": 6},
             "check": check},
        ]},
    }


class TestConfigValidation:
    def test_unknown_top_key(self):
        doc = small_dim_formula_config()
        doc["horst"] = 0.5
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_unknown_param_key(self):
        doc = small_dim_formula_config()
        doc["params"]["gridn"] = 4
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_unknown_kind(self):
        doc = small_dim_formula_config(kind="dimformula")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("kind", [["dim-formula"], None])
    def test_non_string_kind(self, kind):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict(small_dim_formula_config(kind=kind))

    @pytest.mark.parametrize("params", [[{"cells": []}], "cells"])
    def test_params_must_be_object(self, params):
        with pytest.raises(ConfigError, match="params"):
            ExperimentConfig.from_dict(small_dim_formula_config(params=params))

    def test_wrong_schema_version(self):
        doc = small_dim_formula_config(schema_version=2)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("version", [1.9, True, "1"])
    def test_non_integral_schema_version(self, version):
        doc = small_dim_formula_config(schema_version=version)
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("cells", ["abc", [1], [], {"alpha": 0.5}, None, [[0.5]]])
    def test_malformed_cells_rejected(self, cells):
        doc = small_dim_formula_config()
        doc["params"]["cells"] = cells
        with pytest.raises(ConfigError, match="cell"):
            ExperimentConfig.from_dict(doc)

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    @pytest.mark.parametrize("overrides", [
        {"seeds": 1.9}, {"seeds": True}, {"seeds": "3"},
        {"seed_base": 2.9}, {"seed_base": False}, {"seed_base": None},
    ])
    def test_non_integral_seeds_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(small_dim_formula_config(**overrides))

    def test_integer_config_hashes_unchanged(self):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        assert cfg.config_hash() == "ba87b40dfbae4811"
        for seeds, base in ((7, 3), (7.0, 3.0), (np.int64(7), np.int64(3))):
            cfg = ExperimentConfig.from_dict(small_dim_formula_config(seeds=seeds, seed_base=base))
            assert cfg.config_hash() == "a0e505dbb8ed7b79"
            assert type(cfg.seeds) is int and type(cfg.seed_base) is int

    def test_roundtrip_and_hash_stability(self):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.config_hash() == again.config_hash()


class TestBuildSet:
    def test_full(self):
        assert build_set({"kind": "full"}).theoretical_dim == 1.0

    def test_middle_thirds(self):
        s = build_set({"kind": "middle-thirds", "generation": 5})
        assert s.generation == 5

    def test_generalized_by_dim(self):
        s = build_set({"kind": "generalized-cantor", "dim": 0.7, "generation": 6})
        assert s.theoretical_dim == pytest.approx(0.7)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_set({"kind": "full", "typo": 1})


class TestDimFormulaRun:
    def test_runs_and_reports(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        rows = run_experiment(cfg, out_dir=tmp_path / "out")
        assert len(rows) == 1
        row = rows[0]
        assert row.theory == pytest.approx(1.0)
        assert abs(row.estimate - 1.0) < 0.15
        assert row.passed
        report = (tmp_path / "out" / "report.csv").read_text()
        assert "dim-formula" in report
        cfg_echo = json.loads((tmp_path / "out" / "config.json").read_text())
        assert cfg_echo["kind"] == "dim-formula"

    def test_rows_identical_on_rerun_modulo_runtime(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")

        def rows_without_runtime(p):
            with open(p) as fh:
                rows = list(csv.DictReader(fh))
            for r in rows:
                r.pop("runtime_s")
            return rows

        assert rows_without_runtime(tmp_path / "a" / "report.csv") == \
            rows_without_runtime(tmp_path / "b" / "report.csv")

    def test_parallel_matches_serial(self, tmp_path):
        doc = small_dim_formula_config()
        doc["params"]["cells"] = [
            {"alpha": 0.5, "hurst": 0.5, "d": 1, "set": {"kind": "full"}},
            {"alpha": 0.4, "hurst": 0.5, "d": 1, "set": {"kind": "full"}},
        ]
        cfg = ExperimentConfig.from_dict(doc)
        serial = run_experiment(cfg, out_dir=None, workers=1)
        parallel = run_experiment(cfg, out_dir=None, workers=2)
        assert [r.estimate for r in serial] == [r.estimate for r in parallel]

    def test_config_hash_embedded(self):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        rows = run_experiment(cfg, out_dir=None)
        assert rows[0].config_hash == cfg.config_hash()

    @pytest.mark.parametrize("text", ["1.5", "abc", "true", ""])
    def test_non_integral_workers_env_rejected(self, monkeypatch, text):
        monkeypatch.setenv("PARAFBM_WORKERS", text)
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        with pytest.raises(ConfigError, match="PARAFBM_WORKERS"):
            run_experiment(cfg)
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(cfg, workers=1.5)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(cfg, workers=workers)

    def test_zero_workers_env_rejected(self, monkeypatch):
        monkeypatch.setenv("PARAFBM_WORKERS", "0")
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        with pytest.raises(ConfigError, match="PARAFBM_WORKERS must be >= 1, got 0"):
            run_experiment(cfg)

    def test_pool_capped_at_job_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        # six cells, two alpha runs: two jobs
        rows = run_experiment(ExperimentConfig.from_dict(_GRAPH_CONFIGS["dim-formula"]),
                              workers=8)
        assert len(rows) == 6 and sizes == [2]
        monkeypatch.setenv("PARAFBM_WORKERS", "2")
        run_experiment(ExperimentConfig.from_dict(small_dim_formula_config()))
        assert sizes == [2]   # one job runs serially, without a pool

    def test_workers_env_var(self, monkeypatch):
        monkeypatch.setenv("PARAFBM_WORKERS", "2")
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        rows = run_experiment(cfg, out_dir=None)   # env-driven pool
        serial = run_experiment(cfg, out_dir=None, workers=1)
        assert [r.estimate for r in rows] == [r.estimate for r in serial]


class TestHolderAndComparisonRuns:
    def test_holder_bounds_sandwich(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "holder-bounds",
            "seeds": 3,
            "params": {
                "cells": [{"alpha": 0.4, "hurst": 0.6, "d": 1,
                           "set": {"kind": "full"}}],
                "grid_n": 2**13,
                "delta_coarse_exp": 3,
                "delta_fine_exp": 10,
                "per_octave": 2,
                "margin": 0.1,
            },
        })
        rows = run_experiment(cfg)
        row = rows[0]
        assert row.diagnostics["lower"] == 1.0
        assert row.diagnostics["upper"] == pytest.approx(1.2)
        assert row.passed

    def test_comparison_bounds_bracket(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "comparison-bounds",
            "seeds": 3,
            "params": {
                "cells": [{"alpha": 0.4, "hurst": 0.5, "hurst_prime": 0.7,
                           "d": 1, "set": {"kind": "full"}}],
                "grid_n": 2**13,
                "delta_coarse_exp": 3,
                "delta_fine_exp": 10,
                "per_octave": 2,
                "margin": 0.12,
            },
        })
        rows = run_experiment(cfg)
        row = rows[0]
        assert row.diagnostics["lower"] <= row.diagnostics["upper"]
        assert row.passed


class TestKernelScalingRun:
    def test_small(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "kernel-scaling",
            "seeds": 1,
            "params": {
                "cells": [{"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}],
                "n_samples": 100_000,
                "t_exponents": [1, 2, 3, 4, 5, 6, 7, 8],
                "rel_tolerance": 0.08,
            },
        })
        rows = run_experiment(cfg)
        assert rows[0].theory == pytest.approx(-2.4)
        assert rows[0].passed


class TestOccupationL2Run:
    def test_bounded_and_control(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "occupation-l2",
            "seeds": 4,
            "params": {
                "cells": [
                    {"hurst": 0.3, "d": 1, "set": {"kind": "full"},
                     "drift": "zero", "check": "bounded"},
                    {"hurst": 0.3, "d": 1, "path": "constant", "check": "slope"},
                ],
                "n_samples": 1200,
                "grid_n": 2**11,
                "radius_exponents": [3, 4, 5, 6, 7],
                "max_ratio": 3.0,
                "slope_tolerance": 0.1,
            },
        })
        rows = run_experiment(cfg)
        by_check = {r.cell.get("check"): r for r in rows}
        assert by_check["bounded"].passed
        assert by_check["slope"].theory == -1.0
        assert by_check["slope"].passed

    @pytest.mark.parametrize("check", ["bounded", "slope"])
    def test_zero_pair_mass_raises(self, check):
        # 256 samples of a generation-6 Cantor set in d = 2: no two images lie
        # within 2^-9, which gave a ratio of inf or a slope of nan
        cfg = ExperimentConfig.from_dict(zero_pair_mass_config(check))
        with pytest.raises(DegenerateRange, match=r"radius 2\^-9.*n_samples=256"):
            run_experiment(cfg)


class TestInteriorRuns:
    def test_trivial_d1_interior(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "theorem41",
            "seeds": 5,
            "params": {
                "cells": [{
                    "hurst": 0.5, "d": 1, "set": {"kind": "full"},
                    "epsilon": 2.0**-6, "radius_cells": 2,
                    "expect": "interior", "threshold": 0.9,
                }],
                "n_samples": 4096,
                "grid_n": 2**12,
            },
        })
        rows = run_experiment(cfg)
        assert rows[0].estimate >= 0.9
        assert rows[0].passed

    def test_infeasible_parameters(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "theorem41",
            "seeds": 1,
            "params": {
                "cells": [{
                    "hurst": 0.8, "alpha_p": 0.8, "d": 1,
                    "set": {"kind": "generalized-cantor", "dim": 0.7, "generation": 6},
                    "epsilon": 0.25, "expect": "interior",
                }],
                "n_samples": 128,
                "grid_n": 256,
            },
        })
        with pytest.raises(InfeasibleParameters):
            run_experiment(cfg)

    def test_abort_keeps_completed_rows(self, tmp_path):
        # cells run in canonical order: alpha_p 0.3 (feasible) before 0.9 (infeasible)
        doc = {
            "kind": "theorem41",
            "seeds": 2,
            "params": {
                "cells": [
                    {"alpha_p": 0.3, "hurst": 0.5, "d": 1, "set": {"kind": "full"},
                     "epsilon": 0.015625, "expect": "interior"},
                    {"alpha_p": 0.9, "hurst": 0.8, "d": 1,   # infeasible: aborts
                     "set": {"kind": "generalized-cantor", "dim": 0.5, "generation": 5},
                     "epsilon": 0.015625, "expect": "interior"},
                ],
                "n_samples": 512,
                "grid_n": 2**10,
            },
        }
        cfg = ExperimentConfig.from_dict(doc)
        out = tmp_path / "out"
        with pytest.raises(InfeasibleParameters):
            run_experiment(cfg, out_dir=out)
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1   # the feasible cell was flushed before the abort


def test_lipschitz_drift_shape():
    g = TimeGrid.regular(8)
    f = lipschitz_drift(g, 3)
    assert f.shape == (3, 8)
    steps = np.abs(np.diff(f, axis=1)) / np.diff(g.times)
    assert steps.max() <= 1.0 + 1e-12


# -- graph-dimension cells share one path per alpha and seed ------------------

_GRAPH_COMMON = {
    "grid_n": 2**10, "delta_coarse_exp": 1, "delta_fine_exp": 6, "per_octave": 2,
    "trim_octaves": 0.0, "max_count_fraction": 0.5,
}
_MID = {"kind": "middle-thirds", "generation": 4}

_GRAPH_CONFIGS = {
    "dim-formula": {
        "kind": "dim-formula", "seeds": 3, "seed_base": 4,
        "params": {**_GRAPH_COMMON, "min_r_squared": 0.9, "cells": [
            {"alpha": 0.5, "hurst": 0.5, "d": 1, "set": {"kind": "full"}},
            {"alpha": 0.3, "hurst": 0.6, "d": 2, "set": _MID},
            {"alpha": 0.5, "hurst": 0.5, "d": 1, "set": _MID},
            {"alpha": 0.3, "hurst": 0.6, "d": 1, "set": {"kind": "full"}},
            {"alpha": 0.3, "hurst": 0.6, "d": 2, "set": {"kind": "full"}},
            {"alpha": 0.3, "hurst": 0.7, "d": 2, "set": {"kind": "full"}},
        ]},
    },
    "holder-bounds": {
        "kind": "holder-bounds", "seeds": 2, "seed_base": 1,
        "params": {**_GRAPH_COMMON, "margin": 0.1, "cells": [
            {"alpha": 0.4, "hurst": 0.6, "d": 1, "set": {"kind": "full"}},
            {"alpha": 0.4, "hurst": 0.6, "d": 1, "set": _MID},
            {"alpha": 0.4, "hurst": 0.8, "d": 1, "set": _MID},
            {"alpha": 0.2, "hurst": 0.5, "d": 2},
        ]},
    },
    "comparison-bounds": {
        "kind": "comparison-bounds", "seeds": 2, "seed_base": 0,
        "params": {**_GRAPH_COMMON, "margin": 0.1, "cells": [
            {"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6, "d": 1, "set": {"kind": "full"}},
            {"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6, "d": 1, "set": _MID},
            {"alpha": 0.3, "hurst": 0.5, "hurst_prime": 0.7, "d": 2, "set": {"kind": "full"}},
        ]},
    },
}

# two or more jobs each, so two workers run a pool: six graph cells in two
# alpha runs, and two one-cell interior jobs
_POOLED_CONFIGS = {
    "dim-formula": _GRAPH_CONFIGS["dim-formula"],
    "interior": {
        "kind": "interior", "seeds": 2, "seed_base": 1,
        "params": {"n_samples": 256, "grid_n": 512, "cells": [
            {"hurst": 0.5, "d": 1, "epsilon": 0.0625, "drift": "lipschitz"},
            {"hurst": 0.3, "d": 2, "epsilon": 0.125, "expect": "no-interior",
             "threshold": 0.5, "set": _MID},
        ]},
    },
}


def _records(rows):
    """csv records of rows without runtime_s."""
    out = []
    for row in rows:
        rec = row.csv_record()
        rec.pop("runtime_s")
        out.append(rec)
    return out


def _path_keys(cells):
    return {c["alpha"] for c in cells}


@pytest.fixture
def path_calls(monkeypatch):
    """Counts the fBm paths run_experiment draws (serial runs only)."""
    calls = []
    real = experiments.generate_fbm_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "generate_fbm_path", counting)
    return calls


class TestSharedPaths:
    @pytest.mark.parametrize("kind", sorted(_GRAPH_CONFIGS))
    def test_grouped_rows_equal_one_cell_runs(self, kind):
        doc = _GRAPH_CONFIGS[kind]
        cfg = ExperimentConfig.from_dict(doc)
        grouped = _records(run_experiment(cfg))
        cells = sorted(doc["params"]["cells"], key=lambda c: json.dumps(c, sort_keys=True))
        assert [json.loads(r["cell"]) for r in grouped] == cells
        for rec, cell in zip(grouped, cells):
            one = ExperimentConfig.from_dict(
                {**doc, "params": {**doc["params"], "cells": [cell]}})
            (alone,) = _records(run_experiment(one))
            assert rec.pop("config_hash") == cfg.config_hash()
            assert alone.pop("config_hash") == one.config_hash()
            assert rec == alone

    @pytest.mark.parametrize("kind", sorted(_GRAPH_CONFIGS))
    def test_one_path_per_key_and_seed(self, kind, path_calls):
        doc = _GRAPH_CONFIGS[kind]
        run_experiment(ExperimentConfig.from_dict(doc))
        assert len(path_calls) == len(_path_keys(doc["params"]["cells"])) * doc["seeds"]

    def test_comparison_cell_fits_h_and_h_prime_on_one_path(self, path_calls):
        doc = _GRAPH_CONFIGS["comparison-bounds"]
        cell = doc["params"]["cells"][0]
        run_experiment(ExperimentConfig.from_dict(
            {**doc, "params": {**doc["params"], "cells": [cell]}}))
        assert len(path_calls) == doc["seeds"]

    @pytest.mark.parametrize("kind", sorted(_POOLED_CONFIGS))
    def test_workers_keep_rows_and_report(self, tmp_path, kind):
        cfg = ExperimentConfig.from_dict(_POOLED_CONFIGS[kind])
        serial = run_experiment(cfg, out_dir=tmp_path / "serial", workers=1)
        pooled = run_experiment(cfg, out_dir=tmp_path / "pooled", workers=2)
        assert _records(pooled) == _records(serial)

        def report(name):
            with open(tmp_path / name / "report.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            for r in rows:
                assert float(r.pop("runtime_s")) >= 0.0
            return rows

        assert report("pooled") == report("serial") == _records(serial)

    def test_labelled_cells_keep_sorted_rows(self, path_calls):
        # every graph cell's canonical JSON starts with its alpha ("label"
        # sorts after it), so the two alpha = 0.5 cells sort next to each
        # other and share one job
        cells = [
            {"label": 2, "alpha": 0.5, "d": 1, "hurst": 0.5, "set": _MID},
            {"label": 1, "alpha": 0.3, "d": 2, "hurst": 0.6},
            {"label": 0, "alpha": 0.5, "d": 2, "hurst": 0.5},
        ]
        doc = _GRAPH_CONFIGS["dim-formula"]
        cfg = ExperimentConfig.from_dict(
            {**doc, "seeds": 2, "params": {**doc["params"], "cells": cells}})
        rows = run_experiment(cfg)
        assert [r.cell["label"] for r in rows] == [1, 2, 0]
        assert len(path_calls) == 2 * 2
        for row in rows:
            (alone,) = run_experiment(ExperimentConfig.from_dict(
                {**doc, "seeds": 2, "params": {**doc["params"], "cells": [row.cell]}}))
            assert row.estimate == alone.estimate

    def test_sampling_time_charged_to_first_cell(self, monkeypatch):
        real = experiments.generate_fbm_path

        def slow(*args, **kwargs):
            time.sleep(0.1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "generate_fbm_path", slow)
        doc = _GRAPH_CONFIGS["holder-bounds"]   # runs: (0.2, 2) alone, then three (0.4, 1)
        rows = run_experiment(ExperimentConfig.from_dict(doc))
        runtimes = [r.diagnostics["runtime_s"] for r in rows]
        assert [(r.cell["alpha"], r.cell["d"]) for r in rows] == [(0.2, 2)] + [(0.4, 1)] * 3
        assert runtimes[0] >= 0.1 * doc["seeds"] and runtimes[1] >= 0.1 * doc["seeds"]
        assert max(runtimes[2:]) < 0.1


# -- integer cell and set fields are read whole, before any path --------------

_ONE_CELL = {
    "dim-formula": ({"alpha": 0.5, "hurst": 0.5}, _GRAPH_CONFIGS["dim-formula"]["params"]),
    "holder-bounds": ({"alpha": 0.5, "hurst": 0.5}, _GRAPH_CONFIGS["holder-bounds"]["params"]),
    "comparison-bounds": ({"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6},
                          _GRAPH_CONFIGS["comparison-bounds"]["params"]),
    "kernel-scaling": ({"alpha": 0.2, "hurst": 0.8, "gamma": 3.0},
                       {"n_samples": 1000, "t_exponents": [1, 2, 3]}),
    "occupation-l2": ({"hurst": 0.3}, {"n_samples": 64, "grid_n": 256}),
    "interior": ({"hurst": 0.5, "epsilon": 0.0625}, {"n_samples": 64, "grid_n": 256}),
    "theorem41": ({"hurst": 0.5, "epsilon": 0.0625}, {"n_samples": 64, "grid_n": 256}),
}


def _one_cell_config(kind, **cell_fields):
    base, params = _ONE_CELL[kind]
    params = {k: v for k, v in params.items() if k != "cells"}
    cell = {**base, "d": 1, **cell_fields}
    return ExperimentConfig.from_dict(
        {"kind": kind, "seeds": 1, "params": {**params, "cells": [cell]}})


_REQUIRED_CELL_KEYS = {
    "dim-formula": ("alpha", "hurst", "d"),
    "holder-bounds": ("alpha", "hurst", "d"),
    "comparison-bounds": ("alpha", "hurst", "hurst_prime", "d"),
    "kernel-scaling": ("alpha", "hurst", "gamma", "d"),
    "occupation-l2": ("hurst", "d"),
    "interior": ("hurst", "d", "epsilon"),
    "theorem41": ("hurst", "d", "epsilon"),
}


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, keys in sorted(_REQUIRED_CELL_KEYS.items()) for key in keys
])
def test_missing_required_cell_key_rejected(kind, key):
    base, params = _ONE_CELL[kind]
    cell = {k: v for k, v in {**base, "d": 1}.items() if k != key}
    doc = {"kind": kind, "seeds": 1, "params": {**params, "cells": [cell]}}
    with pytest.raises(ConfigError, match=re.escape(f"lacks key(s) [{key!r}]")):
        ExperimentConfig.from_dict(doc)


_OPTIONAL_CELL_KEYS = {
    "dim-formula": ("set", "tolerance"),
    "holder-bounds": ("set",),
    "comparison-bounds": ("set",),
    "kernel-scaling": (),
    "occupation-l2": ("set", "drift", "path", "check"),
    "interior": ("set", "drift", "radius_cells", "expect", "threshold"),
    "theorem41": ("set", "drift", "radius_cells", "expect", "threshold", "alpha_p"),
}


class TestStrictCellKeys:
    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, keys in sorted(_OPTIONAL_CELL_KEYS.items())
        for key in (*keys, "label")
    ])
    def test_misspelt_cell_key_names_the_nearest(self, kind, key):
        typo = key + "x"
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown {kind} cell key {typo!r} (did you mean {key!r}?")):
            _one_cell_config(kind, **{typo: 1})

    def test_tolerance_typo_is_not_a_label(self):
        # the misspelling used to run with the default tolerance and be echoed
        with pytest.raises(ConfigError, match="did you mean 'tolerance'"):
            _one_cell_config("dim-formula", tolerence=0.01)

    @pytest.mark.parametrize("kind", sorted(_ONE_CELL))
    def test_label_is_free_form(self, kind):
        label = {"batch": [1, "a"], "note": None}
        cfg = _one_cell_config(kind, label=label)
        assert cfg.params["cells"][0]["label"] == label


class TestParamsFollowTheirDefaults:
    def test_every_default_has_a_checked_type(self):
        # a param's check is the type of its default, so a default of any
        # other type would leave its param unchecked
        for kind, spec in experiments._KIND_SPECS.items():
            for key, default in spec.defaults.items():
                assert type(default) in (int, float, list), (kind, key, default)

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, spec in sorted(experiments._KIND_SPECS.items())
        for key in spec.defaults
    ])
    def test_every_param_refuses_a_string(self, kind, key):
        base, params = _ONE_CELL[kind]
        doc = {"kind": kind, "seeds": 1,
               "params": {**params, key: "x", "cells": [{**base, "d": 1}]}}
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ExperimentConfig.from_dict(doc)

    def test_graph_fit_defaults_are_the_estimators(self):
        # the fit runs with these defaults, so rows equal those of the
        # estimator's own defaults
        sig = inspect.signature(estimate_parabolic_dimension).parameters
        for kind in _GRAPH_CONFIGS:
            defaults = experiments._KIND_SPECS[kind].defaults
            for key in ("trim_octaves", "max_count_fraction"):
                assert defaults[key] == sig[key].default

    def test_params_default_to_empty(self):
        with pytest.raises(ConfigError, match="params.cells must be a non-empty list"):
            ExperimentConfig.from_dict({"kind": "interior"})


class TestCellValues:
    @pytest.mark.parametrize("kind, key, value, near", [
        ("occupation-l2", "check", "bonded", "bounded"),
        ("occupation-l2", "path", "const", "constant"),
        ("occupation-l2", "drift", "lipshitz", "lipschitz"),
        ("interior", "expect", "interor", "interior"),
        ("interior", "drift", None, "zero"),
        ("theorem41", "expect", "no_interior", "no-interior"),
    ])
    def test_unknown_value_names_the_nearest(self, kind, key, value, near):
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown {key} {value!r} in {kind} cell (did you mean {near!r}?")):
            _one_cell_config(kind, **{key: value})

    @pytest.mark.parametrize("kind, key, value", [
        (kind, key, value)
        for kind in ("occupation-l2", "interior", "theorem41")
        for key, values in sorted(experiments._CELL_CHOICES.items())
        if key in experiments._KIND_SPECS[kind].cell_optional
        for value in values
    ])
    def test_every_listed_value_loads(self, kind, key, value):
        cfg = _one_cell_config(kind, **{key: value})
        assert cfg.params["cells"][0][key] == value

    def test_theorem41_alpha_p_with_drift_rejected(self):
        # the mixed path is drawn without a drift, which was ignored
        with pytest.raises(ConfigError, match="both alpha_p and drift"):
            _one_cell_config("theorem41", alpha_p=0.3, drift="lipschitz")
        _one_cell_config("theorem41", alpha_p=0.3)
        _one_cell_config("theorem41", drift="lipschitz")

    def test_interior_refuses_alpha_p(self):
        with pytest.raises(ConfigError, match="unknown interior cell key 'alpha_p'"):
            _one_cell_config("interior", alpha_p=0.3)

    def test_non_number_alpha_p_is_a_config_error(self, path_calls):
        with pytest.raises(ConfigError, match="alpha_p must be a number"):
            run_experiment(_one_cell_config("theorem41", alpha_p="0.3"))
        assert path_calls == []


class TestSetNumbers:
    @pytest.mark.parametrize("spec, key", [
        ({"kind": "generalized-cantor", "dim": 0}, "dim"),
        ({"kind": "generalized-cantor", "dim": 1.0}, "dim"),
        ({"kind": "generalized-cantor", "dim": "x"}, "dim"),
        ({"kind": "generalized-cantor", "dim": True}, "dim"),
        ({"kind": "generalized-cantor", "r": "x"}, "r"),
        ({"kind": "generalized-cantor", "r": float("nan")}, "r"),
        ({"kind": "generalized-cantor"}, "r"),
    ])
    def test_ratio_and_dim_named_by_key(self, spec, key):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            build_set(spec)

    def test_dim_and_r_build_the_same_set(self):
        by_dim = build_set({"kind": "generalized-cantor", "dim": 0.5, "generation": 3})
        by_r = build_set({"kind": "generalized-cantor", "r": 0.25, "generation": 3})
        np.testing.assert_array_equal(by_dim.intervals, by_r.intervals)


class TestIntegerCellFields:
    @pytest.mark.parametrize("kind", sorted(_ONE_CELL))
    @pytest.mark.parametrize("d", [1.5, True, "2"])
    def test_fractional_d_rejected_before_any_path(self, kind, d, path_calls):
        with pytest.raises(ConfigError, match="d must be"):
            run_experiment(_one_cell_config(kind, d=d))
        assert path_calls == []

    @pytest.mark.parametrize("kind", sorted(_ONE_CELL))
    def test_whole_float_d_runs_as_int(self, kind):
        (row,) = run_experiment(_one_cell_config(kind, d=1.0))
        (want,) = run_experiment(_one_cell_config(kind, d=1))
        assert row.estimate == want.estimate

    @pytest.mark.parametrize("spec", [
        {"kind": "middle-thirds", "generation": 4.5},
        {"kind": "generalized-cantor", "dim": 0.6, "generation": 4.5},
        {"kind": "generalized-cantor", "dim": 0.6, "m": 2.5},
        {"kind": "generalized-cantor", "r": 0.3, "m": True},
    ])
    def test_fractional_set_fields_rejected(self, spec, path_calls):
        with pytest.raises(ConfigError):
            build_set(spec)
        for kind in ("dim-formula", "occupation-l2", "interior"):
            with pytest.raises(ConfigError):
                run_experiment(_one_cell_config(kind, set=spec))
        assert path_calls == []

    def test_whole_float_generation_accepted(self):
        assert build_set({"kind": "middle-thirds", "generation": 4.0}).generation == 4
        s = build_set({"kind": "generalized-cantor", "dim": 0.6, "m": 3.0, "generation": 2.0})
        assert s.intervals.shape == (9, 2)

    @pytest.mark.parametrize("kind", ["interior", "theorem41"])
    def test_fractional_radius_rejected(self, kind, path_calls):
        with pytest.raises(ConfigError, match="radius_cells"):
            run_experiment(_one_cell_config(kind, radius_cells=2.5))
        assert path_calls == []
