import csv
import json

import numpy as np
import pytest

from parafbm.errors import ConfigError, InfeasibleParameters
from parafbm.experiments import (
    ExperimentConfig,
    build_set,
    lipschitz_drift,
    run_dim_formula_experiment,
    run_experiment,
    run_remaining_experiments,
    run_theorem41_experiment,
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

    def test_wrong_schema_version(self):
        doc = small_dim_formula_config(schema_version=2)
        with pytest.raises(ConfigError):
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
        rows = run_dim_formula_experiment(cfg, out_dir=tmp_path / "out")
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
        rows = run_remaining_experiments(cfg)
        assert rows[0].theory == pytest.approx(-2.4)
        assert rows[0].passed

    def test_remaining_dispatcher_rejects_other_kinds(self):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        with pytest.raises(ConfigError):
            run_remaining_experiments(cfg)


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
        rows = run_theorem41_experiment(cfg)
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
            run_theorem41_experiment(cfg)

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
