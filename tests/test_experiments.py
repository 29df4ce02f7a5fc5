import csv
import inspect
import json
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_cell_values

from parafbm import experiments
from parafbm.errors import (
    ConfigError,
    DegenerateRange,
    GenerationTooLarge,
    InfeasibleParameters,
)
from parafbm.estimators import estimate_parabolic_dimension
from parafbm.experiments import (
    ExperimentConfig,
    atomic_writer,
    build_set,
    lipschitz_drift,
    run_experiment,
)
from parafbm.fbm import TimeGrid
from parafbm.fractals import generalized_cantor, middle_thirds_cantor


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

    def test_json_list_is_not_a_config(self):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            ExperimentConfig.from_json(json.dumps([small_dim_formula_config()]))

    def test_missing_kind(self):
        doc = small_dim_formula_config()
        del doc["kind"]
        with pytest.raises(ConfigError, match="config needs a 'kind'"):
            ExperimentConfig.from_dict(doc)

    def test_negative_seed_base_rejected(self):
        with pytest.raises(ConfigError, match="seed_base must be a non-negative integer, got -1"):
            ExperimentConfig.from_dict(small_dim_formula_config(seed_base=-1))

    def test_integer_past_4300_digits_is_bad_json(self):
        # Python's parser refuses it with a bare ValueError, not a JSONDecodeError
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            ExperimentConfig.from_json('{"seeds": 1' + "0" * 5000 + "}")

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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(cfg, workers=workers)

    def test_fractional_workers_rejected(self):
        cfg = ExperimentConfig.from_dict(small_dim_formula_config())
        with pytest.raises(ConfigError, match="workers must be an integer, got 1.5"):
            run_experiment(cfg, workers=1.5)

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
        run_experiment(ExperimentConfig.from_dict(small_dim_formula_config()), workers=2)
        assert sizes == [2]   # one job runs serially, without a pool


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
        doc = {
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
        }
        with pytest.raises(InfeasibleParameters, match=re.escape("alpha'*d = 0.8 >= dim(A)")):
            ExperimentConfig.from_dict(doc)

    def test_abort_keeps_completed_rows(self, tmp_path):
        # cells run in canonical order: the constant path ("path" sorts before
        # "set") passes, then the Cantor-set cell finds no pair within 2^-9
        doc = zero_pair_mass_config("bounded")
        doc["params"]["cells"].append(
            {"hurst": 0.3, "d": 2, "path": "constant", "check": "bounded"})
        cfg = ExperimentConfig.from_dict(doc)
        out = tmp_path / "out"
        with pytest.raises(DegenerateRange):
            run_experiment(cfg, out_dir=out)
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1   # the passing cell was flushed before the abort
        assert json.loads(rows[0]["cell"])["path"] == "constant"

    def test_first_job_raising_leaves_a_header_only_report(self, tmp_path):
        # the header is written when the report is opened, before any job
        cfg = ExperimentConfig.from_dict(zero_pair_mass_config("bounded"))
        out = tmp_path / "out"
        with pytest.raises(DegenerateRange):
            run_experiment(cfg, out_dir=out)
        with open(out / "report.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [experiments.CSV_FIELDS]

    def test_rerun_replaces_the_report(self, tmp_path):
        constant = {"hurst": 0.3, "d": 2, "path": "constant", "check": "bounded"}
        doc = zero_pair_mass_config("bounded")
        out = tmp_path / "out"
        for cells in ([constant, {**constant, "d": 1}], [constant]):
            rows = run_experiment(ExperimentConfig.from_dict(
                {**doc, "params": {**doc["params"], "cells": cells}}), out_dir=out)
        with open(out / "report.csv", newline="") as fh:
            report = list(csv.DictReader(fh))
        assert [json.loads(r["cell"]) for r in report] == [constant]
        assert report[0]["runtime_s"] == str(rows[0].runtime_s)
        assert "runtime_s" not in rows[0].diagnostics


def test_atomic_writer_removes_its_temp_file_on_failure(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_writer(target) as fh:
            fh.write("new")
            raise RuntimeError("the block failed")
    assert target.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


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

# two or more jobs each, so two workers run a pool (and parsed cells are
# pickled): six graph cells in two alpha runs, and two one-cell jobs of
# each other kind
_POOLED_CONFIGS = {
    "dim-formula": _GRAPH_CONFIGS["dim-formula"],
    "kernel-scaling": {
        "kind": "kernel-scaling", "seeds": 1,
        "params": {"n_samples": 1000, "t_exponents": [1, 2, 3], "cells": [
            {"alpha": 0.2, "hurst": 0.8, "gamma": 3, "d": 1},
            {"alpha": 0.3, "hurst": 0.6, "gamma": 0.5, "d": 2},
        ]},
    },
    "occupation-l2": {
        "kind": "occupation-l2", "seeds": 2,
        "params": {"grid_n": 1024, "n_samples": 256, "cells": [
            {"hurst": 0.3, "d": 1, "drift": "lipschitz"},
            {"hurst": 0.4, "d": 1, "set": _MID, "check": "slope"},
        ]},
    },
    "theorem41": {
        "kind": "theorem41", "seeds": 2,
        "params": {"grid_n": 512, "n_samples": 256, "cells": [
            {"hurst": 0.5, "alpha_p": 0.3, "d": 1, "epsilon": 0.0625},
            {"hurst": 0.6, "d": 1, "epsilon": 0.0625, "expect": "evidence",
             "radius_cells": 1, "set": _MID},
        ]},
    },
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
        runtimes = [r.runtime_s for r in rows]
        assert [(r.cell["alpha"], r.cell["d"]) for r in rows] == [(0.2, 2)] + [(0.4, 1)] * 3
        assert runtimes[0] >= 0.1 * doc["seeds"] and runtimes[1] >= 0.1 * doc["seeds"]
        assert max(runtimes[2:]) < 0.1


# -- cells that share a set and H share one count of the largest-d cloud -----

# each has a set measured at d = 1 and d = 2 at one H: the full interval
# (given as {"kind": "full"} and by default) and a Cantor set
_SHARED_COUNT_CONFIGS = {
    "dim-formula": {
        "kind": "dim-formula", "seeds": 2, "seed_base": 7,
        "params": {**_GRAPH_COMMON, "min_r_squared": 0.9, "cells": [
            {"alpha": 0.4, "hurst": 0.6, "d": 1, "set": {"kind": "full"}},
            {"alpha": 0.4, "hurst": 0.6, "d": 2},
            {"alpha": 0.4, "hurst": 0.6, "d": 1, "set": _MID},
            {"alpha": 0.4, "hurst": 0.6, "d": 2, "set": _MID},
            {"alpha": 0.4, "hurst": 0.7, "d": 2, "set": _MID},
        ]},
    },
    "comparison-bounds": {
        "kind": "comparison-bounds", "seeds": 2, "seed_base": 2,
        "params": {**_GRAPH_COMMON, "margin": 0.1, "cells": [
            {"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6, "d": 1, "set": {"kind": "full"}},
            {"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6, "d": 2, "set": {"kind": "full"}},
            {"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6, "d": 1, "set": _MID},
            {"alpha": 0.3, "hurst": 0.5, "hurst_prime": 0.6, "d": 2, "set": _MID},
        ]},
    },
}


@pytest.fixture
def count_calls(monkeypatch):
    """The clouds whose box-count curves run_experiment makes (serial runs only)."""
    calls = []
    real = experiments.box_count_curves

    def counting(cloud, deltas, hurst, dims, *args):
        calls.append((hurst, sorted(dims), cloud.d))
        return real(cloud, deltas, hurst, dims, *args)

    monkeypatch.setattr(experiments, "box_count_curves", counting)
    return calls


class TestSharedCounts:
    @pytest.mark.parametrize("kind", sorted(_SHARED_COUNT_CONFIGS))
    def test_rows_equal_one_cell_runs(self, kind):
        doc = _SHARED_COUNT_CONFIGS[kind]
        cfg = ExperimentConfig.from_dict(doc)
        for rec in _records(run_experiment(cfg)):
            one = ExperimentConfig.from_dict(
                {**doc, "params": {**doc["params"], "cells": [json.loads(rec["cell"])]}})
            (alone,) = _records(run_experiment(one))
            assert rec.pop("config_hash") == cfg.config_hash()
            assert alone.pop("config_hash") == one.config_hash()
            assert rec == alone

    @pytest.mark.parametrize("kind", sorted(_SHARED_COUNT_CONFIGS))
    def test_one_count_per_set_and_h(self, kind, count_calls):
        doc = _SHARED_COUNT_CONFIGS[kind]
        run_experiment(ExperimentConfig.from_dict(doc))
        # (H, the d counted, the d of the cloud) in the order the sorted cells
        # first need them: the Cantor set's cells sort before the full ones
        per_seed = {
            "dim-formula": [(0.6, [1, 2], 2), (0.6, [1, 2], 2), (0.7, [2], 2)],
            "comparison-bounds": [(0.4, [1], 1), (0.6, [1, 2], 2), (0.4, [1, 2], 2),
                                  (0.6, [1, 2], 2), (0.5, [2], 2)],
        }[kind]
        assert count_calls == per_seed * doc["seeds"]

    def test_shared_count_charged_to_the_first_cell(self, monkeypatch):
        real = experiments.box_count_curves

        def slow(*args, **kwargs):
            time.sleep(0.1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "box_count_curves", slow)
        # the Cantor cell counts alone; the two full-interval cells share a count
        cells = [{"alpha": 0.4, "hurst": 0.5, "d": 1, "set": _MID},
                 {"alpha": 0.4, "hurst": 0.6, "d": 1}, {"alpha": 0.4, "hurst": 0.6, "d": 2}]
        doc = _SHARED_COUNT_CONFIGS["dim-formula"]
        rows = run_experiment(ExperimentConfig.from_dict(
            {**doc, "seeds": 1, "params": {**doc["params"], "cells": cells}}))
        assert [r.cell for r in rows] == cells
        runtimes = [r.runtime_s for r in rows]
        assert runtimes[0] >= 0.2 and max(runtimes[1:]) < 0.1


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
    def test_every_default_passes_its_check(self):
        # the load checks each param, given or left to its default, by its key
        for kind, spec in experiments._KIND_SPECS.items():
            for key, default in spec.defaults.items():
                experiments._PARAM_CHECKS[key](default, key)

    @pytest.mark.parametrize("kind, key, value", [
        ("dim-formula", "trim_octaves", 0), ("dim-formula", "min_r_squared", -1.0),
        ("dim-formula", "min_r_squared", 1),
        ("holder-bounds", "margin", 0), ("kernel-scaling", "rel_tolerance", 0.0),
        ("occupation-l2", "slope_tolerance", 0), ("occupation-l2", "max_ratio", 1),
        # 2^-1074, the finest positive float: the span check overflowed
        ("dim-formula", "delta_fine_exp", 1074),
    ])
    def test_settings_at_their_bounds_load(self, kind, key, value):
        base, params = _ONE_CELL[kind]
        cfg = ExperimentConfig.from_dict({"kind": kind, "seeds": 1, "params": {
            **params, key: value, "cells": [{**base, "d": 1}]}})
        assert cfg.params[key] == value

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


# -- each cell is parsed once, at load, into what runners and reducers read ---

def _golden_cells():
    with open(Path(__file__).with_name("golden_rows.json")) as fh:
        rows = json.load(fh)
    return [(kind, json.loads(row["cell"])) for kind in sorted(rows) for row in rows[kind]]


# every golden cell, every load-guard cell, and explicit values an `or`-style
# default would replace
_PARSE_CASES = [
    *_golden_cells(),
    *((kind, {**base, "d": 1}) for kind, (base, _) in sorted(_ONE_CELL.items())),
    ("dim-formula", {"alpha": 0.5, "hurst": 0.5, "d": 2.0, "tolerance": 0.0}),
    ("dim-formula", {"alpha": 0.5, "hurst": 0.5, "d": 1, "tolerance": 0}),
    ("interior", {"hurst": 0.5, "d": 2.0, "epsilon": 1, "threshold": 0, "radius_cells": 3.0}),
    ("theorem41", {"hurst": 0.5, "d": 1, "epsilon": 0.25, "threshold": 0.0, "alpha_p": None,
                   "set": {"kind": "generalized-cantor", "r": 0.3, "m": 3.0}}),
    ("holder-bounds", {"alpha": 0.4, "hurst": 0.6, "d": 1, "label": "x",
                       "set": {"kind": "generalized-cantor", "dim": 0.6, "generation": 4}}),
]

# optional values a drawn case may take on, where its kind takes the key
_OPTIONAL_VALUES = {
    "tolerance": st.one_of(st.just(0.0), st.integers(-1, 3), st.floats(-1.0, 1.0)),
    "threshold": st.one_of(st.sampled_from([0, 1]), st.floats(-0.5, 1.5)),
    "radius_cells": st.one_of(st.integers(1, 4), st.sampled_from([1.0, 3.0])),
    **{key: st.sampled_from(values) for key, values in experiments._CELL_CHOICES.items()},
}


def _parse(kind, cell):
    params = {k: v for k, v in _ONE_CELL[kind][1].items() if k != "cells"}
    cfg = ExperimentConfig.from_dict(
        {"kind": kind, "seeds": 1, "params": {**params, "cells": [cell]}})
    ((raw, parsed),) = cfg._cells
    assert raw is cell
    return dict(parsed)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_PARSE_CASES), data=st.data())
def test_parsed_cell_equals_naive_values(case, data):
    kind, cell = case
    cell = dict(cell)
    allowed = experiments._KIND_SPECS[kind].cell_optional
    for key, values in _OPTIONAL_VALUES.items():
        # a mixed path takes no drift
        if key in allowed and not (key == "drift" and cell.get("alpha_p") is not None):
            if data.draw(st.booleans(), label=f"set {key}"):
                cell[key] = data.draw(values, label=key)
    want = naive_cell_values(kind, cell)
    if want is None:   # a verdict no run can pass is refused, naming its key
        with pytest.raises(ConfigError, match="^(tolerance|threshold) must be >= 0"):
            _parse(kind, cell)
        return
    parsed = _parse(kind, cell)
    if "set" in want:
        spec = want.pop("set")
        fset, built = parsed.pop("set"), build_set(spec)
        assert parsed.pop("set_key") == json.dumps(spec, sort_keys=True)
        assert fset.intervals.tobytes() == built.intervals.tobytes()
        assert (fset.kind, fset.theoretical_dim) == (built.kind, built.theoretical_dim)
    assert parsed == want
    assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in want.items()}


@pytest.fixture
def set_builds(monkeypatch):
    """Names the set builders experiments calls, in call order."""
    calls = []
    for name in ("build_set", "full_interval", "middle_thirds_cantor", "generalized_cantor",
                 "cantor_with_dimension"):
        real = getattr(experiments, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counting)
    return calls


@pytest.mark.parametrize("kind", sorted(_ONE_CELL))
def test_sets_are_built_at_load_only(kind, set_builds):
    # each reducer, and each graph runner, rebuilt the cell's set at run;
    # an occupation-l2 cell takes the default set, the full interval
    if kind in ("kernel-scaling", "occupation-l2"):
        cfg = _one_cell_config(kind)
    else:
        cfg = _one_cell_config(
            kind, set={"kind": "generalized-cantor", "dim": 0.6, "generation": 4})
    assert set_builds == {"kernel-scaling": [],
                          "occupation-l2": ["build_set", "full_interval"]}.get(
                              kind, ["build_set", "cantor_with_dimension"])
    set_builds.clear()
    run_experiment(cfg)
    assert set_builds == []


@pytest.mark.parametrize("kind", sorted(_ONE_CELL))
def test_ladders_are_built_at_load_only(kind, monkeypatch):
    # each graph job rebuilt the scale ladder at run, after the load had
    # built it to check it
    calls = []
    real = experiments.dyadic_deltas
    monkeypatch.setattr(experiments, "dyadic_deltas",
                        lambda *args: calls.append(args) or real(*args))
    cfg = _one_cell_config(kind)
    assert len(calls) == (kind in _GRAPH_CONFIGS)
    calls.clear()
    run_experiment(cfg)
    assert calls == []


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


# -- huge whole numbers: refused at load, promptly and as ConfigError ---------

def _within(seconds, call):
    """The value of ``call()``; a hang past ``seconds`` fails the test."""
    def hang(signum, frame):
        raise AssertionError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _number_fields():
    """(kind, where, key) of every whole-number, real or exponent-list param,
    every number cell key and every number of a set a kind takes."""
    for kind, spec in sorted(experiments._KIND_SPECS.items()):
        for key in spec.defaults:
            yield kind, "params", key
        allowed = {*spec.cell_keys, *spec.cell_optional}
        for key in experiments._CELL_CHECKS:
            if key in allowed:
                yield kind, "cell", key
        if "set" in allowed:
            for key in ("generation", "m", "dim", "r"):
                yield kind, "set", key


@pytest.mark.parametrize("value", [10**400, -10**400, 2**63], ids=["1e400", "-1e400", "2^63"])
@pytest.mark.parametrize("kind, where, key", list(_number_fields()))
def test_huge_numbers_load_or_raise_config_error(kind, where, key, value):
    # each used to end in OverflowError, a numpy ValueError, or a hang
    base, params = _ONE_CELL[kind]
    params = {k: v for k, v in params.items() if k != "cells"}
    cell = {**base, "d": 1}
    if where == "params":
        default = experiments._KIND_SPECS[kind].defaults[key]
        params[key] = [default[0], value] if isinstance(default, list) else value
    elif where == "cell":
        cell[key] = value
    else:
        ratio = {"r": 0.25} if key == "r" else {"dim": 0.5}
        cell["set"] = {"kind": "generalized-cantor", "generation": 3, **ratio, key: value}
    doc = {"kind": kind, "seeds": 1, "params": {**params, "cells": [cell]}}
    try:
        _within(2, lambda: ExperimentConfig.from_dict(doc))
    except ConfigError:
        pass


def test_huge_generation_refused_promptly():
    # m**k, which grows with k, used to be computed before the cap was compared
    for build in (lambda: middle_thirds_cantor(10**9),
                  lambda: generalized_cantor(3, 0.1, 10**9),
                  lambda: build_set({"kind": "middle-thirds", "generation": 10**9})):
        with pytest.raises(GenerationTooLarge):
            _within(1, build)
