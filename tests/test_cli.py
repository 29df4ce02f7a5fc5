import json
import subprocess
import sys

import numpy as np
import pytest

from parafbm.cli import cli_main, parse_delta_spec


def run(argv):
    return cli_main(argv)


class TestDeltaSpec:
    def test_range(self):
        d = parse_delta_spec("2^-4..2^-8")
        np.testing.assert_allclose(d, 2.0 ** -np.arange(4, 9))

    def test_comma_list(self):
        d = parse_delta_spec("0.5, 0.125, 0.25")
        np.testing.assert_allclose(d, [0.5, 0.25, 0.125])

    def test_bad_range(self):
        from parafbm.errors import ConfigError
        with pytest.raises(ConfigError):
            parse_delta_spec("2^-8..2^-4")


class TestGenerate:
    def test_csv_written_and_deterministic(self, tmp_path):
        out = tmp_path / "p.csv"
        argv = ["generate", "--hurst", "0.5", "--n", "256", "--d", "2",
                "--seed", "7", "--out", str(out)]
        assert run(argv) == 0
        first = out.read_text()
        assert run(argv) == 0
        assert out.read_text() == first
        header = first.splitlines()[0]
        assert header == "t,x1,x2"

    def test_meta_envelope(self, tmp_path):
        out = tmp_path / "p.csv"
        meta = tmp_path / "p.json"
        assert run(["generate", "--hurst", "0.3", "--n", "64", "--seed", "1",
                    "--out", str(out), "--meta", str(meta)]) == 0
        doc = json.loads(meta.read_text())
        assert doc["hurst"] == 0.3
        assert doc["grid"]["n"] == 64

    def test_mixed(self, tmp_path):
        out = tmp_path / "z.csv"
        assert run(["generate", "--hurst", "0.7", "--alpha-p", "0.3",
                    "--n", "128", "--seed", "2", "--out", str(out)]) == 0

    def test_cross_process_determinism(self, tmp_path):
        # bit-identical output across separate interpreter processes
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = subprocess.run(
                [sys.executable, "-m", "parafbm.cli", "generate", "--hurst",
                 "0.35", "--n", "128", "--d", "2", "--seed", "11",
                 "--out", str(out)],
                capture_output=True,
            )
            assert res.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_hurst_exit_1(self, tmp_path, capsys):
        code = run(["generate", "--hurst", "1.2", "--n", "16",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestBoxdim:
    def test_estimate_json(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        run(["generate", "--hurst", "0.5", "--n", "4096", "--seed", "3",
             "--out", str(path)])
        capsys.readouterr()
        est_out = tmp_path / "est.json"
        curve_out = tmp_path / "curve.csv"
        code = run(["boxdim", "--input", str(path), "--hurst", "0.5",
                    "--deltas", "2^-2..2^-9", "--out", str(est_out),
                    "--curve", str(curve_out)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert 0.7 < printed["exponent"] < 1.3
        assert json.loads(est_out.read_text()) == printed
        assert curve_out.read_text().startswith("delta,count")

    def test_missing_input_exit_1(self, tmp_path):
        assert run(["boxdim", "--input", str(tmp_path / "nope.csv"),
                    "--hurst", "0.5"]) == 1


class TestEnergyAndOccupancy:
    def test_energy(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        run(["generate", "--hurst", "0.5", "--n", "512", "--seed", "4",
             "--out", str(path)])
        capsys.readouterr()
        assert run(["energy", "--input", str(path), "--hurst", "0.5",
                    "--gamma", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["energy"] > 0

    def test_occupancy(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        run(["generate", "--hurst", "0.5", "--n", "2048", "--seed", "5",
             "--out", str(path)])
        hist_out = tmp_path / "hist.csv"
        interior_out = tmp_path / "interior.json"
        code = run(["occupancy", "--input", str(path), "--epsilon", "0.03125",
                    "--radius", "2", "--out", str(hist_out),
                    "--interior", str(interior_out)])
        assert code == 0
        assert hist_out.read_text().startswith("# config:")
        doc = json.loads(interior_out.read_text())
        assert "interior_cells" in doc


class TestGaussSweep:
    def test_detcov(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["gauss-sweep", "--sweep", "detcov", "--configs", "30",
                    "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_margin"] > 0
        assert out.read_text().splitlines()[0] == "config,hurst,n,margin"

    def test_lnd(self, capsys):
        assert run(["gauss-sweep", "--sweep", "lnd", "--configs", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["inf_ratio"] > 0

    @pytest.mark.parametrize("sweep", ["detcov", "lnd"])
    @pytest.mark.parametrize("configs", ["0", "-3"])
    def test_no_configs_exit_1(self, sweep, configs, capsys):
        assert run(["gauss-sweep", "--sweep", sweep, "--configs", configs]) == 1
        assert "n_configs" in capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_suite(self, tmp_path, capsys):
        cfg = {
            "kind": "dim-formula",
            "seeds": 2,
            "params": {
                "cells": [{"alpha": 0.5, "hurst": 0.5, "d": 1,
                           "set": {"kind": "full"}, "tolerance": 0.2}],
                "grid_n": 2**11,
                "delta_coarse_exp": 2,
                "delta_fine_exp": 9,
                "per_octave": 1,
                "min_r_squared": 0.9,
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "results"
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(out_dir)]) == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "config.json").exists()

    def test_config_error_exit_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "nope", "params": {"cells": [{}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("cells", ["abc", [1], [{"alpha": 0.5, "d": 1}]])
    def test_malformed_cells_exit_1(self, tmp_path, capsys, cells):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "dim-formula", "params": {"cells": cells}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 1
        assert "cell" in capsys.readouterr().err

    def test_fractional_workers_env_exit_1(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "kernel-scaling", "params": {
            "cells": [{"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}]}}))
        monkeypatch.setenv("PARAFBM_WORKERS", "1.5")
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 1
        assert "PARAFBM_WORKERS" in capsys.readouterr().err

    def test_usage_error_exit_1(self, capsys):
        assert run(["experiment"]) == 1
        assert capsys.readouterr().err


def test_unknown_command_exit_1():
    assert run(["frobnicate"]) == 1
