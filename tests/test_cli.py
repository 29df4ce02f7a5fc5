import csv
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafbm import estimators, experiments
from parafbm.cli import cli_main, parse_delta_spec
from parafbm.errors import ConfigError
from parafbm.experiments import ExperimentConfig


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

    def test_numeric_bounds_that_are_powers_of_two(self):
        d = parse_delta_spec("0.25..0.015625")
        np.testing.assert_array_equal(d, 2.0 ** -np.arange(2, 7))

    @pytest.mark.parametrize("spec, bound", [
        ("0.3..2^-6", "0.3"), ("0.2..0.01", "0.2"), ("2^-2..0.01", "0.01"),
    ])
    def test_bound_off_a_power_of_two_raises(self, spec, bound):
        # these were rounded to the nearest power of two without a word
        from parafbm.errors import ConfigError
        with pytest.raises(ConfigError, match=f"delta bound '{bound}' is not a power of two"):
            parse_delta_spec(spec)

    @pytest.mark.parametrize("spec", ["2^-0..2^-5", "1..0.03125"])
    def test_range_from_exponent_0_runs(self, tmp_path, capsys, spec):
        # refused as "need 2^-a..2^-b with a < b", though the comma list
        # 1,0.5,... ran and configs accept delta_coarse_exp 0
        path, curve = tmp_path / "p.csv", tmp_path / "curve.csv"
        run(["generate", "--hurst", "0.5", "--n", "4096", "--seed", "3", "--out", str(path)])
        assert run(["boxdim", "--input", str(path), "--hurst", "0.5", "--deltas", spec,
                    "--curve", str(curve)]) == 0
        rows = list(csv.reader(curve.read_text().splitlines()))[1:]
        assert [float(delta) for delta, _ in rows] == [2.0**-k for k in range(6)]

    def test_bound_off_a_power_of_two_exit_1(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        run(["generate", "--hurst", "0.5", "--n", "256", "--out", str(path)])
        assert run(["boxdim", "--input", str(path), "--hurst", "0.5",
                    "--deltas", "0.3..2^-6"]) == 1
        assert "error: delta bound '0.3'" in capsys.readouterr().err


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

    def test_out_is_a_directory_exit_1(self, tmp_path, capsys):
        # the rename raised IsADirectoryError and left adir.tmp behind
        (tmp_path / "adir").mkdir()
        assert run(["generate", "--hurst", "0.5", "--n", "16",
                    "--out", str(tmp_path / "adir") + "/"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]

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

    def test_curve_is_the_fitted_one(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.csv"
        run(["generate", "--hurst", "0.5", "--n", "1024", "--seed", "3",
             "--out", str(path)])
        capsys.readouterr()
        calls = []
        counted = estimators.parabolic_box_count

        def count(*args, **kwargs):
            calls.append(args[1])
            return counted(*args, **kwargs)

        # every box_count_curve looks each scale's count up as a module global
        monkeypatch.setattr(estimators, "parabolic_box_count", count)
        curve_out = tmp_path / "curve.csv"
        assert run(["boxdim", "--input", str(path), "--hurst", "0.5",
                    "--deltas", "2^-2..2^-8", "--curve", str(curve_out)]) == 0
        assert calls == [2.0**-k for k in range(2, 9)]   # each scale counted once
        lines = curve_out.read_text().splitlines()
        assert lines[0] == "delta,count" and len(lines) == 1 + 7
        assert "curve" not in json.loads(capsys.readouterr().out)

    def test_missing_input_exit_1(self, tmp_path):
        assert run(["boxdim", "--input", str(tmp_path / "nope.csv"),
                    "--hurst", "0.5"]) == 1


def _cloud_csv(tmp_path, rows):
    path = tmp_path / "cloud.csv"
    path.write_text("t,x1\n" + "".join(row + "\n" for row in rows))
    return path


class TestMalformedInput:
    _ARGS = {
        "boxdim": ["--hurst", "0.5"],
        "energy": ["--hurst", "0.5", "--gamma", "0.5"],
        "occupancy": ["--epsilon", "0.25"],
    }

    @pytest.mark.parametrize("command", sorted(_ARGS))
    @pytest.mark.parametrize("rows", [["0.0,0.1", "0.5,abc"], ["0.0,0.1", "0.5,0.2,0.3"]],
                             ids=["non-numeric", "ragged"])
    def test_bad_cloud_exit_1(self, tmp_path, capsys, command, rows):
        path = _cloud_csv(tmp_path, rows)
        assert run([command, "--input", str(path), *self._ARGS[command]]) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_ARGS))
    def test_time_column_only_exit_1(self, tmp_path, capsys, command):
        # occupancy and energy ended in a ValueError traceback, boxdim
        # reported an unrelated "k must be >= 1"
        path = tmp_path / "cloud.csv"
        path.write_text("t\n0.1\n0.3\n")
        assert run([command, "--input", str(path), *self._ARGS[command]]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: no value columns after t"]

    @pytest.mark.parametrize("command", sorted(_ARGS))
    @pytest.mark.parametrize("text, message", [
        ("x,y\n0.1,0.2\n", "expected a CSV with header t,x1,...,xd"),
        ("t,x1\n", "no data rows"),
    ], ids=["header-not-t", "header-only"])
    def test_bad_header_or_no_rows_exit_1(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        assert run([command, "--input", str(path), *self._ARGS[command]]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]

    @pytest.mark.parametrize("command", sorted(_ARGS))
    def test_rows_narrower_than_header_exit_1(self, tmp_path, capsys, command):
        # a t,x1,x2 header over two-cell rows was read as d = 1 and reported, exit 0
        path = tmp_path / "cloud.csv"
        path.write_text("t,x1,x2\n0.0,0.1\n0.5,0.2\n1.0,0.3\n")
        out = [] if command == "energy" else ["--out", str(tmp_path / "out")]
        assert run([command, "--input", str(path), *self._ARGS[command], *out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: data row 1 has 2 cells where the header has 3"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv"]

    @pytest.mark.parametrize("spec, token", [
        ("2^-x..2^-6", "2^-x"), ("0..2^-6", "0"), ("a,b", "a,b"),
    ])
    def test_bad_deltas_exit_1(self, tmp_path, capsys, spec, token):
        path = _cloud_csv(tmp_path, ["0.0,0.1", "0.5,0.2", "1.0,0.3"])
        assert run(["boxdim", "--input", str(path), "--hurst", "0.5",
                    "--deltas", spec]) == 1
        assert repr(token) in capsys.readouterr().err


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

    def test_energy_nan_gamma_exit_1(self, tmp_path, capsys):
        # printed {"energy": NaN, "gamma": NaN, ...}, which is not JSON, and exited 0
        path = _cloud_csv(tmp_path, ["0.0,0.1", "0.5,0.2", "1.0,0.3"])
        assert run(["energy", "--input", str(path), "--hurst", "0.5",
                    "--gamma", "nan"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "error: gamma must be a finite number, got nan" in out.err

    def test_energy_of_coincident_points_exit_2(self, tmp_path, capsys):
        # printed {"energy": Infinity, ...}, which is not JSON, and exited 0
        path = _cloud_csv(tmp_path, ["0.1,0.5", "0.1,0.5", "0.3,0.7"])
        assert run(["energy", "--input", str(path), "--hurst", "0.5",
                    "--gamma", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("numerical failure: points 0 and 1 coincide")

    @pytest.mark.parametrize("rows, code, err", [
        (["0.1,0", "0.1,5e-324", "0.3,0.7"], 2, "numerical failure: the energy sum is inf"),
        (["0.1,0", "0.1,nan", "0.3,0.7"], 1,
         "error: values must be finite numbers, got a NaN"),
    ], ids=["overflowing-term", "nan-value"])
    def test_energy_not_finite_exits_nonzero(self, tmp_path, capsys, rows, code, err):
        # printed {"energy": Infinity} after an overflow warning, or NaN, and exited 0
        path = _cloud_csv(tmp_path, rows)
        assert run(["energy", "--input", str(path), "--hurst", "0.5",
                    "--gamma", "1"]) == code
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert line.startswith(err)

    def test_occupancy_bad_radius_writes_nothing(self, tmp_path, capsys):
        # the histogram CSV was written before the radius was checked
        path = _cloud_csv(tmp_path, ["0.0,0.1", "0.5,0.2", "1.0,0.3"])
        hist_out = tmp_path / "h.csv"
        assert run(["occupancy", "--input", str(path), "--epsilon", "0.25", "--radius", "0",
                    "--out", str(hist_out), "--interior", str(tmp_path / "i.json")]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: radius_cells must be >= 1, got 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv"]

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

    # a 4 x 4 grid of cell centres at eps = 1/4, one cell hit twice: the
    # radius-1 interior is the middle 2 x 2 block
    _GRID_ROWS = [f"{i / 16},{x},{y}" for i, (x, y) in enumerate(
        [(x, y) for y in (0.125, 0.375, 0.625, 0.875)
         for x in (-0.375, -0.125, 0.125, 0.375)] + [(0.125, 0.625)])]
    _GRID_REPORT = (
        '{"cell_size": 0.25, "radius_cells": 1, "interior_cells": [[1, 1], [1, 2], '
        '[2, 1], [2, 2]], "fraction_of_seeds_with_interior": 1.0, "config": '
        '{"input": "cloud.csv", "epsilon": 0.25, "radius_cells": 1}}'
    )
    _GRID_HIST = "".join(
        f"{i},{j},{'0.11764705882352941' if (i, j) == (2, 2) else '0.058823529411764705'}\r\n"
        for i in range(4) for j in range(4))
    _LINE_REPORT = (
        '{"cell_size": 0.25, "radius_cells": 1, "interior_cells": [], '
        '"fraction_of_seeds_with_interior": 0.0, "config": '
        '{"input": "cloud.csv", "epsilon": 0.25, "radius_cells": 1}}'
    )

    @pytest.mark.parametrize("header, rows, report, hist", [
        ("t,x1,x2", _GRID_ROWS, _GRID_REPORT, "i1,i2,mass\r\n" + _GRID_HIST),
        ("t,x1", ["0.0,0.0", "0.5,0.125", "1.0,0.625"], _LINE_REPORT,
         "i1,mass\r\n0,0.6666666666666666\r\n2,0.3333333333333333\r\n"),
    ], ids=["d2-interior", "d1-none"])
    def test_occupancy_outputs_are_pinned(self, tmp_path, monkeypatch, capsys,
                                          header, rows, report, hist):
        monkeypatch.chdir(tmp_path)
        Path("cloud.csv").write_text("\n".join([header, *rows]) + "\n")
        assert run(["occupancy", "--input", "cloud.csv", "--epsilon", "0.25",
                    "--radius", "1", "--out", "hist.csv", "--interior", "int.json"]) == 0
        assert capsys.readouterr().out == report + "\n"
        assert Path("int.json").read_bytes() == report.encode()
        assert Path("hist.csv").read_bytes() == (
            '# config: {"epsilon": 0.25, "input": "cloud.csv", "radius_cells": 1}\n'
            + hist).encode()


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

    @pytest.mark.parametrize("flags", [["--hurst", "1.5", "--alpha-p", "7"], ["--hurst", "0.7"],
                                       ["--alpha-p", "0.35"]])
    def test_detcov_refuses_lnd_flags(self, tmp_path, capsys, flags):
        # detcov ignored both flags, printed a result and exited 0
        out = tmp_path / "sweep.csv"
        assert run(["gauss-sweep", "--sweep", "detcov", "--configs", "2", *flags,
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: --hurst and --alpha-p apply only to --sweep lnd"]

    def test_lnd_flags_default_to_0_7_and_0_35(self, capsys):
        base = ["gauss-sweep", "--sweep", "lnd", "--configs", "5"]
        assert run(base) == 0
        left_out = capsys.readouterr().out
        assert run([*base, "--hurst", "0.7", "--alpha-p", "0.35"]) == 0
        assert capsys.readouterr().out == left_out
        assert run([*base, "--hurst", "0.6"]) == 0
        assert capsys.readouterr().out != left_out

    @pytest.mark.parametrize("flag", ["--hurst", "--alpha-p"])
    def test_lnd_bad_index_exit_1(self, flag, capsys):
        assert run(["gauss-sweep", "--sweep", "lnd", "--configs", "5", flag, "1.5"]) == 1
        assert "(0, 1)" in capsys.readouterr().err


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

    def test_zero_workers_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "kernel-scaling", "params": {
            "cells": [{"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out),
                    "--workers", "0"]) == 1
        assert "error: workers must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["config is a directory", "config not UTF-8",
                                       "out is a file"])
    def test_unreadable_or_misplaced_file_exit_1(self, tmp_path, capsys, fault):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "kernel-scaling", "params": {
            "cells": [{"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}]}}))
        out = tmp_path / "r"
        if fault == "config is a directory":
            cfg_path = tmp_path
        elif fault == "config not UTF-8":
            cfg_path.write_bytes(b'{"kind": "\xff"}')
        else:
            out.write_text("a file")
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.is_dir()

    def test_zero_pair_mass_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "occupation-l2", "seeds": 2, "params": {
            "n_samples": 256, "grid_n": 1024, "cells": [
                {"hurst": 0.3, "d": 2, "set": {"kind": "middle-thirds", "generation": 6}}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 2
        assert "zero pair mass" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["grid_n", "n_samples"])
    @pytest.mark.parametrize("count, code", [(256.0, 0), (256.5, 1), ("x", 1)])
    def test_whole_number_counts_only(self, tmp_path, capsys, key, count, code):
        params = {"n_samples": 256, "grid_n": 256, key: count,
                  "cells": [{"hurst": 0.3, "d": 1, "epsilon": 0.05}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "interior", "seeds": 1, "params": params}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == code
        if code:
            assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("per_octave", "x", "per_octave must be an integer"),
        ("per_octave", 1.5, "per_octave must be an integer"),
        ("per_octave", 0, "per_octave must be >= 1"),
        ("delta_coarse_exp", "2", "delta_coarse_exp must be an integer"),
        ("delta_fine_exp", 8.5, "delta_fine_exp must be an integer"),
    ])
    def test_ladder_params_named_by_key(self, tmp_path, capsys, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "dim-formula", "seeds": 1, "params": {
            "grid_n": 256, key: value, "cells": [{"alpha": 0.5, "hurst": 0.5, "d": 1}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder, message", [
        ({"delta_coarse_exp": -1, "delta_fine_exp": 6}, "delta_coarse_exp must be >= 0"),
        ({"delta_coarse_exp": 6, "delta_fine_exp": 6}, "delta_fine_exp must exceed"),
        ({"delta_coarse_exp": 4, "delta_fine_exp": 5, "per_octave": 1},
         "the scale ladder 2^-4 .. 2^-5 at per_octave 1: need at least 4 scales"),
        ({"delta_coarse_exp": 4, "delta_fine_exp": 6, "per_octave": 1},
         "the scale ladder 2^-4 .. 2^-6 at per_octave 1: need at least 4 scales"),
        ({"delta_coarse_exp": 4, "delta_fine_exp": 5, "per_octave": 4},
         "the scale ladder 2^-4 .. 2^-5 at per_octave 4: scales must span at least 2 octaves"),
        # 2^-1100 is 0 in a float: a division by zero, then a run that failed
        ({"delta_coarse_exp": 4, "delta_fine_exp": 1100},
         "the scale ladder 2^-4 .. 2^-1100 at per_octave 2: scales must lie in (0, 1]"),
    ])
    def test_unusable_ladder_refused_before_any_file(self, tmp_path, capsys, ladder,
                                                     message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "dim-formula", "seeds": 1, "params": {
            "grid_n": 256, **ladder, "cells": [{"alpha": 0.5, "hurst": 0.5, "d": 1}]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, where, key, value, message", [
        # each of these wrote config.json, then exited 1 at run
        ("dim-formula", "params", "trim_octaves", -1.0,
         "trim_octaves must be >= 0, got -1.0"),
        ("dim-formula", "params", "max_count_fraction", 0.0,
         "max_count_fraction must be > 0, got 0.0"),
        ("dim-formula", "params", "max_count_fraction", -0.1,
         "max_count_fraction must be > 0, got -0.1"),
        # each of these ran to exit 0 with a verdict, or an R^2 flag, that could never pass
        ("dim-formula", "params", "min_r_squared", 1.5, "min_r_squared must be <= 1, got 1.5"),
        ("dim-formula", "cell", "tolerance", -1, "tolerance must be >= 0, got -1"),
        ("holder-bounds", "params", "margin", -0.5, "margin must be >= 0, got -0.5"),
        ("comparison-bounds", "params", "margin", -0.1, "margin must be >= 0, got -0.1"),
        ("kernel-scaling", "params", "rel_tolerance", -0.05,
         "rel_tolerance must be >= 0, got -0.05"),
        ("occupation-l2", "params", "slope_tolerance", -0.1,
         "slope_tolerance must be >= 0, got -0.1"),
        ("occupation-l2", "params", "max_ratio", -1.0, "max_ratio must be >= 1, got -1.0"),
        ("occupation-l2", "params", "max_ratio", 0.5, "max_ratio must be >= 1, got 0.5"),
        ("interior", "cell", "threshold", 1.5, "threshold must be >= 0 and <= 1, got 1.5"),
        ("theorem41", "cell", "threshold", -0.1,
         "threshold must be >= 0 and <= 1, got -0.1"),
    ])
    def test_param_no_run_can_use_refused_before_any_file(self, tmp_path, capsys, kind,
                                                         where, key, value, message):
        cell = {"dim-formula": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                "holder-bounds": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                "comparison-bounds": {"alpha": 0.3, "hurst": 0.5, "hurst_prime": 0.7, "d": 1},
                "kernel-scaling": {"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1},
                "occupation-l2": {"hurst": 0.3, "d": 1},
                "interior": {"hurst": 0.3, "d": 1, "epsilon": 0.0625},
                "theorem41": {"hurst": 0.3, "d": 1, "epsilon": 0.0625}}[kind]
        params = {"cells": [cell]}
        (cell if where == "cell" else params)[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "seeds": 1, "params": params}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_whole_float_ladder_runs(self, tmp_path):
        params = {"grid_n": 256.0, "delta_coarse_exp": 1.0, "delta_fine_exp": 5.0,
                  "per_octave": 2.0, "min_r_squared": 0.0,
                  "cells": [{"alpha": 0.5, "hurst": 0.5, "d": 1}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "dim-formula", "seeds": 1,
                                        "params": params}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 0
        written = json.loads((tmp_path / "r" / "config.json").read_text())
        assert written["params"] == params   # kept as given: the hash is unchanged

    def test_float_kernel_sample_count_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "kernel-scaling", "seeds": 1, "params": {
            "n_samples": 1e3, "cells": [{"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("kind, key, value", [
        ("dim-formula", "trim_octaves", "x"),
        ("dim-formula", "max_count_fraction", True),
        ("dim-formula", "min_r_squared", "0.9"),
        ("holder-bounds", "margin", float("nan")),
        ("occupation-l2", "max_ratio", float("inf")),
        ("occupation-l2", "slope_tolerance", "x"),
        ("kernel-scaling", "rel_tolerance", False),
        ("occupation-l2", "radius_exponents", "4,5"),
        ("kernel-scaling", "t_exponents", [1, 2.5]),
        # each case below wrote config.json, then failed at run or ran
        ("occupation-l2", "grid_n", 0),
        ("occupation-l2", "n_samples", 0),
        ("kernel-scaling", "n_samples", -1),
        ("occupation-l2", "radius_exponents", [2, 1]),
        ("kernel-scaling", "t_exponents", [-1, 2]),
        ("kernel-scaling", "t_exponents", [1, 1]),
        # OverflowError from a float check; config.json, then a numpy ValueError;
        # a kernel Monte Carlo without end
        pytest.param("kernel-scaling", "t_exponents", [1, 10**400], id="t_exponents-1e400"),
        pytest.param("occupation-l2", "grid_n", 10**400, id="grid_n-1e400"),
        pytest.param("kernel-scaling", "n_samples", 2**63, id="n_samples-2^63"),
    ])
    def test_real_and_exponent_params_named_by_key(self, tmp_path, capsys, kind, key, value):
        cell = {"dim-formula": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                "holder-bounds": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                "occupation-l2": {"hurst": 0.3, "d": 1},
                "kernel-scaling": {"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}}[kind]
        sizes = {"n_samples": 1000} if kind == "kernel-scaling" else {"grid_n": 256}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "seeds": 1, "params": {
            **sizes, key: value, "cells": [cell]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelt_cell_key_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "dim-formula", "seeds": 1, "params": {
            "grid_n": 256, "cells": [{"alpha": 0.5, "hurst": 0.5, "d": 1,
                                      "tolerence": 0.01}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 1
        assert "did you mean 'tolerance'" in capsys.readouterr().err

    @pytest.mark.parametrize("hurst", ["x", "0.5", True])
    def test_non_number_hurst_exit_1(self, tmp_path, capsys, hurst):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "interior", "seeds": 1, "params": {
            "n_samples": 64, "grid_n": 256,
            "cells": [{"hurst": hurst, "d": 1, "epsilon": 0.0625}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 1
        assert "error: hurst must be a number in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key, value", [
        ("interior", "threshold", "x"),
        ("interior", "threshold", True),
        ("interior", "epsilon", "x"),
        ("dim-formula", "tolerance", "x"),
        ("dim-formula", "tolerance", float("nan")),
        # OverflowError from the finite-number check
        pytest.param("dim-formula", "tolerance", 10**400, id="dim-formula-tolerance-1e400"),
        ("kernel-scaling", "gamma", "3"),
    ])
    def test_cell_numbers_checked_at_load(self, tmp_path, capsys, kind, key, value):
        cell = {"interior": {"hurst": 0.3, "d": 1, "epsilon": 0.0625},
                "dim-formula": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                "kernel-scaling": {"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}}[kind]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "seeds": 1, "params": {
            "cells": [{**cell, key: value}]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"error: {key} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, "full", ["kind", "full"], None])
    def test_set_must_be_an_object(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "interior", "seeds": 1, "params": {
            "cells": [{"hurst": 0.3, "d": 1, "epsilon": 0.0625, "set": value}]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error: set must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, key, value, message", [
        ("dim-formula", "alpha", "0.3", "alpha must be a number in (0, 1)"),
        ("holder-bounds", "hurst", True, "hurst must be a number in (0, 1)"),
        ("comparison-bounds", "hurst_prime", "0.6", "hurst_prime must be a number in (0, 1)"),
        ("theorem41", "alpha_p", True, "alpha_p must be a number in (0, 1)"),
        ("dim-formula", "d", 0, "d must be >= 1, got 0"),
        ("occupation-l2", "d", 1.5, "d must be an integer"),
        ("kernel-scaling", "d", "1", "d must be an integer"),
        ("interior", "radius_cells", 0, "radius_cells must be >= 1, got 0"),
        ("interior", "radius_cells", 2.5, "radius_cells must be an integer"),
        ("interior", "epsilon", -0.1, "epsilon must be > 0, got -0.1"),
        ("interior", "set", {"kind": "foo"}, "unknown set kind 'foo'"),
        # an OverflowError, a wait of minutes, and a run that failed in numpy
        pytest.param("interior", "set",
                     {"kind": "generalized-cantor", "dim": 0.5, "m": 10**400},
                     "m must be at most 9223372036854775807, the largest array length",
                     id="interior-set-m-1e400"),
        ("interior", "set", {"kind": "middle-thirds", "generation": 10**9},
         "2^1000000000 intervals exceed the cap"),
        ("interior", "radius_cells", 2**63,
         "radius_cells must be at most 9223372036854775807"),
    ])
    def test_cell_values_checked_at_load_by_key(self, tmp_path, capsys, kind, key, value,
                                                message):
        cell = {"dim-formula": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                "holder-bounds": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                "comparison-bounds": {"alpha": 0.3, "hurst": 0.5, "hurst_prime": 0.7, "d": 1},
                "kernel-scaling": {"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1},
                "occupation-l2": {"hurst": 0.3, "d": 1},
                "interior": {"hurst": 0.3, "d": 1, "epsilon": 0.0625},
                "theorem41": {"hurst": 0.3, "d": 1, "epsilon": 0.0625,
                              "expect": "evidence"}}[kind]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "seeds": 1, "params": {
            "cells": [{**cell, key: value}]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_second_cell_writes_no_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "dim-formula", "seeds": 1, "params": {
            "grid_n": 256, "cells": [{"alpha": 0.5, "hurst": 0.5, "d": 1},
                                     {"alpha": 0.5, "hurst": 0.5, "d": 0}]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error: d must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, cell, message", [
        ("dim-formula", {"alpha": 0.7, "hurst": 0.5, "d": 1}, "alpha=0.7 exceeds H=0.5"),
        ("holder-bounds", {"alpha": 0.6, "hurst": 0.4, "d": 1}, "alpha=0.6 exceeds H=0.4"),
        ("comparison-bounds", {"alpha": 0.3, "hurst": 0.7, "hurst_prime": 0.7, "d": 1},
         "need H < H', got H=0.7, H'=0.7"),
        ("kernel-scaling", {"alpha": 0.3, "hurst": 0.4, "gamma": 0.8, "d": 2},
         "gamma=0.8 within 1e-06 of H*d=0.8"),
        ("kernel-scaling", {"alpha": 0.5, "hurst": 0.4, "gamma": 3.0, "d": 1},
         "alpha=0.5 exceeds H=0.4"),
        ("theorem41", {"hurst": 0.8, "alpha_p": 0.6, "d": 2, "epsilon": 0.0625,
                       "set": {"kind": "generalized-cantor", "dim": 0.7, "generation": 6}},
         "alpha'*d = 1.2 >= dim(A) = 0.7"),
    ])
    def test_cross_key_rules_checked_at_load(self, tmp_path, capsys, kind, cell, message):
        # a first cell that would run, so a run-time refusal would leave its row
        first = {"dim-formula": {"alpha": 0.5, "hurst": 0.5, "d": 1},
                 "holder-bounds": {"alpha": 0.4, "hurst": 0.4, "d": 1},
                 "comparison-bounds": {"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6, "d": 1},
                 "kernel-scaling": {"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1},
                 "theorem41": {"hurst": 0.5, "d": 1, "epsilon": 0.0625}}[kind]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "seeds": 1, "params": {
            "cells": [first, cell]}}))
        out = tmp_path / "r"
        assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_evidence_cell_may_break_the_feasibility_rule(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "theorem41", "seeds": 1, "params": {
            "n_samples": 64, "grid_n": 256, "cells": [
                {"hurst": 0.8, "alpha_p": 0.6, "d": 2, "epsilon": 0.25,
                 "expect": "evidence"}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 0

    def test_fine_interior_cell_runs(self, tmp_path):
        # 2^14 samples in d = 2 at eps = 1e-4 occupy 16362 cells of a bounding
        # box of 3.8e8 cells; only the occupied cells are eroded
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "interior", "seeds": 1, "params": {
            "cells": [{"hurst": 0.3, "d": 2, "epsilon": 1e-4}]}}))
        assert run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == 0
        with open(tmp_path / "r" / "report.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["estimate"] == "0.0"

    def test_usage_error_exit_1(self, capsys):
        assert run(["experiment"]) == 1
        assert capsys.readouterr().err


def test_unknown_command_exit_1():
    assert run(["frobnicate"]) == 1


# -- every param that sets no size: refused at load, or run without a fault ---

_REALS = st.one_of(st.floats(-2.0, 5.0), st.integers(-2, 5),
                   st.sampled_from([0.0, 1.0, float("nan"), float("inf"), "0.5", True, None]))
_EXPONENTS = st.one_of(st.lists(st.integers(-3, 40), max_size=5, unique=True).map(sorted),
                       st.lists(st.integers(-3, 40), max_size=5),
                       st.sampled_from([[1.0, 2.5], [3, 4.0], "4,5", None]))

#: the values a mutation draws for each param that sets no size
_SETTINGS = {
    "delta_coarse_exp": st.integers(-2, 14),
    "delta_fine_exp": st.one_of(st.integers(-2, 70), st.sampled_from([1074, 1100, 2.5])),
    "per_octave": st.one_of(st.integers(-1, 4), st.sampled_from([1.5, "2"])),
    **dict.fromkeys(("trim_octaves", "max_count_fraction", "min_r_squared", "margin",
                     "rel_tolerance", "slope_tolerance", "max_ratio"), _REALS),
    **dict.fromkeys(("t_exponents", "radius_exponents"), _EXPONENTS),
}

_GRAPH_CELL = {"alpha": 0.3, "hurst": 0.6, "d": 1}

#: a tiny config of each kind that has such params
_TINY = {
    "dim-formula": {"grid_n": 256, "cells": [_GRAPH_CELL]},
    "holder-bounds": {"grid_n": 256, "cells": [_GRAPH_CELL]},
    "comparison-bounds": {"grid_n": 256, "cells": [{**_GRAPH_CELL, "hurst_prime": 0.8}]},
    "kernel-scaling": {"n_samples": 64,
                       "cells": [{"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1}]},
    "occupation-l2": {"grid_n": 256, "n_samples": 64,
                      "cells": [{"hurst": 0.3, "d": 1}, {"hurst": 0.3, "d": 1, "check": "slope"}]},
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_TINY)), data=st.data())
def test_mutated_settings_refused_at_load_or_run_cleanly(kind, data):
    params = dict(_TINY[kind])
    keys = sorted(set(experiments._KIND_SPECS[kind].defaults) & set(_SETTINGS))
    for key in sorted(data.draw(st.sets(st.sampled_from(keys), min_size=1, max_size=2),
                                label="keys")):
        params[key] = data.draw(_SETTINGS[key], label=key)
    doc = {"kind": kind, "seeds": 2, "params": params}
    try:
        ExperimentConfig.from_dict(doc)
        loads = True
    except ConfigError:
        loads = False
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "r"
        cfg_path.write_text(json.dumps(doc))
        # any other exception, or a numpy warning, fails the test
        code = run(["experiment", "--config", str(cfg_path), "--out", str(out)])
        wrote = out.exists()
    lines = err.getvalue().splitlines()
    if loads:   # a param the load accepts is not refused at run
        assert (code, wrote) in ((0, True), (2, True)), lines
        assert lines == [] if code == 0 else len(lines) == 1
    else:
        assert (code, wrote) == (1, False)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
