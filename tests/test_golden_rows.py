"""Report rows of one tiny config per experiment kind, pinned in golden_rows.json.

Each config runs on 2^10-point grids with 2 seeds (kernel scaling at 10^4
samples).  A fresh row must equal its pinned ``csv_record()`` apart from
``runtime_s``: strings exactly, floats to rel 1e-12 (rounding may differ
across platforms; on one machine the rows are byte-identical).

A change meant to alter report rows regenerates the file with
``PYTHONPATH=src python tests/test_golden_rows.py``.
"""

import json
import math
from pathlib import Path

import pytest

from parafbm.experiments import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).with_name("golden_rows.json")
_NUMERIC_FIELDS = ("theory", "estimate", "tolerance")
_JSON_FIELDS = ("cell", "diagnostics")

_MID = {"kind": "middle-thirds", "generation": 4}
_GRID = {"grid_n": 2**10}
_LADDER = {"delta_coarse_exp": 1, "delta_fine_exp": 6, "trim_octaves": 0.0,
           "max_count_fraction": 0.5}

CONFIGS = {
    "dim-formula": {
        "kind": "dim-formula", "seeds": 2, "seed_base": 3,
        "params": {**_GRID, **_LADDER, "cells": [
            {"alpha": 0.5, "hurst": 0.5, "d": 1},
            {"alpha": 0.3, "hurst": 0.6, "d": 2, "set": _MID},
            {"alpha": 0.3, "hurst": 0.6, "d": 2, "set": {"kind": "full"},
             "tolerance": 0.2},
        ]},
    },
    "holder-bounds": {
        "kind": "holder-bounds", "seeds": 2,
        "params": {**_GRID, **_LADDER, "delta_fine_exp": 7, "max_count_fraction": 0.6,
                   "cells": [
                       {"alpha": 0.4, "hurst": 0.6, "d": 1},
                       {"alpha": 0.4, "hurst": 0.8, "d": 1,
                        "set": {"kind": "generalized-cantor", "dim": 0.6, "generation": 4}},
                   ]},
    },
    "comparison-bounds": {
        "kind": "comparison-bounds", "seeds": 2, "seed_base": 1,
        "params": {**_GRID, **_LADDER, "per_octave": 1, "margin": 0.12, "cells": [
            {"alpha": 0.3, "hurst": 0.4, "hurst_prime": 0.6, "d": 1},
        ]},
    },
    "kernel-scaling": {
        "kind": "kernel-scaling", "seeds": 2,
        "params": {"n_samples": 10**4, "cells": [
            {"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1},
            {"alpha": 0.3, "hurst": 0.6, "gamma": 0.5, "d": 2},
        ]},
    },
    "occupation-l2": {
        "kind": "occupation-l2", "seeds": 2,
        "params": {**_GRID, "n_samples": 256, "cells": [
            {"hurst": 0.3, "d": 1, "drift": "lipschitz"},
            {"hurst": 0.3, "d": 1, "path": "constant", "check": "slope"},
            {"hurst": 0.4, "d": 1, "set": _MID},
        ]},
    },
    "interior": {
        "kind": "interior", "seeds": 2, "seed_base": 5,
        "params": {**_GRID, "n_samples": 1024, "cells": [
            {"hurst": 0.5, "d": 1, "epsilon": 0.0625, "drift": "lipschitz"},
            {"hurst": 0.3, "d": 2, "epsilon": 0.125, "expect": "no-interior",
             "threshold": 0.5, "set": _MID},
        ]},
    },
    "theorem41": {
        "kind": "theorem41", "seeds": 2,
        "params": {**_GRID, "n_samples": 1024, "cells": [
            {"hurst": 0.5, "alpha_p": 0.3, "d": 1, "epsilon": 0.0625},
            {"hurst": 0.6, "d": 1, "epsilon": 0.0625, "expect": "evidence",
             "radius_cells": 1},
        ]},
    },
}


def fresh_records(doc):
    """csv records of a config's rows, without runtime_s."""
    records = []
    for row in run_experiment(ExperimentConfig.from_dict(doc)):
        rec = row.csv_record()
        rec.pop("runtime_s")
        records.append(rec)
    return records


def _parsed(rec):
    out = dict(rec)
    for key in _JSON_FIELDS:
        out[key] = json.loads(rec[key])
    for key in _NUMERIC_FIELDS:
        if rec[key]:
            out[key] = float(rec[key])
    return out


def _assert_same(got, want, where):
    assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_rows_match_golden(kind):
    golden = json.loads(GOLDEN.read_text())
    want = golden[kind]
    got = fresh_records(CONFIGS[kind])
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_same(_parsed(g), _parsed(w), f"{kind}[{i}]")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {kind: fresh_records(doc) for kind, doc in sorted(CONFIGS.items())},
        indent=1, sort_keys=True,
    ) + "\n")
