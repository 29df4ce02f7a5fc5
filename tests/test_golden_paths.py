"""sha256 digests of exact fBm path bytes, pinned in golden_paths.json.

The matrix covers both samplers and the embedding sizes the experiments
use: ``TimeGrid.regular(n)`` for n in {2, 17, 1025, 2^14, 2^16} (the 2-point
grid has one increment and is drawn by Cholesky; the others by circulant
embedding, 2^16 points giving the 2(2^16 - 1)-point circulant), d in
{1, 2}, and five Hurst indices; plus one stream tag 1 path and one mixed
pair per grid.  A digest covers ``path.values.tobytes()``, so any bit of
drift in any coordinate fails here.

A change meant to move paths regenerates the file with
``PYTHONPATH=src python tests/test_golden_paths.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from parafbm.fbm import TimeGrid, generate_fbm_path, generate_mixed_path

GOLDEN = Path(__file__).with_name("golden_paths.json")
GRID_SIZES = (2, 17, 1025, 2**14, 2**16)
HURSTS = (0.05, 0.25, 0.5, 0.75, 0.95)
SEED = 7
TAGGED = {"hurst": 0.75, "d": 2, "seed": 5, "tag": 1}
MIXED = {"hurst": 0.75, "alpha_p": 0.25, "d": 2, "seed_pair": (3, 8)}


def _cases():
    """case name -> thunk drawing its path."""
    cases = {}
    for n in GRID_SIZES:
        grid = TimeGrid.regular(n)
        for d in (1, 2):
            for h in HURSTS:
                cases[f"fbm-n{n}-d{d}-H{h}"] = (
                    lambda h=h, d=d, grid=grid: generate_fbm_path(h, grid, d=d, seed=SEED))
        cases[f"fbm-n{n}-tag1"] = lambda grid=grid: generate_fbm_path(
            TAGGED["hurst"], grid, d=TAGGED["d"], seed=TAGGED["seed"], _tag=TAGGED["tag"])
        cases[f"mixed-n{n}"] = lambda grid=grid: generate_mixed_path(
            MIXED["hurst"], MIXED["alpha_p"], grid, d=MIXED["d"], seed_pair=MIXED["seed_pair"])
    return cases


CASES = _cases()


def path_digest(case):
    return hashlib.sha256(CASES[case]().values.tobytes()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_path_bytes_match_golden(case):
    assert path_digest(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {case: path_digest(case) for case in sorted(CASES)}, indent=1, sort_keys=True,
    ) + "\n")
