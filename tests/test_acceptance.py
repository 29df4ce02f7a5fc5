"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 3 is implemented exactly as specified and is expected to fail in
part (3 of 12 cells); the printed detail carries the measured numbers.  See
the README section on the known deviation.
"""

import time

import numpy as np
import pytest

import parafbm as pf
from conftest import record_criterion_line
from oracles import mvn_kappa
from parafbm.experiments import ExperimentConfig, run_experiment

SEED = 0


def report(num, name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} ({name}): {status} [{elapsed:.1f}s] {detail}"
    print("\n" + line)
    record_criterion_line(line)
    return ok


# -- criterion 1 ------------------------------------------------------------

def test_criterion_01_covariance_exactness():
    # 1e-14 relative is measured against the magnitude of the formula's
    # terms (high-precision oracle): the three-term combination cancels
    # catastrophically near zero, where no float64 evaluation can satisfy a
    # result-relative bound.
    import mpmath

    mpmath.mp.dps = 40
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    worst_eig = np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        t = np.sort(rng.uniform(0.0, 1.0, n))
        h = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
        m = pf.fbm_covariance(t[:, None], t, h)
        k = min(n, 12)
        idx = rng.integers(0, n, size=(k, 2))
        for i, j in idx:
            a = mpmath.mpf(abs(t[i])) ** (2 * h)
            b = mpmath.mpf(abs(t[j])) ** (2 * h)
            c = mpmath.mpf(abs(t[i] - t[j])) ** (2 * h)
            want = 0.5 * (a + b - c)
            scale = float(max(a, b, c, mpmath.mpf(1e-300)))
            worst_rel = max(worst_rel, abs(float(m[i, j] - want)) / scale)
        assert np.array_equal(m, m.T)
        eig = np.linalg.eigvalsh(m)
        worst_eig = min(worst_eig, eig.min() / max(np.trace(m), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-14 and worst_eig >= -1e-10 and elapsed < 10.0
    report(1, "covariance exactness", ok,
           f"max scale-relative err {worst_rel:.2e}, min eig/trace {worst_eig:.2e}",
           elapsed)
    assert ok


# -- criterion 2 ------------------------------------------------------------

def test_criterion_02_simulation_fidelity():
    t0 = time.perf_counter()
    grid = pf.TimeGrid.regular(17)   # 16 positive grid times
    nseeds = 10**4
    details = []
    ok = True
    for h in (0.2, 0.5, 0.8):
        sq = np.zeros(16)
        for s in range(nseeds):
            v = pf.generate_fbm_path(h, grid, d=1, seed=s).values[0][1:]
            sq += v**2
        emp = sq / nseeds
        theo = grid.times[1:] ** (2 * h)
        z = np.max(np.abs(emp - theo) / (theo * np.sqrt(2.0 / nseeds)))
        details.append(f"H={h}: max|z|={z:.2f}")
        ok &= z <= 3.0
    for h, ap in ((0.6, 0.3), (0.8, 0.4)):
        sq = np.zeros(16)
        for s in range(nseeds):
            v = pf.generate_mixed_path(h, ap, grid, seed_pair=(2 * s, 2 * s + 1)).values[0]
            sq += np.diff(v) ** 2
        emp = sq / nseeds
        gaps = np.diff(grid.times)
        theo = gaps ** (2 * h) + gaps ** (2 * ap)
        z = np.max(np.abs(emp - theo) / (theo * np.sqrt(2.0 / nseeds)))
        details.append(f"Z(H={h},a'={ap}): max|z|={z:.2f}")
        ok &= z <= 3.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(2, "simulation fidelity", ok, "; ".join(details), elapsed)
    assert ok


# -- criterion 3 ------------------------------------------------------------

def test_criterion_03_dimension_formula():
    t0 = time.perf_counter()
    cells = []
    for d in (1, 2):
        for alpha, hurst in ((0.5, 0.5), (0.3, 0.6), (0.4, 0.8)):
            cells.append({"alpha": alpha, "hurst": hurst, "d": d,
                          "set": {"kind": "full"}})
            cells.append({"alpha": alpha, "hurst": hurst, "d": d,
                          "set": {"kind": "middle-thirds",
                                  "generation": 8 if d == 1 else 6}})
    cfg = ExperimentConfig.from_dict({
        "kind": "dim-formula",
        "seeds": 20,
        "seed_base": SEED,
        "params": {
            "cells": cells,
            "grid_n": 2**16,
            "delta_coarse_exp": 4,
            "delta_fine_exp": 12,
            "per_octave": 2,
            "min_r_squared": 0.98,
            # calibrated window: the resolution guard trims the fine end;
            # the coarse octave is kept (least finite-resolution bias)
            "trim_octaves": 0.0,
            "max_count_fraction": 0.2,
        },
    })
    rows = run_experiment(cfg)
    lines = []
    ok = True
    for r in rows:
        good = bool(r.passed) and r.diagnostics["r_squared_ok"]
        ok &= good
        set_kind = r.cell["set"]["kind"][:4]
        lines.append(
            f"{'ok' if good else 'FAIL'} d={r.cell['d']} a={r.cell['alpha']} "
            f"H={r.cell['hurst']} {set_kind}: est {r.estimate:.3f} vs {r.theory:.3f} "
            f"(r2 {r.diagnostics['r_squared']:.4f})"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 900.0
    report(3, "dimension formula", ok, "\n  " + "\n  ".join(lines), elapsed)
    assert ok, "see printed per-cell detail; known desk-scale deviation documented"


# -- criterion 4 ------------------------------------------------------------

def test_criterion_04_flat_and_holder_controls():
    t0 = time.perf_counter()
    n = 2**14
    t = np.linspace(0, 1, n)
    flat = pf.GraphCloud(times=t, values=np.zeros((n, 1)))
    flat_ok = True
    for h in (0.2, 0.5, 0.8):
        est = pf.estimate_parabolic_dimension(flat, pf.dyadic_deltas(2, 10), h)
        flat_ok &= abs(est.exponent - 1.0) <= 0.02
    grid = pf.TimeGrid.regular(2**14)
    exps, exps_shifted = [], []
    for s in range(10):
        p = pf.generate_fbm_path(0.5, grid, seed=s)
        cloud = pf.GraphCloud.from_path(p, h_context=0.5)
        deltas = pf.dyadic_deltas(3, 11)
        exps.append(pf.estimate_parabolic_dimension(cloud, deltas, 0.5).exponent)
        exps_shifted.append(pf.estimate_parabolic_dimension(
            cloud, deltas, 0.5, anchor_shift=0.5).exponent)
    med = float(np.median(exps))
    anchor_dev = abs(med - float(np.median(exps_shifted)))
    holder_ok = abs(med - 1.0) <= 0.1
    elapsed = time.perf_counter() - t0
    ok = flat_ok and holder_ok
    report(4, "flat/Holder controls", ok,
           f"flat within 0.02 for all H: {flat_ok}; alpha=H median {med:.3f}; "
           f"half-cell re-anchoring shifts the estimate by {anchor_dev:.4f}",
           elapsed)
    assert ok


# -- criterion 5 ------------------------------------------------------------

def test_criterion_05_kernel_scaling():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "kind": "kernel-scaling",
        "seeds": 1,
        "seed_base": SEED,
        "params": {
            "cells": [
                {"alpha": 0.85, "hurst": 0.9, "gamma": 0.36, "d": 2},
                {"alpha": 0.75, "hurst": 0.8, "gamma": 0.32, "d": 2},
                {"alpha": 0.2, "hurst": 0.8, "gamma": 3.0, "d": 1},
                {"alpha": 0.2, "hurst": 0.8, "gamma": 4.0, "d": 2},
            ],
            "n_samples": 10**6,
            "t_exponents": [1, 2, 3, 4, 5, 6, 7, 8],
            "rel_tolerance": 0.05,
        },
    })
    rows = run_experiment(cfg)
    ok = all(r.passed for r in rows)
    detail = "; ".join(
        f"{r.diagnostics['branch']} a={r.cell['alpha']}: "
        f"{r.estimate:+.3f} vs {r.theory:+.3f}"
        for r in rows
    )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180.0
    report(5, "kernel scaling", ok, detail, elapsed)
    assert ok


# -- criterion 6 ------------------------------------------------------------

def test_criterion_06_determinant_bound_and_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_chain = 0.0
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 9))
        t = np.sort(rng.uniform(0.05, 1.0, n))
        if n > 1 and np.any(np.diff(t) < 1e-2):
            continue
        h = float(rng.uniform(0.15, 0.85))
        if rng.random() < 0.5:
            spec = pf.GaussianVectorSpec(t, h)
        else:
            spec = pf.GaussianVectorSpec(t, h, float(rng.uniform(0.1, h)))
        det, chain = pf.detcov_chain_identity(spec)
        worst_chain = max(worst_chain, abs(det - chain) / max(abs(det), 1e-300))
        checked += 1
    chain_ok = worst_chain <= 1e-8

    # The sweep's times are sorted, so kappa_H^(n-1) <= margin <= 1, with
    # equality at H = 1/2 (proof in verify_detcov_lower_bound's docstring).
    per_h = 3334
    recs = pf.detcov_margin_sweep(per_h, hurst_values=(0.2, 0.5, 0.8), seed=SEED)
    margin_ok = True
    worst_scaled, worst_max = {}, {}
    for h in (0.2, 0.5, 0.8):
        kappa = mvn_kappa(h)
        rows = [r for r in recs if r["hurst"] == h]
        for r in rows:
            m = r["margin"]
            margin_ok &= kappa ** (r["n"] - 1) * (1.0 - 1e-9) <= m <= 1.0 + 1e-9
            if h == 0.5:
                margin_ok &= abs(m - 1.0) <= 1e-9
        worst_scaled[h] = min(
            r["margin"] / kappa ** (r["n"] - 1) for r in rows if r["n"] > 1
        )
        worst_max[h] = max(r["margin"] for r in rows)

    elapsed = time.perf_counter() - t0
    ok = chain_ok and margin_ok and elapsed < 60.0
    detail = f"chain max rel diff {worst_chain:.2e} (ok={chain_ok}); " + "; ".join(
        f"H={h}: min margin/kappa^(n-1) {worst_scaled[h]:.6f} (n>1), "
        f"max margin 1{worst_max[h] - 1.0:+.1e}"
        for h in (0.2, 0.5, 0.8)
    ) + " (need kappa^(n-1) <= margin <= 1, equality at H=0.5)"
    report(6, "determinant bound", ok, detail, elapsed)
    assert ok, (
        "chain identity or kappa_H^(n-1) <= margin <= 1 violated; "
        "see printed detail"
    )


# -- criterion 7 ------------------------------------------------------------

def test_criterion_07_local_nondeterminism():
    t0 = time.perf_counter()
    records, inf_ratio = pf.lnd_margin_sweep(
        10**4, hurst=0.7, alpha_p=0.35, interval=(0.1, 1.0), max_points=6, seed=SEED
    )
    sweep_ok = inf_ratio > 0.0

    # distance->r variant: conditioning sets everywhere at distance >= r
    t_center = 0.55
    ratios = []
    for k in range(2, 9):
        r = 2.0**-k
        side = np.arange(1, 9, dtype=float)
        s = np.concatenate([t_center - r * side, t_center + r * side,
                            np.array([0.1, 0.99])])
        s = np.unique(s[(s >= 0.1) & (s <= 1.0)])
        s = s[np.abs(s - t_center) >= r - 1e-15]
        ratios.append(pf.lnd_distance_ratio(0.7, 0.35, t_center, r, s))
    dist_ok = min(ratios) > 0.01

    elapsed = time.perf_counter() - t0
    ok = sweep_ok and dist_ok
    report(7, "local nondeterminism", ok,
           f"inf ratio over 10^4 configs: {inf_ratio:.4f} (reported); "
           f"distance-variant min {min(ratios):.4f} over r=2^-2..2^-8", elapsed)
    assert ok


# -- criterion 8 ------------------------------------------------------------

def test_criterion_08_occupation_l2():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "kind": "occupation-l2",
        "seeds": 10,
        "seed_base": SEED,
        "params": {
            "cells": [
                {"hurst": 0.3, "d": 2, "set": {"kind": "full"},
                 "drift": "zero", "check": "bounded"},
                {"hurst": 0.3, "d": 2, "set": {"kind": "full"},
                 "drift": "lipschitz", "check": "bounded"},
                {"hurst": 0.3, "d": 2, "path": "constant", "check": "slope"},
            ],
            "n_samples": 4096,
            "grid_n": 2**14,
            "radius_exponents": [4, 5, 6, 7, 8, 9, 10],
            "max_ratio": 3.0,
            "slope_tolerance": 0.1,
        },
    })
    rows = run_experiment(cfg)
    ok = all(r.passed for r in rows)
    parts = []
    for r in rows:
        tag = r.cell.get("drift", r.cell.get("path"))
        if r.cell["check"] == "bounded":
            parts.append(f"{tag}: max/min {r.estimate:.2f}")
        else:
            parts.append(f"{tag}: slope {r.estimate:.3f} vs {r.theory}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(8, "occupation L2 diagnostic", ok, "; ".join(parts), elapsed)
    assert ok


# -- criterion 9 ------------------------------------------------------------

def test_criterion_09_interior_detection():
    t0 = time.perf_counter()
    cfg41 = ExperimentConfig.from_dict({
        "kind": "theorem41",
        "seeds": 20,
        "seed_base": SEED,
        "params": {
            "cells": [
                # Holder drift B^0.6 on a dim-0.7 set, H d = 0.8 >= dim(A)
                {"alpha_p": 0.6, "hurst": 0.8, "d": 1,
                 "set": {"kind": "generalized-cantor", "dim": 0.7,
                         "generation": 10},
                 "epsilon": 2.0**-6, "radius_cells": 2,
                 "expect": "interior", "threshold": 0.9},
                # trivial d=1 control: nonconstant continuous path on [0,1]
                {"hurst": 0.5, "d": 1, "set": {"kind": "full"},
                 "epsilon": 2.0**-6, "radius_cells": 2,
                 "expect": "interior", "threshold": 0.9},
                # no-drift control in the sparse-image regime dim(A) < H d
                {"hurst": 0.4, "d": 2,
                 "set": {"kind": "generalized-cantor", "dim": 0.45,
                         "generation": 8},
                 "epsilon": 2.0**-4, "radius_cells": 2,
                 "expect": "no-interior", "threshold": 0.1},
            ],
            "n_samples": 2**14,
            "grid_n": 2**16,
        },
    })
    rows = run_experiment(cfg41)
    cfg34 = ExperimentConfig.from_dict({
        "kind": "interior",
        "seeds": 20,
        "seed_base": SEED,
        "params": {
            "cells": [
                # dim(A) = 1 > H d = 0.6, fixed Lipschitz drift
                {"hurst": 0.3, "d": 2, "set": {"kind": "full"},
                 "drift": "lipschitz", "epsilon": 2.0**-4, "radius_cells": 2,
                 "expect": "interior", "threshold": 0.9},
            ],
            "n_samples": 2**14,
            "grid_n": 2**16,
        },
    })
    rows += run_experiment(cfg34)
    ok = all(r.passed for r in rows)
    detail = "; ".join(
        f"{r.diagnostics['expect']}(d={r.cell['d']}): {r.estimate:.2f}"
        for r in rows
    )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 900.0
    report(9, "interior detection", ok, detail, elapsed)
    assert ok


# -- criterion 10 -----------------------------------------------------------

def test_criterion_10_formula_layer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 10**4
    hs = rng.uniform(0.05, 0.95, n)
    alphas = hs * rng.uniform(0.1, 1.0, n)
    alphas = np.clip(alphas, 0.01, None)
    dims = rng.uniform(0.0, 1.0, n)
    ds = rng.integers(1, 4, n)
    hps = hs + (1.0 - hs) * rng.uniform(0.05, 0.95, n)
    ok = True
    for i in range(n):
        a, h, hp, x, d = alphas[i], hs[i], hps[i], dims[i], int(ds[i])
        v = pf.theoretical_graph_dimension(a, h, x, d)
        ok &= v >= x - 1e-12
        lo, up = pf.holder_graph_bounds(a, h, x, d)
        ok &= lo <= up + 1e-12 and lo == x and up == v
        lo2, up2 = pf.comparison_bounds(min(x * (1 + h * d), 1 + h * d), h, hp, d)
        ok &= lo2 <= up2 + 1e-9
        dim_rho = x * 3.0
        ok &= abs(
            pf.metric_dim_from_psi_dim(pf.psi_dim_from_metric_dim(dim_rho, h), h)
            - dim_rho
        ) <= 1e-12
        if not ok:
            break
    # boundary cases
    ok &= pf.theoretical_graph_dimension(0.5, 0.5, 0.7, 2) == pytest.approx(0.7)
    ok &= pf.comparison_bounds(0.0, 0.3, 0.6, 1) == (0.0, 0.0)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(10, "formula layer", ok, f"{n} grid points, boundary cases", elapsed)
    assert ok
