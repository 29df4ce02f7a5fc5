"""Independent brute-force reference implementations used as test oracles.

Deliberately naive (pure-Python loops, no shared code with the package's
vectorized routines) so that agreement is a genuine dual-route check.
The fBm chain constant kappa_H has two routes here as well: its Gamma closed
form and a quadrature of the Mandelbrot-Van Ness kernel.  The circulant fBm
sampler has two: a pure-Python DFT and the complex-FFT route it replaced.
The batched Gaussian sweeps are checked against the per-config loop they
replaced, which draws each config and calls the public one-config route.
The increment covariance of the Cholesky sampler is checked against a
50-digit mpmath evaluation of each entry.
"""

import cmath
import hashlib
import itertools
import json
import math

import numpy as np


def naive_parabolic_box_count(times, values, delta, hurst, anchor_shift=0.0):
    """Anchored parabolic box count by explicit iteration over points."""
    return len(naive_box_keys(times, values, delta, hurst, anchor_shift))


def naive_box_keys(times, values, delta, hurst, anchor_shift=0.0):
    """The set of occupied anchored boxes, as tuples of Python-int indices.

    ``anchor_shift`` moves every anchor by that fraction of a cell; the
    t = 1 cap on the time index applies only to unshifted grids.
    """
    side = delta**hurst
    tshift = anchor_shift * delta
    vshift = anchor_shift * side
    d = len(values[0])
    mins = [min(v[j] for v in values) for j in range(d)]
    time_cap = math.ceil(1.0 / delta) - 1
    boxes = set()
    for t, v in zip(times, values):
        ti = int(math.floor((t - tshift) / delta))
        if anchor_shift == 0.0:
            ti = min(ti, time_cap)
        key = (ti,) + tuple(
            int(math.floor((v[j] - mins[j] - vshift) / side)) for j in range(d)
        )
        boxes.add(key)
    return boxes


def _philox_normals(seed, tag, coord, size):
    """The standard normals of the (seed, process tag, coordinate) Philox stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, coord))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(size)


def naive_fgn_path(hurst, n, seed, tag=0, coord=0):
    """fBm at the times k/n, k = 1..n, by circulant embedding with pure-Python DFTs.

    The 2n-circulant's eigenvalues are cosine sums over its first row
    (negative roundoff set to 0); the Hermitian spectrum built from the
    stream's 2n normals (z[0] at frequency 0, z[1] at n, (z[k+1] + i z[n+k])
    / sqrt 2 at k and its conjugate at 2n-k) is transformed term by term.
    """
    m = 2 * n
    h2 = 2.0 * hurst
    acov = [0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + abs(k - 1) ** h2) * (1.0 / n) ** h2
            for k in range(n + 1)]
    row = acov + acov[n - 1:0:-1]
    lam = [sum(row[j] * math.cos(2.0 * math.pi * (j * k % m) / m) for j in range(m))
           for k in range(m)]
    z = _philox_normals(seed, tag, coord, m).tolist()
    zeta = [0j] * m
    zeta[0], zeta[n] = complex(z[0]), complex(z[1])
    for k in range(1, n):
        zeta[k] = complex(z[k + 1], z[n + k]) / math.sqrt(2.0)
        zeta[m - k] = zeta[k].conjugate()
    coef = [math.sqrt(max(lam_k, 0.0)) * zeta_k for lam_k, zeta_k in zip(lam, zeta)]
    path, total = [], 0.0
    for j in range(n):
        x = sum(c * cmath.exp(-2j * math.pi * (j * k % m) / m) for k, c in enumerate(coef))
        total += x.real / math.sqrt(m)
        path.append(total)
    return path


def full_complex_fgn_eigenvalues(hurst, n):
    """Eigenvalues of the 2n-circulant for the gap 1/n by one complex FFT.

    The real part of the complex FFT of the circulant's first row, negative
    roundoff set to 0, as the sampler computed them before it used hfft.
    """
    # vectorised powers as in the package: at large lags and H the second
    # difference cancels so deeply that an ulp of pow shows in the path
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    acov = 0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2) * np.float64(1.0 / n) ** h2
    return np.maximum(np.fft.fft(np.concatenate([acov, acov[n - 1:0:-1]])).real, 0.0)


def full_complex_fgn_path(hurst, n, seed, tag=0, coord=0):
    """fBm at the times k/n, k = 1..n, by complex FFTs of the full 2n spectrum.

    The sample is the real part of the complex FFT of the whole Hermitian
    spectrum (both halves stored) scaled by the square roots of
    :func:`full_complex_fgn_eigenvalues`, as the sampler did before it moved
    to the half spectrum.
    """
    m = 2 * n
    lam = full_complex_fgn_eigenvalues(hurst, n)
    z = _philox_normals(seed, tag, coord, m)
    zeta = np.empty(m, dtype=complex)
    zeta[0], zeta[n] = z[0], z[1]
    zeta[1:n] = (z[2:n + 1] + 1j * z[n + 1:]) / np.sqrt(2.0)
    zeta[n + 1:] = np.conj(zeta[n - 1:0:-1])
    return np.cumsum(np.fft.fft(np.sqrt(lam) * zeta).real[:n] / np.sqrt(m))


def complex_half_spectrum_fgn(lam, z):
    """fGn sample from eigenvalues ``lam`` (2n) and normals ``z`` (2n), by the
    complex expression the half-spectrum sampler first assembled its
    coefficients with: (z[k+1] - i z[n+k]) / sqrt 2 scaled by sqrt(lam[k]).
    """
    m2 = lam.size
    n = m2 // 2
    half = np.empty(n + 1, dtype=complex)
    half[0] = z[0]
    half[n] = z[1]
    half[1:n] = (z[2:n + 1] - 1j * z[n + 1:m2]) / np.sqrt(2.0)
    half *= np.sqrt(lam[:n + 1])
    return np.fft.irfft(half, m2, norm="ortho")[:n]


def mp_increment_covariance(tpos, hurst, i, j, dps=50):
    """Entry (i, j) of the increment covariance over the gaps of (0, t_1, ..., t_n)
    at ``dps`` digits, with its scale, as a pair of mpmath numbers.

    The float times are taken exactly; entry (i, j) is
    Cov(B(t_{i+1}) - B(t_i), B(t_{j+1}) - B(t_j)) with t_0 = 0, expanded
    into four gap powers, and the scale is the largest of them.
    """
    import mpmath

    with mpmath.workdps(dps):
        h2 = 2 * mpmath.mpf(hurst)
        lo_i, hi_i, lo_j, hi_j = (mpmath.mpf(float(tpos[k - 1])) if k else mpmath.mpf(0)
                                  for k in (i, i + 1, j, j + 1))
        powers = [abs(hi_i - lo_j) ** h2, abs(lo_i - hi_j) ** h2,
                  abs(hi_i - hi_j) ** h2, abs(lo_i - lo_j) ** h2]
        return (powers[0] + powers[1] - powers[2] - powers[3]) / 2, max(powers)


def four_power_increment_covariance(tpos, hurst, rows=slice(None)):
    """Rows ``rows`` of the increment covariance over the gaps of (0, t_1, ..., t_n),
    built from four separate gap-power matrices.

    Entry (i, j) is (|hi_i - lo_j|^2H + |lo_i - hi_j|^2H - |hi_i - hi_j|^2H
    - |lo_i - lo_j|^2H) / 2 with lo = (0, t_1, ..., t_{n-1}) and hi = t: the
    same four float powers, added in the same order, as the one gap-power
    matrix of ``fbm._increment_covariance`` gives, so the two agree byte for
    byte.  A block of rows keeps a 4096-point check to four 512-row arrays.
    """
    h2 = 2.0 * hurst
    lo = np.concatenate([[0.0], tpos[:-1]])
    hi = tpos
    a = np.abs(hi[rows, None] - lo[None, :]) ** h2
    b = np.abs(lo[rows, None] - hi[None, :]) ** h2
    c = np.abs(hi[rows, None] - hi[None, :]) ** h2
    d = np.abs(lo[rows, None] - lo[None, :]) ** h2
    return 0.5 * (a + b - c - d)


def naive_energy_sum(times, values, weights, gamma, hurst):
    """Ordered-pair energy sum by explicit double loop."""
    n = len(times)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dt = abs(times[i] - times[j]) ** hurst
            dv = max(abs(values[i][k] - values[j][k]) for k in range(len(values[i])))
            rho = max(dt, dv)
            total += weights[i] * weights[j] * rho ** (-gamma / hurst)
    return total


def naive_pair_sums(points, weights, radii):
    """Per-radius sum_{i != j} w_i w_j 1{|p_i - p_j| < r} by explicit double loop.

    Strict < at a tie and the diagonal excluded; no r^-d factor.
    """
    sums = []
    for r in radii:
        total = 0.0
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                if i != j and math.dist(p, q) < r:
                    total += weights[i] * weights[j]
        sums.append(total)
    return sums


def naive_pair_counts(points, radii):
    """Per-radius number of ordered pairs i != j with |p_i - p_j| < r."""
    return [
        sum(1 for i, p in enumerate(points) for j, q in enumerate(points)
            if i != j and math.dist(p, q) < r)
        for r in radii
    ]


def naive_histogram(weights, values, epsilon, origin):
    """Cell masses by dict accumulation in input order; zero-mass cells dropped."""
    cells = {}
    for w, v in zip(weights, values):
        key = tuple(math.floor((x - o) / epsilon) for x, o in zip(v, origin))
        cells[key] = cells.get(key, 0.0) + w
    return {k: m for k, m in cells.items() if m > 0.0}


def naive_has_interior(weights, values, epsilon, origin, radius):
    """Cells whose closed l-infinity neighbourhood of ``radius`` cells is occupied.

    Occupied cells are collected in a dict as points are binned (cells of
    zero total mass dropped, as in a histogram); each one is then checked by
    scanning its (2 radius + 1)^d neighbours.  Returns the sorted list of
    such cells, empty (falsy) when there is no interior.
    """
    occupied = naive_histogram(weights, values, epsilon, origin)
    d = len(origin)
    offsets = list(itertools.product(range(-radius, radius + 1), repeat=d))
    return sorted(
        cell for cell in occupied
        if all(tuple(c + o for c, o in zip(cell, off)) in occupied for off in offsets)
    )


def line_l2_value(r):
    """Closed form r^-1 * (nu x nu){|s-t| < r} for nu uniform on [0,1]: (2r - r^2)/r."""
    return 2.0 - r


def naive_conditional_variance(cov, target, given):
    """Conditional variance via explicit normal-equations solve (Gaussian elimination)."""
    m = len(given)
    if m == 0:
        return cov[target][target]
    a = [[cov[gi][gj] for gj in given] for gi in given]
    b = [cov[gi][target] for gi in given]
    # Gaussian elimination with partial pivoting
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for row in range(col + 1, m):
            f = a[row][col] / a[col][col]
            for k in range(col, m):
                a[row][k] -= f * a[col][k]
            b[row] -= f * b[col]
    x = [0.0] * m
    for row in range(m - 1, -1, -1):
        s = b[row] - sum(a[row][k] * x[k] for k in range(row + 1, m))
        x[row] = s / a[row][row]
    cross = [cov[gi][target] for gi in given]
    return cov[target][target] - sum(c * xi for c, xi in zip(cross, x))


def mvn_kappa(hurst):
    """Closed form kappa_H = Gamma(2H) sin(pi H) / Gamma(H + 1/2)^2.

    The share of Var(B(t) - B(s)) = |t - s|^2H left after conditioning on the
    Mandelbrot-Van Ness driving noise up to s; equals 1 at H = 1/2.
    """
    return math.gamma(2.0 * hurst) * math.sin(math.pi * hurst) / math.gamma(hurst + 0.5) ** 2


def mvn_kappa_quadrature(hurst):
    """kappa_H = 1 / (1 + 2H int_0^inf ((1+s)^(H-1/2) - s^(H-1/2))^2 ds) by quadrature.

    Integrates the Mandelbrot-Van Ness kernel directly (mpmath tanh-sinh at
    30 digits), sharing nothing with the Gamma closed form.  The integral is
    split at s = 1 and each piece is mapped to a smooth integrand on [0, 1].
    """
    import mpmath

    with mpmath.workdps(30):
        h = mpmath.mpf(hurst)
        e = h - mpmath.mpf(1) / 2
        # near s = 0 the integrand behaves like s^(2H-1); s = y^p with
        # p = 1/(2H) makes it smooth
        p = 1 / (2 * h)
        head = mpmath.quad(
            lambda y: ((1 + y**p) ** e - y ** (p * e)) ** 2 * p * y ** (p - 1), [0, 1]
        )
        # s = 1/x turns [1, inf) into x^(-2H-1) ((1+x)^(H-1/2) - 1)^2 on (0, 1],
        # which behaves like x^(1-2H); x = y^q with q = 1/(2-2H) makes it smooth
        q = 1 / (2 - 2 * h)
        tail = mpmath.quad(
            lambda y: y ** (-q * (2 * h + 1))
            * mpmath.expm1(e * mpmath.log1p(y**q)) ** 2
            * q * y ** (q - 1),
            [0, 1],
        )
        return float(1 / (1 + 2 * h * (head + tail)))


def _sweep_stream(seed, sweep):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(5, sweep))
    return np.random.Generator(np.random.Philox(ss))


def _hash(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def detcov_sweep_by_config(n_configs, hurst_values, max_points, seed):
    """detcov_margin_sweep as one verify_detcov_lower_bound call per config."""
    from parafbm.gaussian import verify_detcov_lower_bound

    rng = _sweep_stream(seed, 0)
    records = []
    for h in hurst_values:
        for _ in range(n_configs):
            n = int(rng.integers(1, max_points + 1))
            t = np.sort(rng.uniform(0.01, 1.0, size=n))
            while np.any(np.diff(t) < 1e-4):
                t = np.sort(rng.uniform(0.01, 1.0, size=n))
            records.append({"config": _hash({"H": h, "times": t.tolist()}), "hurst": h,
                            "n": n, "margin": verify_detcov_lower_bound(t, h)})
    return records


def lnd_sweep_by_config(n_configs, hurst, alpha_p, interval, max_points, seed):
    """lnd_margin_sweep as one lnd_margin(GaussianVectorSpec(times, H, a')) call per config."""
    from parafbm.gaussian import GaussianVectorSpec, lnd_margin

    rng = _sweep_stream(seed, 1)
    lo, hi = interval
    records = []
    for _ in range(n_configs):
        n = int(rng.integers(1, max_points + 1))
        pts = np.sort(rng.uniform(lo, hi, size=n + 1))
        while np.any(np.diff(pts) < 1e-5):
            pts = np.sort(rng.uniform(lo, hi, size=n + 1))
        pick = int(rng.integers(0, n + 1))
        u = float(pts[pick])
        times = np.delete(pts, pick)
        ratio = lnd_margin(GaussianVectorSpec(times, hurst, alpha_p), u)
        records.append({"config": _hash({"H": hurst, "a": alpha_p, "u": u,
                                         "times": times.tolist()}),
                        "u": u, "n": n, "ratio": ratio})
    return records, min(r["ratio"] for r in records)
