"""Independent brute-force reference implementations used as test oracles.

Deliberately naive (pure-Python loops, no shared code with the package's
vectorized routines) so that agreement is a genuine dual-route check.
The fBm chain constant kappa_H has two routes here as well: its Gamma closed
form and a quadrature of the Mandelbrot-Van Ness kernel.
"""

import math


def naive_parabolic_box_count(times, values, delta, hurst, anchor_shift=0.0):
    """Anchored parabolic box count by explicit iteration over points.

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
    return len(boxes)


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
