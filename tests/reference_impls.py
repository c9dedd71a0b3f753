"""Brute-force reference implementations used as oracles by the tests.

These are written independently of the package internals: plain loops and
the textbook formulas, no shared helpers.
"""

import itertools
import math

import numpy as np


def brute_window_extreme(values, width, mode):
    """O(n*w) circular scan; ties break to the smallest start."""
    values = np.asarray(values, dtype=float)
    n = values.size
    doubled = np.concatenate([values, values])
    best_sum = None
    best_start = None
    for start in range(n):
        s = float(np.sum(doubled[start:start + width]))
        better = (best_sum is None
                  or (mode == "max" and s > best_sum)
                  or (mode == "min" and s < best_sum))
        if better:
            best_sum, best_start = s, start
    return best_sum, best_start


def brute_profile(day_matrix):
    days, n = day_matrix.shape
    return np.array([sum(day_matrix[d][m] for d in range(days)) / days
                     for m in range(n)])


def brute_features(day_matrix, immobile_threshold=0.0, ra_raw_sums=False,
                   consecutive_dates=None):
    """Feature battery computed with explicit loops on a (days, 1440)
    matrix. ``consecutive_dates[d]`` says whether day d+1 follows day d."""
    days, n = day_matrix.shape
    flat = day_matrix.reshape(-1)
    mean = float(flat.sum()) / flat.size
    sd = math.sqrt(float(((flat - mean) ** 2).sum()) / flat.size)

    profile = brute_profile(day_matrix)
    m10, t_m10 = brute_window_extreme(profile, 600, "max")
    l5, t_l5 = brute_window_extreme(profile, 300, "min")
    l5_scaled = l5 if ra_raw_sums else 2.0 * l5
    ra = (m10 - l5_scaled) / (m10 + l5_scaled)

    if consecutive_dates is None:
        consecutive_dates = [True] * (days - 1)
    total = 0.0
    count = 0
    for d in range(days):
        for j in range(n - 1):
            step = day_matrix[d][j + 1] - day_matrix[d][j]
            total += step * step
            count += 1
        if d + 1 < days and consecutive_dates[d]:
            step = day_matrix[d + 1][0] - day_matrix[d][n - 1]
            total += step * step
            count += 1
    rmssd = math.sqrt(total / count)

    immobile = sum(1 for v in flat if v <= immobile_threshold) / days
    return {
        "mean": mean, "sd": sd, "m10": m10, "t_m10": float(t_m10),
        "l5": l5, "t_l5": float(t_l5), "ra": ra, "rmssd": rmssd,
        "rmssd_sd": rmssd / sd if sd > 0 else float("nan"),
        "immobile_minutes": float(immobile),
    }


def brute_zero_bouts(values, min_bout):
    """All maximal zero runs longer than min_bout, by direct scan."""
    bouts = []
    n = len(values)
    i = 0
    while i < n:
        if values[i] == 0:
            j = i
            while j < n and values[j] == 0:
                j += 1
            if j - i > min_bout:
                bouts.append((i, j - i))
            i = j
        else:
            i += 1
    return bouts


def brute_mid_ranks(pooled):
    """1-based ranks; tied values share the mean of the ranks they span."""
    n = len(pooled)
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def brute_kruskal_h(groups):
    """Tie-corrected H via the rank-ANOVA identity
    H = (N-1) * SS_between / SS_total on mid-ranks."""
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = brute_mid_ranks(pooled)
    grand = sum(ranks) / n
    ss_total = sum((r - grand) ** 2 for r in ranks)
    if ss_total == 0:
        return 0.0
    ss_between = 0.0
    offset = 0
    for g in groups:
        m = len(g)
        mean_g = sum(ranks[offset:offset + m]) / m
        ss_between += m * (mean_g - grand) ** 2
        offset += m
    return (n - 1) * ss_between / ss_total


def brute_mwu_exact_p(x, y):
    """Exact two-sided Mann-Whitney p by enumerating every assignment of
    n1 of the pooled items to the first group (ties kept as mid-ranks)."""
    x, y = list(x), list(y)
    n1, n2 = len(x), len(y)
    ranks = brute_mid_ranks(x + y)
    base = n1 * (n1 + 1) / 2.0
    u_obs = n1 * n2 + base - float(sum(ranks[:n1]))
    n_le = n_ge = total = 0
    for combo in itertools.combinations(range(n1 + n2), n1):
        u = n1 * n2 + base - sum(ranks[i] for i in combo)
        total += 1
        if u <= u_obs:
            n_le += 1
        if u >= u_obs:
            n_ge += 1
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def sigmoid_curve(t, min_, amplitude, alpha, beta, phase):
    """Direct transcription of the model for generate-and-fit tests."""
    t = np.asarray(t, dtype=float)
    c = np.cos((t - phase) * 2.0 * np.pi / 24.0)
    z = beta * (c - alpha)
    return min_ + amplitude / (1.0 + np.exp(-z))


def model_partials(t, min_, amplitude, alpha, beta, phase):
    """Analytic partial derivatives of the curve wrt its five natural
    parameters, columns ordered (min, amplitude, alpha, beta, phase)."""
    t = np.asarray(t, dtype=float)
    omega = 2.0 * np.pi / 24.0
    c = np.cos((t - phase) * omega)
    z = beta * (c - alpha)
    sig = 1.0 / (1.0 + np.exp(-z))
    dsig = sig * (1.0 - sig)
    d_min = np.ones_like(t)
    d_amp = sig
    d_alpha = amplitude * dsig * (-beta)
    d_beta = amplitude * dsig * (c - alpha)
    d_phase = amplitude * dsig * beta * np.sin((t - phase) * omega) * omega
    return np.column_stack([d_min, d_amp, d_alpha, d_beta, d_phase])


def hours_apart(a, b, period=24.0):
    d = abs(a - b) % period
    return min(d, period - d)


def full_data_sigmoidal_fit(t, y, iterations=400):
    """Two-stage sigmoidal cosinor fit on every sample: least squares onto
    [1, cos, sin] seeds a Levenberg-Marquardt loop over (min, log amplitude,
    phase, artanh alpha, log beta) with central-difference derivatives.
    Returns the natural parameters (min, amplitude, alpha, beta, phase)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    omega = 2.0 * np.pi / 24.0
    design = np.column_stack([np.ones(t.size), np.cos(omega * t), np.sin(omega * t)])
    b0, bc, bs = np.linalg.lstsq(design, y, rcond=None)[0]
    amplitude = math.hypot(bc, bs)
    x = np.array([b0 - amplitude, math.log(2.0 * amplitude),
                  math.atan2(bs, bc) / omega, 0.0, math.log(2.0)])

    def residual(p):
        return y - sigmoid_curve(t, p[0], math.exp(p[1]), math.tanh(p[3]),
                                 math.exp(p[4]), p[2])

    r = residual(x)
    damping = 1e-3
    for _ in range(iterations):
        columns = []
        for i in range(5):
            h = 1e-6 * max(abs(x[i]), 1.0)
            step = np.zeros(5)
            step[i] = h
            columns.append((residual(x + step) - residual(x - step)) / (2.0 * h))
        J = np.column_stack(columns)
        A = J.T @ J
        g = J.T @ r
        while True:
            delta = np.linalg.solve(A + damping * np.diag(np.diag(A)), -g)
            r_try = residual(x + delta)
            if r_try @ r_try < r @ r or damping > 1e12:
                break
            damping *= 10.0
        if r_try @ r_try >= r @ r:
            break
        x, r = x + delta, r_try
        damping = max(damping / 10.0, 1e-12)
        if np.all(np.abs(delta) <= 1e-14 * (np.abs(x) + 1e-14)):
            break
    return (x[0], math.exp(x[1]), math.tanh(x[3]), math.exp(x[4]), x[2] % 24.0)
