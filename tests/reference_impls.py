"""Brute-force reference implementations used as oracles by the tests.

These are written independently of the package internals: plain loops and
the textbook formulas, no shared helpers. The epoch-CSV oracles raise the
package's error classes and build its TriaxialSeries, the finite-difference
Jacobian raises its NonFiniteResidual, and the day-loop oracles at the end
raise its InsufficientData, so that their results and errors compare with
the package's own.
"""

import csv
import dataclasses
import io
import itertools
import math
from dataclasses import dataclass
from datetime import datetime, time, timedelta

import numpy as np

from actirhythm.errors import (
    InsufficientData,
    IrregularEpoch,
    MalformedRow,
    NegativeCount,
    NonFiniteResidual,
    NonMonotonicTime,
)
from actirhythm.ingest import SYNTH_START, TriaxialSeries


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


# The rank tests as they were before ranks came from one sort per feature:
# each test re-ranks its own pooled values with a Python loop and counts
# ties with np.unique. Bodies as they were, names prefixed with loop_; the
# p-value formulas and float operations are the package's, so its results
# must equal these bit for bit.

def loop_ranks_with_ties(values) -> np.ndarray:
    """Mid-ranks: tied values get the mean of the ranks they span."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable").tolist()
    values = values.tolist()
    n = len(values)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        # i..j (0-based) share ranks i+1..j+1
        rank = (i + j) / 2.0 + 1.0
        for k in order[i:j + 1]:
            ranks[k] = rank
        i = j + 1
    return np.array(ranks, dtype=float)


def loop_tie_term(values: np.ndarray) -> float:
    """sum(t^3 - t) over groups of tied values."""
    _, counts = np.unique(values, return_counts=True)
    return float(np.sum(counts.astype(float) ** 3 - counts))


def loop_normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def loop_kruskal_h(groups) -> tuple[float, bool]:
    """The tie-corrected H of the groups (1-d float arrays) and whether all
    pooled values are equal, by the package's formula on loop ranks."""
    pooled = np.concatenate(groups)
    n_total = pooled.size
    ranks = loop_ranks_with_ties(pooled)
    h = 0.0
    offset = 0
    for v in groups:
        r_sum = float(ranks[offset:offset + v.size].sum())
        h += r_sum * r_sum / v.size
        offset += v.size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)
    tie_term = loop_tie_term(pooled)
    correction = 1.0 - tie_term / (n_total ** 3 - n_total)
    if correction == 0.0:
        return 0.0, True
    return max(h / correction, 0.0), False


def loop_mwu_normal_p(x: np.ndarray, y: np.ndarray) -> float:
    n1, n2 = x.size, y.size
    pooled = np.concatenate([x, y])
    n = n1 + n2
    ranks = loop_ranks_with_ties(pooled)
    r1 = float(ranks[:n1].sum())
    u1 = n1 * n2 + n1 * (n1 + 1) / 2.0 - r1
    u2 = n1 * n2 - u1
    var = n1 * n2 / 12.0 * ((n + 1.0) - loop_tie_term(pooled) / (n * (n - 1.0)))
    if var <= 0:
        return 1.0
    z = (max(u1, u2) - n1 * n2 / 2.0 - 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * loop_normal_sf(max(z, 0.0)))


def loop_rank_sum_counts(doubled, n1: int) -> np.ndarray:
    """``counts[s]``: the number of size-n1 subsets of ``doubled`` whose sum
    is s, by one shift-add per item over all subset sizes."""
    top = sum(doubled)
    counts = np.zeros((n1 + 1, top + 1), dtype=np.int64)
    counts[0, 0] = 1
    for r in doubled:
        counts[1:, r:] += counts[:-1, :top + 1 - r].copy()
    return counts[n1]


def loop_mwu_exact_p(x: np.ndarray, y: np.ndarray) -> float:
    """Exact two-sided p from the counted distribution of the first group's
    doubled rank sum, counted afresh for each pair."""
    n1 = x.size
    ranks = loop_ranks_with_ties(np.concatenate([x, y]))
    doubled = np.rint(2.0 * ranks).astype(np.int64).tolist()
    dist = loop_rank_sum_counts(doubled, n1)
    obs = sum(doubled[:n1])
    n_le = int(dist[obs:].sum())
    n_ge = int(dist[:obs + 1].sum())
    total = int(dist.sum())
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def loop_pairwise_dunn(groups) -> list[float]:
    """Dunn's unadjusted p for every pair of the groups (1-d float arrays),
    in itertools.combinations order, on the pooled loop ranks."""
    sizes = [v.size for v in groups]
    pooled = np.concatenate(groups)
    n = pooled.size
    ranks = loop_ranks_with_ties(pooled)
    means = []
    offset = 0
    for size in sizes:
        means.append(float(ranks[offset:offset + size].mean()))
        offset += size
    spread = n * (n + 1.0) / 12.0 - loop_tie_term(pooled) / (12.0 * (n - 1.0))
    results = []
    for i, j in itertools.combinations(range(len(groups)), 2):
        var = spread * (1.0 / sizes[i] + 1.0 / sizes[j])
        if var <= 0:
            p = 1.0
        else:
            z = abs(means[i] - means[j]) / math.sqrt(var)
            p = min(1.0, 2.0 * loop_normal_sf(z))
        results.append(p)
    return results


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


def stacked_profile_jacobian(t, counts, params):
    """Jacobian of the profile residual sqrt(n_m) * (ybar_m - f(t_m)) over
    (min, w, phase, u, v), each column a fresh expression joined by
    np.column_stack: the form whose bits the fit's buffered Jacobian
    keeps. A saturated sigmoid (s of 0 or 1) has zero slope."""
    min_, w, phase, u, v = params
    with np.errstate(over="ignore"):
        amplitude, beta = np.exp(w), np.exp(v)
    alpha = np.tanh(u)
    omega = 2.0 * np.pi / 24.0
    angle = (t - phase) * omega
    cos = np.cos(angle)
    z = beta * (cos - alpha)
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    with np.errstate(invalid="ignore"):
        slope = np.where((s > 0.0) & (s < 1.0), amplitude * s * (1.0 - s) * beta, 0.0)
    df = np.column_stack([
        np.ones(t.size),
        amplitude * s,
        slope * omega * np.sin(angle),
        -slope * (1.0 - alpha * alpha),
        slope * (cos - alpha),
    ])
    return -np.sqrt(counts)[:, None] * df


def numeric_jacobian(fun, params, rel_step=1e-6):
    """Central differences of the residual map ``fun`` at ``params``, one
    column per parameter, with step rel_step*max(|p_i|, 1); the oracle for
    the closed-form Jacobians. A non-finite residual raises
    NonFiniteResidual."""
    p = np.asarray(params, dtype=float)
    cols = []
    for i in range(p.size):
        h = rel_step * max(abs(p[i]), 1.0)
        up = p.copy()
        up[i] += h
        down = p.copy()
        down[i] -= h
        r_up = np.asarray(fun(up), dtype=float)
        r_down = np.asarray(fun(down), dtype=float)
        if not (np.all(np.isfinite(r_up)) and np.all(np.isfinite(r_down))):
            raise NonFiniteResidual(f"non-finite residual perturbing parameter {i}")
        cols.append((r_up - r_down) / (2.0 * h))
    return np.column_stack(cols)


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


# The epoch-CSV row loop and writer as they were before the columnar parse
# and the vectorised writer; frozen as oracles. Only the names differ.

def _ref_decode(content) -> str:
    if isinstance(content, bytes):
        return content.decode("utf-8")
    if isinstance(content, str):
        return content
    return content.read().decode("utf-8") if hasattr(content, "read") else str(content)


def _ref_parse_timestamp(text: str, line_no: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        raise MalformedRow(line_no, f"bad timestamp {text!r}") from None
    if ts.tzinfo is not None:
        raise MalformedRow(line_no, "timezone-aware timestamps are not supported")
    return ts


def _ref_parse_count(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line_no, f"bad count {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"non-finite count {text!r}")
    if value < 0:
        raise NegativeCount(f"line {line_no}: negative count {value}")
    return value


def row_loop_parse_triaxial_csv(content, subject_id: str) -> TriaxialSeries:
    reader = csv.reader(io.StringIO(_ref_decode(content)))
    rows: list[tuple[float, float, float]] = []
    start, prev, epoch = SYNTH_START, None, 60
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "missing header")
        cols = tuple(c.strip().lower() for c in header)
        if cols not in (("timestamp", "axis1", "axis2", "axis3"), ("timestamp", "vm")):
            raise MalformedRow(1, f"unexpected header {header!r}")
        vm_only = cols == ("timestamp", "vm")
        n_cols = len(cols)
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n_cols:
                raise MalformedRow(line_no,
                                   f"expected {n_cols} fields, got {len(row)}")
            ts = _ref_parse_timestamp(row[0], line_no)
            if vm_only:
                rows.append((_ref_parse_count(row[1], line_no), 0.0, 0.0))
            else:
                rows.append((_ref_parse_count(row[1], line_no),
                             _ref_parse_count(row[2], line_no),
                             _ref_parse_count(row[3], line_no)))
            if prev is None:
                start = ts
            else:
                step = (ts - prev).total_seconds()
                if step <= 0:
                    raise NonMonotonicTime(
                        f"timestamps not increasing at line {line_no}")
                if len(rows) == 2:
                    if step != int(step):
                        raise IrregularEpoch(f"non-integer epoch of {step} s")
                    epoch = int(step)
                elif step != epoch:
                    raise IrregularEpoch(
                        f"gap of {step} s at line {line_no} differs from epoch {epoch} s")
            prev = ts
    except csv.Error as exc:   # e.g. a bare CR in an unquoted field
        raise MalformedRow(reader.line_num, f"bad CSV row: {exc}") from None

    samples = np.array(rows, dtype=float).reshape(len(rows), 3)
    return TriaxialSeries(subject_id=subject_id, start_time=start,
                          epoch_length=epoch, samples=samples)


def row_loop_serialize_triaxial_csv(series: TriaxialSeries) -> str:
    out = ["timestamp,axis1,axis2,axis3"]
    step = series.epoch_length
    for i in range(len(series)):
        ts = series.start_time + timedelta(seconds=i * step)
        x, y, z = series.samples[i]
        out.append(f"{ts.isoformat(timespec='seconds')},{float(x)!r},{float(y)!r},{float(z)!r}")
    return "\n".join(out) + "\n"


# The one-pass vectorised writer as it was before it wrote in row blocks
# from the stamp kernel; frozen as an oracle. Only the name differs.

def one_pass_serialize_triaxial_csv(series: TriaxialSeries) -> str:
    n, step = len(series), series.epoch_length
    start = series.start_time.replace(microsecond=0, tzinfo=None)
    if n:   # past year 9999 this raises OverflowError, as the last stamp would
        start + timedelta(seconds=(n - 1) * step)
    stamps = (np.datetime64(start, "s") + step * np.arange(n)).astype("U19").tolist()
    columns = [stamps, *(map(repr, c) for c in series.samples.T.tolist())]
    return "\n".join(["timestamp,axis1,axis2,axis3", *map(",".join, zip(*columns))]) + "\n"


# The per-day loops of the minute series as they were before the calendar-day
# grid: ActivitySeries with its day helpers, filter_invalid_days,
# select_analysis_window, rmssd, and the cosinor fit data and minute-of-day
# profile. Frozen as oracles; only the names differ.

MINUTES_PER_DAY = 1440


@dataclass(frozen=True, eq=False)
class LoopSeries:
    subject_id: str
    start_time: datetime
    values: np.ndarray
    day_dates: tuple
    day_starts: tuple
    day_valid: np.ndarray

    @classmethod
    def from_minutes(cls, subject_id, start_time, values):
        values = np.asarray(values, dtype=float)
        n = values.size
        offset = start_time.hour * 60 + start_time.minute
        starts = [0]
        nxt = MINUTES_PER_DAY - offset
        while nxt < n:
            starts.append(nxt)
            nxt += MINUTES_PER_DAY
        first = start_time.date()
        dates = tuple(first + timedelta(days=i) for i in range(len(starts)))
        return cls(subject_id=subject_id, start_time=start_time, values=values,
                   day_dates=dates, day_starts=tuple(starts),
                   day_valid=np.ones(len(starts), dtype=bool))

    @property
    def n_days(self):
        return len(self.day_dates)

    def day_length(self, d):
        end = self.day_starts[d + 1] if d + 1 < self.n_days else self.values.size
        return end - self.day_starts[d]

    def day_block(self, d):
        end = self.day_starts[d + 1] if d + 1 < self.n_days else self.values.size
        return self.values[self.day_starts[d]:end]

    def day_offset_minutes(self, d):
        if d == 0:
            return self.start_time.hour * 60 + self.start_time.minute
        return 0

    def is_complete_day(self, d):
        return self.day_length(d) == MINUTES_PER_DAY and self.day_offset_minutes(d) == 0

    def valid_minutes_mask(self):
        mask = np.zeros(self.values.size, dtype=bool)
        for d in range(self.n_days):
            if self.day_valid[d]:
                end = self.day_starts[d + 1] if d + 1 < self.n_days else self.values.size
                mask[self.day_starts[d]:end] = True
        return mask

    def time_hours(self):
        t = np.empty(self.values.size, dtype=float)
        for d in range(self.n_days):
            start = self.day_starts[d]
            length = self.day_length(d)
            m0 = self.day_offset_minutes(d)
            t[start:start + length] = d * 24.0 + (m0 + np.arange(length) + 0.5) / 60.0
        return t


def loop_filter_invalid_days(series, bouts):
    valid = series.day_valid.copy()
    for bout in bouts:
        b_lo, b_hi = bout.start_index, bout.start_index + bout.length
        for d in range(series.n_days):
            d_lo = series.day_starts[d]
            d_hi = d_lo + series.day_length(d)
            if b_lo < d_hi and b_hi > d_lo:
                valid[d] = False
    return dataclasses.replace(series, day_valid=valid)


def loop_select_analysis_window(series, n_days=5):
    kept = [d for d in range(series.n_days)
            if series.day_valid[d] and series.is_complete_day(d)]
    if len(kept) < n_days:
        raise InsufficientData(
            f"subject {series.subject_id!r}: {len(kept)} valid complete days, "
            f"need {n_days}")
    kept = kept[:n_days]
    values = np.concatenate([series.day_block(d) for d in kept])
    dates = tuple(series.day_dates[d] for d in kept)
    starts = tuple(i * MINUTES_PER_DAY for i in range(n_days))
    return LoopSeries(
        subject_id=series.subject_id,
        start_time=datetime.combine(dates[0], time()),
        values=values, day_dates=dates, day_starts=starts,
        day_valid=np.ones(n_days, dtype=bool))


def loop_rmssd(series):
    total = 0.0
    count = 0
    for d in range(series.n_days):
        if not series.day_valid[d]:
            continue
        block = series.day_block(d)
        if block.size >= 2:
            diffs = np.diff(block)
            total += float(diffs @ diffs)
            count += diffs.size
        if d + 1 < series.n_days and series.day_valid[d + 1] \
                and (series.day_dates[d + 1] - series.day_dates[d]).days == 1:
            lo = series.day_starts[d + 1]
            step = series.values[lo] - series.values[lo - 1]
            total += float(step * step)
            count += 1
    return math.sqrt(total / count)


def loop_fit_data(series, transform):
    """Clock hours (24 per calendar day) and transformed counts of the valid
    recorded minutes in time order: the full data that the cosinor fits
    reduce to a minute-of-day profile."""
    mask = series.valid_minutes_mask()
    return series.time_hours()[mask], transform(series.values[mask])


def loop_minute_profile(t, y):
    """preprocess.day_profile from the fit's (hours, values) samples:
    (bin hours, counts, means) of the populated minutes of day."""
    minute = np.rint(t * 60.0 - 0.5).astype(np.intp) % MINUTES_PER_DAY
    counts = np.bincount(minute, minlength=MINUTES_PER_DAY)
    means = np.bincount(minute, weights=y, minlength=MINUTES_PER_DAY)
    populated = counts > 0
    means[populated] /= counts[populated]
    bins = np.flatnonzero(populated)
    return (bins + 0.5) / 60.0, counts[bins], means[bins]


# The per-value writers of curves.csv, overlays.csv and the SVG point lists
# as they were before each block was formatted in one %-format call: one
# "%.6g" or f-string per number and a csv.writer row per minute. Frozen as
# oracles; only the names differ, and loop_points joins its pairs itself.

def _loop_csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _loop_fmt_column(values):
    return ["%.6g" % v for v in values.tolist()]


def loop_curves_csv(curves):
    rows = []
    for c in curves:
        rows += zip(itertools.repeat(c.group.value), ["%d" % t for t in c.times.tolist()],
                    _loop_fmt_column(c.mean), _loop_fmt_column(c.ci_low),
                    _loop_fmt_column(c.ci_high))
    return _loop_csv_text(("group", "minute", "mean", "ci_low", "ci_high"), rows)


def loop_overlays_csv(overlays):
    rows = []
    for ov in overlays:
        rows += zip(itertools.repeat(ov.subject_id), itertools.repeat(ov.group.value),
                    range(ov.observed.size), _loop_fmt_column(ov.observed),
                    _loop_fmt_column(ov.fitted))
    return _loop_csv_text(("subject_id", "group", "minute", "observed", "fitted"), rows)


def loop_points(x, y, sep=",", join=" "):
    return join.join(f"{a:.2f}{sep}{b:.2f}" for a, b in zip(x.tolist(), y.tolist()))
