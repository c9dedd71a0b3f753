"""Rank-based group comparison.

Kruskal-Wallis H with tie correction and chi-square p-values, pairwise
two-sided Mann-Whitney U (normal approximation with tie-corrected variance
and continuity correction, optional exact permutation p from the rank-sum
distribution, optional Dunn z tests), and median/IQR summaries.

Every test ranks from the runs and rank terms that a ``GroupSamples``
holds from construction; its runs are each group's count of values in each
run of ties, in ascending order. Doubled mid-ranks (i + j + 2 for a run
over 0-based positions i..j), rank sums and tie terms are then exact
integers, and a pair's runs are the pooled runs its two groups hold. A
comparison lays its cells out once, as one (features x subjects) array in
subject-ID order, and ranks every feature with one stable sort of it; the
runs, rank sums and tie terms of every feature and pair, and each cell's
quartiles, come from that sort at once. The exact null distribution
depends only on the first group's size and the pair's run sizes, its key,
so one comparison counts each distinct one once, as cumulative counts;
pools without ties share one table per pool size.

Significance markers follow a fixed letter scheme: a group's cell is
flagged with the letter of every group it differs from, at p < 0.01 for
pairs involving the healthy controls and p < 0.05 otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DuplicateSubject, InsufficientData, MalformedRow
from .features import ActivityFeatures
from .ingest import GROUP_ORDER, GroupLabel

FEATURE_ORDER = ActivityFeatures.FIELDS
CIRCADIAN_ORDER = ("min", "amplitude", "phase", "alpha", "beta")

MARKER_LETTERS = {
    GroupLabel.CONTROL_HEALTHY: "b",
    GroupLabel.CCI: "c",
    GroupLabel.RR: "d",
    GroupLabel.CONTROL_ICU: "e",
}

STRICT_ALPHA = 0.01   # pairs involving the healthy control group
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class GroupSamples:
    """Ordered (label, values) pairs, one value per subject; ``runs[g, r]``,
    how many values of group g are in the r-th run of equal values in
    ascending order (see ``_tie_runs``); and ``_rank_terms(runs)`` as lists.
    The three must agree, so the arrays must not change."""

    groups: tuple[tuple[GroupLabel, np.ndarray], ...]
    runs: np.ndarray
    rank_terms: tuple[list, ...]

    @classmethod
    def from_lists(cls, pairs) -> "GroupSamples":
        groups = tuple((label, np.asarray(vals, dtype=float)) for label, vals in pairs)
        pooled = np.concatenate([np.empty(0), *(v for _, v in groups)])  # even of none
        owner = np.repeat(np.arange(len(groups)), [v.size for _, v in groups])
        order = np.argsort(pooled, kind="stable")
        runs = _tie_runs(pooled[None, order], owner[None, order], len(groups))[0]
        return cls(groups, runs, tuple(term.tolist() for term in _rank_terms(runs)))


def _tie_runs(ordered: np.ndarray, owner: np.ndarray, n_groups: int) -> np.ndarray:
    """``runs[f, g, r]`` for rows f of ascending values and the group g of
    each value: how many values of group g are in row f's r-th run of equal
    values (+0.0 and -0.0 are equal, each NaN is a run of its own). Columns
    past a row's last run are 0; an empty run anywhere changes no rank."""
    starts = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    rows, width = ordered.shape
    key = (np.arange(rows)[:, None] * n_groups + owner) * width + np.cumsum(starts, axis=1) - 1
    return np.bincount(key.ravel(), minlength=rows * n_groups * width).reshape(
        rows, n_groups, width)


@dataclass(frozen=True)
class KwResult:
    h: float
    df: int
    p: float
    degenerate: bool = False   # all pooled values identical


@dataclass(frozen=True)
class PairResult:
    a: GroupLabel
    b: GroupLabel
    p: float
    threshold: float
    significant: bool


@dataclass(frozen=True)
class PairwiseFlags:
    pairs: tuple[PairResult, ...]

    def get(self, a: GroupLabel, b: GroupLabel) -> PairResult:
        for pair in self.pairs:
            if {pair.a, pair.b} == {a, b}:
                return pair
        raise KeyError((a, b))


@dataclass(frozen=True)
class GroupCell:
    label: GroupLabel
    n: int
    median: float
    q25: float
    q75: float
    markers: str


@dataclass(frozen=True)
class GroupComparisonRow:
    feature: str
    cells: tuple[GroupCell, ...]
    kw: KwResult
    pairwise: PairwiseFlags


def _ranks(counts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """For the sizes t of runs of ties in ascending order, along the last
    axis: each run's doubled mid-rank, the doubled rank sum of ``counts``
    values in each run, and sum(t^3 - t)."""
    doubled = 2 * np.cumsum(sizes, axis=-1) - sizes + 1
    return doubled, (counts * doubled).sum(axis=-1), (sizes ** 3 - sizes).sum(axis=-1)


def _rank_terms(runs: np.ndarray) -> tuple[np.ndarray, ...]:
    """From ``runs[..., g, r]``: each group's doubled rank sum in the pooled
    sample and the pooled sum(t^3 - t); then, for each pair of groups in
    ``itertools.combinations`` order, the pair's run sizes, its first
    group's doubled rank sum within the pair and the pair's sum(t^3 - t)."""
    pairs = list(itertools.combinations(range(runs.shape[-2]), 2))
    firsts = runs[..., [i for i, _ in pairs], :]
    pair_runs = firsts + runs[..., [j for _, j in pairs], :]
    _, rank_sums, ties = _ranks(runs, runs.sum(axis=-2, keepdims=True))
    return (rank_sums, ties[..., 0], pair_runs) + _ranks(firsts, pair_runs)[1:]


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability Q(df/2, x/2), in closed form for
    integer df: with h = x/2, Q(1/2, h) = erfc(sqrt(h)), Q(1, h) = exp(-h)
    and Q(a + 1, h) = Q(a, h) + h**a * exp(-h) / Gamma(a + 1)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if df < 1:
        raise ValueError("df must be >= 1")
    h = x / 2.0
    if h == 0.0:   # x = 0, or the least subnormal, which halves to 0
        return 1.0
    q, a = (math.erfc(math.sqrt(h)), 0.5) if df % 2 else (math.exp(-h), 1.0)
    while a < df / 2:
        q += math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
        a += 1.0
    return q


def kruskal_wallis(samples: GroupSamples) -> KwResult:
    """H = [12/(N(N+1)) * sum R_g^2/n_g] - 3(N+1), divided by the tie
    correction 1 - sum(t^3 - t)/(N^3 - N); p from chi-square with
    df = groups - 1."""
    groups = samples.groups
    if len(groups) < 2 or any(v.size < 1 for _, v in groups):
        raise InsufficientData("need >= 2 groups with >= 1 value each")
    n_total = sum(v.size for _, v in groups)
    if n_total < 3:
        raise InsufficientData("need at least 3 values in total")
    df = len(groups) - 1
    rank_sums, tie_term = samples.rank_terms[:2]
    h = 0.0
    for doubled, (_, v) in zip(rank_sums, groups):
        r_sum = doubled / 2
        h += r_sum * r_sum / v.size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)
    correction = 1.0 - tie_term / (n_total ** 3 - n_total)
    if correction == 0.0:
        return KwResult(h=0.0, df=df, p=1.0, degenerate=True)
    h = max(h / correction, 0.0)
    return KwResult(h=h, df=df, p=chi_square_sf(h, df))


def _mwu_normal_p(n1: int, n2: int, doubled_sum: int, ties: int) -> float:
    """Two-sided normal-approximation p, with tie-corrected variance and
    continuity correction, of a first group of n1 values with doubled rank
    sum ``doubled_sum`` in a pair whose sum(t^3 - t) is ``ties``."""
    n = n1 + n2
    u1 = n1 * n2 + n1 * (n1 + 1) / 2.0 - doubled_sum / 2
    u2 = n1 * n2 - u1
    var = n1 * n2 / 12.0 * ((n + 1.0) - ties / (n * (n - 1.0)))
    if var <= 0:
        return 1.0
    z = (max(u1, u2) - n1 * n2 / 2.0 - 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * _normal_sf(max(z, 0.0)))


def _rank_sum_counts(sizes: Sequence[int], n1: int) -> np.ndarray:
    """``counts[s]``: the number of ways to draw n1 of the values whose
    ascending runs of ties have ``sizes`` with doubled rank sum s. One
    in-place shift-add per value, over only the subset sizes that can still
    reach n1 and the sums the values before it reach; ascending values keep
    those sums small."""
    doubled = [2 * end - t + 1 for end, t in zip(itertools.accumulate(sizes), sizes)
               for _ in range(t)]
    top = sum(doubled)
    counts = np.zeros((n1 + 1, top + 1), dtype=np.int64)
    counts[0, 0] = 1
    reach = 0
    for i, r in enumerate(doubled):
        low, high = max(1, n1 - len(doubled) + 1 + i), min(i + 1, n1)
        dest = counts[low:high + 1, r:r + reach + 1]
        np.add(dest, counts[low - 1:high, :reach + 1], out=dest)
        reach += r
    return counts[n1]


def _tie_free_counts(n1: int, n: int, tables: list) -> np.ndarray:
    """``_rank_sum_counts`` of n values without ties, for n1 <= 12, from
    ``tables[m][k, s]``: the number of k-subsets of the doubled ranks 2, 4,
    ..., 2m whose sum is s. The tables grow to m = n, one shift-add per
    value, so pools of every size and every n1 share them."""
    while len(tables) <= n:
        m, last = len(tables), tables[-1]
        table = np.zeros((13, m * (m + 1) + 1), dtype=np.int64)
        table[:, :last.shape[1]] = last
        table[1:, 2 * m:] += last[:-1]
        tables.append(table)
    return tables[n][n1]


def _mwu_exact_p(n1: int, sizes: tuple[int, ...], doubled_sum: int,
                 memo: dict) -> float:
    """Exact two-sided p over all C(n1+n2, n1) group assignments, ties kept,
    of a first group of n1 values with doubled rank sum ``doubled_sum`` in a
    pair whose ascending runs of ties have ``sizes`` (none empty).

    The permutation distribution of that integer sum is counted exactly
    (Mann & Whitney 1947; Streitberg & Roehmel 1986 for ties); U <= U_obs
    exactly when R >= R_obs. The int64 counts are exact while
    C(n1+n2, n1) < 2**63, i.e. for n1 + n2 <= 66. ``memo`` maps the key
    (n1, sizes) to the cumulative counts with a leading 0, so each
    distribution is counted once and each tail is one lookup; under the
    key None it keeps the tables of ``_tie_free_counts``, which every
    first-group size n1 <= 12 and pool without ties shares.
    """
    key = (n1, sizes)
    below = memo.get(key)
    if below is None:
        if n1 <= 12 and max(sizes) == 1:
            tables = memo.setdefault(None, [np.eye(13, 1, dtype=np.int64)])
            counts = _tie_free_counts(n1, len(sizes), tables)
        else:
            counts = _rank_sum_counts(sizes, n1)
        below = memo[key] = [0, *np.cumsum(counts).tolist()]
    total = below[-1]
    n_le = total - below[doubled_sum]
    n_ge = below[doubled_sum + 1]
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def _pair_result(a: GroupLabel, b: GroupLabel, p: float) -> PairResult:
    """The pair's p against its threshold: STRICT_ALPHA when either group is
    the healthy controls, DEFAULT_ALPHA otherwise."""
    threshold = STRICT_ALPHA if GroupLabel.CONTROL_HEALTHY in (a, b) else DEFAULT_ALPHA
    return PairResult(a=a, b=b, p=p, threshold=threshold, significant=p < threshold)


def pairwise_ranksum(samples: GroupSamples, exact: bool = False, *,
                     memo: dict | None = None) -> PairwiseFlags:
    """Two-sided Mann-Whitney U for every group pair.

    ``exact`` takes the exact permutation p for pairs where both groups have
    n <= 12, the small-sample regime the analysis targets; larger pairs keep
    the normal approximation. ``memo`` holds the exact null distributions
    counted so far (see ``_mwu_exact_p``); without one each call counts its
    own.
    """
    memo = {} if memo is None else memo
    groups = samples.groups
    results = []
    for (i, j), sizes, r1, t in zip(itertools.combinations(range(len(groups)), 2),
                                    *samples.rank_terms[2:]):
        (la, va), (lb, vb) = groups[i], groups[j]
        if exact and va.size <= 12 and vb.size <= 12:
            p = _mwu_exact_p(va.size, tuple(filter(None, sizes)), r1, memo)
        else:
            p = _mwu_normal_p(va.size, vb.size, r1, t)
        results.append(_pair_result(la, lb, p))
    return PairwiseFlags(pairs=tuple(results))


def pairwise_dunn(samples: GroupSamples) -> PairwiseFlags:
    """Dunn z tests on the pooled Kruskal-Wallis ranks (unadjusted p)."""
    labels = [label for label, _ in samples.groups]
    sizes = [v.size for _, v in samples.groups]
    n = sum(sizes)
    rank_sums, tie_term = samples.rank_terms[:2]
    means = [doubled / 2 / size for doubled, size in zip(rank_sums, sizes)]
    spread = n * (n + 1.0) / 12.0 - tie_term / (12.0 * (n - 1.0))
    results = []
    for i, j in itertools.combinations(range(len(labels)), 2):
        var = spread * (1.0 / sizes[i] + 1.0 / sizes[j])
        if var <= 0:
            p = 1.0
        else:
            z = abs(means[i] - means[j]) / math.sqrt(var)
            p = min(1.0, 2.0 * _normal_sf(z))
        results.append(_pair_result(labels[i], labels[j], p))
    return PairwiseFlags(pairs=tuple(results))


def _linear_quantile(ordered: list[float], q: float) -> float:
    """``np.quantile(ordered, q)`` (method "linear") of a sorted NaN-free
    list, by the same float operations: virtual index (n-1)q, both
    neighbours the last value at or past it with weight index + 1, and
    numpy's two-sided lerp."""
    index = (len(ordered) - 1) * q
    if index >= len(ordered) - 1:
        lo = hi = ordered[-1]
        t = index + 1.0
    else:
        below = math.floor(index)
        lo, hi = ordered[below], ordered[below + 1]
        t = index - below
    diff = hi - lo
    return hi - diff * (1.0 - t) if t >= 0.5 else lo + diff * t


def median_iqr(values) -> tuple[float, float, float]:
    """(median, q25, q75) with linear interpolation at 1 + (n-1)q.

    Bitwise equal to ``np.quantile(values, [0.5, 0.25, 0.75])``, without
    its per-call overhead: any NaN gives NaN. One case may differ: where
    +0.0 and -0.0 tie at a quantile, numpy's partition returns either zero
    in no defined order, and this returns the one a stable sort puts there.
    """
    values = np.asarray(values, dtype=float).tolist()
    if not values:
        raise ValueError("need at least one value")
    if any(map(math.isnan, values)):
        return math.nan, math.nan, math.nan
    values.sort()
    return tuple(_linear_quantile(values, q) for q in (0.5, 0.25, 0.75))


def comparison_rows(values: Mapping[str, Mapping[str, float]],
                    groups: Mapping[str, GroupLabel],
                    order: Sequence[str],
                    posthoc: str = "ranksum",
                    exact: bool = False) -> list[GroupComparisonRow]:
    """One comparison row per feature name in ``order``.

    ``values`` maps subject -> feature -> value; non-finite values are
    dropped per feature. Group columns follow the canonical order.
    """
    if posthoc not in ("ranksum", "dunn"):
        raise ValueError(f"unknown posthoc {posthoc!r}")
    if exact and posthoc == "dunn":
        raise ValueError("exact applies to the rank-sum test, not to posthoc 'dunn'")
    codes = {sid: GROUP_ORDER.index(label) for sid, label in groups.items()}
    present = sorted(set(codes.values()))
    if len(present) < 2:
        raise InsufficientData("need subjects from at least 2 groups")
    # one column per subject in ID order, which stable sorts keep for ties
    subjects = sorted(values)
    table = np.array([[values[sid].get(name, math.nan) for sid in subjects]
                      for name in order], dtype=float).reshape(len(order), len(subjects))
    by_value = np.argsort(table, axis=1, kind="stable")
    ordered = np.take_along_axis(table, by_value, axis=1)
    # each value's group index in GROUP_ORDER; a non-finite value, dropped,
    # is counted apart as group len(GROUP_ORDER)
    owner = np.where(np.isfinite(ordered),
                     np.array([codes[sid] for sid in subjects], dtype=int)[by_value],
                     len(GROUP_ORDER))
    runs = _tie_runs(ordered, owner, len(GROUP_ORDER) + 1)
    terms = [term.tolist() for term in _rank_terms(runs[:, present])]
    group_sizes = runs.sum(axis=2)
    # each group's values ascending, the groups one after another
    grouped = np.take_along_axis(ordered, np.argsort(owner, axis=1, kind="stable"), axis=1)
    memo: dict = {}   # exact null distributions, shared by every feature
    rows = []
    for f, (feature, sizes, ends, ascending) in enumerate(zip(
            order, group_sizes.tolist(), np.cumsum(group_sizes, axis=1).tolist(),
            grouped.tolist())):
        sampled = [g for g in present if sizes[g]]
        if len(sampled) >= 2 and sum(sizes[:-1]) >= 3:
            # runs and rank terms as counted above for every feature at once,
            # unless a present group has no value for this feature
            samples = GroupSamples(
                tuple((GROUP_ORDER[g], grouped[f, ends[g] - sizes[g]:ends[g]])
                      for g in sampled), runs[f, sampled],
                tuple(term[f] for term in terms) if len(sampled) == len(present)
                else tuple(term.tolist() for term in _rank_terms(runs[f, sampled])))
            kw = kruskal_wallis(samples)
            flags = pairwise_dunn(samples) if posthoc == "dunn" \
                else pairwise_ranksum(samples, exact=exact, memo=memo)
        else:
            kw = KwResult(h=0.0, df=max(len(sampled) - 1, 0), p=1.0, degenerate=True)
            flags = PairwiseFlags(pairs=())
        # markers come only from the pairs that were tested
        hits = [ij for ij, pair in zip(itertools.combinations(sampled, 2), flags.pairs)
                if pair.significant]
        cells = []
        for g in present:
            vals = ascending[ends[g] - sizes[g]:ends[g]]
            # the slice is ascending and finite, as median_iqr would sort it
            med, q25, q75 = [_linear_quantile(vals, q) for q in (0.5, 0.25, 0.75)] \
                if vals else (math.nan,) * 3
            marks = sorted(MARKER_LETTERS[GROUP_ORDER[j if i == g else i]]
                           for i, j in hits if g in (i, j))
            cells.append(GroupCell(label=GROUP_ORDER[g], n=sizes[g], median=med, q25=q25,
                                   q75=q75, markers="".join(marks)))
        rows.append(GroupComparisonRow(feature=feature, cells=tuple(cells),
                                       kw=kw, pairwise=flags))
    return rows


def feature_table(feature_rows: Sequence[tuple[int, Mapping[str, str]]],
                  cosinor_rows: Sequence[tuple[int, Mapping[str, str]]],
                  posthoc: str = "ranksum",
                  exact: bool = False) -> list[GroupComparisonRow]:
    """Comparison rows for the ten statistical features followed by the five
    fitted circadian parameters, ranking the text of a features and a
    cosinor table: their (line number, row) pairs from ``ingest.read_table``.
    A value that is not a number, or an absent column, is missing. A subject
    may be in one table only; one twice in a table, or in two groups, is an
    error naming its line."""
    values: dict[str, dict[str, float]] = {}
    groups: dict[str, GroupLabel] = {}
    labels: dict[str, GroupLabel] = {}   # group column text -> label
    for table, rows, names in (("features", feature_rows, FEATURE_ORDER),
                               ("cosinor", cosinor_rows, CIRCADIAN_ORDER)):
        seen = set()
        for line_no, row in rows:
            sid = row.get("subject_id", "").strip()
            if not sid:
                raise MalformedRow(line_no, "row without subject_id")
            if sid in seen:
                raise DuplicateSubject(f"line {line_no}: duplicate subject {sid!r} "
                                       f"in the {table} table")
            seen.add(sid)
            group = labels.get(row["group"]) or labels.setdefault(
                row["group"], GroupLabel.parse(row["group"], line_no))
            if groups.setdefault(sid, group) is not group:
                raise MalformedRow(line_no, f"subject {sid!r} is {group.value} here "
                                            f"but {groups[sid].value} in the features table")
            dest = values.setdefault(sid, {})
            for name in row.keys() & names:
                try:
                    dest[name] = float(row[name])
                except ValueError:
                    dest[name] = math.nan
    return comparison_rows(values, groups, FEATURE_ORDER + CIRCADIAN_ORDER,
                           posthoc=posthoc, exact=exact)
