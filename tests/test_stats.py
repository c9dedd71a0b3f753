import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actirhythm import errors, stats
from actirhythm.ingest import GROUP_ORDER, GroupLabel
from actirhythm.stats import (
    CIRCADIAN_ORDER,
    FEATURE_ORDER,
    MARKER_LETTERS,
    GroupSamples,
    chi_square_sf,
    comparison_rows,
    kruskal_wallis,
    median_iqr,
    pairwise_dunn,
    pairwise_ranksum,
)
from reference_impls import (
    brute_kruskal_h,
    brute_mid_ranks,
    brute_mwu_exact_p,
    loop_kruskal_h,
    loop_mwu_exact_p,
    loop_mwu_normal_p,
    loop_pairwise_dunn,
)

ICU = GroupLabel.CONTROL_ICU
CCI = GroupLabel.CCI
RR = GroupLabel.RR
HEALTHY = GroupLabel.CONTROL_HEALTHY


def samples(*pairs):
    return GroupSamples.from_lists(list(pairs))


def mid_ranks(*groups) -> list[list[float]]:
    """Each group's mid-ranks in the pooled sample, ascending, as the rank
    tests read them from ``GroupSamples.runs``."""
    runs = samples(*zip(GROUP_ORDER, groups)).runs
    doubled, _, _ = stats._ranks(runs, runs.sum(axis=0))
    return [(np.repeat(doubled, row) / 2).tolist() for row in runs]


def exact_p(x, y) -> float:
    return pairwise_ranksum(samples((CCI, x), (RR, y)), exact=True).pairs[0].p


class TestRanks:
    @pytest.mark.parametrize("values,expected", [
        ([10, 20, 30], [1, 2, 3]),
        ([5, 5], [1.5, 1.5]),
        ([1, 2, 2, 3], [1, 2.5, 2.5, 4]),
        ([3, 1, 2], [3, 1, 2]),
    ])
    def test_values(self, values, expected):
        assert mid_ranks(values) == [sorted(expected)]

    @given(st.lists(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf]),
                  st.floats(allow_nan=False)), max_size=14), min_size=1, max_size=4))
    def test_matches_brute_mid_ranks(self, groups):
        ranks = brute_mid_ranks([v for g in groups for v in g])
        offsets = np.cumsum([0] + [len(g) for g in groups]).tolist()
        assert mid_ranks(*groups) == [sorted(ranks[a:b]) for a, b in
                                      zip(offsets, offsets[1:])]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=200))
    def test_ranks_and_ties_sum(self, values):
        n = len(values)
        runs = samples((CCI, values)).runs
        _, rank_sums, ties = stats._ranks(runs, runs.sum(axis=0))
        assert rank_sums.tolist() == [n * (n + 1)]
        assert ties == sum(t ** 3 - t for t in collections.Counter(values).values())


class TestKruskalWallis:
    def test_hand_anchor(self):
        kw = kruskal_wallis(samples((CCI, [1, 2, 3]), (RR, [4, 5, 6])))
        assert kw.h == pytest.approx(3.8571, abs=1e-4)
        assert kw.p == pytest.approx(0.0495, abs=1e-3)
        assert kw.df == 1

    def test_identical_groups(self):
        kw = kruskal_wallis(samples((CCI, [2, 2, 2]), (RR, [2, 2, 2])))
        assert kw.h == 0.0
        assert kw.p == 1.0
        assert kw.degenerate

    @pytest.mark.parametrize("pairs", [
        (), ((CCI, [1, 2, 3]),), ((CCI, []), (RR, [1, 2, 3])), ((CCI, [1]), (RR, [2]))],
        ids=["no_groups", "one_group", "empty_group", "two_values"])
    def test_too_little_data_raises(self, pairs):
        with pytest.raises(errors.InsufficientData):
            kruskal_wallis(samples(*pairs))

    def test_four_groups_df(self):
        kw = kruskal_wallis(samples((ICU, [1, 9, 3]), (CCI, [4, 2, 8, 1, 0]),
                                    (RR, [5, 5, 5, 2, 1, 9]),
                                    (HEALTHY, list(range(10)))))
        assert kw.df == 3

    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_rank_anova_identity(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        groups = [rng.integers(0, 12, size=rng.integers(1, 8)).astype(float).tolist()
                  for _ in range(k)]
        if sum(len(g) for g in groups) < 3 or all(
                v == groups[0][0] for g in groups for v in g):
            return
        kw = kruskal_wallis(samples(*[(CCI, g) for g in groups][:1],
                                    *[(RR, g) for g in groups][1:]))
        assert kw.h == pytest.approx(brute_kruskal_h(groups), abs=1e-12)

    def test_monotone_transform_invariance(self):
        base = kruskal_wallis(samples((CCI, [1, 5, 9]), (RR, [2, 2, 7]),
                                      (HEALTHY, [4, 8, 8, 10])))
        logged = kruskal_wallis(samples(
            (CCI, np.log([1, 5, 9])), (RR, np.log([2, 2, 7])),
            (HEALTHY, np.log([4, 8, 8, 10]))))
        assert logged.h == base.h
        assert logged.p == base.p

    def test_relabeling_invariance(self):
        a = kruskal_wallis(samples((CCI, [1, 2]), (RR, [3, 4]), (ICU, [5, 6])))
        b = kruskal_wallis(samples((RR, [3, 4]), (ICU, [5, 6]), (CCI, [1, 2])))
        assert a.h == pytest.approx(b.h, abs=1e-12)

    def test_two_groups_matches_z_squared(self, rng):
        # for 2 groups without ties H equals the squared rank-sum z score
        # (no continuity correction)
        x = rng.permutation(np.arange(1, 13, dtype=float))[:5]
        y = np.array(sorted(set(np.arange(1, 13.0)) - set(x)))
        kw = kruskal_wallis(samples((CCI, x), (RR, y)))
        n1, n2 = len(x), len(y)
        n = n1 + n2
        r1 = sum(brute_mid_ranks(np.concatenate([x, y]).tolist())[:n1])
        u1 = n1 * n2 + n1 * (n1 + 1) / 2 - r1
        z = (u1 - n1 * n2 / 2) / math.sqrt(n1 * n2 * (n + 1) / 12.0)
        assert kw.h == pytest.approx(z * z, abs=1e-9)


class TestChiSquare:
    def test_zero_is_one(self):
        for df in range(1, 10):
            assert chi_square_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        for x in np.linspace(0.0, 50.0, 501):
            assert chi_square_sf(float(x), 2) == pytest.approx(
                math.exp(-x / 2), abs=1e-12)

    def test_df2_half_point(self):
        assert chi_square_sf(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-12)

    def test_df3_table_value(self):
        assert chi_square_sf(7.8147, 3) == pytest.approx(0.05, abs=1e-4)

    def test_df1_matches_erfc(self):
        for x in [0.01, 0.5, 1, 3.8415, 10, 50, 120]:
            expected = math.erfc(math.sqrt(x / 2))
            assert chi_square_sf(x, 1) == pytest.approx(expected, rel=1e-10)

    @given(st.integers(1, 20), st.floats(0, 200), st.floats(0.01, 10))
    def test_monotone_non_increasing(self, df, x, dx):
        assert chi_square_sf(x + dx, df) <= chi_square_sf(x, df) + 1e-15


class TestPairwise:
    def test_hand_anchor(self):
        flags = pairwise_ranksum(samples((CCI, [1, 2, 3]), (RR, [4, 5, 6])))
        pair = flags.get(CCI, RR)
        assert pair.p == pytest.approx(0.0809, abs=1e-3)
        assert pair.threshold == 0.05
        assert not pair.significant

    def test_identical_groups_not_significant(self):
        flags = pairwise_ranksum(samples((CCI, [3, 3, 3]), (RR, [3, 3, 3])))
        assert flags.get(CCI, RR).p == 1.0

    def test_symmetry_in_pair_order(self):
        a = pairwise_ranksum(samples((CCI, [1, 5, 2]), (RR, [9, 3, 4])))
        b = pairwise_ranksum(samples((RR, [9, 3, 4]), (CCI, [1, 5, 2])))
        assert a.get(CCI, RR).p == pytest.approx(b.get(RR, CCI).p, abs=1e-12)

    # n values per group, each group above the last, puts the p of both
    # neighbouring pairs between the two thresholds
    @pytest.mark.parametrize("pairwise, n", [(pairwise_ranksum, 4), (pairwise_dunn, 8)],
                             ids=["ranksum", "dunn"])
    def test_healthy_pairs_use_strict_threshold(self, pairwise, n):
        flags = pairwise(samples(*((label, np.arange(n) + i * n)
                                   for i, label in enumerate((ICU, CCI, HEALTHY)))))
        assert [(p.a, p.b, p.threshold) for p in flags.pairs] == [
            (ICU, CCI, 0.05), (ICU, HEALTHY, 0.01), (CCI, HEALTHY, 0.01)]
        for a, b in ((ICU, CCI), (CCI, HEALTHY)):
            assert 0.01 < flags.get(a, b).p < 0.05
        assert flags.get(ICU, CCI).significant
        assert not flags.get(CCI, HEALTHY).significant
        assert all(p.significant == (p.p < p.threshold) for p in flags.pairs)

    def test_exact_small_case(self):
        # [1,2] vs [3,4]: U=0; one-tail P(U<=0)=1/6, two-sided 1/3
        flags = pairwise_ranksum(samples((CCI, [1, 2]), (RR, [3, 4])), exact=True)
        assert flags.get(CCI, RR).p == pytest.approx(1 / 3, abs=1e-12)

    def test_exact_agrees_with_normal_direction(self, rng):
        x = rng.normal(0, 1, 6)
        y = rng.normal(3, 1, 7)
        approx = pairwise_ranksum(samples((CCI, x), (RR, y))).get(CCI, RR).p
        exact = pairwise_ranksum(samples((CCI, x), (RR, y)), exact=True).get(CCI, RR).p
        assert (approx < 0.05) == (exact < 0.05)

    def test_dunn_separated_groups(self):
        flags = pairwise_dunn(samples((CCI, [1, 2, 3, 4, 5]),
                                      (RR, [10, 11, 12, 13, 14]),
                                      (ICU, [1.5, 2.5, 3.5, 4.5, 5.5])))
        assert flags.get(CCI, RR).p < 0.05
        assert flags.get(CCI, ICU).p > 0.5

    @given(st.integers(0, 2 ** 32 - 1))
    def test_p_values_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 6, size=rng.integers(1, 9)).astype(float)
        y = rng.integers(0, 6, size=rng.integers(1, 9)).astype(float)
        for flags in (pairwise_ranksum(samples((CCI, x), (RR, y))),
                      pairwise_dunn(samples((CCI, x), (RR, y)))):
            p = flags.get(CCI, RR).p
            assert 0.0 <= p <= 1.0


class TestExactRankSum:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=9),
           st.lists(st.integers(0, 5), min_size=1, max_size=9))
    def test_matches_enumeration_with_ties(self, x, y):
        assert exact_p(x, y) == brute_mwu_exact_p(x, y)

    def test_each_distribution_counted_once_per_comparison(self, monkeypatch):
        # groups of 6/8/9/10: every pair is exact; a and b are tie-free, so
        # they share the six distributions of the group-size pairs, and c and
        # d have ties of their own
        rng = np.random.default_rng(3)
        labels = [g for g, n in zip(GROUP_ORDER, (6, 8, 9, 10)) for _ in range(n)]
        groups = {f"s{i:02d}": g for i, g in enumerate(labels)}
        values = {sid: {"a": rng.normal(), "b": rng.normal(),
                        "c": float(rng.integers(0, 6)), "d": float(rng.integers(0, 3))}
                  for sid in groups}
        order = ["a", "b", "c", "d"]
        expected_keys = set()
        for name in order:
            columns = [[values[sid][name] for sid in sorted(groups) if groups[sid] is g]
                       for g in GROUP_ORDER]
            for x, y in itertools.combinations(columns, 2):
                doubled = sorted(int(2 * r) for r in brute_mid_ranks(x + y))
                expected_keys.add((len(x), tuple(doubled)))
        # each tail counted, as (n1, the pair's doubled mid-ranks), and the
        # pool size of each step of the tables without ties
        counted, steps = [], []
        tied, tie_free = stats._rank_sum_counts, stats._tie_free_counts

        def spy_tied(sizes, n1):
            counted.append((n1, tuple(2 * end - t + 1 for end, t in
                                      zip(itertools.accumulate(sizes), sizes)
                                      for _ in range(t))))
            return tied(sizes, n1)

        def spy_tie_free(n1, n, tables):
            counted.append((n1, tuple(range(2, 2 * n + 1, 2))))
            grown = len(tables)
            result = tie_free(n1, n, tables)
            steps.extend(range(grown, len(tables)))
            return result

        monkeypatch.setattr(stats, "_rank_sum_counts", spy_tied)
        monkeypatch.setattr(stats, "_tie_free_counts", spy_tie_free)
        rows = comparison_rows(values, groups, order, exact=True)
        tie_free_keys = {key for key in expected_keys if len(set(key[1])) == len(key[1])}
        assert len(tie_free_keys) == 6
        assert len(counted) == len(set(counted)) == len(expected_keys)
        assert set(counted) == expected_keys
        # the six tie-free tails share one table per pool size, up to 9 + 10
        assert steps == list(range(1, 20))
        # a second comparison keeps nothing from the first: it counts every
        # distribution and grows every table again, in the same order
        first, first_steps = counted[:], steps[:]
        assert comparison_rows(values, groups, order, exact=True) == rows
        assert counted[len(first):] == first
        assert steps[len(first_steps):] == first_steps
        for row in rows:
            columns = {g: [values[sid][row.feature] for sid in sorted(groups)
                           if groups[sid] is g] for g in GROUP_ORDER}
            for pair in row.pairwise.pairs:
                assert pair.p == brute_mwu_exact_p(columns[pair.a], columns[pair.b])

    def test_memo_keeps_first_group_size_apart(self):
        # 2 + 5 and 3 + 4 pool the same seven tie-free ranks; beside the two
        # tails the memo holds only the shared tie-free tables (key None)
        memo = {}
        for x, y in (([1, 2], [3, 4, 5, 6, 7]), ([1, 2, 3], [4, 5, 6, 7])):
            flags = pairwise_ranksum(samples((CCI, x), (RR, y)), exact=True, memo=memo)
            assert flags.get(CCI, RR).p == brute_mwu_exact_p(x, y)
        assert memo.keys() == {(2, (1,) * 7), (3, (1,) * 7), None}

    def test_twelve_v_twelve_with_ties_matches_enumeration(self):
        # brute_mwu_exact_p on this pair counts 563887 of the C(24, 12)
        # assignments in the smaller tail: p = 2 * 563887 / 2704156
        x = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]
        y = [9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4]
        assert exact_p(x, y) == float(Fraction(2 * 563887, math.comb(24, 12)))


class TestLoopOracles:
    """Ranks from one sort per feature give the bits of the per-test loop
    ranks they replaced."""

    @settings(max_examples=300)
    @given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.5]),
                             min_size=1, max_size=13), min_size=2, max_size=4))
    def test_rank_tests_equal_loop_oracles_bit_for_bit(self, groups):
        arrays = [np.array(g, dtype=float) for g in groups]
        s = samples(*zip(GROUP_ORDER, arrays))
        if sum(len(g) for g in groups) >= 3:
            kw = kruskal_wallis(s)
            h, degenerate = loop_kruskal_h(arrays)
            assert (kw.h.hex(), kw.degenerate) == (h.hex(), degenerate)
            assert kw.p == (1.0 if degenerate else chi_square_sf(h, kw.df))
        pairs = list(itertools.combinations(arrays, 2))
        normal = [p.p.hex() for p in pairwise_ranksum(s).pairs]
        assert normal == [loop_mwu_normal_p(x, y).hex() for x, y in pairs]
        exact = [p.p.hex() for p in pairwise_ranksum(s, exact=True).pairs]
        assert exact == [(loop_mwu_exact_p(x, y) if max(x.size, y.size) <= 12
                          else loop_mwu_normal_p(x, y)).hex() for x, y in pairs]
        dunn = [p.p.hex() for p in pairwise_dunn(s).pairs]
        assert dunn == [p.hex() for p in loop_pairwise_dunn(arrays)]


class TestMedianIqr:
    @pytest.mark.parametrize("values,expected", [
        ([1, 2, 3, 4, 5], (3.0, 2.0, 4.0)),
        ([7], (7.0, 7.0, 7.0)),
        ([1, 2, 3, 4], (2.5, 1.75, 3.25)),
    ])
    def test_values(self, values, expected):
        assert median_iqr(values) == pytest.approx(expected)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_ordering(self, values):
        med, q25, q75 = median_iqr(values)
        assert q25 <= med <= q75

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf,
                                               math.nan]),
                              st.floats(-1e300, 1e300)),
                    min_size=1, max_size=40))
    @example([1.0, math.nan, 2.0])
    def test_bitwise_equal_to_numpy_quantile(self, values):
        with np.errstate(all="ignore"):   # inf - inf inside numpy's lerp
            expected = np.quantile(values, [0.5, 0.25, 0.75]).tolist()
        # numpy's partition returns +0.0 or -0.0 where the two tie; the sign
        # of a zero result is then undefined
        both_zeros = {math.copysign(1.0, v) for v in values if v == 0.0} == {1.0, -1.0}
        for got, want in zip(median_iqr(values), expected):
            if math.isnan(want):
                assert math.isnan(got)
            elif both_zeros and want == 0.0:
                assert got == 0.0
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def cohorts(draw):
    """(values, groups): 2-4 groups of 1-12 subjects whose IDs interleave
    the groups, and three features of tied levels (+0.0 and -0.0 among
    them) and free floats. Cells may be NaN or infinite, "b" may be absent
    from a subject's mapping, and one group may have no value for "c"."""
    labels = draw(st.lists(st.sampled_from(GROUP_ORDER), min_size=2, max_size=4,
                           unique=True))
    members = [g for g in labels for _ in range(draw(st.integers(1, 12)))]
    ids = draw(st.permutations(range(len(members))))
    blank = draw(st.sampled_from(labels + [None]))
    cell = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.5] + NON_FINITE),
                     st.floats(-10, 10))
    values, groups = {}, {}
    for i, g in zip(ids, members):
        sid = f"s{i:02d}"
        groups[sid] = g
        values[sid] = {"a": draw(cell), "c": math.nan if g is blank else draw(cell)}
        if draw(st.booleans()):
            values[sid]["b"] = draw(cell)
    return values, groups


def oracle_row(values, groups, feature, posthoc, exact):
    """The cells as (label, n, median, q25, q75, markers), H, the KW p and
    the pair ps of one feature, from each group's finite values in ID order,
    the loop oracles and np.quantile."""
    present = [g for g in GROUP_ORDER if g in groups.values()]
    columns = {g: np.array([values[sid].get(feature, math.nan) for sid in sorted(values)
                            if groups[sid] is g]) for g in present}
    columns = {g: v[np.isfinite(v)] for g, v in columns.items()}
    sampled = [g for g in present if columns[g].size]
    arrays = [columns[g] for g in sampled]
    pairs = list(itertools.combinations(range(len(sampled)), 2))
    h, kw_p, ps = 0.0, 1.0, []
    if len(sampled) >= 2 and sum(v.size for v in arrays) >= 3:
        h, degenerate = loop_kruskal_h(arrays)
        kw_p = 1.0 if degenerate else chi_square_sf(h, len(sampled) - 1)
        if posthoc == "dunn":
            ps = loop_pairwise_dunn(arrays)
        else:
            ps = [loop_mwu_exact_p(arrays[i], arrays[j])
                  if exact and max(arrays[i].size, arrays[j].size) <= 12
                  else loop_mwu_normal_p(arrays[i], arrays[j]) for i, j in pairs]
    markers = {g: [] for g in present}
    for (i, j), p in zip(pairs, ps):
        a, b = sampled[i], sampled[j]
        if p < (0.01 if HEALTHY in (a, b) else 0.05):
            markers[a].append(MARKER_LETTERS[b])
            markers[b].append(MARKER_LETTERS[a])
    cells = []
    for g in present:
        v = columns[g]
        quartiles = [math.nan] * 3
        if v.size:
            quartiles = np.quantile(v, [0.5, 0.25, 0.75]).tolist()
            # where +0.0 and -0.0 tie at a quantile numpy returns either;
            # the stable sort of the ID-ordered values decides (median_iqr)
            if {math.copysign(1.0, x) for x in v if x == 0.0} == {1.0, -1.0}:
                quartiles = [m if q == 0.0 else q for q, m in zip(quartiles, median_iqr(v))]
        cells.append((g, v.size, *[q.hex() for q in quartiles],
                      "".join(sorted(markers[g]))))
    return cells, h.hex(), kw_p.hex(), [p.hex() for p in ps]


class TestComparisonRows:
    @given(cohorts())
    @example(({"s0": {"a": -0.0}, "s1": {"a": 0.0}, "s2": {"a": 1.0},
               "s3": {"a": 0.0}, "s4": {"a": -0.0}},
              {"s0": CCI, "s1": CCI, "s2": RR, "s3": RR, "s4": RR}))
    def test_rows_equal_loop_oracles_bit_for_bit(self, cohort):
        values, groups = cohort
        for posthoc, exact in (("ranksum", False), ("ranksum", True), ("dunn", False)):
            rows = comparison_rows(values, groups, ["a", "b", "c"], posthoc, exact)
            for row in rows:
                cells = [(c.label, c.n, c.median.hex(), c.q25.hex(), c.q75.hex(), c.markers)
                         for c in row.cells]
                got = (cells, row.kw.h.hex(), row.kw.p.hex(),
                       [pair.p.hex() for pair in row.pairwise.pairs])
                assert got == oracle_row(values, groups, row.feature, posthoc, exact)

    def _cohort(self, amp_factor=10.0, rng=None):
        rng = rng or np.random.default_rng(7)
        sizes = {ICU: 3, CCI: 5, RR: 6, HEALTHY: 10}
        values = {}
        groups = {}
        i = 0
        for label, n in sizes.items():
            for _ in range(n):
                sid = f"s{i:02d}"
                amp = rng.uniform(1, 2)
                if label is HEALTHY:
                    amp *= amp_factor
                values[sid] = {"amplitude": amp, "min": rng.uniform(0, 1)}
                groups[sid] = label
                i += 1
        return values, groups

    def test_separated_amplitude_flagged(self):
        values, groups = self._cohort()
        rows = comparison_rows(values, groups, ["amplitude", "min"])
        amp_row = rows[0]
        assert amp_row.kw.p < 0.01
        healthy_cell = [c for c in amp_row.cells if c.label is HEALTHY][0]
        # with n=3 vs n=10 the normal-approximation two-sided p bottoms out
        # at 0.0143, so the strict 0.01 healthy threshold cannot flag the
        # control_icu pair; the exact test can (2/286)
        assert set(healthy_cell.markers) == {"c", "d"}
        exact_rows = comparison_rows(values, groups, ["amplitude"], exact=True)
        exact_healthy = [c for c in exact_rows[0].cells if c.label is HEALTHY][0]
        assert set(exact_healthy.markers) == {"c", "d", "e"}
        min_row = rows[1]
        assert min_row.kw.p > 0.01

    def test_identical_cohort_all_p_one(self):
        values = {f"s{i}": {"x": 5.0} for i in range(8)}
        groups = {f"s{i}": (CCI if i < 4 else RR) for i in range(8)}
        rows = comparison_rows(values, groups, ["x"])
        assert rows[0].kw.p == 1.0
        assert rows[0].cells[0].markers == ""

    def test_exact_dunn_is_rejected(self):
        values, groups = self._cohort()
        with pytest.raises(ValueError, match="exact"):
            comparison_rows(values, groups, ["amplitude"], posthoc="dunn", exact=True)

    def test_requires_two_groups(self):
        values = {"a": {"x": 1.0}, "b": {"x": 2.0}}
        groups = {"a": CCI, "b": CCI}
        with pytest.raises(errors.InsufficientData):
            comparison_rows(values, groups, ["x"])

    def test_nan_values_dropped(self):
        values = {"a": {"x": 1.0}, "b": {"x": float("nan")}, "c": {"x": 2.0},
                  "d": {"x": 3.0}}
        groups = {"a": CCI, "b": CCI, "c": RR, "d": RR}
        rows = comparison_rows(values, groups, ["x"])
        cci_cell = rows[0].cells[0]
        assert cci_cell.n == 1

    def test_feature_row_order_is_fixed(self):
        assert len(FEATURE_ORDER) == 10
        assert len(CIRCADIAN_ORDER) == 5
        assert CIRCADIAN_ORDER == ("min", "amplitude", "phase", "alpha", "beta")
