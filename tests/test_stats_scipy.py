"""Statistical routines against scipy.stats as an independent oracle.

scipy is a test-only dependency; without it these tests are skipped.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from actirhythm.ingest import GroupLabel
from actirhythm.stats import (
    GroupSamples,
    chi_square_sf,
    kruskal_wallis,
    pairwise_dunn,
    pairwise_ranksum,
)

sps = pytest.importorskip("scipy.stats")

TOL = 1e-12
LABELS = (GroupLabel.CONTROL_ICU, GroupLabel.CCI, GroupLabel.RR,
          GroupLabel.CONTROL_HEALTHY)
SEEDS = st.integers(0, 2 ** 32 - 1)


def ranksum_p(x, y, exact=False) -> float:
    return pairwise_ranksum(GroupSamples.from_lists(((LABELS[0], x), (LABELS[1], y))),
                            exact=exact).pairs[0].p


def tied_draw(rng, low=1, high=13):
    return rng.integers(0, 8, size=rng.integers(low, high)).astype(float)


@given(SEEDS)
def test_kruskal_wallis_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    groups = [tied_draw(rng, 2) for _ in range(rng.integers(2, 5))]
    pooled = np.concatenate(groups)
    # all-equal data is reported as p = 1 here and as nan by scipy
    assume(np.ptp(pooled) > 0)
    ours = kruskal_wallis(GroupSamples.from_lists(zip(LABELS, groups)))
    ref = sps.kruskal(*groups)
    assert ours.h == pytest.approx(ref.statistic, rel=1e-12, abs=TOL)
    assert ours.p == pytest.approx(ref.pvalue, rel=0, abs=TOL)


@given(SEEDS)
def test_two_group_dunn_matches_scipy_kruskal(seed):
    # with two groups Dunn's z^2 is the tie-corrected H, so their p agree
    rng = np.random.default_rng(seed)
    x, y = tied_draw(rng), tied_draw(rng)
    assume(np.ptp(np.concatenate([x, y])) > 0)
    flags = pairwise_dunn(GroupSamples.from_lists(((LABELS[0], x), (LABELS[1], y))))
    ref = sps.kruskal(x, y)
    assert flags.pairs[0].p == pytest.approx(ref.pvalue, rel=0, abs=TOL)


@given(SEEDS)
def test_normal_ranksum_matches_scipy_asymptotic(seed):
    rng = np.random.default_rng(seed)
    x, y = tied_draw(rng), tied_draw(rng)
    assume(np.ptp(np.concatenate([x, y])) > 0)
    ref = sps.mannwhitneyu(x, y, alternative="two-sided",
                           method="asymptotic", use_continuity=True)
    assert ranksum_p(x, y) == pytest.approx(ref.pvalue, rel=0, abs=TOL)


@given(SEEDS)
def test_exact_ranksum_matches_scipy_exact_without_ties(seed):
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(1, 13, size=2)
    pooled = rng.permutation(n1 + n2).astype(float)
    x, y = pooled[:n1], pooled[n1:]
    ref = sps.mannwhitneyu(x, y, alternative="two-sided", method="exact")
    assert ranksum_p(x, y, exact=True) == pytest.approx(ref.pvalue, rel=0, abs=TOL)


@given(st.floats(0.0, 200.0), st.integers(1, 60))
def test_chi_square_sf_matches_scipy(x, df):
    assert chi_square_sf(x, df) == pytest.approx(sps.chi2.sf(x, df),
                                                 rel=0, abs=TOL)
