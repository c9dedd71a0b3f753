"""numtext against the %-operator, value by value: "%.6g" for sig6, "%.2f"
for points, and "%d.0" or repr for the digit groups of the epoch writer."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from actirhythm import numtext
from edge_values import (DIGIT_COUNTS, EDGE_COUNTS, GROUP_EDGES, IN_RANGE, NOT_SIG6,
                         OUT_OF_RANGE, SIG6, SMALL_COUNTS, cut, sixth_digit_ties)

COUNTS = st.one_of(DIGIT_COUNTS, st.sampled_from(EDGE_COUNTS + GROUP_EDGES + SMALL_COUNTS),
                   st.floats(0, 1e300))


def sig6_fields(values: list[float]) -> list[bytes]:
    """numtext's text of each value, each after its ","."""
    v = np.array(values, dtype=float)
    out = np.zeros(v.shape, numtext.SIG6)
    marked = numtext.sig6(v, out, np.array([b",%.6g"]))
    return numtext.fill(out.tobytes(), v, marked).split(b",")[1:]


@given(st.lists(st.one_of(SIG6, NOT_SIG6, st.floats()), max_size=20))
def test_sig6_is_percent_g(values):
    assert sig6_fields(values) == [b"%.6g" % x for x in values]


@given(st.lists(st.tuples(st.one_of(IN_RANGE, OUT_OF_RANGE, st.floats()),
                          st.one_of(IN_RANGE, OUT_OF_RANGE, st.floats())), max_size=20),
       st.sampled_from([(",", " "), (" ", " L ")]))
def test_points_are_percent_2f(pairs, sep_join):
    sep, join = sep_join
    x, y = np.array(pairs, dtype=float).reshape(-1, 2).T
    text = numtext.points(x, y, sep, join)
    fields = [field for pair in text.split(join) for field in pair.split(sep)] if pairs else []
    assert fields == ["%.2f" % v for pair in pairs for v in pair]


@given(st.lists(COUNTS, min_size=1, max_size=12))
@example(EDGE_COUNTS)
@example(GROUP_EDGES)
def test_count_groups_take_percent_d_point_0_where_it_is_repr(column):
    """A column takes digit groups if and only if "%d.0" writes each of
    its counts as repr does, and then as many as its largest count's "%d"
    fills, four digits to a group."""
    g = numtext.count_groups(np.array(column))
    assert (g > 0) == all("%d.0" % x == repr(x) for x in column)
    if g:
        assert g == -(-len("%d" % max(column)) // 4) == numtext.groups(max(column))


@given(st.one_of(DIGIT_COUNTS, st.sampled_from(GROUP_EDGES)))
def test_groups_write_percent_d(count):
    """The groups of a whole count, from its leading one to its last, as
    the writer indexes GROUPS, are its "%d"."""
    n, g = int(count), numtext.groups(count)
    parts = [n // int(numtext.BASES[k]) % 10000 + (10000 if k == g - 1 else 0)
             for k in range(g - 1, -1, -1)]
    assert b"".join(numtext.GROUPS[parts]).lstrip(b"\0") == b"%d" % n
    assert numtext.GROUPS[-1] == b""


def test_decimal_exponent_table():
    """Each binary exponent's least power of two has the _EXP10 entry
    as its decimal exponent, exactly."""
    for k, e in zip(range(-13, 21), numtext._EXP10.tolist()):
        assert Fraction(10) ** e <= Fraction(2) ** (k - 1) < Fraction(10) ** (e + 1)


@given(sixth_digit_ties())
def test_rounded_sixth_digit_is_the_percent_rounding(tie):
    v, j = tie
    assert numtext._rounded(np.array([v]), 10.0 ** j)[0] == Decimal("%.6g" % v).scaleb(j)


@given(st.one_of(st.integers(0, 79999).map(lambda k: k / 8),
                 st.builds(cut, st.integers(0, 1999998), st.integers(-9, 9))))
def test_rounded_cents_are_the_percent_rounding(v):
    v = np.array([v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)])
    assert numtext._rounded(v, 100.0).tolist() == [
        float(Decimal("%.2f" % x).scaleb(2)) for x in v.tolist()]
