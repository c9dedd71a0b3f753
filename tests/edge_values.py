"""Edge values of the number writers, in one place: the epoch writer's
counts, the per-minute CSV writers' minutes, "%.6g" values and subject
IDs, and the SVG point writer's coordinates. The writers' tests, and the
%-oracles of numtext, draw from these."""

import math

import numpy as np
from hypothesis import strategies as st

# counts around the epoch writer's rule: a whole count below 1e16 and not
# -0.0 is written as %d.0, anything else as its repr
EDGE_COUNTS = [0.0, -0.0, 5e-324, 0.5, 2.0 ** 53, 2.0 ** 53 + 2, 1e16 - 2, 1e16, 1e22]
# whole counts on each side of the writer's digit groups of four, and
# subnormal and other small counts
GROUP_EDGES = [float(10 ** k + d) for k in (4, 8, 12, 15) for d in (-1, 0, 1)]
SMALL_COUNTS = [1e-310, 2.2250738585072014e-308, 1e-5]
# any of 0-16 digits, so that every count of digit groups is drawn
DIGIT_COUNTS = st.integers(0, 16).flatmap(lambda d: st.integers(0, 10 ** d - 1)).map(float)

# ids that csv quotes, that carry %-format directives, a leading space,
# non-ASCII text, or nothing
SUBJECT_IDS = st.one_of(st.sampled_from(['a,%d "x"', "b%s", "%", "%%", '"', " lead",
                                         "né 中%", "", "a\0b", "\0", "\x01", "%\x01\0"]),
                        st.text(max_size=8))
# minutes: whole ones, and those where "%d" truncates, drops the sign of a
# negative zero, or writes digits "%.6g" does not (10**6 and up)
MINUTES = st.one_of(st.integers(-10**6, 10**6).map(float),
                    st.sampled_from([-0.0, -0.5, 0.5, 999999.9, -999999.9, 1e6, -1e6,
                                     1e20, -1e20, 1e300, 2.0**63]),
                    st.floats(-1e22, 1e22))


def cut(k, j):
    """k / 200 written to 17 significant digits, moved j in the last one."""
    digits, exponent = f"{k / 200:.16e}".split("e")
    return abs(float(f"{int(digits.replace('.', '')) + j}e{int(exponent) - 16}"))


# 9999.995 and the doubles either side of it, 2**-39 apart
TOP = st.integers(-1000, 1000).map(lambda j: 9999.995 + j * 2.0 ** -39)
# coordinates the point writer formats in numpy, [0, 10000) below 9999.995:
# exact ties at two decimals, 17-digit cuts near half a cent, the doubles
# just below 9999.995, next to any float in the range
IN_RANGE = st.one_of(st.integers(0, 79999).map(lambda k: k / 8),
                     st.integers(0, 9999).map(lambda k: k + 0.125),
                     st.builds(cut, st.integers(0, 1999998), st.integers(-9, 9)),
                     TOP, st.floats(0.0, 9999.995)).filter(lambda v: v < 9999.995)
# coordinates that numtext.points leaves to numtext.fill
OUT_OF_RANGE = st.one_of(st.sampled_from([-0.0, -5e-324, -1e-9, math.nan, math.inf,
                                          -math.inf, 1e4]),
                         TOP.filter(lambda v: v >= 9999.995))


@st.composite
def sixth_digit_ties(draw):
    """(v, j): v = (k + 0.5) / 10**j with six digits in k, exact as a
    double (2k + 1 = 5**j * t for an odd t), or a double next to one."""
    j = draw(st.integers(0, 9))
    low, high = -(-200001 // 5**j), 1999999 // 5**j   # 10**5 <= k < 10**6
    t = 2 * draw(st.integers(low // 2, (high - 1) // 2)) + 1
    v = ((5**j * t - 1) // 2 + 0.5) / 10**j
    return float(np.nextafter(v, draw(st.sampled_from([0.0, v, math.inf])))), j


# the doubles either side of 10**e for e in -4..5
DECADES = st.builds(lambda e, side: float(np.nextafter(10.0 ** e, side)),
                    st.integers(-4, 5), st.sampled_from([0.0, math.inf]))
# magnitudes "%.6g" writes in fixed notation: sixth-digit ties, dyadic
# k / 2**m (ties at the sixth digit among them), each power of ten and
# its neighbours, the largest doubles below 999999.5, 9.999995 (which
# rounds up to 10), zero, and any float in range
SIG6_MAGNITUDES = st.one_of(
    sixth_digit_ties().map(lambda vj: vj[0]),
    st.builds(lambda k, m: k / 2**m, st.integers(1, 2**24), st.integers(0, 30)),
    st.integers(-4, 5).map(lambda e: 10.0 ** e), DECADES,
    st.integers(1, 1000).map(lambda i: 999999.5 - i * 2.0 ** -33),
    st.sampled_from([9.999995, 0.0]), st.floats(1e-4, 999999.5, exclude_max=True),
).filter(lambda v: v == 0 or 1e-4 <= v < 999999.5)
SIG6 = st.builds(lambda v, negative: -v if negative else v, SIG6_MAGNITUDES, st.booleans())
# values "%.6g" writes otherwise, which numtext.sig6 leaves to numtext.fill
NOT_SIG6 = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 1e-5, -1e-5, 1e6,
                            999999.5, -999999.5, float(np.nextafter(1e-4, 0)), 5e-324,
                            1e300])
