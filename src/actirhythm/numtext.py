"""Numbers as text: the digit tables from which the epoch writer (ingest)
and the per-minute CSV and SVG point writers (report) write their numbers
in numpy, byte-identical to the %-operator.

A writer lays a block of values out in fixed-width, NUL-padded slots:
whole counts as "%d.0" in groups of four digits (GROUPS), "%.6g" and "%d"
as a lead and two groups of three significant digits (sig6), and "%.2f" as
whole and cent parts (points). Exact integer rounding (_rounded) gives the
digits, rounded as % rounds them, ties included. A value outside the
tables gets its %-directive in its slot, which fill formats.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _digit_table(places: int) -> np.ndarray:
    """Every string of ``places`` decimal digits, in numeric order, as a
    (10**places, places) array of ASCII bytes."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    return np.stack(np.meshgrid(*[digits] * places, indexing="ij"), axis=-1).reshape(-1, places)


def fill(text: bytes, values: np.ndarray, marked: np.ndarray) -> bytes:
    """text without its NUL padding, and with the %-directives that the
    writers put in the slots of values[..., marked] filled in row order.
    marked has values' shape, or that of its last axis to mark columns."""
    text = text.translate(None, b"\0")
    return text % tuple(values[..., marked].ravel().tolist()) if marked.any() else text


# "%4d" of 0-9999 with NUL for each leading blank (a leading zero but the
# last digit): the leading group of four digits of a whole count
_LEADING = _digit_table(4)
_LEADING[:, :3][np.logical_and.accumulate(_LEADING[:, :3] == ord("0"), axis=1)] = 0
_LEADING = _LEADING.view("S4").ravel()
# The four digits of a group of a whole count by its place: "%04d" after
# the leading group, _LEADING in it, and four NULs before it
GROUPS = np.concatenate([_digit_table(4).view("S4").ravel(), _LEADING, [b""]])
# 10**(4 * k): the k-th group from the last is the leading one of a count
# below BASES[k + 1] and at least BASES[k]
BASES = 10 ** (4 * np.arange(5, dtype=np.int64))


def groups(top: float) -> int:
    """The digit groups of a whole count ``top`` below 1e16."""
    return int(np.searchsorted(BASES[1:], top, side="right")) + 1


def count_groups(column: np.ndarray) -> int:
    """The digit groups of the slot of a column of counts: as many as its
    largest count takes, or 0 if the column takes ``%r``: if it has a count
    of 1e16 or more, -0.0, or a count that is not whole. Below 1e16 repr
    writes a whole float as all its digits and ``.0``, which is the text of
    ``%d.0``."""
    top = column.max()
    if (top < 1e16 and not np.signbit(column).any()
            and np.array_equal(np.trunc(column), column)):
        return groups(top)
    return 0


# "%4d" of 0-9999 with NUL for each leading blank, then "%.2f" for fill
_WHOLES = np.append(_LEADING, b"%.2f")

# 10**k for k in -4..9, each the double nearest it, and _EXP10[k + 13] = e with
# 10**e <= 2**(k - 1) < 10**(e + 1) for k = frexp(x)[1] of an x in [1e-4, 1e6)
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 10)])
_EXP10 = np.array([math.floor((k - 1) * math.log10(2)) for k in range(-13, 21)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into a high and a low part of 26 bits each."""
    c = a * 134217729.0   # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _rounded(v: np.ndarray, scale) -> np.ndarray:
    """rint(v * scale) for v >= 0 and v * scale below 2**52, rounded as the
    %-operator rounds: to nearest, ties to even, on the exact product.

    The rounded product s can fall on the other side of a half from the
    exact product only when s is that half, which is a double. There
    Dekker's TwoProduct gives the product's rounding error err exactly
    (no fused multiply-add), and err picks the side; where err is 0 the
    tie is true and rint has already rounded it to even."""
    s = v * scale
    n = np.rint(s)
    d = s - n
    half = np.abs(d) == 0.5
    if half.any():
        a_hi, a_lo = _split(v[half])
        b_hi, b_lo = _split(np.broadcast_to(scale, v.shape)[half])
        err = ((a_hi * b_hi - s[half]) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        d = d[half]
        n[half] += np.where(d * err > 0, 2 * d, 0.0)
    return n


def _strip(table: np.ndarray, first: int) -> np.ndarray:
    """table with the trailing NULs, "0"s and "." of each row, from column
    first on, set to NUL: %g drops trailing zeros and a bare point."""
    tail = table[:, first:][:, ::-1]
    drop = (tail == 0) | (tail == ord("0")) | (tail == ord("."))
    tail[np.logical_and.accumulate(drop, axis=1)] = 0
    return table


def _sig6_group(e: int, first: int, last: bool) -> np.ndarray:
    """The 1000 ways to write significant digits first to first + 2 of a
    "%.6g" value of decimal exponent e in [-4, 5] as four bytes: the
    three digits and the point where it falls among or after them (else
    a NUL), with trailing zeros stripped if no later digit is nonzero."""
    digits = _digit_table(3)
    point = e + 1 - first
    if 1 <= point <= 3 and e < 5:
        table = np.insert(digits, point, ord("."), axis=1)
    else:
        table = np.insert(digits, 3, 0, axis=1)
        point = 0 if point <= 0 else 4   # fraction digits only, or whole ones only
    return _strip(table, point) if last else table


# "%.6g" of a value v with 1e-4 <= |v| < 999999.5, or of zero, in fixed
# notation and after a comma: v = n * 10**(e - 5) with n the six
# significant digits (n = 0 for zero, with e = 0), and the field is
# _LEADS[2 * (e + 4) + sign] (the comma, "-" and "0." with the zeros after
# the point for e < 0), then _HEADS[(2 * (e + 4) + (n % 1000 == 0)) * 1000
# + n // 1000] and _TAILS[(e + 4) * 1000 + n % 1000]
_LEADS = np.array([b"," + b"-" * sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
                   for e in range(-4, 6) for sign in (0, 1)], "S8")
_HEADS = np.concatenate([_sig6_group(e, 0, last) for e in range(-4, 6)
                         for last in (False, True)]).view("S4").ravel()
_TAILS = np.concatenate([_sig6_group(e, 3, True) for e in range(-4, 6)]).view("S4").ravel()
SIG6 = np.dtype([("lead", "S8"), ("head", "S4"), ("tail", "S4")])


def sig6(v: np.ndarray, out: np.ndarray, formats: np.ndarray) -> np.ndarray:
    """Write "," and "%.6g" % x for each x of v into the SIG6 fields out
    of v's shape, with NUL padding, and return where v is outside the
    tables' range (nonzero below 1e-4, 999999.5 and up, and not finite):
    those slots hold their column's entry of formats for fill."""
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 999999.5)
    x = np.where(fixed, a, 1.0)
    e = _EXP10[np.frexp(x)[1] + 13]
    e += x >= _POW10[e + 5]   # 10**e <= x < 10**(e + 1)
    n = _rounded(x, _POW10[9 - e])
    carry = n == 1e6
    n[carry] = 1e5
    e += carry
    zero = a == 0
    n[zero] = 0
    high, low = np.divmod(n.astype(np.intp), 1000)
    e += 4
    out["lead"] = _LEADS[2 * e + np.signbit(v)]
    out["head"] = _HEADS[(2 * e + (low == 0)) * 1000 + high]
    out["tail"] = _TAILS[e * 1000 + low]
    other = ~(fixed | zero)
    if other.any():
        out.view("S16")[other] = np.broadcast_to(formats, v.shape)[other]
    return other


@functools.cache
def _cents(sep: str) -> np.ndarray:
    """".%02d" % c + sep for c in 0-99, and sep alone at 100 (after the
    "%.2f" of _WHOLES), NUL-padded to a multiple of four bytes."""
    table = [(".%02d" % c + sep).encode() for c in range(100)] + [sep.encode()]
    return np.array(table, f"S{-(-len(table[0]) // 4) * 4}")


def points(x: np.ndarray, y: np.ndarray, sep: str = ",", join: str = " ") -> str:
    """Each (x, y) pair as "x<sep>y" with two decimals ("%.2f"), the pairs
    joined by join.

    Every coordinate the renderers make from finite data lies in
    [0, 10000). There ``n = _rounded(v, 100)`` is the value in cents as
    "%.2f" rounds it, and each field is an entry of _WHOLES and one of
    _cents(sep) or _cents(join). Any other value (not finite, sign bit
    set, or 9999.995 and up) gets the "%.2f" of _WHOLES for fill."""
    v = np.column_stack((x, y))
    covered = ~np.signbit(v) & (v < 9999.995)
    whole, cents = np.divmod(_rounded(np.where(covered, v, 0.0), 100.0).astype(np.intp), 100)
    if not covered.all():
        whole[~covered], cents[~covered] = len(_WHOLES) - 1, 100
    x_cents, y_cents = _cents(sep), _cents(join)
    pairs = np.empty(len(v), [("x", "S4"), ("x_cents", x_cents.dtype),
                              ("y", "S4"), ("y_cents", y_cents.dtype)])
    pairs["x"], pairs["x_cents"] = _WHOLES[whole[:, 0]], x_cents[cents[:, 0]]
    pairs["y"], pairs["y_cents"] = _WHOLES[whole[:, 1]], y_cents[cents[:, 1]]
    return fill(pairs.tobytes(), v, ~covered).decode()[:-len(join)]
