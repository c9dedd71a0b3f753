"""Sigmoidally transformed cosine curve family.

The curve is ``min + amplitude * l(cos((t - phase) * 2*pi/24))`` where
``l(c) = 1 / (1 + exp(-beta*(c - alpha)))``. ``alpha`` shifts the duty
cycle of the peak, ``beta`` sharpens the rise and fall, and the period is
fixed at 24 hours.
"""

from __future__ import annotations

import numpy as np

OMEGA = 2.0 * np.pi / 24.0


def fold(x: float, period: float) -> float:
    """x % period in [0, period): a tiny negative x, which % rounds to period, gives 0."""
    folded = float(x % period)
    return 0.0 if folded == period else folded


def antilogistic(c, alpha: float, beta: float):
    """Logistic sigmoid of beta*(c - alpha), stable for large |beta*(c-alpha)|.

    Accepts scalars or arrays; the result is in (0, 1) up to floating-point
    saturation at the extremes.
    """
    z = np.asarray(beta * (np.asarray(c, dtype=float) - alpha), dtype=float)
    # exp of a non-positive argument never overflows
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def evaluate(t, min_: float, amplitude: float, alpha: float, beta: float, phase: float):
    """Curve value at time ``t`` (hours). Vectorized over ``t``."""
    c = np.cos((np.asarray(t, dtype=float) - phase) * OMEGA)
    out = min_ + amplitude * antilogistic(c, alpha, beta)
    if np.ndim(out) == 0:
        return float(out)
    return out
