"""Constant-fitting helpers for inequality checks.

Every inequality with an unspecified constant follows the same protocol:
fit the smallest passing constant on one designated calibration data set,
widen it by a fixed headroom factor, then assert the inequality verbatim on
disjoint holdout data. The fit uses geometric bisection from a floor of
1e-9 to a relative width of 1e-6, which is valid whenever the predicate is
monotone in the constant (true for all bounds used here: the constant
appears as a prefactor and, at worst, inside an exponential).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def smallest_passing(pred: Callable[[float], bool], hi: float = 1e9) -> float:
    """Smallest c in [1e-9, hi] with pred(c) true, to a relative 1e-6,
    assuming pred is monotone.

    Raises if even ``hi`` fails; returns the floor 1e-9 if it already passes.
    """
    a, b = 1e-9, hi
    if pred(a):
        return a
    if not pred(b):
        raise ValueError(f"predicate fails even at c={hi:g}")
    for _ in range(200):
        mid = np.sqrt(a * b)  # geometric: the plausible range spans decades
        if pred(mid):
            b = mid
        else:
            a = mid
        if b - a <= 1e-6 * b:
            break
    return float(b)


def max_ratio(lhs, rhs) -> float:
    """max lhs/rhs over samples, treating 0/0 as 0 and any positive lhs over
    rhs <= 1e-300 as infinite."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    out = 0.0
    for a, b in zip(lhs.ravel(), rhs.ravel()):
        if a <= 0.0:
            continue
        if b <= 1e-300:
            return np.inf
        out = max(out, a / b)
    return float(out)


def strictly_decreasing(values) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.diff(values) < 0.0))
