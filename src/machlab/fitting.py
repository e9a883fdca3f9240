"""Constant-fitting helpers for inequality checks.

Every inequality with an unspecified constant follows the same protocol:
fit the smallest passing constant on one designated calibration data set,
widen it by a fixed headroom factor, then assert the inequality verbatim on
disjoint holdout data. The fit uses bisection, which is valid whenever the
predicate is monotone in the constant (true for all bounds used here: the
constant appears as a prefactor and, at worst, inside an exponential).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def smallest_passing(pred: Callable[[float], bool], lo: float = 1e-9, hi: float = 1e9,
                     rel_tol: float = 1e-6, max_iter: int = 200) -> float:
    """Smallest c in [lo, hi] with pred(c) true, assuming pred is monotone.

    Raises if even ``hi`` fails; returns ``lo`` if it already passes.
    """
    if pred(lo):
        return lo
    if not pred(hi):
        raise ValueError(f"predicate fails even at c={hi:g}")
    a, b = lo, hi
    for _ in range(max_iter):
        mid = np.sqrt(a * b)  # geometric: the plausible range spans decades
        if pred(mid):
            b = mid
        else:
            a = mid
        if b - a <= rel_tol * b:
            break
    return float(b)


def max_ratio(lhs, rhs, floor: float = 1e-300) -> float:
    """max lhs/rhs over samples, treating 0/0 as 0."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    out = 0.0
    for a, b in zip(lhs.ravel(), rhs.ravel()):
        if a <= 0.0:
            continue
        if b <= floor:
            return np.inf
        out = max(out, a / b)
    return float(out)


def strictly_decreasing(values) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.diff(values) < 0.0))


def nondecreasing(values, tol: float = 0.0) -> bool:
    """Every value at most its successor plus ``tol``."""
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all(values[:-1] <= values[1:] + tol))
