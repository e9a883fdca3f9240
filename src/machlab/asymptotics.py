"""Asymptotic bookkeeping: smallness scales, lifespan predictions, and the
trend checks that tie measured runs to the low-Mach theory being probed.

The central objects are a slowly varying frequency weight Psi (see
``littlewood_paley.BesovProfile``) and the derived smallness scale

    Phi(eps) = Psi( log(1 / eps**(1/8)) ) ** (-beta),
    beta = min(1, 1 / alpha),  alpha = fitted growth exponent of Psi,

with natural logarithms throughout. Phi tends to 0 as eps does whenever Psi
is unbounded; it scales the limit-rate bound, and the acoustic-decay report
tabulates it beside the block-sum budgets. The predicted life span of the
fast-oscillation regime is the clock T(eps) = (1/C0) log log Psi(log(1/eps)).

The trend reports are numbers measured on ledgers or snapshot series
produced elsewhere; the rule functions of ``experiments`` turn them into
verdicts and hold the tolerances. A report with a fitted constant fits it
on one calibration member and asserts it on the rest, so its one verdict,
``IncompressibleLimitReport.rate_bound_holds``, is part of the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustic import wraparound_window
from .fitting import max_ratio, smallest_passing
from .littlewood_paley import BesovProfile
from .ledger import RunLedger


def phi_of_eps(profile: BesovProfile, eps: float) -> float:
    """Smallness scale Phi(eps) = Psi(log(1/eps)/8)**(-beta), eps in (0, 1],
    with beta = min(1, 1/alpha) from the profile's growth exponent alpha (1
    when alpha <= 0)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    alpha = profile.growth_exponent
    beta = min(1.0, 1.0 / alpha) if alpha > 0.0 else 1.0
    return profile.psi_at(math.log(1.0 / eps) / 8.0) ** (-beta)


def lifespan_prediction(profile: BesovProfile, eps: float, c0: float) -> float:
    """The closed-form lifespan t_psi = (1/C0) log log Psi(log(1/eps)) at one
    eps, for C0 = ``c0`` > 0; undefined, and returned as 0, while
    Psi(log(1/eps)) <= e."""
    if not (c0 > 0.0):
        raise ValueError(f"c0 must be positive, got {c0}")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    psi_val = profile.psi_at(math.log(1.0 / eps))
    return math.log(math.log(psi_val)) / c0 if psi_val > math.e else 0.0


# ---------------------------------------------------------------------------
# Trend reports over measured runs


@dataclass(frozen=True)
class AcousticDecayReport:
    """Windowed mixed-norm trends across an eps sweep.

    ``a1`` is the L^1-in-time sup-norm budget of (div v, grad c), ``a4`` the
    L^4-in-time sup-norm of (Qv, c), ``b1`` the L^1-in-time block-sum norm of
    div v; all integrated over [0, window] where torus wraparound has not yet
    spoiled dispersive decay for any member of the sweep. ``phi`` is the
    smallness scale Phi at each eps, tabulated beside ``b1``.
    """

    eps: tuple[float, ...]          # descending
    window: float
    a1: tuple[float, ...]
    a4: tuple[float, ...]
    b1: tuple[float, ...]
    phi: tuple[float, ...]
    a4_normalized_spread: float


def check_acoustic_decay(ledgers: dict[float, RunLedger], profile: BesovProfile,
                         box_length: float) -> AcousticDecayReport:
    """The decay budgets and the eps^(1/4)-normalized L^4 spread of a
    compressible eps sweep, Phi at each eps from ``profile``.

    All quantities are measured inside the common wraparound window of the
    smallest eps, clipped to the end of the shortest ledger; beyond it a
    torus hosts standing acoustic energy and decay genuinely stops, so longer
    windows would test the box rather than the scaling.
    """
    if len(ledgers) < 3:
        raise ValueError("need at least three eps values")
    eps_sorted = tuple(sorted(ledgers, reverse=True))
    t_end = min(ledgers[e].times[-1] for e in eps_sorted)
    window = min(wraparound_window(box_length, min(eps_sorted)), t_end)
    a1, a4, b1 = [], [], []
    for e in eps_sorted:
        led = ledgers[e]
        a1.append(led.window_l1("div_v_linf", window) + led.window_l1("grad_c_linf", window))
        a4.append(led.window_mixed_norm("qv_linf", 4.0, window)
                  + led.window_mixed_norm("c_linf", 4.0, window))
        b1.append(led.window_l1("div_v_b0", window))
    normalized = [a / e**0.25 for a, e in zip(a4, eps_sorted)]
    return AcousticDecayReport(
        eps=eps_sorted, window=window, a1=tuple(a1), a4=tuple(a4), b1=tuple(b1),
        phi=tuple(phi_of_eps(profile, e) for e in eps_sorted),
        a4_normalized_spread=float(max(normalized) / min(normalized)),
    )


@dataclass(frozen=True)
class IncompressibleLimitReport:
    eps: tuple[float, ...]          # descending
    sup_l2: tuple[float, ...]
    sup_b2: tuple[float, ...]
    smallest_over_largest: float
    c0_rate: float
    rate_bound_holds: bool


def check_incompressible_limit(times, l2_series: dict[float, np.ndarray],
                               b2_series: dict[float, np.ndarray],
                               profile: BesovProfile) -> IncompressibleLimitReport:
    """Convergence of the filtered velocity to the incompressible solution.

    ``l2_series[eps][j]`` is ||P v_eps(t_j) - v(t_j)||_{L^2}, from t_0 = 0; the rate bound

        ||w(t)|| <= C0 exp(exp(C0 t)) (||P v0_eps - v0|| + Phi(eps)**(1/4))

    is calibrated (smallest passing C0, doubled) on the largest eps and then
    asserted on the others.
    """
    times = np.asarray(times, dtype=np.float64)
    if times[0] != 0.0:
        raise ValueError(f"the series must start at t = 0, not {times[0]:g}")
    eps_sorted = tuple(sorted(l2_series, reverse=True))
    if len(eps_sorted) < 2:
        raise ValueError("need at least two eps values")
    sup_l2 = tuple(float(np.max(l2_series[e])) for e in eps_sorted)
    sup_b2 = tuple(float(np.max(b2_series[e])) for e in eps_sorted)

    def bound_holds(eps: float, c0: float) -> bool:
        base = l2_series[eps][0] + phi_of_eps(profile, eps) ** 0.25
        # probing large c0 may overflow the double exponential to inf, in
        # which case the bound holds trivially
        with np.errstate(over="ignore"):
            rhs = c0 * np.exp(np.exp(c0 * times)) * base
        return bool(np.all(l2_series[eps] <= rhs))

    cal = eps_sorted[0]
    c0 = 2.0 * smallest_passing(lambda c: bound_holds(cal, c))
    holds = all(bound_holds(e, c0) for e in eps_sorted[1:])
    return IncompressibleLimitReport(
        eps=eps_sorted, sup_l2=sup_l2, sup_b2=sup_b2,
        smallest_over_largest=sup_l2[-1] / sup_l2[0] if sup_l2[0] > 0 else math.inf,
        c0_rate=c0, rate_bound_holds=holds,
    )


def check_energy_growth(ledger: RunLedger) -> float:
    """The smallest C of the Gronwall-type L^2 energy bound along one
    compressible run: ||(v,c)(t)|| <= init * exp(C int ||div v||_inf)."""
    vc = ledger.column("vc_l2")
    div_budget = ledger.column("int_div_v_linf")
    init = vc[0]

    def l2_holds(c: float) -> bool:
        with np.errstate(over="ignore"):
            return bool(np.all(vc <= init * np.exp(c * div_budget) * (1.0 + 1e-12)))

    return smallest_passing(l2_holds, hi=1e3)


def interpolation_ratio(ledger: RunLedger) -> float:
    """Largest ratio ||div v||_{B^{1/2}_{4,1}} over the geometric mean of
    ||div v||_{B^1_{2,1}} and ||div v||_{B^0_{inf,1}} along a run."""
    lhs = ledger.column("div_v_b12")
    rhs = np.sqrt(ledger.column("div_v_b1") * ledger.column("div_v_b0"))
    return max_ratio(lhs, rhs)
