"""Asymptotic bookkeeping: smallness scales, lifespan predictions, and the
trend checks that tie measured runs to the low-Mach theory being probed.

The central objects are a slowly varying frequency weight Psi (see
``littlewood_paley.BesovProfile``) and the derived smallness scale

    Phi(eps) = Psi( log(1 / eps**(1/8)) ) ** (-beta),
    beta = min(1, 1 / alpha),  alpha = fitted growth exponent of Psi,

with natural logarithms throughout. Phi tends to 0 as eps does whenever Psi
is unbounded, and the predicted life span of the fast-oscillation regime is
T(eps) = (1/C0) log log Psi(log(1/eps)), together with an equivalent variant
expressed through Phi: exp(exp(C0 T)) = Phi(eps)**(-1/2).

All trend checks run on ledgers or snapshot series produced elsewhere; each
fits its constant on one calibration member and asserts on the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .acoustic import wraparound_window
from .fitting import max_ratio, smallest_passing, strictly_decreasing
from .littlewood_paley import BesovProfile
from .ledger import RunLedger


@dataclass(frozen=True)
class LifespanModel:
    """A weight profile plus the calibrated constants entering the bounds."""

    profile: BesovProfile
    c0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c0 > 0.0):
            raise ValueError(f"c0 must be positive, got {self.c0}")

    @property
    def alpha(self) -> float:
        return self.profile.growth_exponent

    @property
    def beta(self) -> float:
        a = self.alpha
        if a <= 0.0:
            return 1.0
        return min(1.0, 1.0 / a)


def phi_of_eps(model: LifespanModel, eps: float) -> float:
    """Smallness scale Phi(eps) = Psi(log(1/eps)/8)**(-beta), eps in (0, 1]."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    x = math.log(1.0 / eps) / 8.0
    return model.profile.psi_at(x) ** (-model.beta)


@dataclass(frozen=True)
class LifespanEstimate:
    """Both clocks at one eps; 0.0 marks a clock that is undefined there."""

    eps: float
    t_psi: float
    t_phi: float


def lifespan_prediction(model: LifespanModel, eps: float) -> LifespanEstimate:
    """Both closed-form lifespan estimates at one eps.

    ``t_psi`` = (1/C0) log log Psi(log(1/eps)); undefined (returned as 0)
    while Psi(log(1/eps)) <= e. ``t_phi`` solves
    exp(exp(C0 t)) = Phi(eps)**(-1/2), the same clock expressed through the
    smallness scale; both are reported so drift between them is visible.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    psi_val = model.profile.psi_at(math.log(1.0 / eps))
    t_psi = math.log(math.log(psi_val)) / model.c0 if psi_val > math.e else 0.0
    z = phi_of_eps(model, eps) ** (-0.5)
    t_phi = math.log(math.log(z)) / model.c0 if z > math.e else 0.0
    return LifespanEstimate(eps=eps, t_psi=t_psi, t_phi=t_phi)


# ---------------------------------------------------------------------------
# Trend checks over measured runs


@dataclass(frozen=True)
class AcousticDecayReport:
    """Windowed mixed-norm trends across an eps sweep.

    ``a1`` is the L^1-in-time sup-norm budget of (div v, grad c), ``a4`` the
    L^4-in-time sup-norm of (Qv, c), ``b1`` the L^1-in-time block-sum norm of
    div v; all integrated over [0, window] where torus wraparound has not yet
    spoiled dispersive decay for any member of the sweep. The phi-power bounds
    are advisory: at desk scale Phi barely varies across one octave of eps.
    """

    eps: tuple[float, ...]          # descending
    window: float
    a1: tuple[float, ...]
    a4: tuple[float, ...]
    b1: tuple[float, ...]
    phi: tuple[float, ...]
    c0_b1: float
    c0_a4: float
    a1_decreasing: bool
    a4_decreasing: bool
    phi_bound_b1: bool
    phi_bound_a4: bool
    a4_normalized_spread: float
    eta_fit: float


def check_acoustic_decay(ledgers: dict[float, RunLedger], model: LifespanModel,
                         box_length: float, window: Optional[float] = None) -> AcousticDecayReport:
    """Monotone-decay and smallness-scale checks on a compressible eps sweep.

    All quantities are measured inside the common wraparound window of the
    smallest eps; beyond it a torus hosts standing acoustic energy and decay
    genuinely stops, so longer windows would test the box rather than the
    scaling. Constants are fitted on the largest eps and asserted on the rest.
    """
    if len(ledgers) < 3:
        raise ValueError("need at least three eps values")
    eps_sorted = tuple(sorted(ledgers, reverse=True))
    if window is None:
        window = wraparound_window(box_length, min(eps_sorted))
    t_end = min(ledgers[e].times[-1] for e in eps_sorted)
    window = min(window, t_end)
    a1, a4, b1 = [], [], []
    for e in eps_sorted:
        led = ledgers[e]
        a1.append(led.window_l1("div_v_linf", window) + led.window_l1("grad_c_linf", window))
        a4.append(led.window_mixed_norm("qv_linf", 4.0, window)
                  + led.window_mixed_norm("c_linf", 4.0, window))
        b1.append(led.window_l1("div_v_b0", window))
    phi = [phi_of_eps(model, e) for e in eps_sorted]
    # calibrate on the largest eps, check the Phi-power bounds on the rest
    c0_b1 = b1[0] / phi[0] ** 0.25
    c0_a4 = a4[0] / phi[0]
    bound_b1 = all(b1[i] <= c0_b1 * phi[i] ** 0.25 * (1 + 1e-9) for i in range(1, len(eps_sorted)))
    bound_a4 = all(a4[i] <= c0_a4 * phi[i] * (1 + 1e-9) for i in range(1, len(eps_sorted)))
    normalized = [a / e**0.25 for a, e in zip(a4, eps_sorted)]
    spread = max(normalized) / min(normalized)
    # empirical decay exponent of a1 against the weight at the sweep's scales
    xs = np.log([model.profile.psi_at(math.log(1.0 / e) / 8.0) for e in eps_sorted])
    ys = np.log(a1)
    eta = float(-np.polyfit(xs, ys, 1)[0]) if np.ptp(xs) > 1e-12 else math.nan
    return AcousticDecayReport(
        eps=eps_sorted, window=window, a1=tuple(a1), a4=tuple(a4), b1=tuple(b1),
        phi=tuple(phi), c0_b1=c0_b1, c0_a4=c0_a4,
        a1_decreasing=strictly_decreasing(a1),
        a4_decreasing=strictly_decreasing(a4),
        phi_bound_b1=bound_b1, phi_bound_a4=bound_a4,
        a4_normalized_spread=float(spread), eta_fit=eta,
    )


@dataclass(frozen=True)
class IncompressibleLimitReport:
    eps: tuple[float, ...]          # descending
    sup_l2: tuple[float, ...]
    sup_b2: tuple[float, ...]
    l2_decreasing: bool
    b2_decreasing: bool
    smallest_over_largest: float
    c0_rate: float
    rate_bound_holds: bool


def check_incompressible_limit(times, l2_series: dict[float, np.ndarray],
                               b2_series: dict[float, np.ndarray],
                               init_gap: dict[float, float],
                               model: LifespanModel) -> IncompressibleLimitReport:
    """Convergence of the filtered velocity to the incompressible solution.

    ``l2_series[eps][j]`` is ||P v_eps(t_j) - v(t_j)||_{L^2}; the rate bound

        ||w(t)|| <= C0 exp(exp(C0 t)) (||P v0_eps - v0|| + Phi(eps)**(1/4))

    is calibrated (smallest passing C0, doubled) on the largest eps and then
    asserted on the others.
    """
    times = np.asarray(times, dtype=np.float64)
    eps_sorted = tuple(sorted(l2_series, reverse=True))
    if len(eps_sorted) < 2:
        raise ValueError("need at least two eps values")
    sup_l2 = tuple(float(np.max(l2_series[e])) for e in eps_sorted)
    sup_b2 = tuple(float(np.max(b2_series[e])) for e in eps_sorted)

    def bound_holds(eps: float, c0: float) -> bool:
        base = init_gap[eps] + phi_of_eps(model, eps) ** 0.25
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
        l2_decreasing=strictly_decreasing(sup_l2),
        b2_decreasing=strictly_decreasing(sup_b2),
        smallest_over_largest=sup_l2[-1] / sup_l2[0] if sup_l2[0] > 0 else math.inf,
        c0_rate=c0, rate_bound_holds=holds,
    )


@dataclass(frozen=True)
class EnergyReport:
    c_l2: float
    l2_ok: bool


def check_energy_growth(ledger: RunLedger) -> EnergyReport:
    """Gronwall-type L^2 energy monitor along one compressible run:
    ||(v,c)(t)|| <= init * exp(C int ||div v||_inf). The symmetric form of
    the system makes the smallest such C at most 2 at any resolution that
    holds the spectrum.
    """
    vc = ledger.column("vc_l2")
    div_budget = ledger.column("int_div_v_linf")
    init = vc[0]

    def l2_holds(c: float) -> bool:
        with np.errstate(over="ignore"):
            return bool(np.all(vc <= init * np.exp(c * div_budget) * (1.0 + 1e-12)))

    c_l2 = smallest_passing(l2_holds, hi=1e3)
    return EnergyReport(c_l2=float(c_l2), l2_ok=c_l2 <= 2.0)


def interpolation_ratio(ledger: RunLedger) -> float:
    """Largest ratio ||div v||_{B^{1/2}_{4,1}} over the geometric mean of
    ||div v||_{B^1_{2,1}} and ||div v||_{B^0_{inf,1}} along a run."""
    lhs = ledger.column("div_v_b12")
    rhs = np.sqrt(ledger.column("div_v_b1") * ledger.column("div_v_b0"))
    return max_ratio(lhs, rhs)
