"""Smallness scales, lifespan estimates, and the ledger-driven trend checks."""

import math

import numpy as np
import pytest

from machlab import littlewood_paley as lp
from machlab.asymptotics import (
    LifespanModel,
    check_acoustic_decay,
    check_energy_growth,
    check_incompressible_limit,
    interpolation_ratio,
    lifespan_prediction,
    phi_of_eps,
)
from machlab.fitting import max_ratio, nondecreasing, smallest_passing, strictly_decreasing
from machlab.ledger import RunLedger


class TestFitting:
    def test_smallest_passing_bisects_a_threshold(self):
        c = smallest_passing(lambda c: c >= 3.7)
        assert 3.7 <= c <= 3.7 * (1.0 + 1e-5)

    def test_smallest_passing_returns_lo_when_it_already_passes(self):
        assert smallest_passing(lambda c: True) == 1e-9

    def test_smallest_passing_raises_when_even_hi_fails(self):
        with pytest.raises(ValueError):
            smallest_passing(lambda c: False, hi=10.0)

    def test_max_ratio_ignores_zero_over_zero_and_flags_positive_over_zero(self):
        assert max_ratio([0.0, 2.0], [0.0, 4.0]) == 0.5
        assert max_ratio([0.0, 1.0], [5.0, 0.0]) == np.inf

    def test_monotonicity_predicates(self):
        assert strictly_decreasing([3.0, 2.0, 1.0])
        assert not strictly_decreasing([3.0, 3.0, 1.0])
        assert nondecreasing([1.0, 1.0, 2.0])
        assert not nondecreasing([1.0, 0.5])


class TestSmallnessScale:
    def test_exp_profile_gives_phi_eps_to_the_eighth(self):
        model = LifespanModel(lp.named_profile("exp:1"))
        assert model.alpha == pytest.approx(1.0, abs=1e-12)
        assert model.beta == pytest.approx(1.0, abs=1e-12)
        for eps in (0.9, 0.1, 1e-3, 1e-8):
            assert phi_of_eps(model, eps) == pytest.approx(eps ** 0.125, rel=1e-12)

    def test_power_profile_closed_form(self):
        model = LifespanModel(lp.named_profile("power:2"))
        # the exponential envelope of (q+2)^2 is tightest at q = 0
        assert model.alpha == pytest.approx(math.log(4.0), rel=1e-12)
        beta = 1.0 / math.log(4.0)
        for eps in (0.5, 1e-2, 1e-6):
            want = (math.log(1.0 / eps) / 8.0 + 2.0) ** (-2.0 * beta)
            assert phi_of_eps(model, eps) == pytest.approx(want, rel=1e-12)

    def test_constant_profile_has_trivial_scale(self):
        model = LifespanModel(lp.named_profile("constant"))
        assert model.beta == 1.0
        assert phi_of_eps(model, 1e-6) == 1.0

    def test_phi_decreases_as_eps_does(self):
        for spec in ("exp:1", "exp:0.5", "power:2"):
            model = LifespanModel(lp.named_profile(spec))
            vals = [phi_of_eps(model, e) for e in (0.5, 1e-2, 1e-4, 1e-8)]
            assert strictly_decreasing(vals)

    def test_eps_out_of_range_raises(self):
        model = LifespanModel(lp.named_profile("exp:1"))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                phi_of_eps(model, bad)
            with pytest.raises(ValueError):
                lifespan_prediction(model, bad)
        with pytest.raises(ValueError):
            LifespanModel(lp.named_profile("exp:1"), c0=0.0)


class TestLifespan:
    def test_exp_profile_lifespan_closed_form(self):
        model = LifespanModel(lp.named_profile("exp:1"), c0=2.5)
        est = lifespan_prediction(model, 0.01)
        assert est.t_psi == pytest.approx(math.log(math.log(100.0)) / 2.5, rel=1e-12)
        # Phi(0.01)^{-1/2} = 100^{1/16} < e, so the Phi-clock is still mute
        assert est.t_phi == 0.0

    def test_lifespan_grows_as_eps_shrinks(self):
        model = LifespanModel(lp.named_profile("power:2"), c0=1.0)
        ts = [lifespan_prediction(model, e).t_psi for e in (1e-2, 1e-4, 1e-8)]
        assert ts == sorted(ts) and ts[0] < ts[-1]

    def test_undefined_below_single_log_threshold(self):
        model = LifespanModel(lp.named_profile("exp:1"))
        est = lifespan_prediction(model, 0.5)  # Psi(log 2) = 2 < e
        assert est.t_psi == 0.0

    def test_phi_clock_kicks_in_for_tiny_eps(self):
        model = LifespanModel(lp.named_profile("exp:1"), c0=1.0)
        eps = math.exp(-32.0)
        est = lifespan_prediction(model, eps)
        # exp(exp(t)) = Phi^{-1/2} = exp(32/16) => t = log 2
        assert est.t_phi == pytest.approx(math.log(2.0), rel=1e-12)
        assert est.t_psi == pytest.approx(math.log(32.0), rel=1e-12)


def _acoustic_ledger(level: float, times) -> RunLedger:
    led = RunLedger(["div_v_linf", "grad_c_linf", "qv_linf", "c_linf", "div_v_b0"])
    for t in times:
        led.append(t, div_v_linf=level, grad_c_linf=level, qv_linf=level,
                   c_linf=level, div_v_b0=level)
    return led


class TestAcousticDecayCheck:
    def test_monotone_sweep_passes(self):
        times = np.linspace(0.0, 2.0, 21)
        ledgers = {e: _acoustic_ledger(e, times) for e in (0.4, 0.2, 0.1)}
        model = LifespanModel(lp.named_profile("constant"))
        report = check_acoustic_decay(ledgers, model, box_length=16 * math.pi, window=1.0)
        assert report.eps == (0.4, 0.2, 0.1)
        assert report.window == 1.0
        # constant-in-time columns integrate exactly
        assert report.a1 == pytest.approx(tuple(2.0 * e for e in report.eps), rel=1e-12)
        assert report.a4 == pytest.approx(tuple(2.0 * e for e in report.eps), rel=1e-12)
        assert report.a1_decreasing and report.a4_decreasing
        # normalized by eps^{1/4} the spread is 4^{3/4} < 4
        assert report.a4_normalized_spread == pytest.approx(4.0 ** 0.75, rel=1e-9)
        assert report.phi_bound_b1 and report.phi_bound_a4
        assert math.isnan(report.eta_fit)  # flat weight carries no slope

    def test_default_window_is_the_wraparound_of_the_smallest_eps(self):
        times = np.linspace(0.0, 40.0, 81)
        ledgers = {e: _acoustic_ledger(e, times) for e in (1.0, 0.5, 0.25)}
        model = LifespanModel(lp.named_profile("constant"))
        report = check_acoustic_decay(ledgers, model, box_length=16 * math.pi)
        assert report.window == pytest.approx(0.45 * 16 * math.pi * 0.25, rel=1e-12)

    def test_growing_sweep_fails(self):
        times = np.linspace(0.0, 2.0, 21)
        ledgers = {e: _acoustic_ledger(1.0 / e, times) for e in (0.4, 0.2, 0.1)}
        model = LifespanModel(lp.named_profile("constant"))
        report = check_acoustic_decay(ledgers, model, box_length=16 * math.pi, window=1.0)
        assert not report.a1_decreasing

    def test_needs_three_members(self):
        times = np.linspace(0.0, 1.0, 5)
        ledgers = {e: _acoustic_ledger(e, times) for e in (0.4, 0.2)}
        with pytest.raises(ValueError):
            check_acoustic_decay(ledgers, LifespanModel(lp.named_profile("constant")),
                                 box_length=1.0)


class TestIncompressibleLimitCheck:
    def test_shrinking_gap_passes_the_double_exponential_bound(self):
        times = np.linspace(0.0, 1.0, 9)
        model = LifespanModel(lp.named_profile("exp:1"))
        l2 = {e: e * (1.0 + times) for e in (0.4, 0.2, 0.1)}
        b2 = {e: 2.0 * e * (1.0 + times) for e in (0.4, 0.2, 0.1)}
        gaps = {e: 0.0 for e in (0.4, 0.2, 0.1)}
        report = check_incompressible_limit(times, l2, b2, gaps, model)
        assert report.eps == (0.4, 0.2, 0.1)
        assert report.l2_decreasing and report.b2_decreasing
        assert report.smallest_over_largest == pytest.approx(0.25, rel=1e-12)
        assert report.rate_bound_holds

    def test_non_shrinking_gap_fails(self):
        times = np.linspace(0.0, 1.0, 9)
        model = LifespanModel(lp.named_profile("exp:1"))
        l2 = {e: np.full_like(times, 1.0) for e in (0.4, 0.2, 0.1)}
        b2 = {e: e * np.ones_like(times) for e in (0.4, 0.2, 0.1)}
        gaps = {e: 0.0 for e in (0.4, 0.2, 0.1)}
        report = check_incompressible_limit(times, l2, b2, gaps, model)
        assert not report.l2_decreasing


def _energy_ledger(times, vc, div=1.0):
    led = RunLedger(["vc_l2", "div_v_linf", "int_div_v_linf"])
    for i, t in enumerate(times):
        led.append(t, vc_l2=vc[i], div_v_linf=div)
    return led


class TestEnergyGrowth:
    def test_flat_run_passes_with_tiny_constant(self):
        times = np.linspace(0.0, 2.0, 11)
        led = _energy_ledger(times, np.ones_like(times))
        report = check_energy_growth(led)
        assert report.l2_ok and report.c_l2 <= 1e-6

    def test_gronwall_rate_is_recovered(self):
        times = np.linspace(0.0, 2.0, 41)
        vc = np.exp(1.5 * times)  # budget integrates to t exactly (div = 1)
        led = _energy_ledger(times, vc)
        report = check_energy_growth(led)
        assert report.l2_ok
        assert report.c_l2 == pytest.approx(1.5, rel=1e-3)

    def test_supercritical_growth_fails_the_symmetric_form_cap(self):
        times = np.linspace(0.0, 2.0, 41)
        led = _energy_ledger(times, np.exp(3.0 * times))
        report = check_energy_growth(led)
        assert not report.l2_ok


def test_interpolation_ratio():
    led = RunLedger(["div_v_b12", "div_v_b1", "div_v_b0"])
    for t in (0.0, 1.0):
        led.append(t, div_v_b12=2.0, div_v_b1=4.0, div_v_b0=4.0)
    assert interpolation_ratio(led) == pytest.approx(0.5, rel=1e-12)
