"""Desk-scale acceptance battery: one test and one PASS/FAIL line per check.

Everything runs at the default ``selftest`` config (n = 256, high-resolution
cross-checks at 512), so this file is the slow end of the suite; its
independent solves run on two threads, and one shared ``SweepStudy`` at the
config's snapshot times caches the eps sweep and the reference run across
tests, as ``acceptance.run_all`` builds it. The checks call the experiment
drivers' evaluators and rule functions; fast tests pin the scale the checks
resolve from the config, the resolutions the transport lab visits and the
tolerances its own rules print, and make the two checks of the Strang step
fail on an n = 32 sweep under a sabotaged step.
"""

import re

import numpy as np
import pytest

from machlab import acceptance, compressible, experiments, spectral, transport
from machlab.config import SELFTEST_FIXED_HORIZON, ExperimentConfig, selftest_n_hi
from machlab.ledger import TRANSPORT_COLUMNS, TRANSPORT_MASS_COLUMNS, RunLedger

SELFTEST = ExperimentConfig(experiment="selftest", threads=2)


def _study(config: ExperimentConfig) -> experiments.SweepStudy:
    return experiments.SweepStudy(config, experiments.snapshot_times(config))


@pytest.fixture(scope="module")
def bench():
    return _study(SELFTEST)


def _report(result: acceptance.CheckResult) -> None:
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_spectral_substrate(bench):
    _report(acceptance.check_spectral_substrate(bench))


def test_dyadic_partition(bench):
    _report(acceptance.check_dyadic_partition(bench))


def test_weighted_besov_norms(bench):
    _report(acceptance.check_weighted_norms(bench))


def test_linear_acoustics_conjugacy(bench):
    _report(acceptance.check_linear_acoustics(bench))


def test_strang_splitting_order(bench):
    _report(acceptance.check_splitting_order(bench))


def test_transport_laboratory(bench):
    _report(acceptance.check_transport_lab(bench))


def test_acoustic_decay_trend(bench):
    _report(acceptance.check_acoustic_decay_trend(bench))


def test_incompressible_limit_trend(bench):
    _report(acceptance.check_incompressible_limit_trend(bench))


def test_vorticity_control(bench):
    _report(acceptance.check_vorticity_control(bench))


def test_lifespan_bookkeeping(bench):
    _report(acceptance.check_lifespan_bookkeeping(bench))


def test_repeatability(bench):
    _report(acceptance.check_determinism(bench))


def test_acceptance_scale_at_the_defaults(monkeypatch):
    assert (SELFTEST.n, selftest_n_hi(SELFTEST.n)) == (256, 512)
    assert SELFTEST.eps == (0.2, 0.1, 0.05, 0.025)
    measured = []

    def lifespans(config):
        measured.append(config)
        return {1.0: (1.2, False), 0.5: (1.6, False), 0.25: (2.0, False)}

    monkeypatch.setattr(experiments, "measure_lifespans", lifespans)
    assert acceptance.check_lifespan_bookkeeping(_study(SELFTEST)).passed
    [life] = measured
    assert life.eps == acceptance.LIFESPAN_EPS == (1.0, 0.5, 0.25)
    assert (life.amplitude, life.t_cap, life.blowup_factor) == (4.0, 4.0, 8.0)
    assert (acceptance.REFERENCE_T, acceptance.REFERENCE_MAX_DT) == (5.0, 0.05)
    assert acceptance.ORDER_DTS == (0.02, 0.01, 0.005)
    assert (acceptance.SUBSTRATE_FIELDS, acceptance.PARTITION_FIELDS) == (100, 50)


def test_the_horizons_stepped_at_max_dt_stay_within_the_config_horizon():
    # validate_config bounds selftest's steps at max_dt by this one horizon
    assert max(acceptance.LINEAR_T, acceptance.TRANSPORT_T) <= SELFTEST_FIXED_HORIZON


# a small sweep without ORDER_EPS = 0.1
SMALL = ExperimentConfig(experiment="selftest", n=32, eps=(0.4, 0.2, 0.05))


def test_splitting_order_builds_its_own_state_outside_the_sweep():
    # eps = 0.1 is not in this sweep, and a one-eps selftest config is not a valid run:
    # the check must build that one state without validating such a config
    result = acceptance.check_splitting_order(_study(SMALL))
    assert result.passed, result.detail


def _detail_number(result: acceptance.CheckResult, label: str) -> float:
    return float(re.search(label + r" ([-+.e0-9]+)", result.detail).group(1))


def lie_step(state, config, dt):
    """A first-order Lie composition, in place: a full acoustic step, then the
    RK4 of the quadratic terms."""
    g = state.grid
    u = np.empty((3, g.n, g.band), complex)
    compressible.acoustic_exact_step(state.modes[..., :g.band],
                                     compressible._rotation(g, dt, state.eps), u)
    spectral.rk4(lambda w, t, k: compressible.rhs_nonlinear(g, w, state.gamma_bar, k),
                 u, 0.0, dt, out=u)
    np.copyto(state.modes[..., :g.band], u, where=g.dealias_mask[:, :g.band])
    return state


def test_splitting_order_fails_a_first_order_step(monkeypatch):
    monkeypatch.setattr(compressible, "step", lie_step)
    result = acceptance.check_splitting_order(_study(SMALL))
    assert not result.passed
    assert 0.9 < _detail_number(result, "self-convergence order") < 1.1, result.detail


def test_linear_acoustics_fails_a_rotation_of_the_wrong_sense(monkeypatch):
    result = acceptance.check_linear_acoustics(_study(SMALL))
    assert result.passed, result.detail
    rotation = compressible._rotation

    def flipped(grid, dt, eps):
        cos_t, sin_t, khat = rotation(grid, dt, eps)
        return cos_t, -sin_t, khat

    monkeypatch.setattr(compressible, "_rotation", flipped)
    result = acceptance.check_linear_acoustics(_study(SMALL))
    assert not result.passed
    # the flipped rotation still conserves each mode's energy: the propagator comparison fails
    assert _detail_number(result, "propagator mismatch") > 0.5, result.detail
    assert _detail_number(result, "energy drift") <= 1e-13, result.detail


def _flat_ledger() -> RunLedger:
    led = RunLedger(TRANSPORT_COLUMNS)
    row = {c: 1.0 for c in TRANSPORT_COLUMNS if not c.startswith("int_")}
    for t in (0.0, 0.5, 1.0):
        led.append(t, **row)
    return led


@pytest.mark.parametrize("n, visited, passed, tolerances", [
    (256, [256] * 5 + [512] * 5, False, ["@n=256 (tol 1e-3)", "@n=512 (tol 2.5e-4)"]),
    (512, [512] * 5, True, ["@n=512 (tol 1e-3)", "no pass at n_hi=512"]),
    (1024, [1024] * 5, True, ["@n=1024 (tol 1e-3)", "no pass at n_hi=512"]),
])
def test_transport_cross_check_runs_only_above_n(monkeypatch, n, visited, passed, tolerances):
    result, seen = _transport_lab_on_flat_runs(monkeypatch, n)
    assert seen == visited
    assert result.passed is passed, result.detail
    for text in tolerances:
        assert text in result.detail


def test_transport_detail_prints_the_tolerances_its_rule_reads(monkeypatch):
    # each constant set to a value of its own, so a printed value names the constant read
    for module, name, value in [(experiments, "ORACLE_GAP_TOL", 1.5e-3),
                                (experiments, "MASS_DRIFT_TOL", 2.5e-8),
                                (acceptance, "HI_ORACLE_GAP_TOL", 3.5e-4),
                                (experiments, "MAX_PRINCIPLE_TOL", 4.5e-6)]:
        monkeypatch.setattr(module, name, value)
    result, _ = _transport_lab_on_flat_runs(monkeypatch, 256)
    # the driver's lines print no tolerance; the rules of selftest's own runs print theirs
    printing = [line.split(":")[0] for line in result.detail.split("; ") if "(tol " in line]
    assert printing == ["PASS transport.calibration_oracle_agreement",
                        "PASS transport.calibration_mass_conservation",
                        "FAIL transport.cross_check_at_n_hi"]
    printed = [float(x) for x in re.findall(r"\(tol ([^)]*)\)", result.detail)]
    assert printed == [1.5e-3, 2.5e-8, 3.5e-4, 2.5e-8, 4.5e-6]


def test_transport_cross_check_at_n_hi_records_only_the_columns_it_reads(monkeypatch):
    columns = {}

    def evaluate(f0, vel, t_final, cfl, max_dt, monitor=transport.MONITOR):
        columns.setdefault(f0.grid.n, set()).add(tuple(monitor[1]))
        return experiments.TransportRun(_flat_ledger(), 0.0, 0.0, 0.0)

    monkeypatch.setattr(experiments, "evaluate_transport_velocity", evaluate)
    acceptance.check_transport_lab(_study(ExperimentConfig(experiment="selftest", n=256)))
    assert columns == {256: {tuple(TRANSPORT_COLUMNS)}, 512: {tuple(TRANSPORT_MASS_COLUMNS)}}


def _transport_lab_on_flat_runs(monkeypatch, n):
    """``check_transport_lab`` at n with every solve replaced by a flat ledger
    and an oracle gap of 5e-4, between the two oracle tolerances, so only a
    pass at n_hi can fail it; returns the result and the resolutions visited."""
    seen = []

    def evaluate(f0, vel, t_final, cfl, max_dt, monitor=transport.MONITOR):
        seen.append(f0.grid.n)
        return experiments.TransportRun(_flat_ledger(), 5e-4, 0.0, 0.0)

    monkeypatch.setattr(experiments, "evaluate_transport_velocity", evaluate)
    result = acceptance.check_transport_lab(_study(ExperimentConfig(experiment="selftest", n=n)))
    return result, seen
