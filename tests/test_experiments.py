"""Experiment plumbing: probes, the velocity catalog, sweeps, artifacts."""

import filecmp
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from machlab import (acceptance, acoustic, asymptotics, compressible, experiments,
                     incompressible, littlewood_paley, spectral)
from machlab.config import ExperimentConfig, canonical_dump, with_overrides
from machlab.experiments import (
    build_profile,
    free_wave_normalized,
    gaussian_bump_complex,
    initial_states,
    measure_lifespans,
    run_experiment,
    run_sweep,
    transport_catalog,
    transport_initial_density,
)
from machlab.ledger import TRANSPORT_COLUMNS, RunLedger, mixed_time_norm
from machlab.spectral import Grid


def test_gaussian_probe_is_unit_norm_mean_free_dealiased(grid64):
    probe = gaussian_bump_complex(grid64)
    weighted = grid64.parseval_weight * np.abs(probe.modes) ** 2
    norm = grid64.box_length * math.sqrt(float(np.sum(weighted)))
    assert norm == pytest.approx(1.0, rel=1e-12)
    assert np.all(probe.modes[:, 0, 0] == 0.0)
    assert np.max(np.abs(probe.modes[1])) == 0.0  # a real bump: no imaginary part
    assert np.max(np.abs(np.where(grid64.dealias_mask, 0.0, probe.modes))) == 0.0


def test_free_wave_normalized_reports_window_validity(grid64):
    window, out = free_wave_normalized(grid64, (0.2, 0.1), 1)
    assert window > 0.0 and set(out) == {0.2, 0.1}
    for e, (val, normalized, ok) in out.items():
        assert val > 0.0 and normalized > 0.0
        assert ok  # the shared window sits inside every member's wraparound


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([16, 32]), p=st.sampled_from([math.inf, 4.0]),
       sweep=st.one_of(
           st.builds(lambda top, k: [top / 2**i for i in range(k)],
                     st.floats(0.05, 1.0), st.integers(1, 5)),
           st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5, unique=True)))
def test_free_wave_normalized_equals_one_measurement_per_eps_bit_for_bit(n, p, sweep):
    grid = Grid(n, 16.0 * math.pi)
    window, free = free_wave_normalized(grid, sweep, 1, p)
    probe = gaussian_bump_complex(grid)
    got = {e: np.float64(v[0]).tobytes() for e, v in free.items()}
    times = acoustic.sample_times(window)
    r, _ = acoustic.strichartz_exponents(p)
    norms = {e: acoustic.free_wave_norms(probe, times / e, p) for e in sweep}
    want = {e: np.float64(mixed_time_norm(times, norms[e], r)).tobytes() for e in sweep}
    assert got == want


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("eps, scales", [
    ((0.2, 0.1, 0.05, 0.025), 160),  # the default dyadic sweep: 256 sample times
    # irrational ratios: no two eps share a phase t/eps but the phase 0 at t = 0
    ((0.2, 0.2 / math.sqrt(2.0), 0.2 / math.pi), 3 * 63 + 1),
])
def test_free_wave_normalized_rotates_and_inverts_each_distinct_phase_once(monkeypatch, eps,
                                                                          scales):
    grid = Grid(32, 16.0 * math.pi)
    window = 0.99 * acoustic.wraparound_window(grid.box_length, min(eps))
    times = acoustic.sample_times(window)
    assert len({float(t) / e for e in eps for t in times}) == scales
    rotations = _count_calls(monkeypatch, acoustic, "_rotate_rows")
    inverses = _count_calls(monkeypatch, spectral, "to_samples")
    free_wave_normalized(grid, eps, 1)
    assert len(rotations) == len(inverses) == scales


def test_free_wave_normalized_does_not_depend_on_the_thread_count():
    grid = Grid(32, 16.0 * math.pi)
    one = free_wave_normalized(grid, (0.2, 0.1, 0.05, 0.025), 1, 4.0)
    two = free_wave_normalized(grid, (0.2, 0.1, 0.05, 0.025), 2, 4.0)
    assert repr(one) == repr(two)


def test_transport_catalog_contract():
    cal, holdouts = transport_catalog(16.0 * math.pi)
    assert len(holdouts) == 4
    names = [cal.name] + [h.name for h in holdouts]
    assert len(set(names)) == len(names)
    x = np.linspace(0.0, 16.0 * math.pi, 7)
    y = np.linspace(0.0, 16.0 * math.pi, 7)[:, None]
    # calibration must exercise the compressible terms of the bound
    assert np.max(np.abs(cal.divergence(0.3, x, y))) > 0.1
    # the last holdout drives the divergence-free reduction
    assert np.max(np.abs(holdouts[-1].divergence(0.3, x, y))) == 0.0


def test_transport_initial_density_is_positive_and_smooth(grid64):
    f = transport_initial_density(grid64, seed=0)
    vals = f.values()
    assert np.min(vals) > 0.0
    top = np.where(grid64.dealias_mask, 0.0, f.modes)
    assert np.max(np.abs(top)) == 0.0


def test_build_profile_named_and_fitted(grid32):
    cfg = ExperimentConfig(profile="power:2")
    named = build_profile(cfg, initial_states(cfg, grid32))
    assert named.name == "power:2"
    cfg = ExperimentConfig(n=32, eps=(0.2, 0.1), data="random-band:1", profile="from-data")
    fitted = build_profile(cfg, initial_states(cfg, grid32))
    assert fitted.values[0] == 1.0
    assert fitted.ratio_bound <= 2.0 + 1e-12
    assert np.all(np.diff(fitted.values) >= 0.0)


def test_run_sweep_output_does_not_depend_on_thread_count(tmp_path):
    base = ExperimentConfig(experiment="acoustic-decay", n=32, eps=(0.2, 0.1, 0.05),
                            t_final=0.1, max_dt=0.05, profile="constant")
    grid = Grid(base.n, base.box_length)
    states = initial_states(base, grid)
    serial = run_sweep(with_overrides(base, threads=1), states)
    pooled = run_sweep(with_overrides(base, threads=3), states)
    for e in base.eps:
        a, b = serial[e][0], pooled[e][0]
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa, f"eps={e:g}", "h")
        b.to_csv(pb, f"eps={e:g}", "h")
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_stopped_member_lets_the_sweep_finish_and_carries_every_ledger(monkeypatch, threads):
    base = ExperimentConfig(experiment="acoustic-decay", n=32, eps=(0.2, 0.1, 0.05, 0.025),
                            t_final=0.1, max_dt=0.05, profile="constant", threads=threads)
    states = initial_states(base, Grid(base.n, base.box_length))
    run, cfl_dt = compressible.run, compressible.cfl_dt

    def blows_up_at_0p2(initial, t_final, config, **kwargs):
        if initial.eps == 0.2:
            config = replace(config, blowup_grad_linf=0.0)  # trips at step 0
        return run(initial, t_final, config, **kwargs)

    def stalls_at_0p1_and_0p025(state, config):
        return math.nan if state.eps in (0.1, 0.025) else cfl_dt(state, config)

    monkeypatch.setattr(compressible, "run", blows_up_at_0p2)
    monkeypatch.setattr(compressible, "cfl_dt", stalls_at_0p1_and_0p025)
    with pytest.raises(spectral.StalledStep, match=r"step 1 does not advance time") as err:
        run_sweep(base, states)
    ledgers = err.value.ledgers
    assert sorted(ledgers) == [0.025, 0.05, 0.1, 0.2]
    assert err.value.ledger is ledgers[0.1]  # the stop of the largest eps that stopped
    assert list(ledgers[0.2].time_array()) == [0.0]  # its blowup ledger
    assert list(ledgers[0.1].time_array()) == [0.0]
    assert list(ledgers[0.05].time_array()) == [0.0, 0.05, 0.1]  # ran to its end
    assert list(ledgers[0.025].time_array()) == [0.0]


def test_strichartz_driver_artifacts(tmp_path):
    cfg = ExperimentConfig(experiment="strichartz-sweep", n=32, eps=(0.2, 0.1, 0.05),
                           out=str(tmp_path / "out"))
    passed, lines = run_experiment(cfg)
    assert passed
    assert any(line.startswith("PASS strichartz.free_wave_scaling") for line in lines)
    out = tmp_path / "out"
    table = (out / "strichartz.csv").read_text().splitlines()
    assert table[0] == "eps,p,r,decay_exponent,window,value,normalized,window_ok"
    assert len(table) == 1 + len(cfg.eps)
    plot = (out / "plot_mixed_norm_vs_eps.csv").read_text().splitlines()
    assert plot[0] == "eps,mixed_norm" and len(plot) == 1 + len(cfg.eps)
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0].startswith("machlab summary v1 config=")
    assert summary[-1] == "RESULT PASS"
    assert (out / "config.resolved").read_text() == canonical_dump(cfg)


def test_strichartz_sweep_never_builds_the_partition(tmp_path, monkeypatch):
    def unread(grid):
        raise AssertionError("the free-wave sweep read grid.blocks")

    monkeypatch.setattr(Grid, "blocks", property(unread))
    cfg = ExperimentConfig(experiment="strichartz-sweep", n=32, eps=(0.2, 0.1, 0.05),
                           out=str(tmp_path / "out"))
    assert run_experiment(cfg)[0]


def test_incompressible_limit_driver_smoke(tmp_path):
    cfg = ExperimentConfig(experiment="incompressible-limit", n=32,
                           eps=(0.4, 0.2, 0.05), t_final=0.2, max_dt=0.02,
                           snapshots=5, out=str(tmp_path / "out"))
    passed, lines = run_experiment(cfg)
    assert passed, "\n".join(lines)
    out = tmp_path / "out"
    for name in ("ledger_reference.csv", "incompressible_limit.csv",
                 "plot_sup_gap_vs_eps.csv", "snap_reference_final.mlf"):
        assert (out / name).exists()
    n, L, fields = spectral.read_snapshot(out / "snap_eps_0p4_final.mlf")
    assert n == 32 and L == pytest.approx(cfg.box_length) and len(fields) == 3
    _, _, ref_fields = spectral.read_snapshot(out / "snap_reference_final.mlf")
    assert len(ref_fields) == 2


def _limit_study(n):
    cfg = ExperimentConfig(experiment="incompressible-limit", n=n, eps=(0.4, 0.2, 0.05),
                           t_final=0.1, max_dt=0.02, snapshots=4)
    return experiments.SweepStudy(cfg, experiments.snapshot_times(cfg))


@pytest.mark.parametrize("n", [32, 64])
def test_streamed_gap_series_equals_the_series_of_stored_states(n):
    study = _limit_study(n)
    l2s, b2s = experiments.limit_error_series(study.sweep, study.times)
    # the states themselves, kept at every time, and the gaps formed afterwards
    stored = run_sweep(study.config, study.initial_states, study.times)
    ref = study.reference[2]
    for e, run in stored.items():
        l2_vals, b2_vals = [], []
        for t in study.times:
            pv = spectral.leray_p(run.snapshots[t].v)
            diff = spectral.sub(pv, incompressible.velocity_from_vorticity(ref[t]))
            l2_vals.append(spectral.l2_norm(diff))
            b2_vals.append(littlewood_paley.besov_norm(diff, 2.0, 2.0))
        assert np.array_equal(l2s[e], np.asarray(l2_vals))
        assert np.array_equal(b2s[e], np.asarray(b2_vals))
        assert np.array_equal(study.sweep[e].final.modes, run.snapshots[study.times[-1]].modes)


def test_the_sweep_holds_no_state_before_t_final():
    study = _limit_study(32)
    found = []

    def walk(obj):
        if isinstance(obj, spectral.FlowState):
            found.append(obj)
        elif isinstance(obj, dict):
            for key, value in obj.items():
                walk(key)
                walk(value)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)

    walk(study.sweep)
    finals = [run.final for run in study.sweep.values()]
    assert len(found) == len(finals) == 3
    assert all(any(f is g for g in finals) for f in found)
    for run in study.sweep.values():
        assert run.ledger.times[-1] == pytest.approx(study.config.t_final, abs=1e-12)
        assert list(run.snapshots) == study.times
        assert all(type(gap) is tuple and len(gap) == 2 and all(type(x) is float for x in gap)
                   for gap in run.snapshots.values())


# one small config per experiment, each with an artifact that its pooled solves write
_THREAD_COUNT_CASES = {
    "incompressible-limit": (dict(eps=(0.4, 0.2, 0.05), t_final=0.1, max_dt=0.02, snapshots=4),
                             "snap_eps_0p05_final.mlf"),
    "acoustic-decay": (dict(eps=(0.2, 0.1, 0.05), t_final=0.1, max_dt=0.05),
                       "acoustic_decay.csv"),
    "transport-log": (dict(t_final=0.05), "transport_compare.csv"),
    "strichartz-sweep": (dict(eps=(0.2, 0.1, 0.05)), "strichartz.csv"),
    "lifespan-table": (dict(eps=(1.0, 0.5, 0.25), amplitude=8.0, t_cap=2.0,
                            blowup_factor=2.0), "lifespan.csv"),
}


@pytest.mark.parametrize("experiment", sorted(_THREAD_COUNT_CASES))
def test_incompressible_limit_artifacts_do_not_depend_on_thread_count(tmp_path, experiment):
    keys, artifact = _THREAD_COUNT_CASES[experiment]
    base = with_overrides(ExperimentConfig(), experiment=experiment, n=32, **keys)
    dirs = [tmp_path / f"threads{k}" for k in (1, 2)]
    for k, out in zip((1, 2), dirs):
        run_experiment(with_overrides(base, threads=k, out=str(out)))
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1])) and artifact in names
    _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert (mismatch, errors) == ([], [])


def test_acoustic_decay_never_builds_the_reference(tmp_path, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("acoustic-decay ran the incompressible reference")

    monkeypatch.setattr(experiments, "reference_incompressible", no_reference)
    cfg = ExperimentConfig(experiment="acoustic-decay", n=32, eps=(0.2, 0.1, 0.05),
                           t_final=0.1, max_dt=0.05, out=str(tmp_path / "out"))
    run_experiment(cfg)
    assert (tmp_path / "out" / "ledger_eps_0p05.csv").exists()
    assert all(run.final is None and run.snapshots == {}
               for run in run_sweep(cfg, initial_states(cfg, Grid(32, cfg.box_length))).values())


def test_transport_log_driver_smoke(tmp_path):
    # at n = 32 the shear holdout's interpolant range grows by 1.1e-6 of the
    # initial range by t = 0.1, past the 1e-6 tolerance; 0.05 keeps it at 5e-7
    cfg = ExperimentConfig(experiment="transport-log", n=32, t_final=0.05,
                           out=str(tmp_path / "out"))
    passed, lines = run_experiment(cfg)
    assert passed, "\n".join(lines)
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == sorted(
        ["config.resolved", "summary.txt", "ledger_transport_calibration.csv",
         "transport_compare.csv"]
        + [f"plot_growth_ratio_holdout{i}.csv" for i in range(4)])
    names = [line.split(":")[0] for line in lines if not line.startswith("note")]
    assert names == [
        f"PASS transport.{check}[{i}]"
        for i in range(4)
        for check in ("log_estimate", "oracle_agreement", "mass_conservation",
                      "max_principle" if i == 3 else "interpolation")
    ]
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-1] == "RESULT PASS"
    assert (out / "config.resolved").read_text() == canonical_dump(cfg)


@pytest.mark.parametrize("gap, drift, growth, verdict", [
    (2e-3, 1e-7, 1e-5, "FAIL"),
    (1e-3, 1e-8, 1e-6, "PASS"),  # each rule is <=: a value at its tolerance passes
])
def test_transport_log_rules_fail_past_their_tolerances(tmp_path, monkeypatch, gap, drift,
                                                        growth, verdict):
    def flat_run(f0, vel, t_final, cfl, max_dt):
        led = RunLedger(TRANSPORT_COLUMNS)
        row = {c: 1.0 for c in TRANSPORT_COLUMNS if not c.startswith("int_")}
        for t in (0.0, 0.025, 0.05):
            led.append(t, **row)
        return experiments.TransportRun(led, gap, drift, growth)

    monkeypatch.setattr(experiments, "evaluate_transport_velocity", flat_run)
    cfg = ExperimentConfig(experiment="transport-log", n=32, t_final=0.05,
                           out=str(tmp_path / "out"))
    passed, lines = run_experiment(cfg)
    verdicts = {line.split(":")[0] for line in lines}
    for i in range(4):
        for check in ("oracle_agreement", "mass_conservation", "max_principle"):
            assert f"{verdict} transport.{check}[{i}]" in verdicts, "\n".join(lines)
    if verdict == "FAIL":
        assert not passed
        assert (tmp_path / "out" / "summary.txt").read_text().splitlines()[-1] == "RESULT FAIL"


# The exact tables of three runs at n = 32, for the cells that are not floats:
# strichartz.csv writes p and r in :g form and window_ok as 0/1, lifespan.csv
# writes censored as 0/1, and transport_compare.csv quotes the velocity names.
_TABLES = {
    "strichartz.csv": (
        "strichartz-sweep", dict(eps=(0.2, 0.1, 0.05), p=2.7), [
            "eps,p,r,decay_exponent,window,value,normalized,window_ok",
            "0.20000000000000001,2.7,15.4286,0.064814814814814825,1.1196636217394023,"
            "0.56988071311180999,0.63253938278461763,1",
            "0.10000000000000001,2.7,15.4286,0.064814814814814825,1.1196636217394023,"
            "0.54575336321806978,0.63359426206223635,1",
            "0.050000000000000003,2.7,15.4286,0.064814814814814825,1.1196636217394023,"
            "0.52200834721434464,0.63387476991409597,1",
        ]),
    "lifespan.csv": (
        "lifespan-table", dict(eps=(1.0, 0.5, 0.25), amplitude=8.0, t_cap=2.0,
                               blowup_factor=2.0), [
            "eps,t_num,censored,t_psi_exp1,t_psi_power2",
            "1,1.819216452950972,0,0,0.32663425997828094",
            "0.5,2,1,0,0.68381422908990686",
            "0.25,2,1,0.32663425997828094,0.8917817984669012",
        ]),
    "transport_compare.csv": (
        "transport-log", dict(t_final=0.05), [
            "velocity,log_ratio,oracle_diff,mass_drift",
            '"mode(A=1.0,m=(2, 2),w=1.5)",0.5,0.00013496485340908082,0',
            '"superpose(shear(A=1.2,m=3,w=0.7)+mode(A=0.5,m=(1, 4),w=2.5))",0.5,'
            "0.00010645443119988718,0",
            '"mode(A=0.6,m=(5, 2),w=3.0)",0.5,0.00010256262487873258,0',
            '"shear(A=1.0,m=1,w=0.9)",0.5,5.2368816337855506e-05,0',
        ]),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_tables_write_non_float_cells_as_before(tmp_path, table):
    experiment, keys, lines = _TABLES[table]
    cfg = with_overrides(ExperimentConfig(), experiment=experiment, n=32,
                         out=str(tmp_path / "out"), **keys)
    run_experiment(cfg)
    assert (tmp_path / "out" / table).read_text().splitlines() == lines


def test_run_experiment_rejects_unknown_driver():
    with pytest.raises(ValueError, match="no driver"):
        run_experiment(ExperimentConfig(experiment="bogus"))


def test_lifespans_need_no_monitor_row(monkeypatch):
    """Lifespan runs record only the blowup row, and end as full-row runs do:
    one eps blows up here and two reach the cap."""
    config = ExperimentConfig(experiment="lifespan-table", n=32, eps=(1.0, 0.5, 0.25),
                              amplitude=8.0, t_cap=2.0, blowup_factor=2.0)
    full = {}
    for e, state in initial_states(config, Grid(config.n, config.box_length)).items():
        g0 = spectral.jacobian_sup(state.grid, state.modes[:2])
        stepper = compressible.StepperConfig(cfl=config.cfl, max_dt=config.max_dt,
                                             blowup_grad_linf=config.blowup_factor * g0)
        try:
            compressible.run(state, config.t_cap, stepper)
            full[e] = (config.t_cap, True)
        except compressible.Blowup as blow:
            full[e] = (blow.time, False)
    assert sorted(censored for _, censored in full.values()) == [False, True, True]

    def no_monitor_row(state):
        raise AssertionError("a lifespan run computed a full monitor row")

    monkeypatch.setattr(compressible, "monitor_row", no_monitor_row)
    assert measure_lifespans(config) == full


# ---------------------------------------------------------------------------
# each trend rule fails on a synthetic report that breaks only its property


def _selftest_study(cfg: ExperimentConfig) -> experiments.SweepStudy:
    """The study ``acceptance.run_all`` builds for ``cfg`` run as a selftest."""
    config = with_overrides(cfg, experiment="selftest")
    return experiments.SweepStudy(config, experiments.snapshot_times(config))


def _flat_acoustic_ledger(level, l4_level, energy_rate) -> RunLedger:
    """Flat acoustic norms; vc_l2 grows as exp(energy_rate * int_div_v_linf)."""
    led = RunLedger(["div_v_linf", "grad_c_linf", "qv_linf", "c_linf", "div_v_b0", "vc_l2",
                     "int_div_v_linf"])
    for t in np.linspace(0.0, 1.0, 11):
        led.append(t, div_v_linf=level, grad_c_linf=level, qv_linf=l4_level,
                   c_linf=l4_level, div_v_b0=level, vc_l2=math.exp(energy_rate * level * t))
    return led


# broken property -> (L4 level per eps, eps^(1/4)-normalized free-wave values,
# energy growth rate per eps, failing line)
_ACOUSTIC_BREAKS = {
    "l4 budget flat": (lambda e: 1.0, (1.0, 1.0, 1.0), lambda e: 0.0,
                       "acoustic_decay.l4_monotone"),
    "l4 budget falls as eps^2": (lambda e: e**2, (1.0, 1.0, 1.0), lambda e: 0.0,
                                 "acoustic_decay.l4_scaling_spread"),
    "free wave spreads x3": (lambda e: e, (1.0, 2.0, 3.0), lambda e: 0.0,
                             "strichartz.free_wave_scaling"),
    "energy outgrows exp(2 int div v)": (lambda e: e, (1.0, 1.0, 1.0),
                                         lambda e: 3.0 if e == 0.1 else 1.0,
                                         "energy.l2_growth[eps=0.1]"),
}


@pytest.mark.parametrize("broken", sorted(_ACOUSTIC_BREAKS))
def test_acoustic_decay_rules_fail_on_a_broken_report(tmp_path, monkeypatch, broken):
    l4_level, free_normalized, energy_rate, failing = _ACOUSTIC_BREAKS[broken]
    eps = (0.2, 0.1, 0.05)
    ledgers = {e: _flat_acoustic_ledger(e, l4_level(e), energy_rate(e)) for e in eps}

    def synthetic(study):
        report = asymptotics.check_acoustic_decay(study.ledgers, study.profile,
                                                  study.grid.box_length)
        return report, {e: (v * e**0.25, v, True) for e, v in zip(eps, free_normalized)}

    monkeypatch.setattr(experiments.SweepStudy, "ledgers", property(lambda study: ledgers))
    monkeypatch.setattr(experiments, "evaluate_acoustic_decay", synthetic)
    cfg = ExperimentConfig(experiment="acoustic-decay", n=32, eps=eps, t_final=0.1,
                           max_dt=0.05, out=str(tmp_path / "out"))
    passed, lines = run_experiment(cfg)
    assert not passed
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        f"FAIL {failing}"], "\n".join(lines)
    bench = _selftest_study(cfg)
    result = acceptance.check_acoustic_decay_trend(bench)
    assert not result.passed and f"FAIL {failing}:" in result.detail, result.detail


# broken property -> (L2 gap and B2 gap of eps at s = t / t_final, failing line).
# In "gap outgrows the bound" a flat gap calibrates C0 at eps = 0.4; at
# eps = 0.2 a gap that starts at 0 and grows to 9 outruns
# C0 exp(exp(C0 t)) (gap(0) + Phi^(1/4)).
_LIMIT_BREAKS = {
    "b2 gap flat": (lambda e, s: e * (1.0 + s), lambda e, s: np.ones_like(s),
                    "incompressible_limit.b2_monotone"),
    "gap contracts by half": (lambda e, s: (0.2 + e) * (1.0 + s), lambda e, s: e * (1.0 + s),
                              "incompressible_limit.contraction"),
    "gap outgrows the bound": (lambda e, s: {0.4: np.full_like(s, 10.0), 0.2: 9.0 * s,
                                             0.1: 2.0 * s}[e],
                               lambda e, s: e * (1.0 + s),
                               "incompressible_limit.rate_bound"),
}


@pytest.mark.parametrize("broken", sorted(_LIMIT_BREAKS))
def test_incompressible_limit_rules_fail_on_a_broken_report(tmp_path, monkeypatch, broken):
    l2_gap, b2_gap, failing = _LIMIT_BREAKS[broken]

    def synthetic(study):
        s = np.asarray(study.times) / study.times[-1]
        l2s = {e: l2_gap(e, s) for e in study.config.eps}
        b2s = {e: b2_gap(e, s) for e in study.config.eps}
        return asymptotics.check_incompressible_limit(study.times, l2s, b2s, study.profile), l2s

    monkeypatch.setattr(experiments, "evaluate_incompressible_limit", synthetic)
    cfg = ExperimentConfig(experiment="incompressible-limit", n=32, eps=(0.4, 0.2, 0.1),
                           t_final=0.1, max_dt=0.02, snapshots=4, profile="exp:1",
                           out=str(tmp_path / "out"))
    passed, lines = run_experiment(cfg)
    assert not passed
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        f"FAIL {failing}"], "\n".join(lines)
    bench = _selftest_study(cfg)
    result = acceptance.check_incompressible_limit_trend(bench)
    assert not result.passed and f"FAIL {failing}:" in result.detail, result.detail


@pytest.mark.parametrize("lifespans, grows", [
    ({1.0: (1.2, False), 0.5: (1.6, False), 0.25: (2.0, False)}, True),
    ({1.0: (3.594, False), 0.5: (4.0, True), 0.25: (4.0, True)}, False),
    ({1.0: (1.2, False), 0.5: (1.6, False), 0.25: (4.0, True)}, False),  # t_cap 4
    ({1.0: (1.2, False), 0.5: (1.6, False), 0.25: (1.6, False)}, False),
    ({1.0: (1.2, False), 0.5: (1.0, False), 0.25: (2.0, False)}, False),
], ids=["increasing", "two-at-the-cap", "censored-tail", "equal", "falls-once"])
def test_lifespans_grow_only_if_every_run_blew_up_and_t_num_strictly_increases(
        tmp_path, monkeypatch, lifespans, grows):
    rules = experiments.lifespan_rules(lifespans, 4.0)
    assert [(rule.name, rule.passed) for rule in rules] == [
        ("lifespan.t_num_increasing", grows), ("lifespan.blowup_at_largest_eps", True)]
    assert rules[0].detail.endswith(
        ": " + ", ".join(f"{lifespans[e][0]:.6g}" for e in (1.0, 0.5, 0.25)))
    monkeypatch.setattr(experiments, "measure_lifespans", lambda config: lifespans)
    cfg = ExperimentConfig(experiment="lifespan-table", n=32, eps=(1.0, 0.5, 0.25),
                           out=str(tmp_path / "out"))
    passed, lines = run_experiment(cfg)
    verdict = "PASS" if grows else "FAIL"
    assert passed is grows
    assert f"{verdict} lifespan.t_num_increasing" in {line.split(":")[0] for line in lines}
    result = acceptance.check_lifespan_bookkeeping(_selftest_study(cfg))
    assert result.passed is grows, result.detail


def _flat_transport_run(vel, gap=0.0, drift=0.0, growth=0.0, f_b0_late=1.0, div_b12=1.0):
    """A catalog run with flat ledger columns, div v zero on a divergence-free
    velocity (whose run alone measures its range growth, as a real run does),
    and f_b0 at ``f_b0_late`` after t = 0."""
    div_free = vel.name.startswith("shear(")
    div = 0.0 if div_free else 1.0
    led = RunLedger(TRANSPORT_COLUMNS)
    for t in (0.0, 0.025, 0.05):
        led.append(t, f_mass=1.0, f_b0=1.0 if t == 0.0 else f_b0_late, grad_v_linf=1.0,
                   div_v_linf=div, div_v_b0=div, div_v_b12=div * div_b12, div_v_b1=div)
    return experiments.TransportRun(led, gap, drift, growth if div_free else None)


# broken property -> (holdout, what its run at n reads, failing line); holdout 3 is
# the catalog's divergence-free shear
_TRANSPORT_BREAKS = {
    "log estimate above 1": (0, dict(f_b0_late=10.0), "transport.log_estimate[0]"),
    "oracle gap above its tolerance": (1, dict(gap=2.0 * experiments.ORACLE_GAP_TOL),
                                       "transport.oracle_agreement[1]"),
    "mass drift above its tolerance": (2, dict(drift=2.0 * experiments.MASS_DRIFT_TOL),
                                       "transport.mass_conservation[2]"),
    "range growth above its tolerance": (3, dict(growth=2.0 * experiments.MAX_PRINCIPLE_TOL),
                                         "transport.max_principle[3]"),
    "interpolation ratio above twice the calibration's": (0, dict(div_b12=3.0),
                                                          "transport.interpolation[0]"),
}


@pytest.mark.parametrize("broken", sorted(_TRANSPORT_BREAKS))
def test_transport_rules_fail_on_a_broken_run(tmp_path, monkeypatch, broken):
    index, fields, failing = _TRANSPORT_BREAKS[broken]
    cfg = ExperimentConfig(experiment="transport-log", n=32, t_final=0.05,
                           out=str(tmp_path / "out"))
    name = transport_catalog(cfg.box_length)[1][index].name

    def flat(f0, vel, t_final, cfl, max_dt, monitor=None):
        # selftest's pass at n_hi stays flat
        return _flat_transport_run(vel, **(fields if (vel.name, f0.grid.n) == (name, 32)
                                           else {}))

    monkeypatch.setattr(experiments, "evaluate_transport_velocity", flat)
    passed, lines = run_experiment(cfg)
    assert not passed
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        f"FAIL {failing}"], "\n".join(lines)
    result = acceptance.check_transport_lab(_selftest_study(cfg))
    assert not result.passed
    assert [line.split(":")[0] for line in result.detail.split("; ")
            if line.startswith("FAIL")] == [f"FAIL {failing}"], result.detail
