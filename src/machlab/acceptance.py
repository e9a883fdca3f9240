"""Desk-scale acceptance checks for the whole laboratory.

Each check returns a ``CheckResult``; the test suite prints one line per
check and asserts it. The checks read one ``ExperimentConfig`` (the
``selftest`` defaults keep every check within a few minutes on one core
while leaving the trends it probes visible) through one
``experiments.SweepStudy`` at the config's snapshot times, so the eps sweep
and the reference run are computed once. The transport, decay, limit and
lifespan checks run their driver's evaluator and rule function, and pass
only when every rule of that driver passes. The transport check keeps its
own schedule, which also measures the calibration run against the oracle
and repeats the catalog at ``n_hi``, and adds rules for what the driver
never runs; it reads the driver's tolerances. The checks without a driver
hold their own tolerances.
"""

from __future__ import annotations

import filecmp
import math
import os
import tempfile
from dataclasses import replace

import numpy as np

from . import acoustic, compressible, experiments, spectral, transport
from . import littlewood_paley as lp
from .config import SELFTEST_FIXED_HORIZON, ExperimentConfig, selftest_n_hi, with_overrides
from .experiments import CheckResult
from .spectral import Field, FlowState, Grid

# The fixed scale of the checks, which no config key reaches.
LINEAR_T = 0.5                      # linear-acoustics horizon
ORDER_EPS, ORDER_T = 0.1, 0.4       # splitting-order run
ORDER_DTS = (0.02, 0.01, 0.005)
TRANSPORT_T = SELFTEST_FIXED_HORIZON  # transport-lab horizon, the longest
HI_ORACLE_GAP_TOL = 2.5e-4          # transport-lab oracle gap at n_hi
REFERENCE_T, REFERENCE_MAX_DT = 5.0, 0.05   # long incompressible reference
LIFESPAN_EPS = (1.0, 0.5, 0.25)
SUBSTRATE_FIELDS, PARTITION_FIELDS = 100, 50   # random fields per substrate check


def _random_band_field(grid: Grid, rng: np.random.Generator,
                       k_corner: float = 2.0) -> Field:
    """White noise rolled off smoothly above ``k_corner``, dealiased, unit L^2."""
    noise = rng.standard_normal((grid.n, grid.n))
    f = spectral.fft_forward(grid, noise)
    envelope = np.exp(-((grid.kmag / k_corner) ** 2))
    shaped = spectral.dealias(Field(grid, f.modes * envelope))
    norm = spectral.l2_norm(shaped)
    return spectral.scale(shaped, 1.0 / norm)


def _rel_state_diff(a: FlowState, b: FlowState) -> float:
    return spectral.l2_norm(spectral.sub(a, b)) / spectral.l2_norm(b)


def _mode_energy(state: FlowState) -> np.ndarray:
    """Per-mode linear acoustic energy |khat . v|^2 + |c|^2."""
    g = state.grid
    a = g.khat[0] * state.modes[0] + g.khat[1] * state.modes[1]
    return np.abs(a) ** 2 + np.abs(state.modes[2]) ** 2


# ---------------------------------------------------------------------------
# checks


def check_spectral_substrate(study: experiments.SweepStudy) -> CheckResult:
    grid = study.grid
    rng = np.random.default_rng(101)
    tol = 1e-12
    worst = {"roundtrip": 0.0, "parseval": 0.0, "idempotent": 0.0, "gradient": 0.0}
    for _ in range(SUBSTRATE_FIELDS):
        samples = rng.standard_normal((grid.n, grid.n))
        f = spectral.fft_forward(grid, samples)
        back = f.values()
        worst["roundtrip"] = max(worst["roundtrip"],
                                 float(np.max(np.abs(back - samples)) / np.max(np.abs(samples))))
        quad = math.sqrt(float(np.sum(samples**2)) * grid.cell_area)
        worst["parseval"] = max(worst["parseval"], abs(spectral.l2_norm(f) - quad) / quad)
        v = Field(grid, np.stack([_random_band_field(grid, rng).modes,
                                  _random_band_field(grid, rng).modes]))
        pv = spectral.leray_p(v)
        num = spectral.l2_norm(spectral.sub(spectral.leray_p(pv), pv))
        worst["idempotent"] = max(worst["idempotent"], num / spectral.l2_norm(pv))
        gradphi = spectral.grad(_random_band_field(grid, rng))
        leak = spectral.l2_norm(spectral.leray_p(gradphi)) / spectral.l2_norm(gradphi)
        worst["gradient"] = max(worst["gradient"], leak)
    passed = all(v <= tol for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f" (tol {tol:g})"
    return CheckResult("spectral-substrate", passed, detail)


def check_dyadic_partition(study: experiments.SweepStudy) -> CheckResult:
    grid = study.grid
    blocks = grid.blocks
    total = np.sum(blocks, axis=0)
    resid = float(np.max(np.abs(total[grid.dealias_mask] - 1.0)))

    disjoint = True
    for i in range(len(blocks)):
        for j in range(i + 2, len(blocks)):
            if np.any(blocks[i] * blocks[j] != 0.0):
                disjoint = False

    rng = np.random.default_rng(202)
    recon_worst = 0.0
    bern_lo, bern_hi = math.inf, 0.0
    for _ in range(PARTITION_FIELDS):
        u = _random_band_field(grid, rng, k_corner=0.5 * grid.kmax_dealias)
        acc = np.zeros_like(u.modes)
        for q in range(-1, len(blocks) - 1):
            acc = acc + lp.delta_q(u, q).modes
        recon_worst = max(recon_worst,
                          float(np.max(np.abs(acc - u.modes)) / np.max(np.abs(u.modes))))
        unorm = spectral.l2_norm(u)
        for q in range(0, len(blocks) - 1):
            blk = lp.delta_q(u, q)
            bnorm = spectral.l2_norm(blk)
            if bnorm <= 1e-8 * unorm:
                continue
            ratio = spectral.l2_norm(spectral.grad(blk)) / (2.0**q * bnorm)
            bern_lo = min(bern_lo, ratio)
            bern_hi = max(bern_hi, ratio)
    passed = (resid <= 1e-12 and disjoint and recon_worst <= 1e-12
              and bern_lo >= 1.0 / 8.0 and bern_hi <= 8.0)
    detail = (f"partition residual {resid:.2e}, reconstruction {recon_worst:.2e}, "
              f"far blocks {'disjoint' if disjoint else 'OVERLAP'}, "
              f"derivative/2^q ratio in [{bern_lo:.3f}, {bern_hi:.3f}]")
    return CheckResult("dyadic-partition", passed, detail)


def check_weighted_norms(study: experiments.SweepStudy) -> CheckResult:
    grid = study.grid
    rng = np.random.default_rng(303)
    worst_red = 0.0
    for alpha in (0.5, 1.0):
        qs = range(-1, 40)
        geom = lp.validate_profile([2.0 ** (alpha * q) for q in qs],
                                   extension=lambda x, a=alpha: 2.0 ** (a * x),
                                   name=f"geometric:{alpha:g}")
        for _ in range(10):
            u = _random_band_field(grid, rng, k_corner=0.5 * grid.kmax_dealias)
            for s in (0.0, 1.0):
                het = lp.besov_norm(u, s, 2.0, profile=geom)
                plain = lp.besov_norm(u, s + alpha, 2.0)
                worst_red = max(worst_red, abs(het - plain) / plain)
    fit_ok = True
    fit_msg = "all admissible"
    for _ in range(PARTITION_FIELDS):
        u = _random_band_field(grid, rng, k_corner=rng.uniform(0.5, 4.0))
        try:
            prof = lp.find_profile(u, 2.0, 2.0)
        except ValueError as exc:
            fit_ok, fit_msg = False, f"rejected: {exc}"
            break
        if prof.psi(-1) != 1.0 or prof.ratio_bound > 2.0 * (1.0 + 1e-12):
            fit_ok, fit_msg = False, f"psi(-1)={prof.psi(-1)}, ratio {prof.ratio_bound}"
            break
    passed = worst_red <= 1e-12 and fit_ok
    detail = f"geometric-weight reduction error {worst_red:.2e} (tol 1e-12); fits {fit_msg}"
    return CheckResult("weighted-besov", passed, detail)


def check_linear_acoustics(study: experiments.SweepStudy) -> CheckResult:
    cfg = compressible.StepperConfig(cfl=study.config.cfl, max_dt=study.config.max_dt,
                                     disable_nonlinear=True)

    def one(e: float) -> tuple[float, float]:
        st0 = study.initial_states[e]
        stT, _, _ = compressible.run(st0, LINEAR_T, cfg, monitor=compressible.BLOWUP_MONITOR)
        moved = acoustic.free_propagate(acoustic.make_acoustic(st0), LINEAR_T, e)
        exact = acoustic.acoustic_to_state(moved, spectral.leray_p(st0.v), e,
                                           study.config.gamma_bar)
        e0, eT = _mode_energy(st0), _mode_energy(stT)
        return _rel_state_diff(stT, exact), float(np.max(np.abs(eT - e0)) / np.max(e0))

    errs, drifts = zip(*experiments.map_solves(study.config.threads, one, study.initial_states))
    worst_err, worst_drift = max(errs), max(drifts)
    passed = worst_err <= 1e-12 and worst_drift <= 1e-13
    detail = (f"propagator mismatch {worst_err:.2e} (tol 1e-12), "
              f"per-mode energy drift {worst_drift:.2e} (tol 1e-13)")
    return CheckResult("linear-acoustics", passed, detail)


def check_splitting_order(study: experiments.SweepStudy) -> CheckResult:
    states = study.initial_states
    if ORDER_EPS not in states:  # a sweep without it still checks the order there
        # replace, not with_overrides: a one-eps selftest config is not a valid run
        states = experiments.initial_states(replace(study.config, eps=(ORDER_EPS,)),
                                            study.grid)
    finals = experiments.map_solves(study.config.threads, lambda dt: compressible.run(
        states[ORDER_EPS], ORDER_T, compressible.StepperConfig(cfl=0.95, max_dt=dt),
        monitor=compressible.BLOWUP_MONITOR)[0], ORDER_DTS)
    e1 = _rel_state_diff(finals[0], finals[1])
    e2 = _rel_state_diff(finals[1], finals[2])
    order = math.log2(e1 / e2)
    passed = 1.8 <= order <= 2.2
    detail = (f"self-convergence order {order:.3f} from errors {e1:.3e} / {e2:.3e} "
              f"at dt {ORDER_DTS} (window [1.8, 2.2])")
    return CheckResult("splitting-order", passed, detail)


def _driver_rules(name: str, rules: list[CheckResult]) -> CheckResult:
    """One check over a driver's rule list: it passes only when every rule
    passes, and its detail is each rule's summary line."""
    return CheckResult(name, all(rule.passed for rule in rules),
                       "; ".join(rule.line() for rule in rules))


def _tol(x: float) -> str:
    """A tolerance in short scientific form: 1e-3, 2.5e-4."""
    mantissa, exponent = f"{x:e}".split("e")
    return f"{float(mantissa):g}e{int(exponent)}"


def check_transport_lab(study: experiments.SweepStudy) -> CheckResult:
    """The transport-log rules on the catalog at n, plus what the driver never
    runs: the calibration measured against the oracle, the catalog again at
    ``n_hi`` (when above n, on the two columns that pass reads), and a
    divergence-free run for the max-principle rule."""
    cfg, n = study.config, study.config.n
    n_hi = selftest_n_hi(n)
    cal, holdouts = experiments.transport_catalog(cfg.box_length)
    passes = {}
    for res in ([n, n_hi] if n_hi > n else [n]):
        f0 = experiments.transport_initial_density(Grid(res, cfg.box_length), cfg.seed)
        monitor = transport.MONITOR if res == n else transport.MASS_MONITOR
        passes[res] = experiments.map_solves(
            cfg.threads, lambda vel: experiments.evaluate_transport_velocity(
                f0, vel, TRANSPORT_T, cfg.cfl, cfg.max_dt, monitor), [cal] + holdouts)
    runs = passes[n]
    report = experiments.evaluate_transport_log(runs[0].ledger, runs[1:])
    gap_tol, drift_tol = experiments.ORACLE_GAP_TOL, experiments.MASS_DRIFT_TOL
    rules = experiments.transport_rules(report, holdouts, runs[1:]) + [
        CheckResult("transport.calibration_oracle_agreement", runs[0].oracle_gap <= gap_tol,
                    f"max |spectral - oracle| = {runs[0].oracle_gap:.2e}@n={n} "
                    f"(tol {_tol(gap_tol)})"),
        CheckResult("transport.calibration_mass_conservation", runs[0].mass_drift <= drift_tol,
                    f"relative mass drift {runs[0].mass_drift:.3e} (tol {_tol(drift_tol)})"),
    ]
    if n_hi > n:
        gap = max(r.oracle_gap for r in passes[n_hi])
        drift = max(r.mass_drift for r in passes[n_hi])
        growth = max((r.range_growth for r in passes[n_hi] if r.range_growth is not None),
                     default=0.0)
        rules.append(CheckResult(
            "transport.cross_check_at_n_hi",
            gap <= HI_ORACLE_GAP_TOL and drift <= drift_tol
            and growth <= experiments.MAX_PRINCIPLE_TOL,
            f"max |spectral - oracle| = {gap:.2e}@n={n_hi} (tol {_tol(HI_ORACLE_GAP_TOL)}), "
            f"relative mass drift {drift:.3e} (tol {_tol(drift_tol)}), interpolant range "
            f"growth {growth:.3e} (tol {_tol(experiments.MAX_PRINCIPLE_TOL)})"))
    else:
        rules.append(CheckResult("transport.cross_check_at_n_hi", True,
                                 f"no pass at n_hi={n_hi}, which is not above n"))
    div_free = sum(r.range_growth is not None for r in runs)
    rules.append(CheckResult("transport.divergence_free_run", div_free > 0,
                             f"{div_free} of {len(runs)} catalog runs divergence-free"))
    return _driver_rules("transport-lab", rules)


def check_acoustic_decay_trend(study: experiments.SweepStudy) -> CheckResult:
    report, free = experiments.evaluate_acoustic_decay(study)
    return _driver_rules("acoustic-decay-trend",
                         experiments.acoustic_decay_rules(report, free, study.ledgers))


def check_incompressible_limit_trend(study: experiments.SweepStudy) -> CheckResult:
    report, _ = experiments.evaluate_incompressible_limit(study)
    return _driver_rules("incompressible-limit-trend",
                         experiments.incompressible_limit_rules(report))


def check_vorticity_control(study: experiments.SweepStudy) -> CheckResult:
    worst_sweep = 0.0
    for led in study.ledgers.values():
        w = led.column("omega_linf")
        worst_sweep = max(worst_sweep, float(np.max(np.abs(w - w[0]))) / w[0])
    _, led_ref, _ = experiments.reference_incompressible(
        with_overrides(study.config, max_dt=REFERENCE_MAX_DT), study.initial_states,
        REFERENCE_T, [])
    w = led_ref.column("omega_linf")
    ref_drift = float(np.max(np.abs(w - w[0]))) / w[0]
    energy = led_ref.column("v_l2") ** 2
    energy_drift = float(np.max(np.abs(energy - energy[0]))) / energy[0]
    passed = worst_sweep <= 0.05 and ref_drift <= 0.005 and energy_drift <= 1e-6
    detail = (f"sweep vorticity sup drift {worst_sweep:.4f} (tol 0.05); reference over "
              f"T={REFERENCE_T:g}: vorticity drift {ref_drift:.5f} (tol 0.005), "
              f"energy drift {energy_drift:.2e} (tol 1e-6)")
    return CheckResult("vorticity-control", passed, detail)


def check_lifespan_bookkeeping(study: experiments.SweepStudy) -> CheckResult:
    cfg = with_overrides(study.config, eps=LIFESPAN_EPS, amplitude=8.0 * study.config.amplitude)
    return _driver_rules("lifespan-bookkeeping", experiments.lifespan_rules(
        experiments.measure_lifespans(cfg), cfg.t_cap))


def check_determinism(study: experiments.SweepStudy) -> CheckResult:
    base = with_overrides(
        ExperimentConfig(), experiment="acoustic-decay", n=64,
        box_length=study.config.box_length, eps=(0.2, 0.1, 0.05), t_final=0.3,
        amplitude=study.config.amplitude, seed=study.config.seed, max_dt=0.05,
        snapshots=2, threads=2,
    )
    with tempfile.TemporaryDirectory(prefix="machlab-det-") as first, \
            tempfile.TemporaryDirectory(prefix="machlab-det-") as second:
        for d in (first, second):
            experiments.run_experiment(with_overrides(base, out=d))
        names = sorted(os.listdir(first))
        other = sorted(os.listdir(second))
        if names != other:
            return CheckResult("determinism", False,
                               f"artifact sets differ: {names} vs {other}")
        match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    passed = not mismatch and not errors
    detail = (f"{len(match)} artifacts bit-identical across repeated runs"
              if passed else f"differing artifacts: {mismatch or errors}")
    return CheckResult("determinism", passed, detail)


_CHECKS = (
    check_spectral_substrate,
    check_dyadic_partition,
    check_weighted_norms,
    check_linear_acoustics,
    check_splitting_order,
    check_transport_lab,
    check_acoustic_decay_trend,
    check_incompressible_limit_trend,
    check_vorticity_control,
    check_lifespan_bookkeeping,
    check_determinism,
)


def run_all(config: ExperimentConfig = ExperimentConfig(experiment="selftest"),
            ) -> list[CheckResult]:
    study = experiments.SweepStudy(config, experiments.snapshot_times(config))
    return [fn(study) for fn in _CHECKS]
