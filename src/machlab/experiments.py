"""Experiment drivers: turn one config into runs, checks, and artifacts.

Each driver writes, under the output directory:

* ``config.resolved``    canonical dump of the effective configuration
* ``summary.txt``        one PASS/FAIL line per check, naming the operation
                         and any fitted constant
* per-run ledgers as CSV, plus experiment-specific CSV tables and MLF1
  snapshots

and returns (passed, lines). A driver that ``acceptance`` also checks is an
evaluator (``evaluate_*``), which returns numbers, and a writer, which turns
them into summary lines and artifacts; the acceptance checks call the same
evaluators. Runs across an eps sweep may execute on a thread pool; results
are keyed by eps and written in sorted order, so output bytes do not depend
on the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import acoustic, asymptotics, compressible, incompressible, spectral, transport
from . import littlewood_paley as lp
from .config import ExperimentConfig, canonical_dump, config_hash
from .fitting import nondecreasing
from .initial_data import make_initial_data, periodized_bump
from .ledger import RunLedger
from .spectral import FlowState, Grid


def _eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def initial_states(config: ExperimentConfig, grid: Grid) -> dict[float, FlowState]:
    """The initial state of every eps in the sweep, in config order, each
    built once and shared by the profile fit, the sweep and the reference."""
    return {e: make_initial_data(config.data, grid, e, config.amplitude, config.seed,
                                 config.gamma_bar)
            for e in config.eps}


def build_profile(config: ExperimentConfig, states: dict[float, FlowState]) -> lp.BesovProfile:
    """The weight profile: named closed form, or fitted to the initial data
    family (joint velocity and sound speed components, worst case over eps)."""
    if config.profile != "from-data":
        return lp.named_profile(config.profile)
    return lp.find_profile(list(states.values()), 2.0, 2.0)


class SweepBlowup(RuntimeError):
    """At least one sweep member blew up. ``blowups`` maps each such eps to
    its ``Blowup``; ``ledgers`` holds every member's ledger, partial ones
    included."""

    def __init__(self, ledgers: dict[float, RunLedger],
                 blowups: dict[float, compressible.Blowup]):
        first = max(blowups)
        super().__init__(f"eps={first:g}: {blowups[first]}")
        self.ledgers = ledgers
        self.blowups = blowups


def run_sweep(config: ExperimentConfig, states: dict[float, FlowState],
              snapshot_times: Optional[list[float]] = None,
              ) -> dict[float, tuple[RunLedger, dict[float, FlowState]]]:
    """One compressible run per eps from ``states``, shared stepper.

    Every member runs to its end; if any blew up, raises ``SweepBlowup``.
    """
    stepper = compressible.StepperConfig(cfl=config.cfl, max_dt=config.max_dt)
    chash = config_hash(config)

    def one(eps: float):
        try:
            _, ledger, snaps = compressible.run(
                states[eps], config.t_final, stepper, snapshot_times=snapshot_times,
                run_id=f"eps={eps:g}", config_hash=chash,
            )
        except compressible.Blowup as blow:
            return blow
        return ledger, snaps

    eps_list = sorted(config.eps, reverse=True)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = dict(zip(eps_list, pool.map(one, eps_list)))
    else:
        results = {e: one(e) for e in eps_list}
    blowups = {e: r for e, r in results.items() if isinstance(r, compressible.Blowup)}
    if blowups:
        raise SweepBlowup({e: r.ledger if e in blowups else r[0] for e, r in results.items()},
                          blowups)
    return results


def measure_lifespans(config: ExperimentConfig) -> dict[float, tuple[float, bool]]:
    """The numerical lifespan proxy of the initial state of every eps.

    Each state runs to ``config.t_cap`` with the gradient threshold at
    ``config.blowup_factor`` times its initial Jacobian sup (floored at 1e-12,
    so a state with no gradient does not trip at step 0). Returns eps ->
    (t_num, censored): the blowup time, or the cap when no blowup came.
    """
    out = {}
    for e, state in initial_states(config, Grid(config.n, config.box_length)).items():
        g0 = spectral.jacobian_sup(state.v)
        stepper = compressible.StepperConfig(
            cfl=config.cfl, max_dt=config.max_dt,
            blowup_grad_linf=config.blowup_factor * max(g0, 1e-12),
        )
        try:
            compressible.run(state, config.t_cap, stepper, run_id=f"lifespan eps={e:g}")
            out[e] = (config.t_cap, True)
        except compressible.Blowup as blow:
            out[e] = (blow.time, False)
    return out


def lifespan_rules(lifespans: dict[float, tuple[float, bool]]) -> tuple[list[float], bool, bool]:
    """The pass rules on ``measure_lifespans`` output: the measured lifespans
    by descending eps, whether they are nondecreasing (to 1e-12), and whether
    the largest eps blew up before the cap."""
    eps_desc = sorted(lifespans, reverse=True)
    t_nums = [lifespans[e][0] for e in eps_desc]
    return t_nums, nondecreasing(t_nums, tol=1e-12), not lifespans[eps_desc[0]][1]


def gaussian_bump_complex(grid: Grid) -> acoustic.ComplexField:
    """Localized real bump of width L/20 as a complex field, mean-free and
    normalized to unit L^2 norm; the standard probe for free-propagation decay."""
    L = grid.box_length
    bump = periodized_bump(grid, (0.5 * L, 0.5 * L), L / 20.0)
    f = spectral.dealias(spectral.fft_forward(grid, bump))
    f.modes[0, 0] = 0.0
    return acoustic.ComplexField(grid, np.stack([f.modes, np.zeros_like(f.modes)])
                                 / spectral.l2_norm(f))


def free_wave_normalized(grid: Grid, eps_list, p: float = math.inf,
                         ) -> tuple[float, dict[float, tuple[float, float, bool]]]:
    """measure_strichartz over an eps sweep on the shared Gaussian probe.

    Returns (window, eps -> (value, value / eps**decay, window_ok)); all
    measurements use the common wraparound window of the smallest eps so
    values are comparable.
    """
    eps_list = sorted(eps_list, reverse=True)
    window = 0.99 * acoustic.wraparound_window(grid.box_length, min(eps_list))
    probe = gaussian_bump_complex(grid)
    _, decay = acoustic.strichartz_exponents(p)
    out = {}
    for e in eps_list:
        val = acoustic.measure_strichartz(probe, e, window, p)
        ok = window < acoustic.wraparound_window(grid.box_length, e)
        out[e] = (val, val / e**decay if decay > 0 else val, ok)
    return window, out


def reference_incompressible(config: ExperimentConfig, states: dict[float, FlowState],
                             t_final: float, snapshot_times: list[float]):
    """Limit dynamics: project the shared initial velocity and evolve its
    vorticity. The vortical part of every catalog member is eps-independent,
    so one reference, from the largest eps's state, serves the whole sweep."""
    v0 = spectral.leray_p(states[max(states)].v)
    omega0 = spectral.curl2d(v0)
    return incompressible.run_incompressible(
        omega0, t_final, cfl=config.cfl, max_dt=config.max_dt,
        snapshot_times=snapshot_times, run_id="reference", config_hash=config_hash(config),
    )


def limit_error_series(sweep, ref_snapshots, times):
    """Per-eps series of || P v_eps(t) - v_ref(t) || in L^2 and B^2."""
    l2_series: dict[float, np.ndarray] = {}
    b2_series: dict[float, np.ndarray] = {}
    init_gap: dict[float, float] = {}
    for e, (_, snaps) in sweep.items():
        l2_vals, b2_vals = [], []
        for t in times:
            pv = spectral.leray_p(snaps[t].v)
            diff = spectral.sub(pv, incompressible.velocity_from_vorticity(ref_snapshots[t]))
            l2_vals.append(spectral.l2_norm(diff))
            b2_vals.append(lp.besov_norm(diff, 2.0, 2.0))
        l2_series[e] = np.asarray(l2_vals)
        b2_series[e] = np.asarray(b2_vals)
        init_gap[e] = float(l2_vals[0])
    return l2_series, b2_series, init_gap


def transport_catalog(box_length: float):
    """(calibration velocity, holdout velocities). The calibration member is
    strongly compressible; holdouts cover a lone compressible mode, a mixed
    superposition, an oblique mode, and a purely divergence-free shear."""
    cal = transport.superpose([
        transport.shear_velocity(0.8, 2, 1.0, box_length),
        transport.compressible_mode(0.8, (3, 1), 2.0, box_length),
    ])
    holdouts = [
        transport.compressible_mode(1.0, (2, 2), 1.5, box_length, phase=0.7),
        transport.superpose([
            transport.shear_velocity(1.2, 3, 0.7, box_length),
            transport.compressible_mode(0.5, (1, 4), 2.5, box_length),
        ]),
        transport.compressible_mode(0.6, (5, 2), 3.0, box_length),
        transport.shear_velocity(1.0, 1, 0.9, box_length),
    ]
    return cal, holdouts


def transport_initial_density(grid: Grid, seed: int = 0) -> spectral.SpectralScalarField:
    """A smooth positive localized density with O(1) block-sum norm."""
    rng = np.random.default_rng(seed)
    L = grid.box_length
    out = np.full((grid.n, grid.n), 0.2)
    for _ in range(3):
        cx, cy = rng.uniform(0.25 * L, 0.75 * L, size=2)
        sigma = L / rng.uniform(12.0, 20.0)
        out = out + rng.uniform(0.5, 1.0) * periodized_bump(grid, (cx, cy), sigma)
    return spectral.dealias(spectral.fft_forward(grid, out))


# ---------------------------------------------------------------------------
# evaluators


def snapshot_times(config: ExperimentConfig) -> list[float]:
    """``config.snapshots`` equally spaced times over [0, t_final]."""
    return [round(float(t), 12) for t in np.linspace(0.0, config.t_final, config.snapshots)]


class SweepStudy:
    """What the checks on one eps sweep share, each part computed on first
    use: the initial states, the weight profile and its lifespan model, the
    compressible sweep and the incompressible reference, both stored at
    ``times``."""

    def __init__(self, config: ExperimentConfig, times: Sequence[float] = ()):
        self.config = config
        self.times = list(times)

    @cached_property
    def grid(self) -> Grid:
        return Grid(self.config.n, self.config.box_length)

    @cached_property
    def initial_states(self) -> dict[float, FlowState]:
        return initial_states(self.config, self.grid)

    @cached_property
    def profile(self) -> lp.BesovProfile:
        return build_profile(self.config, self.initial_states)

    @cached_property
    def model(self) -> asymptotics.LifespanModel:
        return asymptotics.LifespanModel(self.profile, c0=self.config.c0)

    @cached_property
    def sweep(self) -> dict[float, tuple[RunLedger, dict[float, FlowState]]]:
        return run_sweep(self.config, self.initial_states, self.times)

    @cached_property
    def ledgers(self) -> dict[float, RunLedger]:
        return {e: self.sweep[e][0] for e in self.sweep}

    @cached_property
    def reference(self):
        return reference_incompressible(self.config, self.initial_states, self.config.t_final,
                                        self.times)


def free_wave_spread(free: dict[float, tuple[float, float, bool]]) -> float:
    """Largest over smallest normalized value of a ``free_wave_normalized`` sweep."""
    normalized = [v[1] for v in free.values()]
    return max(normalized) / min(normalized)


def evaluate_acoustic_decay(study: SweepStudy) -> tuple[asymptotics.AcousticDecayReport,
                                                        dict[float, tuple[float, float, bool]]]:
    """The sweep's windowed decay report, and the free-wave probe at p = inf
    over the same eps."""
    return (asymptotics.check_acoustic_decay(study.ledgers, study.model, study.grid.box_length),
            free_wave_normalized(study.grid, study.config.eps)[1])


def evaluate_incompressible_limit(study: SweepStudy) -> tuple[
        asymptotics.IncompressibleLimitReport, dict[float, np.ndarray]]:
    """The limit report over the study's times, and its per-eps L^2 gap series."""
    # the sweep runs first: its pool threads' scratch is freed before the
    # reference, on this thread, allocates this thread's scratch
    l2s, b2s, gaps = limit_error_series(study.sweep, study.reference[2], study.times)
    return (asymptotics.check_incompressible_limit(study.times, l2s, b2s, gaps, study.model),
            l2s)


@dataclass(frozen=True)
class TransportRun:
    """One catalog velocity's spectral solve, measured against the oracle.
    ``range_growth`` is the growth of the interpolant range over the initial
    range, measured only for a divergence-free velocity (else None)."""

    ledger: RunLedger
    oracle_gap: float
    mass_drift: float
    range_growth: Optional[float]


def evaluate_transport_velocity(f0: spectral.SpectralScalarField,
                                vel: transport.SyntheticVelocity, t_final: float,
                                cfl: float, max_dt: float) -> TransportRun:
    fT, led = transport.solve_transport_spectral(f0, vel, t_final, cfl=cfl, max_dt=max_dt)
    mass = led.column("f_mass")
    growth = None
    if float(np.max(led.column("div_v_linf"))) < 1e-12:
        # range may only shrink under divergence-free transport; the
        # grid-sample sup moves by O(h^2) as peaks drift off-grid, so
        # compare interpolant extrema instead
        lo0, hi0 = spectral.refined_extrema(f0)
        lo1, hi1 = spectral.refined_extrema(fT)
        growth = max(hi1 - hi0, lo0 - lo1, 0.0) / (hi0 - lo0)
    # the oracle runs after the upsampled extrema: run before them, the heap it frees
    # was still held while they allocated (transport-log peak RSS 9 % higher at n = 256)
    oracle = transport.solve_transport_oracle(f0, vel, t_final,
                                              substeps=4 * max(1, len(led) - 1))
    return TransportRun(led, float(np.max(np.abs(fT.values() - oracle))),
                        float(np.max(np.abs(mass - mass[0]))) / max(abs(mass[0]), 1e-300),
                        growth)


# ---------------------------------------------------------------------------
# drivers


class _Summary:
    def __init__(self):
        self.lines: list[str] = []
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        self.lines.append(f"{tag} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            self.failed += 1

    def note(self, text: str) -> None:
        self.lines.append(f"note {text}")

    @property
    def passed(self) -> bool:
        return self.failed == 0


def _write_summary(out_dir: str, config: ExperimentConfig, summary: _Summary) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        fh.write(canonical_dump(config))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"machlab summary v1 config={config_hash(config)}\n")
        for line in summary.lines:
            fh.write(line + "\n")
        fh.write(f"RESULT {'PASS' if summary.passed else 'FAIL'}\n")


def _write_ledgers(out_dir: str, ledgers: dict[float, RunLedger]) -> None:
    for e in sorted(ledgers, reverse=True):
        ledgers[e].to_csv(os.path.join(out_dir, f"ledger_eps_{_eps_tag(e)}.csv"))


def _write_blowup(config: ExperimentConfig, blow: SweepBlowup) -> None:
    """The artifacts of a sweep that blew up: every member's ledger, partial
    or not, and a summary with one FAIL line per blown-up member."""
    summary = _Summary()
    for e in sorted(blow.blowups, reverse=True):
        b = blow.blowups[e]
        summary.check(f"run.no_blowup[eps={e:g}]", False,
                      f"blew up at t={_fmt(b.time)}, step {b.step}, column {b.column}: "
                      f"{b.reason}")
    os.makedirs(config.out, exist_ok=True)
    _write_ledgers(config.out, blow.ledgers)
    _write_summary(config.out, config, summary)


def _write_plot(path: str, x_name: str, y_name: str, xs, ys) -> None:
    """Two-column CSV, one curve per file, ready for any plotting tool."""
    with open(path, "w") as fh:
        fh.write(f"{x_name},{y_name}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x:.17g},{y:.17g}\n")


def drive_acoustic_decay(config: ExperimentConfig) -> tuple[bool, list[str]]:
    study = SweepStudy(config)
    report, free = evaluate_acoustic_decay(study)
    spread, ledgers = free_wave_spread(free), study.ledgers
    summary = _Summary()
    summary.note(
        "block norms are inhomogeneous (low block included); decay measured on "
        f"window [0, {_fmt(report.window)}] before torus wraparound"
    )
    summary.check("acoustic_decay.l1_monotone", report.a1_decreasing,
                  "L1-in-time sup of (div v, grad c) per eps: "
                  + ", ".join(_fmt(v) for v in report.a1))
    summary.check("acoustic_decay.l4_monotone", report.a4_decreasing,
                  "L4-in-time sup of (Qv, c) per eps: "
                  + ", ".join(_fmt(v) for v in report.a4))
    summary.note(f"phi-power bound on blocksum norm (advisory): "
                 f"{'holds' if report.phi_bound_b1 else 'violated'} with "
                 f"C0={_fmt(report.c0_b1)} fitted at eps={report.eps[0]:g}")
    summary.note(f"phi-power bound on L4 norm (advisory): "
                 f"{'holds' if report.phi_bound_a4 else 'violated'} with "
                 f"C0={_fmt(report.c0_a4)} fitted at eps={report.eps[0]:g}")
    summary.note(f"fitted decay exponent against the weight: eta={_fmt(report.eta_fit)}")
    summary.check("acoustic_decay.l4_scaling_spread",
                  report.a4_normalized_spread <= 4.0,
                  f"L4 values normalized by eps^(1/4) spread by "
                  f"x{_fmt(report.a4_normalized_spread)} (tolerance x4)")
    summary.check("strichartz.free_wave_scaling", spread <= 2.0,
                  f"normalized values spread by x{_fmt(spread)} (tolerance x2)")
    for e in sorted(ledgers, reverse=True):
        rep = asymptotics.check_energy_growth(ledgers[e])
        summary.check(f"energy.l2_growth[eps={e:g}]", rep.l2_ok,
                      f"fitted C={_fmt(rep.c_l2)} (must be <= 2)")
    out = config.out
    os.makedirs(out, exist_ok=True)
    _write_ledgers(out, ledgers)
    with open(os.path.join(out, "acoustic_decay.csv"), "w") as fh:
        fh.write("eps,a1_window,a4_window,blocksum_window,phi,free_wave,free_wave_normalized\n")
        for i, e in enumerate(report.eps):
            fh.write(f"{e:.17g},{report.a1[i]:.17g},{report.a4[i]:.17g},"
                     f"{report.b1[i]:.17g},{report.phi[i]:.17g},"
                     f"{free[e][0]:.17g},{free[e][1]:.17g}\n")
    _write_plot(os.path.join(out, "plot_l1_budget_vs_eps.csv"), "eps", "l1_budget",
                report.eps, report.a1)
    _write_plot(os.path.join(out, "plot_l4_budget_vs_eps.csv"), "eps", "l4_budget",
                report.eps, report.a4)
    _write_plot(os.path.join(out, "plot_blocksum_vs_phi.csv"), "phi", "blocksum_budget",
                report.phi, report.b1)
    study.profile.serialize(os.path.join(out, "profile.txt"))
    _write_summary(out, config, summary)
    return summary.passed, summary.lines


def drive_incompressible_limit(config: ExperimentConfig) -> tuple[bool, list[str]]:
    study = SweepStudy(config, snapshot_times(config))
    report, l2s = evaluate_incompressible_limit(study)
    times, sweep, grid = study.times, study.sweep, study.grid
    _, ref_ledger, ref_snaps = study.reference
    summary = _Summary()
    summary.check("incompressible_limit.l2_monotone", report.l2_decreasing,
                  "sup_t ||P v_eps - v||_L2 per eps: "
                  + ", ".join(_fmt(v) for v in report.sup_l2))
    summary.check("incompressible_limit.b2_monotone", report.b2_decreasing,
                  "sup_t ||P v_eps - v||_B2 per eps: "
                  + ", ".join(_fmt(v) for v in report.sup_b2))
    summary.check("incompressible_limit.contraction",
                  report.smallest_over_largest <= 0.25,
                  f"smallest/largest = {_fmt(report.smallest_over_largest)} (tolerance 0.25)")
    summary.check("incompressible_limit.rate_bound", report.rate_bound_holds,
                  f"double-exponential rate bound with C0={_fmt(report.c0_rate)} "
                  f"fitted at eps={report.eps[0]:g}")
    out = config.out
    os.makedirs(out, exist_ok=True)
    _write_ledgers(out, study.ledgers)
    ref_ledger.to_csv(os.path.join(out, "ledger_reference.csv"))
    with open(os.path.join(out, "incompressible_limit.csv"), "w") as fh:
        fh.write("eps," + ",".join(f"l2_t{_fmt(t)}" for t in times) + "\n")
        for e in report.eps:
            fh.write(f"{e:.17g}," + ",".join(f"{v:.17g}" for v in l2s[e]) + "\n")
    _write_plot(os.path.join(out, "plot_sup_gap_vs_eps.csv"), "eps", "sup_l2_gap",
                report.eps, report.sup_l2)
    t_last = times[-1]
    for e in report.eps:
        st = sweep[e][1][t_last]
        spectral.write_snapshot(
            os.path.join(out, f"snap_eps_{_eps_tag(e)}_final.mlf"), grid,
            [st.v.ux, st.v.uy, st.c],
        )
    vref = incompressible.velocity_from_vorticity(ref_snaps[t_last])
    spectral.write_snapshot(os.path.join(out, "snap_reference_final.mlf"), grid,
                            [vref.ux, vref.uy])
    _write_summary(out, config, summary)
    return summary.passed, summary.lines


def drive_transport_log(config: ExperimentConfig) -> tuple[bool, list[str]]:
    grid = Grid(config.n, config.box_length)
    f0 = transport_initial_density(grid, config.seed)
    cal_vel, holdouts = transport_catalog(grid.box_length)
    t_final = config.t_final
    summary = _Summary()
    _, cal_ledger = transport.solve_transport_spectral(
        f0, cal_vel, t_final, cfl=config.cfl, max_dt=config.max_dt,
        run_id="calibration", config_hash=config_hash(config))
    c_fit = transport.fit_log_constant(cal_ledger)
    summary.note(f"growth-bound constant fitted on {cal_vel.name}: C={_fmt(c_fit)} "
                 "(smallest passing, x2 headroom)")
    interp_cal = asymptotics.interpolation_ratio(cal_ledger)
    results = []
    scale = max(1.0, float(np.max(np.abs(f0.values()))))
    for i, vel in enumerate(holdouts):
        run = evaluate_transport_velocity(f0, vel, t_final, config.cfl, config.max_dt)
        rep = transport.evaluate_log_estimate(run.ledger, c_fit)
        results.append((vel.name, rep, run))
        extra = " (divergence-free reduction)" if rep.div_free else ""
        summary.check(f"transport.log_estimate[{i}]", rep.passed,
                      f"max LHS/RHS = {_fmt(rep.max_ratio)} on {vel.name}{extra}")
        summary.check(f"transport.oracle_agreement[{i}]", run.oracle_gap / scale <= 1e-3,
                      f"max |spectral - oracle| = {_fmt(run.oracle_gap)} on {vel.name}")
        summary.check(f"transport.mass_conservation[{i}]", run.mass_drift <= 1e-8,
                      f"relative mass drift {run.mass_drift:.3e}")
        if run.range_growth is not None:
            summary.check(f"transport.max_principle[{i}]", run.range_growth <= 1e-6,
                          f"interpolant range grew by {run.range_growth:.3e} of the "
                          f"initial range on {vel.name}")
        ratio = asymptotics.interpolation_ratio(run.ledger)
        if math.isfinite(ratio) and ratio > 0:
            summary.check(f"transport.interpolation[{i}]", ratio <= 2.0 * max(interp_cal, 1e-12),
                          f"interpolation ratio {_fmt(ratio)} vs calibration {_fmt(interp_cal)}")
    out = config.out
    os.makedirs(out, exist_ok=True)
    cal_ledger.to_csv(os.path.join(out, "ledger_transport_calibration.csv"))
    with open(os.path.join(out, "transport_compare.csv"), "w") as fh:
        fh.write("velocity,log_ratio,oracle_diff,mass_drift\n")
        for name, rep, run in results:
            fh.write(f"\"{name}\",{rep.max_ratio:.17g},{run.oracle_gap:.17g},"
                     f"{run.mass_drift:.17g}\n")
    for i, (_, rep, _) in enumerate(results):
        _write_plot(os.path.join(out, f"plot_growth_ratio_holdout{i}.csv"),
                    "t", "lhs_over_bound", rep.times, rep.ratios)
    _write_summary(out, config, summary)
    return summary.passed, summary.lines


def drive_strichartz_sweep(config: ExperimentConfig) -> tuple[bool, list[str]]:
    grid = Grid(config.n, config.box_length)
    window, free = free_wave_normalized(grid, config.eps, p=config.p_space)
    r, decay = acoustic.strichartz_exponents(config.p_space)
    summary = _Summary()
    summary.note("free half-wave propagator on the inhomogeneous torus; "
                 "decay exponents quoted from the homogeneous-space scaling")
    spread = free_wave_spread(free)
    summary.check("strichartz.free_wave_scaling", spread <= 2.0,
                  f"p={config.p_space:g}, r={r:g}: normalized spread x{_fmt(spread)}")
    out = config.out
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "strichartz.csv"), "w") as fh:
        fh.write("eps,p,r,decay_exponent,window,value,normalized,window_ok\n")
        for e in sorted(free, reverse=True):
            val, norm, ok = free[e]
            fh.write(f"{e:.17g},{config.p_space:g},{r:g},{decay:.17g},"
                     f"{window:.17g},{val:.17g},{norm:.17g},{int(ok)}\n")
    eps_desc = sorted(free, reverse=True)
    _write_plot(os.path.join(out, "plot_mixed_norm_vs_eps.csv"), "eps", "mixed_norm",
                eps_desc, [free[e][0] for e in eps_desc])
    _write_summary(out, config, summary)
    return summary.passed, summary.lines


def drive_lifespan_table(config: ExperimentConfig) -> tuple[bool, list[str]]:
    eps_desc = sorted(config.eps, reverse=True)
    lifespans = measure_lifespans(config)
    t_nums, t_num_ok, blew_up = lifespan_rules(lifespans)
    preds = {}
    for tag in ("exp:1", "power:2"):
        model = asymptotics.LifespanModel(lp.named_profile(tag), c0=config.c0)
        preds[tag] = [asymptotics.lifespan_prediction(model, e) for e in eps_desc]
    summary = _Summary()
    summary.check("lifespan.t_num_nondecreasing", t_num_ok,
                  "measured lifespan proxies per eps (descending): "
                  + ", ".join(_fmt(t) for t in t_nums))
    if blew_up:
        blow_detail = (f"eps={eps_desc[0]:g} crossed the gradient threshold at "
                       f"t={_fmt(t_nums[0])} (cap {config.t_cap:g})")
    else:
        blow_detail = (f"eps={eps_desc[0]:g} stayed below the gradient threshold up to "
                       f"the cap {config.t_cap:g}")
    summary.check("lifespan.blowup_at_largest_eps", blew_up, blow_detail)
    for tag, est in preds.items():
        t_psi = [p.t_psi for p in est]
        summary.check(f"lifespan.model_monotone[{tag}]", nondecreasing(t_psi, tol=1e-12),
                      "predicted T(eps): " + ", ".join(_fmt(p) for p in t_psi))
    out = config.out
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "lifespan.csv"), "w") as fh:
        fh.write("eps,t_num,censored,t_psi_exp1,t_phi_exp1,t_psi_power2,t_phi_power2\n")
        for e, t, p1, p2 in zip(eps_desc, t_nums, preds["exp:1"], preds["power:2"]):
            fh.write(f"{e:.17g},{t:.17g},{int(lifespans[e][1])},{p1.t_psi:.17g},"
                     f"{p1.t_phi:.17g},{p2.t_psi:.17g},{p2.t_phi:.17g}\n")
    _write_plot(os.path.join(out, "plot_lifespan_vs_eps.csv"), "eps", "t_num", eps_desc, t_nums)
    _write_summary(out, config, summary)
    return summary.passed, summary.lines


def drive_selftest(config: ExperimentConfig) -> tuple[bool, list[str]]:
    from . import acceptance

    results = acceptance.run_all(config, out_dir=config.out)
    summary = _Summary()
    for res in results:
        summary.check(res.name, res.passed, res.detail)
    _write_summary(config.out, config, summary)
    return summary.passed, summary.lines


_DRIVERS = {
    "acoustic-decay": drive_acoustic_decay,
    "incompressible-limit": drive_incompressible_limit,
    "transport-log": drive_transport_log,
    "strichartz-sweep": drive_strichartz_sweep,
    "lifespan-table": drive_lifespan_table,
    "selftest": drive_selftest,
}


def run_experiment(config: ExperimentConfig) -> tuple[bool, list[str]]:
    """Run one driver. A sweep blowup first leaves its partial artifacts in
    ``config.out``, then propagates."""
    driver = _DRIVERS.get(config.experiment)
    if driver is None:
        raise ValueError(f"no driver for experiment {config.experiment!r}")
    try:
        return driver(config)
    except SweepBlowup as blow:
        _write_blowup(config, blow)
        raise
