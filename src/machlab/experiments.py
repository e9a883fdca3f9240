"""Experiment drivers: turn one config into runs, checks, and artifacts.

``run_experiment`` writes ``config.resolved`` (the canonical dump of the
effective configuration) before the driver runs and ``summary.txt`` (one
PASS/FAIL line per check, naming the operation and any fitted constant)
after it, also after a sweep blowup or a run that stops short of its end,
with every sweep member's ledger, partial ones included, or the stopped
lifespan run's.
The driver adds its summary lines and writes its own artifacts: ledgers,
CSV tables through one writer, and MLF1 snapshots.

A driver that ``acceptance`` also checks is an evaluator (``evaluate_*``),
which returns numbers, a rule function (``*_rules``), which turns the numbers
into the driver's summary lines as ``CheckResult``s and holds every
tolerance they read, and a writer. The acceptance checks call the same
evaluators and rule functions. Each list of independent solves
(sweep members, lifespan runs, free-wave phases, transport holdouts, and
acceptance's linear-acoustics, splitting-order and transport-catalog runs)
runs through ``map_solves`` on ``config.threads`` threads. Results come back
in input order, so output bytes do not depend on the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import acoustic, asymptotics, compressible, incompressible, spectral, transport
from . import littlewood_paley as lp
from .config import ExperimentConfig, canonical_dump, config_hash
from .fitting import strictly_decreasing
from .initial_data import make_initial_data, periodized_bump
from .ledger import RunLedger, mixed_time_norm
from .spectral import Field, FlowState, Grid


def _eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmts(values) -> str:
    return ", ".join(map(_fmt, values))


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


def map_solves(threads: int, solve, items) -> list:
    """``solve`` of each of ``items``, in input order: on the calling thread
    when ``threads`` is 1, else on a pool of ``threads`` threads. The solves
    must not depend on each other; each thread works in its own
    ``spectral.scratch``."""
    if threads == 1:
        return [solve(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(solve, items))


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


class SweepRun(NamedTuple):
    """One sweep member's run: its ledger, its state at t_final when snapshot
    times were asked for (else None), and its snapshots, each reduced as the
    run passed it (``capture`` of ``run_sweep``)."""

    ledger: RunLedger
    final: Optional[FlowState]
    snapshots: dict


def run_sweep(config: ExperimentConfig, states: dict[float, FlowState],
              snapshot_times: Sequence[float] = (), capture=spectral.keep_state,
              ) -> dict[float, SweepRun]:
    """One compressible run per eps from ``states``, shared stepper, on up to
    ``config.threads`` pool threads, keyed by eps in descending order.

    Each member applies ``capture(state, t)`` at each of ``snapshot_times``
    as its run passes it, in its own thread, and keeps only what that
    returns, and its state at t_final (see ``SweepRun``). Every member runs
    to its end or its stop. If any stopped short (``spectral.StoppedShort``),
    re-raises the stop of the largest such eps with every member's ledger
    attached (``ledgers``); else, if any blew up, raises ``SweepBlowup``.
    """
    stepper = compressible.StepperConfig(cfl=config.cfl, max_dt=config.max_dt)

    def one(eps: float):
        try:
            final, ledger, snaps = compressible.run(states[eps], config.t_final, stepper,
                                                    snapshot_times=snapshot_times,
                                                    capture=capture)
        except spectral.RunEnded as end:  # a Blowup or a StoppedShort
            return end
        return SweepRun(ledger, final if snapshot_times else None, snaps)

    eps_list = sorted(config.eps, reverse=True)
    results = dict(zip(eps_list, map_solves(config.threads, one, eps_list)))
    ledgers = {e: r.ledger for e, r in results.items()}
    stops = [r for r in results.values() if isinstance(r, spectral.StoppedShort)]
    if stops:
        stops[0].ledgers = ledgers
        raise stops[0]
    blowups = {e: r for e, r in results.items() if isinstance(r, compressible.Blowup)}
    if blowups:
        raise SweepBlowup(ledgers, blowups)
    return results


def measure_lifespans(config: ExperimentConfig) -> dict[float, tuple[float, bool]]:
    """The numerical lifespan proxy of the initial state of every eps.

    Each state runs to ``config.t_cap`` with the gradient threshold at
    ``config.blowup_factor`` times its initial Jacobian sup (floored at 1e-12,
    so a state with no gradient does not trip at step 0). Returns eps ->
    (t_num, censored): the blowup time, or the cap when no blowup came.
    Nothing here reads a ledger column, so each run keeps only the two
    blowup columns (``compressible.BLOWUP_MONITOR``), which trip at the same
    step as full monitor rows. A run that stops short
    (``spectral.StoppedShort``) propagates, with ``{eps: its ledger}``
    attached as ``ledgers``; the first such eps in config order is raised.
    """
    states = initial_states(config, Grid(config.n, config.box_length))

    def one(eps: float) -> tuple[float, bool]:
        state = states[eps]
        g0 = spectral.jacobian_sup(state.grid, state.modes[:2])  # full width, see ROADMAP item 18
        stepper = compressible.StepperConfig(
            cfl=config.cfl, max_dt=config.max_dt,
            blowup_grad_linf=config.blowup_factor * max(g0, 1e-12),
        )
        try:
            compressible.run(state, config.t_cap, stepper, monitor=compressible.BLOWUP_MONITOR)
        except compressible.Blowup as blow:
            return blow.time, False
        except spectral.StoppedShort as stop:
            stop.ledgers = {eps: stop.ledger}
            raise
        return config.t_cap, True

    return dict(zip(states, map_solves(config.threads, one, states)))


class CheckResult(NamedTuple):
    """One pass rule's verdict: a driver's summary line or an acceptance check."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}" + (
            f": {self.detail}" if self.detail else "")


def lifespan_rules(lifespans: dict[float, tuple[float, bool]], t_cap: float) -> list[CheckResult]:
    """The pass rules on ``measure_lifespans`` output: the lifespans grow
    (every run blew up before the cap ``t_cap``, so none is censored, and they
    strictly increase as eps falls), and the largest eps blew up before it."""
    eps_desc = sorted(lifespans, reverse=True)
    t_nums = [lifespans[e][0] for e in eps_desc]
    grows = (not any(censored for _, censored in lifespans.values())
             and strictly_decreasing(t_nums[::-1]))
    blew_up = not lifespans[eps_desc[0]][1]
    blow_detail = f"eps={eps_desc[0]:g} " + (
        f"crossed the gradient threshold at t={_fmt(t_nums[0])} (cap {t_cap:g})" if blew_up
        else f"stayed below the gradient threshold up to the cap {t_cap:g}")
    return [CheckResult("lifespan.t_num_increasing", grows,
                        f"measured lifespan proxies per eps (descending): {_fmts(t_nums)}"),
            CheckResult("lifespan.blowup_at_largest_eps", blew_up, blow_detail)]


def gaussian_bump_complex(grid: Grid) -> Field:
    """Localized real bump of width L/20 as a complex (re, im) field, mean-free
    and normalized to unit L^2 norm; the standard probe for free-propagation
    decay."""
    L = grid.box_length
    bump = periodized_bump(grid, (0.5 * L, 0.5 * L), L / 20.0)
    f = spectral.dealias(spectral.fft_forward(grid, bump))
    f.modes[0, 0] = 0.0
    return Field(grid, np.stack([f.modes, np.zeros_like(f.modes)]) / spectral.l2_norm(f))


def free_wave_normalized(grid: Grid, eps_list, threads: int, p: float = math.inf,
                         ) -> tuple[float, dict[float, tuple[float, float, bool]]]:
    """The mixed time-space norm of the free evolution of the shared Gaussian
    probe over an eps sweep: the L^r-in-time (r from ``strichartz_exponents``)
    of its L^p norm at the 64 ``acoustic.sample_times`` of the window.

    Returns (window, eps -> (value, value / eps**decay, window_ok)); all
    measurements use the common wraparound window of the smallest eps so
    values are comparable. The free evolution reads t and eps only through
    the phase scale t / eps, and the eps of a dyadic sweep share many of
    them, so each distinct scale over the sweep is evaluated once, the
    sorted scales split into ``threads`` contiguous parts, and every eps
    reads its series from that table: the values are those of one
    ``acoustic.free_wave_norms`` call per eps bit for bit.
    """
    eps_list = sorted(eps_list, reverse=True)
    window = 0.99 * acoustic.wraparound_window(grid.box_length, min(eps_list))
    probe = gaussian_bump_complex(grid)
    r, decay = acoustic.strichartz_exponents(p)
    times = acoustic.sample_times(window)
    phases = {e: times / e for e in eps_list}
    # sort and mask as the grid's |k| levels; the first np.unique imports numpy.ma (+1 MB RSS)
    flat = np.sort(np.concatenate(list(phases.values())))
    scales = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    parts = np.array_split(scales, threads)
    norms = np.concatenate(map_solves(threads, lambda s: acoustic.free_wave_norms(probe, s, p),
                                      parts))
    free = {}
    for e in eps_list:
        val = mixed_time_norm(times, norms[np.searchsorted(scales, phases[e])], r)
        ok = window < acoustic.wraparound_window(grid.box_length, e)
        free[e] = val, val / e**decay if decay > 0 else val, ok
    return window, free


def reference_incompressible(config: ExperimentConfig, states: dict[float, FlowState],
                             t_final: float, snapshot_times: list[float]):
    """Limit dynamics: project the shared initial velocity and evolve its
    vorticity. The vortical part of every catalog member is eps-independent,
    so one reference, from the largest eps's state, serves the whole sweep."""
    v0 = spectral.leray_p(states[max(states)].v)
    omega0 = spectral.curl2d(v0)
    return incompressible.run_incompressible(omega0, t_final, cfl=config.cfl,
                                             max_dt=config.max_dt, snapshot_times=snapshot_times)


def limit_gap(state: FlowState, ref_omega: Field) -> tuple[float, float]:
    """|| P v_eps - v_ref || in L^2 and B^2 at one time, from the compressible
    state and the reference vorticity there."""
    pv = spectral.leray_p(state.v)
    diff = spectral.sub(pv, incompressible.velocity_from_vorticity(ref_omega))
    return spectral.l2_norm(diff), lp.besov_norm(diff, 2.0, 2.0)


def limit_error_series(sweep: dict[float, SweepRun], times):
    """Per-eps series of || P v_eps(t) - v_ref(t) || in L^2 and B^2 over
    ``times``, from the ``limit_gap`` pairs each member captured there."""
    l2_series = {e: np.asarray([run.snapshots[t][0] for t in times]) for e, run in sweep.items()}
    b2_series = {e: np.asarray([run.snapshots[t][1] for t in times]) for e, run in sweep.items()}
    return l2_series, b2_series


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


def transport_initial_density(grid: Grid, seed: int = 0) -> Field:
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
# evaluators and rule functions

# Pass-rule tolerances, read by the rule functions; ``acceptance`` reads the
# transport ones also for the runs the driver does not make.
FREE_WAVE_SPREAD_TOL = 2.0   # max/min of the eps^(1/4)-normalized free-wave values
L4_SPREAD_TOL = 4.0          # max/min of the eps^(1/4)-normalized L4-in-time budgets
ENERGY_GROWTH_TOL = 2.0      # fitted C of the L2 energy bound; at most 2 by symmetry
CONTRACTION_TOL = 0.25       # smallest/largest sup-L2 gap to the incompressible limit
ORACLE_GAP_TOL = 1e-3        # max |spectral - oracle| of a transport solve at n
MASS_DRIFT_TOL = 1e-8        # relative mass drift of a transport solve
MAX_PRINCIPLE_TOL = 1e-6     # interpolant range growth over the initial range, div v = 0


def snapshot_times(config: ExperimentConfig) -> list[float]:
    """``config.snapshots`` equally spaced times over [0, t_final]."""
    return [round(float(t), 12) for t in np.linspace(0.0, config.t_final, config.snapshots)]


class SweepStudy:
    """What the checks on one eps sweep share, each part computed on first
    use: the initial states, the weight profile, the incompressible
    reference, stored at ``times``, and the compressible sweep.

    A study with no times runs the sweep alone. A study at ``times`` runs the
    reference first, on the calling thread, whose scratch its tendency reuses
    instead of faulting in fresh pages at every stage; each sweep member then
    reduces its state at each of ``times`` to its ``limit_gap`` pair against
    the reference as its run passes it, and keeps only its state at t_final,
    so the sweep holds no earlier state.
    """

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
    def reference(self):
        return reference_incompressible(self.config, self.initial_states, self.config.t_final,
                                        self.times)

    @cached_property
    def sweep(self) -> dict[float, SweepRun]:
        if not self.times:
            return run_sweep(self.config, self.initial_states)
        ref_snapshots = self.reference[2]
        return run_sweep(self.config, self.initial_states, self.times,
                         lambda state, t: limit_gap(state, ref_snapshots[t]))

    @cached_property
    def ledgers(self) -> dict[float, RunLedger]:
        return {e: run.ledger for e, run in self.sweep.items()}


def evaluate_acoustic_decay(study: SweepStudy) -> tuple[asymptotics.AcousticDecayReport,
                                                        dict[float, tuple[float, float, bool]]]:
    """The sweep's windowed decay report, and the free-wave probe at p = inf
    over the same eps."""
    return (asymptotics.check_acoustic_decay(study.ledgers, study.profile, study.grid.box_length),
            free_wave_normalized(study.grid, study.config.eps, study.config.threads)[1])


def evaluate_incompressible_limit(study: SweepStudy) -> tuple[
        asymptotics.IncompressibleLimitReport, dict[float, np.ndarray]]:
    """The limit report over the study's times, and its per-eps L^2 gap series."""
    l2s, b2s = limit_error_series(study.sweep, study.times)
    return asymptotics.check_incompressible_limit(study.times, l2s, b2s, study.profile), l2s


def acoustic_decay_rules(report: asymptotics.AcousticDecayReport,
                         free: dict[float, tuple[float, float, bool]],
                         ledgers: dict[float, RunLedger]) -> list[CheckResult]:
    """The acoustic-decay pass rules on ``evaluate_acoustic_decay`` output and
    the sweep's ledgers: both budgets fall with eps, both eps^(1/4)-normalized
    series stay within their spread (the free wave's at p = inf, the norm
    ``evaluate_acoustic_decay`` measures), and each member's L^2 energy growth."""
    rules = [
        CheckResult("acoustic_decay.l1_monotone", strictly_decreasing(report.a1),
                    f"L1-in-time sup of (div v, grad c) per eps: {_fmts(report.a1)}"),
        CheckResult("acoustic_decay.l4_monotone", strictly_decreasing(report.a4),
                    f"L4-in-time sup of (Qv, c) per eps: {_fmts(report.a4)}"),
        CheckResult("acoustic_decay.l4_scaling_spread",
                    report.a4_normalized_spread <= L4_SPREAD_TOL,
                    f"L4 values normalized by eps^(1/4) spread by "
                    f"x{_fmt(report.a4_normalized_spread)} (tolerance x{L4_SPREAD_TOL:g})"),
        *strichartz_rules(free, math.inf),
    ]
    for e in sorted(ledgers, reverse=True):
        c_l2 = asymptotics.check_energy_growth(ledgers[e])
        rules.append(CheckResult(f"energy.l2_growth[eps={e:g}]", c_l2 <= ENERGY_GROWTH_TOL,
                                 f"fitted C={_fmt(c_l2)} (must be <= {ENERGY_GROWTH_TOL:g})"))
    return rules


def strichartz_rules(free: dict[float, tuple[float, float, bool]], p: float) -> list[CheckResult]:
    """The pass rule on a ``free_wave_normalized`` sweep at ``p``: its
    normalized values spread by at most ``FREE_WAVE_SPREAD_TOL``."""
    r, _ = acoustic.strichartz_exponents(p)
    normalized = [v[1] for v in free.values()]
    spread = max(normalized) / min(normalized)
    return [CheckResult("strichartz.free_wave_scaling", spread <= FREE_WAVE_SPREAD_TOL,
                        f"p={p:g}, r={r:g}: normalized values spread by x{_fmt(spread)} "
                        f"(tolerance x{FREE_WAVE_SPREAD_TOL:g})")]


def incompressible_limit_rules(report: asymptotics.IncompressibleLimitReport,
                               ) -> list[CheckResult]:
    """The limit pass rules on ``evaluate_incompressible_limit``'s report: the
    sup-in-time L^2 and B^2 gaps fall with eps, the smallest eps's L^2 gap
    contracts, and the double-exponential rate bound holds."""
    return [
        CheckResult("incompressible_limit.l2_monotone", strictly_decreasing(report.sup_l2),
                    f"sup_t ||P v_eps - v||_L2 per eps: {_fmts(report.sup_l2)}"),
        CheckResult("incompressible_limit.b2_monotone", strictly_decreasing(report.sup_b2),
                    f"sup_t ||P v_eps - v||_B2 per eps: {_fmts(report.sup_b2)}"),
        CheckResult("incompressible_limit.contraction",
                    report.smallest_over_largest <= CONTRACTION_TOL,
                    f"smallest/largest = {_fmt(report.smallest_over_largest)} "
                    f"(tolerance {CONTRACTION_TOL:g})"),
        CheckResult("incompressible_limit.rate_bound", report.rate_bound_holds,
                    f"double-exponential rate bound with C0={_fmt(report.c0_rate)} "
                    f"fitted at eps={report.eps[0]:g}"),
    ]


@dataclass(frozen=True)
class TransportRun:
    """One catalog velocity's spectral solve, measured against the oracle.
    ``range_growth`` is the growth of the interpolant range over the initial
    range, measured only for a divergence-free velocity (else None)."""

    ledger: RunLedger
    oracle_gap: float
    mass_drift: float
    range_growth: Optional[float]


def evaluate_transport_velocity(f0: Field,
                                vel: transport.SyntheticVelocity, t_final: float,
                                cfl: float, max_dt: float,
                                monitor=transport.MONITOR) -> TransportRun:
    fT, led = transport.solve_transport_spectral(f0, vel, t_final, cfl=cfl, max_dt=max_dt,
                                                 monitor=monitor)
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


class TransportReport(NamedTuple):
    """The growth-bound constant ``c_fit`` fitted on a calibration ledger and
    that ledger's interpolation ratio; per holdout, its ``LogEstimateReport``
    at ``c_fit`` and its interpolation ratio."""

    c_fit: float
    interp_cal: float
    logs: list[transport.LogEstimateReport]
    interps: list[float]


def evaluate_transport_log(cal_ledger: RunLedger, runs: Sequence[TransportRun],
                           ) -> TransportReport:
    """The log-estimate report of a calibration ledger and holdout runs."""
    c_fit = transport.fit_log_constant(cal_ledger)
    return TransportReport(c_fit, asymptotics.interpolation_ratio(cal_ledger),
                           [transport.evaluate_log_estimate(r.ledger, c_fit) for r in runs],
                           [asymptotics.interpolation_ratio(r.ledger) for r in runs])


def transport_rules(report: TransportReport, holdouts: Sequence[transport.SyntheticVelocity],
                    runs: Sequence[TransportRun]) -> list[CheckResult]:
    """The transport-log pass rules, per holdout in order: the growth bound
    at the fitted constant holds, the solve agrees with the oracle and keeps
    its mass, a divergence-free run keeps its range, and a finite positive
    interpolation ratio stays within twice the calibration's."""
    rules = []
    for i, (vel, rep, run, ratio) in enumerate(zip(holdouts, report.logs, runs,
                                                   report.interps)):
        extra = " (divergence-free reduction)" if rep.div_free else ""
        rules += [
            CheckResult(f"transport.log_estimate[{i}]", rep.passed,
                        f"max LHS/RHS = {_fmt(rep.max_ratio)} on {vel.name}{extra}"),
            CheckResult(f"transport.oracle_agreement[{i}]", run.oracle_gap <= ORACLE_GAP_TOL,
                        f"max |spectral - oracle| = {_fmt(run.oracle_gap)} on {vel.name}"),
            CheckResult(f"transport.mass_conservation[{i}]", run.mass_drift <= MASS_DRIFT_TOL,
                        f"relative mass drift {run.mass_drift:.3e}"),
        ]
        if run.range_growth is not None:
            rules.append(CheckResult(f"transport.max_principle[{i}]",
                                     run.range_growth <= MAX_PRINCIPLE_TOL,
                                     f"interpolant range grew by {run.range_growth:.3e} of "
                                     f"the initial range on {vel.name}"))
        if math.isfinite(ratio) and ratio > 0:
            rules.append(CheckResult(f"transport.interpolation[{i}]",
                                     ratio <= 2.0 * max(report.interp_cal, 1e-12),
                                     f"interpolation ratio {_fmt(ratio)} vs calibration "
                                     f"{_fmt(report.interp_cal)}"))
    return rules


# ---------------------------------------------------------------------------
# drivers: each adds its summary lines and writes its own tables and snapshots


class _Summary:
    def __init__(self):
        self.lines: list[str] = []
        self.passed = True

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.lines.append(CheckResult(name, ok, detail).line())
        self.passed = self.passed and bool(ok)

    def note(self, text: str) -> None:
        self.lines.append(f"note {text}")


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    return x if isinstance(x, str) else f"{x:.17g}"


def _write_csv(path: str, header: str, rows) -> None:
    """One CSV table: numbers at 17 significant digits, so reruns are
    byte-identical (an int prints as an integer), bools as 0/1, strings verbatim."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def _write_ledgers(config: ExperimentConfig, ledgers: dict[float, RunLedger]) -> None:
    chash = config_hash(config)
    for e in sorted(ledgers, reverse=True):
        ledgers[e].to_csv(os.path.join(config.out, f"ledger_eps_{_eps_tag(e)}.csv"),
                          f"eps={e:g}", chash)


def drive_acoustic_decay(config: ExperimentConfig, summary: _Summary) -> None:
    study = SweepStudy(config)
    report, free = evaluate_acoustic_decay(study)
    summary.note(
        "block norms are inhomogeneous (low block included); decay measured on "
        f"window [0, {_fmt(report.window)}] before torus wraparound"
    )
    for rule in acoustic_decay_rules(report, free, study.ledgers):
        summary.check(*rule)
    out = config.out
    _write_ledgers(config, study.ledgers)
    _write_csv(os.path.join(out, "acoustic_decay.csv"),
               "eps,a1_window,a4_window,blocksum_window,phi,free_wave,free_wave_normalized",
               [(e, report.a1[i], report.a4[i], report.b1[i], report.phi[i], *free[e][:2])
                for i, e in enumerate(report.eps)])
    _write_csv(os.path.join(out, "plot_l1_budget_vs_eps.csv"), "eps,l1_budget",
               zip(report.eps, report.a1))
    _write_csv(os.path.join(out, "plot_l4_budget_vs_eps.csv"), "eps,l4_budget",
               zip(report.eps, report.a4))
    _write_csv(os.path.join(out, "plot_blocksum_vs_phi.csv"), "phi,blocksum_budget",
               zip(report.phi, report.b1))
    study.profile.serialize(os.path.join(out, "profile.txt"))


def drive_incompressible_limit(config: ExperimentConfig, summary: _Summary) -> None:
    study = SweepStudy(config, snapshot_times(config))
    report, l2s = evaluate_incompressible_limit(study)
    times, sweep = study.times, study.sweep
    _, ref_ledger, ref_snaps = study.reference
    for rule in incompressible_limit_rules(report):
        summary.check(*rule)
    out = config.out
    _write_ledgers(config, study.ledgers)
    ref_ledger.to_csv(os.path.join(out, "ledger_reference.csv"), "reference",
                      config_hash(config))
    _write_csv(os.path.join(out, "incompressible_limit.csv"),
               "eps," + ",".join(f"l2_t{_fmt(t)}" for t in times),
               [(e, *l2s[e]) for e in report.eps])
    _write_csv(os.path.join(out, "plot_sup_gap_vs_eps.csv"), "eps,sup_l2_gap",
               zip(report.eps, report.sup_l2))
    for e in report.eps:
        spectral.write_snapshot(os.path.join(out, f"snap_eps_{_eps_tag(e)}_final.mlf"),
                                sweep[e].final)
    spectral.write_snapshot(os.path.join(out, "snap_reference_final.mlf"),
                            incompressible.velocity_from_vorticity(ref_snaps[times[-1]]))


def drive_transport_log(config: ExperimentConfig, summary: _Summary) -> None:
    grid = Grid(config.n, config.box_length)
    f0 = transport_initial_density(grid, config.seed)
    cal_vel, holdouts = transport_catalog(grid.box_length)
    _, cal_ledger = transport.solve_transport_spectral(f0, cal_vel, config.t_final,
                                                       cfl=config.cfl, max_dt=config.max_dt)
    # noted before the holdout solves, so a holdout that stops short leaves it in the
    # summary; evaluate_transport_log refits the same C from the same ledger
    summary.note(f"growth-bound constant fitted on {cal_vel.name}: "
                 f"C={_fmt(transport.fit_log_constant(cal_ledger))} "
                 "(smallest passing, x2 headroom)")
    runs = map_solves(config.threads, lambda vel: evaluate_transport_velocity(
        f0, vel, config.t_final, config.cfl, config.max_dt), holdouts)
    report = evaluate_transport_log(cal_ledger, runs)
    for rule in transport_rules(report, holdouts, runs):
        summary.check(*rule)
    out = config.out
    cal_ledger.to_csv(os.path.join(out, "ledger_transport_calibration.csv"), "calibration",
                      config_hash(config))
    _write_csv(os.path.join(out, "transport_compare.csv"),
               "velocity,log_ratio,oracle_diff,mass_drift",
               [(f'"{vel.name}"', rep.max_ratio, run.oracle_gap, run.mass_drift)
                for vel, rep, run in zip(holdouts, report.logs, runs)])
    for i, rep in enumerate(report.logs):
        _write_csv(os.path.join(out, f"plot_growth_ratio_holdout{i}.csv"), "t,lhs_over_bound",
                   zip(rep.times, rep.ratios))


def drive_strichartz_sweep(config: ExperimentConfig, summary: _Summary) -> None:
    grid = Grid(config.n, config.box_length)
    window, free = free_wave_normalized(grid, config.eps, config.threads, p=config.p)
    r, decay = acoustic.strichartz_exponents(config.p)
    summary.note("free half-wave propagator on the inhomogeneous torus; "
                 "decay exponents quoted from the homogeneous-space scaling")
    for rule in strichartz_rules(free, config.p):
        summary.check(*rule)
    eps_desc = sorted(free, reverse=True)
    _write_csv(os.path.join(config.out, "strichartz.csv"),
               "eps,p,r,decay_exponent,window,value,normalized,window_ok",
               [(e, f"{config.p:g}", f"{r:g}", decay, window, *free[e]) for e in eps_desc])
    _write_csv(os.path.join(config.out, "plot_mixed_norm_vs_eps.csv"), "eps,mixed_norm",
               [(e, free[e][0]) for e in eps_desc])


def drive_lifespan_table(config: ExperimentConfig, summary: _Summary) -> None:
    eps_desc = sorted(config.eps, reverse=True)
    lifespans = measure_lifespans(config)
    for rule in lifespan_rules(lifespans, config.t_cap):
        summary.check(*rule)
    profiles = [lp.named_profile(tag) for tag in ("exp:1", "power:2")]
    _write_csv(os.path.join(config.out, "lifespan.csv"),
               "eps,t_num,censored,t_psi_exp1,t_psi_power2",
               [(e, *lifespans[e],
                 *(asymptotics.lifespan_prediction(p, e, config.c0) for p in profiles))
                for e in eps_desc])
    _write_csv(os.path.join(config.out, "plot_lifespan_vs_eps.csv"), "eps,t_num",
               [(e, lifespans[e][0]) for e in eps_desc])


def drive_selftest(config: ExperimentConfig, summary: _Summary) -> None:
    from . import acceptance

    results = acceptance.run_all(config)
    for res in results:
        summary.check(*res)
    _write_csv(os.path.join(config.out, "acceptance.csv"), "check,passed,detail",
               [(res.name, res.passed, f'"{res.detail}"') for res in results])


_DRIVERS = {
    "acoustic-decay": drive_acoustic_decay,
    "incompressible-limit": drive_incompressible_limit,
    "transport-log": drive_transport_log,
    "strichartz-sweep": drive_strichartz_sweep,
    "lifespan-table": drive_lifespan_table,
    "selftest": drive_selftest,
}


def _write_summary(config: ExperimentConfig, summary: _Summary) -> None:
    with open(os.path.join(config.out, "summary.txt"), "w") as fh:
        fh.write(f"machlab summary v1 config={config_hash(config)}\n")
        for line in summary.lines:
            fh.write(line + "\n")
        fh.write(f"RESULT {'PASS' if summary.passed else 'FAIL'}\n")


def run_experiment(config: ExperimentConfig) -> tuple[bool, list[str]]:
    """Run one driver in ``config.out`` and return (passed, summary lines).

    ``config.resolved`` is written before the driver runs, so every exit
    leaves a config that replays; ``summary.txt`` is written after it. A
    sweep blowup adds one FAIL line per blown-up member, writes every
    member's ledger, partial ones included, and the summary, then
    propagates. A run that stops short of its end (``spectral.StoppedShort``:
    ``StalledStep`` or ``StepBudgetSpent``) adds one FAIL line naming the
    time and the step, writes the ledgers the stop carries (every sweep
    member's, or the stopped lifespan run's), then the summary, and
    propagates. Any other exception leaves no summary.
    """
    driver = _DRIVERS.get(config.experiment)
    if driver is None:
        raise ValueError(f"no driver for experiment {config.experiment!r}")
    os.makedirs(config.out, exist_ok=True)
    with open(os.path.join(config.out, "config.resolved"), "w") as fh:
        fh.write(canonical_dump(config))
    summary = _Summary()
    try:
        driver(config, summary)
    except SweepBlowup as blow:
        for e in sorted(blow.blowups, reverse=True):
            b = blow.blowups[e]
            summary.check(f"run.no_blowup[eps={e:g}]", False,
                          f"blew up at t={_fmt(b.time)}, step {b.step}, column {b.column}: "
                          f"{b.reason}")
        _write_ledgers(config, blow.ledgers)
        _write_summary(config, summary)
        raise
    except spectral.StoppedShort as stop:
        summary.check("run.reaches_end", False, f"{type(stop).__name__}: {stop}")
        if stop.ledgers:
            _write_ledgers(config, stop.ledgers)
        _write_summary(config, summary)
        raise
    _write_summary(config, summary)
    return summary.passed, summary.lines
