"""Desk-scale acceptance checks for the whole laboratory.

Each check returns a CheckResult with a fixed tolerance baked in; the test
suite prints one line per check and asserts it. ``Workbench`` lazily builds
and caches the artifacts several checks share (the eps sweep above all), so
``run_all`` touches each expensive computation once.

Scale knobs live in ``AcceptanceScale``; the defaults keep every check within
a few minutes on one core while leaving the trends it probes visible.
"""

from __future__ import annotations

import filecmp
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import acoustic, asymptotics, compressible, experiments, incompressible, spectral, transport
from . import littlewood_paley as lp
from .config import ExperimentConfig, validate_config, with_overrides
from .initial_data import make_initial_data
from .spectral import FlowState, Grid, SpectralScalarField


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AcceptanceScale:
    """Resolution, sweep, and calibration knobs for the acceptance checks."""

    n: int = 256
    n_hi: int = 512
    box_length: float = 16.0 * math.pi
    eps_sweep: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    t_final: float = 1.0
    data: str = "vortex-pair-ill"
    amplitude: float = 0.5
    seed: int = 0
    gamma: float = 1.4
    cfl: float = 0.4
    max_dt: float = 0.02
    snapshots: int = 11
    c0: float = 1.0
    linear_t: float = 0.5
    order_eps: float = 0.1
    order_t: float = 0.4
    order_dts: tuple[float, float, float] = (0.02, 0.01, 0.005)
    transport_t: float = 1.0
    reference_t: float = 5.0
    reference_max_dt: float = 0.05
    lifespan_eps: tuple[float, ...] = (1.0, 0.5, 0.25)
    lifespan_amplitude: float = 4.0
    lifespan_cap: float = 4.0
    blowup_factor: float = 8.0
    substrate_fields: int = 100
    partition_fields: int = 50

    @property
    def gamma_bar(self) -> float:
        return 0.5 * (self.gamma - 1.0)


def scale_from_config(config: ExperimentConfig) -> AcceptanceScale:
    return AcceptanceScale(
        n=config.n, n_hi=min(2 * config.n, 512), box_length=config.box_length,
        eps_sweep=tuple(sorted(config.eps, reverse=True)), t_final=config.t_final,
        data=config.data, amplitude=config.amplitude, seed=config.seed,
        gamma=config.gamma, cfl=config.cfl, max_dt=config.max_dt,
        snapshots=config.snapshots, c0=config.c0,
        lifespan_amplitude=8.0 * config.amplitude, lifespan_cap=config.t_cap,
        blowup_factor=config.blowup_factor,
    )


def _random_band_field(grid: Grid, rng: np.random.Generator,
                       k_corner: float = 2.0) -> SpectralScalarField:
    """White noise rolled off smoothly above ``k_corner``, dealiased, unit L^2."""
    noise = rng.standard_normal((grid.n, grid.n))
    f = spectral.fft_forward(grid, noise)
    envelope = np.exp(-((grid.kmag / k_corner) ** 2))
    shaped = spectral.dealias(SpectralScalarField(grid, f.modes * envelope))
    norm = spectral.l2_norm(shaped)
    return spectral.scale(shaped, 1.0 / norm)


def _rel_state_diff(a: FlowState, b: FlowState) -> float:
    return spectral.l2_norm(spectral.sub(a, b)) / spectral.l2_norm(b)


def _mode_energy(state: FlowState) -> np.ndarray:
    """Per-mode linear acoustic energy |khat . v|^2 + |c|^2."""
    g = state.grid
    a = g.kx * g.inv_kmag * state.modes[0] + g.ky * g.inv_kmag * state.modes[1]
    return np.abs(a) ** 2 + np.abs(state.modes[2]) ** 2


class Workbench:
    """Shared lazily-computed artifacts for the acceptance checks."""

    def __init__(self, scale: AcceptanceScale):
        self.scale = scale

    @cached_property
    def grid(self) -> Grid:
        return Grid(self.scale.n, self.scale.box_length)

    @cached_property
    def config(self) -> ExperimentConfig:
        s = self.scale
        cfg = with_overrides(
            ExperimentConfig(), experiment="selftest", n=s.n, box_length=s.box_length,
            eps=s.eps_sweep, t_final=s.t_final, gamma=s.gamma, data=s.data,
            amplitude=s.amplitude, seed=s.seed, cfl=s.cfl, max_dt=s.max_dt,
            snapshots=s.snapshots, c0=s.c0, t_cap=s.lifespan_cap,
            blowup_factor=s.blowup_factor,
        )
        validate_config(cfg)
        return cfg

    @cached_property
    def initial_states(self):
        return experiments.initial_states(self.config, self.grid)

    @cached_property
    def profile(self) -> lp.BesovProfile:
        return experiments.build_profile(self.config, self.initial_states)

    @cached_property
    def model(self) -> asymptotics.LifespanModel:
        return asymptotics.LifespanModel(self.profile, c0=self.scale.c0)

    @cached_property
    def snapshot_times(self) -> list[float]:
        return [round(float(t), 12)
                for t in np.linspace(0.0, self.scale.t_final, self.scale.snapshots)]

    @cached_property
    def sweep(self):
        return experiments.run_sweep(self.config, self.initial_states, self.profile,
                                     snapshot_times=self.snapshot_times)

    @cached_property
    def reference(self):
        return experiments.reference_incompressible(self.config, self.initial_states,
                                                    self.scale.t_final, self.snapshot_times)

    @cached_property
    def decay_report(self) -> asymptotics.AcousticDecayReport:
        ledgers = {e: self.sweep[e][0] for e in self.sweep}
        return asymptotics.check_acoustic_decay(ledgers, self.model, self.scale.box_length)

    @cached_property
    def limit_report(self) -> asymptotics.IncompressibleLimitReport:
        _, _, ref_snaps = self.reference
        l2s, b2s, gaps = experiments.limit_error_series(self.sweep, ref_snaps,
                                                        self.snapshot_times)
        return asymptotics.check_incompressible_limit(self.snapshot_times, l2s, b2s,
                                                      gaps, self.model)


# ---------------------------------------------------------------------------
# checks


def check_spectral_substrate(bench: Workbench) -> CheckResult:
    grid = bench.grid
    rng = np.random.default_rng(101)
    tol = 1e-12
    worst = {"roundtrip": 0.0, "parseval": 0.0, "idempotent": 0.0, "gradient": 0.0}
    for _ in range(bench.scale.substrate_fields):
        samples = rng.standard_normal((grid.n, grid.n))
        f = spectral.fft_forward(grid, samples)
        back = f.values()
        worst["roundtrip"] = max(worst["roundtrip"],
                                 float(np.max(np.abs(back - samples)) / np.max(np.abs(samples))))
        quad = math.sqrt(float(np.sum(samples**2)) * grid.cell_area)
        worst["parseval"] = max(worst["parseval"], abs(spectral.l2_norm(f) - quad) / quad)
        v = spectral.vector(_random_band_field(grid, rng), _random_band_field(grid, rng))
        pv = spectral.leray_p(v)
        ppv = spectral.leray_p(pv)
        num = spectral.l2_norm([spectral.sub(ppv.ux, pv.ux), spectral.sub(ppv.uy, pv.uy)])
        worst["idempotent"] = max(worst["idempotent"], num / spectral.l2_norm(pv))
        gradphi = spectral.grad(_random_band_field(grid, rng))
        leak = spectral.l2_norm(spectral.leray_p(gradphi)) / spectral.l2_norm(gradphi)
        worst["gradient"] = max(worst["gradient"], leak)
    passed = all(v <= tol for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f" (tol {tol:g})"
    return CheckResult("spectral-substrate", passed, detail)


def check_dyadic_partition(bench: Workbench) -> CheckResult:
    grid = bench.grid
    part = lp.build_partition(grid)
    total = np.sum(part.stack, axis=0)
    resid = float(np.max(np.abs(total[grid.dealias_mask] - 1.0)))

    disjoint = True
    mults = [part.multiplier(q) for q in range(-1, part.q_max + 1)]
    for i in range(len(mults)):
        for j in range(i + 2, len(mults)):
            if np.any(mults[i] * mults[j] != 0.0):
                disjoint = False

    rng = np.random.default_rng(202)
    recon_worst = 0.0
    bern_lo, bern_hi = math.inf, 0.0
    for _ in range(bench.scale.partition_fields):
        u = _random_band_field(grid, rng, k_corner=0.5 * grid.kmax_dealias)
        acc = np.zeros_like(u.modes)
        for q in range(-1, part.q_max + 1):
            acc = acc + lp.delta_q(u, q).modes
        recon_worst = max(recon_worst,
                          float(np.max(np.abs(acc - u.modes)) / np.max(np.abs(u.modes))))
        unorm = spectral.l2_norm(u)
        for q in range(0, part.q_max + 1):
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


def check_weighted_norms(bench: Workbench) -> CheckResult:
    grid = bench.grid
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
                het = lp.besov_norm_hetero(u, s, 2.0, 1.0, geom)
                plain = lp.besov_norm(u, s + alpha, 2.0, 1.0)
                worst_red = max(worst_red, abs(het - plain) / plain)
    fit_ok = True
    fit_msg = "all admissible"
    for _ in range(bench.scale.partition_fields):
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


def check_linear_acoustics(bench: Workbench) -> CheckResult:
    s = bench.scale
    grid = bench.grid
    cfg = compressible.StepperConfig(cfl=s.cfl, max_dt=s.max_dt, disable_nonlinear=True)
    worst_err = 0.0
    worst_drift = 0.0
    for e in s.eps_sweep:
        st0 = spectral.dealias(make_initial_data(s.data, grid, e, s.amplitude, s.seed,
                                                 s.gamma_bar))
        stT, _, _ = compressible.run(st0, s.linear_t, cfg)
        pair = acoustic.make_acoustic(st0)
        moved = acoustic.AcousticPair(
            gamma_x=acoustic.free_propagate(pair.gamma_x, s.linear_t, e),
            gamma_y=acoustic.free_propagate(pair.gamma_y, s.linear_t, e),
            upsilon=acoustic.free_propagate(pair.upsilon, s.linear_t, e),
            eps=e,
        )
        exact = acoustic.acoustic_to_state(moved, spectral.leray_p(st0.v), s.gamma_bar,
                                           time=s.linear_t)
        worst_err = max(worst_err, _rel_state_diff(stT, exact))
        e0 = _mode_energy(st0)
        eT = _mode_energy(stT)
        worst_drift = max(worst_drift, float(np.max(np.abs(eT - e0)) / np.max(e0)))
    passed = worst_err <= 1e-12 and worst_drift <= 1e-13
    detail = (f"propagator mismatch {worst_err:.2e} (tol 1e-12), "
              f"per-mode energy drift {worst_drift:.2e} (tol 1e-13)")
    return CheckResult("linear-acoustics", passed, detail)


def check_splitting_order(bench: Workbench) -> CheckResult:
    s = bench.scale
    st0 = spectral.dealias(make_initial_data(s.data, bench.grid, s.order_eps, s.amplitude,
                                             s.seed, s.gamma_bar))
    finals = []
    for dt in s.order_dts:
        cfg = compressible.StepperConfig(cfl=0.95, max_dt=dt)
        stT, _, _ = compressible.run(st0, s.order_t, cfg)
        finals.append(stT)
    e1 = _rel_state_diff(finals[0], finals[1])
    e2 = _rel_state_diff(finals[1], finals[2])
    order = math.log2(e1 / e2)
    passed = 1.8 <= order <= 2.2
    detail = (f"self-convergence order {order:.3f} from errors {e1:.3e} / {e2:.3e} "
              f"at dt {s.order_dts} (window [1.8, 2.2])")
    return CheckResult("splitting-order", passed, detail)


def check_transport_lab(bench: Workbench) -> CheckResult:
    s = bench.scale
    tol_by_n = {s.n: 1e-3, s.n_hi: 2.5e-4}
    cal, holdouts = experiments.transport_catalog(s.box_length)
    catalog = [cal] + holdouts
    worst_oracle = {n: 0.0 for n in tol_by_n}
    worst_mass = 0.0
    worst_maxprin = 0.0
    saw_divfree = False
    for n in (s.n, s.n_hi):
        grid_n = Grid(n, s.box_length)
        f0 = experiments.transport_initial_density(grid_n, s.seed)
        ledgers = []
        for vel in catalog:
            fT, led = transport.solve_transport_spectral(f0, vel, s.transport_t,
                                                         cfl=s.cfl, max_dt=s.max_dt)
            ledgers.append(led)
            steps = max(1, len(led) - 1)
            oracle = transport.solve_transport_oracle(f0, vel, s.transport_t,
                                                      substeps=4 * steps)
            worst_oracle[n] = max(worst_oracle[n],
                                  float(np.max(np.abs(fT.values() - oracle))))
            mass = led.column("f_mass")
            worst_mass = max(worst_mass,
                             float(np.max(np.abs(mass - mass[0]))) / abs(mass[0]))
            if np.max(led.column("div_v_linf")) < 1e-12:
                # range may only shrink under divergence-free transport; the
                # grid-sample sup moves by O(h^2) as peaks drift off-grid, so
                # compare interpolant extrema instead
                saw_divfree = True
                lo0, hi0 = spectral.refined_extrema(f0)
                lo1, hi1 = spectral.refined_extrema(fT)
                expansion = max(hi1 - hi0, lo0 - lo1, 0.0) / (hi0 - lo0)
                worst_maxprin = max(worst_maxprin, expansion)
        if n == s.n:
            c_fit = transport.fit_log_constant(ledgers[0])
            log_ratios = [transport.evaluate_log_estimate(led, c_fit).max_ratio
                          for led in ledgers[1:]]
    oracle_ok = all(worst_oracle[n] <= tol_by_n[n] for n in tol_by_n)
    log_ok = len(log_ratios) >= 3 and all(r <= 1.0 + 1e-12 for r in log_ratios)
    passed = (oracle_ok and worst_mass <= 1e-8 and saw_divfree
              and worst_maxprin <= 1e-6 and log_ok)
    detail = (f"oracle gap {worst_oracle[s.n]:.2e}@n={s.n} (tol 1e-3), "
              f"{worst_oracle[s.n_hi]:.2e}@n={s.n_hi} (tol 2.5e-4); "
              f"mass drift {worst_mass:.2e} (tol 1e-8); "
              f"max-principle drift {worst_maxprin:.2e} (tol 1e-6); "
              f"growth-bound ratios max {max(log_ratios):.3f} over {len(log_ratios)} holdouts")
    return CheckResult("transport-lab", passed, detail)


def check_acoustic_decay_trend(bench: Workbench) -> CheckResult:
    rep = bench.decay_report
    free = experiments.free_wave_normalized(bench.grid, bench.scale.eps_sweep)
    normalized = [free[e][1] for e in sorted(free, reverse=True)]
    free_spread = max(normalized) / min(normalized)
    passed = (rep.a1_decreasing and rep.a4_decreasing
              and free_spread <= 2.0 and rep.a4_normalized_spread <= 4.0)
    detail = (f"L1 budget {'decreasing' if rep.a1_decreasing else 'NOT decreasing'} "
              f"{tuple(round(v, 4) for v in rep.a1)}, "
              f"L4 budget {'decreasing' if rep.a4_decreasing else 'NOT decreasing'} "
              f"{tuple(round(v, 4) for v in rep.a4)}; "
              f"eps^(1/4)-normalized spread: free x{free_spread:.2f} (tol x2), "
              f"nonlinear x{rep.a4_normalized_spread:.2f} (tol x4)")
    return CheckResult("acoustic-decay-trend", passed, detail)


def check_incompressible_limit_trend(bench: Workbench) -> CheckResult:
    rep = bench.limit_report
    ratio = rep.smallest_over_largest
    passed = rep.l2_decreasing and ratio <= 0.25 and rep.rate_bound_holds
    detail = (f"sup-L2 gaps {tuple(round(v, 5) for v in rep.sup_l2)} "
              f"{'decreasing' if rep.l2_decreasing else 'NOT decreasing'}; "
              f"smallest/largest {ratio:.3f} (tol 0.25); "
              f"rate bound {'holds' if rep.rate_bound_holds else 'FAILS'} "
              f"with C0={rep.c0_rate:.3g}")
    return CheckResult("incompressible-limit-trend", passed, detail)


def check_vorticity_control(bench: Workbench) -> CheckResult:
    s = bench.scale
    worst_sweep = 0.0
    for e in sorted(bench.sweep, reverse=True):
        led = bench.sweep[e][0]
        w = led.column("omega_linf")
        worst_sweep = max(worst_sweep, float(np.max(np.abs(w - w[0]))) / w[0])
    st = make_initial_data(s.data, bench.grid, s.eps_sweep[0], s.amplitude, s.seed,
                           s.gamma_bar)
    omega0 = spectral.curl2d(spectral.leray_p(st.v))
    _, led_ref, _ = incompressible.run_incompressible(
        incompressible.IncompressibleState(omega0), s.reference_t,
        cfl=s.cfl, max_dt=s.reference_max_dt, run_id="long-reference")
    w = led_ref.column("omega_linf")
    ref_drift = float(np.max(np.abs(w - w[0]))) / w[0]
    energy = led_ref.column("v_l2") ** 2
    energy_drift = float(np.max(np.abs(energy - energy[0]))) / energy[0]
    passed = worst_sweep <= 0.05 and ref_drift <= 0.005 and energy_drift <= 1e-6
    detail = (f"sweep vorticity sup drift {worst_sweep:.4f} (tol 0.05); reference over "
              f"T={s.reference_t:g}: vorticity drift {ref_drift:.5f} (tol 0.005), "
              f"energy drift {energy_drift:.2e} (tol 1e-6)")
    return CheckResult("vorticity-control", passed, detail)


def check_lifespan_bookkeeping(bench: Workbench) -> CheckResult:
    s = bench.scale
    problems: list[str] = []
    eps_grid = np.geomspace(1e-6, 0.9, 40)
    for name in ("exp:1", "power:2"):
        model = asymptotics.LifespanModel(lp.named_profile(name), c0=1.0)
        phis = [asymptotics.phi_of_eps(model, float(e)) for e in eps_grid]
        if not all(phis[i] <= phis[i + 1] + 1e-15 for i in range(len(phis) - 1)):
            problems.append(f"{name}: smallness scale not monotone")
        ts = [asymptotics.lifespan_prediction(model, float(e)).t_psi for e in eps_grid]
        if not all(ts[i] >= ts[i + 1] - 1e-15 for i in range(len(ts) - 1)):
            problems.append(f"{name}: predicted lifespan not monotone")
    worst_closed = 0.0
    for c0 in (1.0, 2.5):
        for e in (1e-2, 1e-4, 1e-8):
            y = math.log(1.0 / e)
            m_exp = asymptotics.LifespanModel(lp.named_profile("exp:1"), c0=c0)
            got = asymptotics.lifespan_prediction(m_exp, e).t_psi
            want = math.log(y) / c0
            worst_closed = max(worst_closed, abs(got - want) / abs(want))
            m_pow = asymptotics.LifespanModel(lp.named_profile("power:2"), c0=c0)
            got = asymptotics.lifespan_prediction(m_pow, e).t_psi
            want = math.log(2.0 * math.log(y + 2.0)) / c0
            worst_closed = max(worst_closed, abs(got - want) / abs(want))
    if worst_closed > 1e-12:
        problems.append(f"closed forms off by {worst_closed:.2e}")
    cfg = with_overrides(bench.config, eps=s.lifespan_eps, amplitude=s.lifespan_amplitude)
    lifespans = experiments.measure_lifespans(cfg, experiments.initial_states(cfg, bench.grid))
    t_nums = [lifespans[e][0] for e in s.lifespan_eps]
    if lifespans[s.lifespan_eps[0]][1]:
        problems.append(f"no blowup at eps={s.lifespan_eps[0]:g} within T={s.lifespan_cap:g}")
    if not all(t_nums[i] <= t_nums[i + 1] + 1e-12 for i in range(len(t_nums) - 1)):
        problems.append("measured lifespans not nondecreasing")
    passed = not problems
    detail = (f"closed-form error {worst_closed:.2e} (tol 1e-12); measured lifespans "
              + ", ".join(f"{t:.3f}" for t in t_nums)
              + (f"; ISSUES: {'; '.join(problems)}" if problems else ""))
    return CheckResult("lifespan-bookkeeping", passed, detail)


def check_determinism(bench: Workbench) -> CheckResult:
    base = with_overrides(
        ExperimentConfig(), experiment="acoustic-decay", n=64,
        box_length=bench.scale.box_length, eps=(0.2, 0.1, 0.05), t_final=0.3,
        amplitude=bench.scale.amplitude, seed=bench.scale.seed, max_dt=0.05,
        snapshots=2, threads=2,
    )
    dirs = [tempfile.mkdtemp(prefix="machlab-det-") for _ in range(2)]
    try:
        for d in dirs:
            cfg = with_overrides(base, out=d)
            validate_config(cfg)
            experiments.run_experiment(cfg)
        names = sorted(os.listdir(dirs[0]))
        other = sorted(os.listdir(dirs[1]))
        if names != other:
            return CheckResult("determinism", False,
                               f"artifact sets differ: {names} vs {other}")
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        passed = not mismatch and not errors
        detail = (f"{len(match)} artifacts bit-identical across repeated runs"
                  if passed else f"differing artifacts: {mismatch or errors}")
        return CheckResult("determinism", passed, detail)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


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


def run_all(scale: AcceptanceScale = AcceptanceScale(),
            out_dir: str | None = None) -> list[CheckResult]:
    bench = Workbench(scale)
    results = [fn(bench) for fn in _CHECKS]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "acceptance.csv"), "w") as fh:
            fh.write("check,passed,detail\n")
            for r in results:
                fh.write(f"{r.name},{int(r.passed)},\"{r.detail}\"\n")
    return results
