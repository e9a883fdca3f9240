"""Desk-scale acceptance checks for the whole laboratory.

Each check returns a CheckResult with a fixed tolerance baked in; the test
suite prints one line per check and asserts it. The checks read one
``ExperimentConfig`` (the ``selftest`` defaults keep every check within a few
minutes on one core while leaving the trends it probes visible) through a
``Workbench``: an ``experiments.SweepStudy`` at the config's snapshot times,
so the eps sweep and the reference run are computed once. The decay, limit
and transport checks call the evaluators the experiment drivers call, and
add only their own cross-checks: the transport lab again at ``n_hi``, the
long reference, linear acoustics, the splitting order and determinism.
"""

from __future__ import annotations

import filecmp
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import acoustic, asymptotics, compressible, experiments, spectral, transport
from . import littlewood_paley as lp
from .config import ExperimentConfig, with_overrides
from .fitting import nondecreasing
from .spectral import FlowState, Grid, SpectralScalarField

# The fixed scale of the checks, which no config key reaches.
LINEAR_T = 0.5                      # linear-acoustics horizon
ORDER_EPS, ORDER_T = 0.1, 0.4       # splitting-order run
ORDER_DTS = (0.02, 0.01, 0.005)
TRANSPORT_T = 1.0                   # transport-lab horizon
REFERENCE_T, REFERENCE_MAX_DT = 5.0, 0.05   # long incompressible reference
LIFESPAN_EPS = (1.0, 0.5, 0.25)
SUBSTRATE_FIELDS, PARTITION_FIELDS = 100, 50   # random fields per substrate check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


class Workbench(experiments.SweepStudy):
    """The shared sweep of ``config`` at its snapshot times, plus the two
    values acceptance derives from the config."""

    def __init__(self, config: ExperimentConfig):
        super().__init__(config, experiments.snapshot_times(config))

    @property
    def n_hi(self) -> int:
        """Resolution of the transport cross-check; it runs only above n."""
        return min(2 * self.config.n, 512)

    @cached_property
    def lifespan_config(self) -> ExperimentConfig:
        return with_overrides(self.config, eps=LIFESPAN_EPS,
                              amplitude=8.0 * self.config.amplitude)


# ---------------------------------------------------------------------------
# checks


def check_spectral_substrate(bench: Workbench) -> CheckResult:
    grid = bench.grid
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
    for _ in range(PARTITION_FIELDS):
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


def check_linear_acoustics(bench: Workbench) -> CheckResult:
    cfg = compressible.StepperConfig(cfl=bench.config.cfl, max_dt=bench.config.max_dt,
                                     disable_nonlinear=True)
    worst_err = 0.0
    worst_drift = 0.0
    for e, st in bench.initial_states.items():
        st0 = spectral.dealias(st)
        stT, _, _ = compressible.run(st0, LINEAR_T, cfg)
        pair = acoustic.make_acoustic(st0)
        moved = acoustic.AcousticPair(
            gamma_x=acoustic.free_propagate(pair.gamma_x, LINEAR_T, e),
            gamma_y=acoustic.free_propagate(pair.gamma_y, LINEAR_T, e),
            upsilon=acoustic.free_propagate(pair.upsilon, LINEAR_T, e),
            eps=e,
        )
        exact = acoustic.acoustic_to_state(moved, spectral.leray_p(st0.v),
                                           bench.config.gamma_bar)
        worst_err = max(worst_err, _rel_state_diff(stT, exact))
        e0 = _mode_energy(st0)
        eT = _mode_energy(stT)
        worst_drift = max(worst_drift, float(np.max(np.abs(eT - e0)) / np.max(e0)))
    passed = worst_err <= 1e-12 and worst_drift <= 1e-13
    detail = (f"propagator mismatch {worst_err:.2e} (tol 1e-12), "
              f"per-mode energy drift {worst_drift:.2e} (tol 1e-13)")
    return CheckResult("linear-acoustics", passed, detail)


def check_splitting_order(bench: Workbench) -> CheckResult:
    states = bench.initial_states
    if ORDER_EPS not in states:  # a sweep without it still checks the order there
        states = experiments.initial_states(with_overrides(bench.config, eps=(ORDER_EPS,)),
                                            bench.grid)
    st0 = spectral.dealias(states[ORDER_EPS])
    finals = []
    for dt in ORDER_DTS:
        cfg = compressible.StepperConfig(cfl=0.95, max_dt=dt)
        stT, _, _ = compressible.run(st0, ORDER_T, cfg)
        finals.append(stT)
    e1 = _rel_state_diff(finals[0], finals[1])
    e2 = _rel_state_diff(finals[1], finals[2])
    order = math.log2(e1 / e2)
    passed = 1.8 <= order <= 2.2
    detail = (f"self-convergence order {order:.3f} from errors {e1:.3e} / {e2:.3e} "
              f"at dt {ORDER_DTS} (window [1.8, 2.2])")
    return CheckResult("splitting-order", passed, detail)


def check_transport_lab(bench: Workbench) -> CheckResult:
    cfg, n, n_hi = bench.config, bench.config.n, bench.n_hi
    tol_by_n = {n: 1e-3, n_hi: 2.5e-4} if n_hi > n else {n: 1e-3}
    cal, holdouts = experiments.transport_catalog(cfg.box_length)
    worst_oracle = {}
    worst_mass = 0.0
    growths = []
    for res in tol_by_n:
        f0 = experiments.transport_initial_density(Grid(res, cfg.box_length), cfg.seed)
        runs = [experiments.evaluate_transport_velocity(f0, vel, TRANSPORT_T, cfg.cfl,
                                                        cfg.max_dt)
                for vel in [cal] + holdouts]
        worst_oracle[res] = max(r.oracle_gap for r in runs)
        worst_mass = max([worst_mass] + [r.mass_drift for r in runs])
        growths += [r.range_growth for r in runs if r.range_growth is not None]
        if res == n:
            c_fit = transport.fit_log_constant(runs[0].ledger)
            log_ratios = [transport.evaluate_log_estimate(r.ledger, c_fit).max_ratio
                          for r in runs[1:]]
    worst_maxprin = max(growths, default=0.0)
    oracle_ok = all(worst_oracle[res] <= tol for res, tol in tol_by_n.items())
    log_ok = len(log_ratios) >= 3 and all(r <= 1.0 + 1e-12 for r in log_ratios)
    passed = (oracle_ok and worst_mass <= 1e-8 and bool(growths)
              and worst_maxprin <= 1e-6 and log_ok)
    hi = (f"{worst_oracle[n_hi]:.2e}@n={n_hi} (tol 2.5e-4)" if n_hi > n
          else f"no pass at n_hi={n_hi}, which is not above n")
    detail = (f"oracle gap {worst_oracle[n]:.2e}@n={n} (tol 1e-3), {hi}; "
              f"mass drift {worst_mass:.2e} (tol 1e-8); "
              f"max-principle drift {worst_maxprin:.2e} (tol 1e-6); "
              f"growth-bound ratios max {max(log_ratios):.3f} over {len(log_ratios)} holdouts")
    return CheckResult("transport-lab", passed, detail)


def check_acoustic_decay_trend(bench: Workbench) -> CheckResult:
    rep, free = experiments.evaluate_acoustic_decay(bench)
    free_spread = experiments.free_wave_spread(free)
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
    rep, _ = experiments.evaluate_incompressible_limit(bench)
    ratio = rep.smallest_over_largest
    passed = rep.l2_decreasing and ratio <= 0.25 and rep.rate_bound_holds
    detail = (f"sup-L2 gaps {tuple(round(v, 5) for v in rep.sup_l2)} "
              f"{'decreasing' if rep.l2_decreasing else 'NOT decreasing'}; "
              f"smallest/largest {ratio:.3f} (tol 0.25); "
              f"rate bound {'holds' if rep.rate_bound_holds else 'FAILS'} "
              f"with C0={rep.c0_rate:.3g}")
    return CheckResult("incompressible-limit-trend", passed, detail)


def check_vorticity_control(bench: Workbench) -> CheckResult:
    worst_sweep = 0.0
    for led in bench.ledgers.values():
        w = led.column("omega_linf")
        worst_sweep = max(worst_sweep, float(np.max(np.abs(w - w[0]))) / w[0])
    _, led_ref, _ = experiments.reference_incompressible(
        with_overrides(bench.config, max_dt=REFERENCE_MAX_DT), bench.initial_states,
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


def check_lifespan_bookkeeping(bench: Workbench) -> CheckResult:
    problems: list[str] = []
    eps_grid = np.geomspace(1e-6, 0.9, 40)
    for name in ("exp:1", "power:2"):
        model = asymptotics.LifespanModel(lp.named_profile(name), c0=1.0)
        phis = [asymptotics.phi_of_eps(model, float(e)) for e in eps_grid]
        if not nondecreasing(phis, tol=1e-15):
            problems.append(f"{name}: smallness scale not monotone")
        ts = [asymptotics.lifespan_prediction(model, float(e)).t_psi for e in eps_grid]
        if not nondecreasing(ts[::-1], tol=1e-15):
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
    cfg = bench.lifespan_config
    t_nums, t_num_ok, blew_up = experiments.lifespan_rules(experiments.measure_lifespans(cfg))
    if not blew_up:
        problems.append(f"no blowup at eps={max(cfg.eps):g} within T={cfg.t_cap:g}")
    if not t_num_ok:
        problems.append("measured lifespans not nondecreasing")
    passed = not problems
    detail = (f"closed-form error {worst_closed:.2e} (tol 1e-12); measured lifespans "
              + ", ".join(f"{t:.3f}" for t in t_nums)
              + (f"; ISSUES: {'; '.join(problems)}" if problems else ""))
    return CheckResult("lifespan-bookkeeping", passed, detail)


def check_determinism(bench: Workbench) -> CheckResult:
    base = with_overrides(
        ExperimentConfig(), experiment="acoustic-decay", n=64,
        box_length=bench.config.box_length, eps=(0.2, 0.1, 0.05), t_final=0.3,
        amplitude=bench.config.amplitude, seed=bench.config.seed, max_dt=0.05,
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
            out_dir: str | None = None) -> list[CheckResult]:
    bench = Workbench(config)
    results = [fn(bench) for fn in _CHECKS]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "acceptance.csv"), "w") as fh:
            fh.write("check,passed,detail\n")
            for r in results:
                fh.write(f"{r.name},{int(r.passed)},\"{r.detail}\"\n")
    return results
