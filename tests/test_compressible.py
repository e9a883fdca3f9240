"""Split integrator for the rescaled barotropic system."""

import math
import sys
import threading

import numpy as np
import pytest

from machlab import compressible, incompressible, spectral
from machlab.compressible import Blowup, StepperConfig
from machlab.initial_data import make_initial_data


def small_state(grid, eps=0.1, amplitude=0.5, seed=0):
    return make_initial_data("vortex-pair-ill", grid, eps=eps, amplitude=amplitude,
                             seed=seed, gamma_bar=0.2)


def state_norm(a, b):
    return spectral.l2_norm([
        spectral.sub(a.v.ux, b.v.ux),
        spectral.sub(a.v.uy, b.v.uy),
        spectral.sub(a.c, b.c),
    ])


def test_acoustic_exact_step_conserves_mode_energy(grid64):
    state = small_state(grid64)
    out = compressible.acoustic_exact_step(state, 0.043)
    grid = grid64
    khat_x = np.where(grid.kmag > 0, grid.kx / np.where(grid.kmag > 0, grid.kmag, 1.0), 0.0)
    khat_y = np.where(grid.kmag > 0, grid.ky / np.where(grid.kmag > 0, grid.kmag, 1.0), 0.0)

    def mode_energy(s):
        a = khat_x * s.v.ux.modes + khat_y * s.v.uy.modes
        return np.abs(a) ** 2 + np.abs(s.c.modes) ** 2

    e0, e1 = mode_energy(state), mode_energy(out)
    assert np.max(np.abs(e1 - e0)) <= 1e-13 * np.max(e0)


def test_acoustic_exact_step_leaves_solenoidal_part_alone(grid64):
    state = small_state(grid64)
    out = compressible.acoustic_exact_step(state, 0.19)
    p0 = spectral.leray_p(state.v)
    p1 = spectral.leray_p(out.v)
    assert np.max(np.abs(p1.ux.modes - p0.ux.modes)) <= 1e-14
    assert np.max(np.abs(p1.uy.modes - p0.uy.modes)) <= 1e-14


def test_linear_run_matches_free_propagator(grid64):
    """With the nonlinearity off the solver must reproduce the closed-form
    fast evolution: rotated wave variables over an unchanged vortical part."""
    from machlab import acoustic
    state = small_state(grid64, eps=0.05)
    t_final = 0.3
    cfg = StepperConfig(cfl=0.4, max_dt=0.02, disable_nonlinear=True)
    final, _, _ = compressible.run(state, t_final, cfg)
    pair = acoustic.make_acoustic(state)
    rotated = type(pair)(
        gamma_x=acoustic.free_propagate(pair.gamma_x, t_final, state.eps),
        gamma_y=acoustic.free_propagate(pair.gamma_y, t_final, state.eps),
        upsilon=acoustic.free_propagate(pair.upsilon, t_final, state.eps),
        eps=state.eps,
    )
    exact = acoustic.acoustic_to_state(rotated, spectral.leray_p(state.v),
                                       state.gamma_bar)
    scale = spectral.l2_norm([state.v.ux, state.v.uy, state.c])
    assert state_norm(final, exact) <= 1e-12 * scale


def test_projected_dynamics_matches_vorticity_solver(grid64, monkeypatch):
    """Projecting the quadratic tendency and starting from c = 0 turns the
    split scheme into the incompressible solver, step for step."""
    rhs = compressible.rhs_nonlinear

    def projected_rhs(state, out=None):
        out = rhs(state, out)
        out[:2] = spectral.leray_p(spectral.SpectralVectorField(state.grid, out[:2])).modes
        return out

    monkeypatch.setattr(compressible, "rhs_nonlinear", projected_rhs)
    state = small_state(grid64)
    v0 = spectral.leray_p(state.v)
    zero_c = spectral.SpectralScalarField(grid64, np.zeros(grid64.modes_shape, complex))
    proj_state = spectral.FlowState.from_fields(v0, zero_c, eps=state.eps,
                                                gamma_bar=state.gamma_bar)
    dt, t_final = 0.01, 0.1
    cfg = StepperConfig(cfl=1.0, max_dt=dt)
    comp_final, _, _ = compressible.run(proj_state, t_final, cfg)

    omega0 = spectral.curl2d(v0)
    inc_final, _, _ = incompressible.run_incompressible(omega0, t_final, cfl=1.0, max_dt=dt)
    v_inc = incompressible.velocity_from_vorticity(inc_final)
    err = spectral.l2_norm([
        spectral.sub(comp_final.v.ux, v_inc.ux),
        spectral.sub(comp_final.v.uy, v_inc.uy),
    ])
    assert err <= 1e-10 * spectral.l2_norm([v0.ux, v0.uy])
    assert spectral.l2_norm(comp_final.c) <= 1e-12


def test_strang_self_convergence_is_second_order(grid64):
    state = small_state(grid64)
    t_final = 0.4
    finals = []
    for dt in (0.02, 0.01, 0.005):
        cfg = StepperConfig(cfl=1.0, max_dt=dt)
        final, _, _ = compressible.run(state, t_final, cfg)
        finals.append(final)
    e1 = state_norm(finals[0], finals[1])
    e2 = state_norm(finals[1], finals[2])
    order = math.log2(e1 / e2)
    assert 1.6 <= order <= 2.4, f"order {order} from errors {e1}, {e2}"


def test_snapshots_land_on_requested_times(grid64):
    state = small_state(grid64)
    wanted = [0.0, 0.03, 0.07, 0.1]
    cfg = StepperConfig(cfl=0.4, max_dt=0.02)
    final, ledger, snaps = compressible.run(state, 0.1, cfg, snapshot_times=wanted)
    assert sorted(snaps) == wanted
    times = ledger.time_array()
    for t in wanted:
        assert np.min(np.abs(times - t)) <= 1e-12
    assert times[0] == 0.0 and abs(times[-1] - 0.1) <= 1e-12
    assert np.all(np.diff(times) > 0.0)


def test_blowup_raises_with_time_and_ledger(grid64):
    state = small_state(grid64, amplitude=2.0)
    cfg = StepperConfig(cfl=0.4, max_dt=0.02, blowup_grad_linf=1e-6)
    with pytest.raises(Blowup) as info:
        compressible.run(state, 1.0, cfg)
    assert info.value.time >= 0.0
    assert info.value.ledger is not None
    assert "grad" in info.value.reason


def test_blowup_time_and_step_are_the_ledgers_last_row(grid32):
    state = make_initial_data("taylor-green-ill", grid32, eps=0.5, amplitude=4.0)
    g0 = spectral.jacobian_sup(state.v)
    with pytest.raises(Blowup) as info:
        compressible.run(state, 1.0, StepperConfig(blowup_grad_linf=2.0 * g0))
    blow = info.value
    assert blow.column == "grad_v_linf"
    assert blow.step == len(blow.ledger) - 1 > 0
    assert blow.time == blow.ledger.times[-1] > 0.0


def test_monitor_row_covers_ledger_columns(grid64):
    from machlab.ledger import COMPRESSIBLE_COLUMNS
    state = small_state(grid64)
    row = compressible.monitor_row(state)
    non_accum = [c for c in COMPRESSIBLE_COLUMNS if not c.startswith("int_")]
    assert set(row) == set(non_accum)


def parent_rhs(state):
    """The allocating tendency expression the scratch version must reproduce."""
    g = state.grid
    u = state.modes
    w, dx, dy = np.fft.irfft2(np.stack([u, 1j * g.kx * u, 1j * g.ky * u]), norm="forward")
    vx, vy, c = w
    coupling = np.stack([dx[2], dy[2], dx[0] + dy[1]])
    tendency = -(vx * dx + vy * dy) - (state.gamma_bar * c) * coupling
    return np.where(g.dealias_mask, np.fft.rfft2(tendency, norm="forward"), 0.0)


def test_rhs_nonlinear_into_out_matches_the_plain_expression(grid64):
    state = small_state(grid64, amplitude=2.0)
    out = np.full_like(state.modes, np.nan)
    assert compressible.rhs_nonlinear(state, out=out) is out
    assert out.tobytes() == parent_rhs(state).tobytes()
    fresh = compressible.rhs_nonlinear(state)
    assert fresh.tobytes() == out.tobytes() and not np.shares_memory(fresh, out)


def run_steps(state, steps, between=lambda: None):
    """Final modes and monitor rows after ``steps`` CFL-sized Strang steps,
    calling ``between`` after each one."""
    cfg = StepperConfig()
    rows = []
    for _ in range(steps):
        state = compressible.step(state, cfg, compressible.cfl_dt(state, cfg))
        rows.append(compressible.monitor_row(state))
        between()
    return state.modes.tobytes(), rows


def test_steps_are_bit_identical_across_grids_and_threads(grid64, grid32):
    start = small_state(grid64, amplitude=2.0)
    alone = run_steps(start, 4)

    # each step on a second grid swaps this thread's scratch for another size
    other = [small_state(grid32, amplitude=2.0)]

    def step_other():
        cfg = StepperConfig()
        other[0] = compressible.step(other[0], cfg, compressible.cfl_dt(other[0], cfg))
        compressible.monitor_row(other[0])

    assert run_steps(start, 4, step_other) == alone

    # three threads at once, switching often: a shared scratch would mix their stages
    results = [None] * 3

    def worker(i):
        results[i] = run_steps(start, 4)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [alone] * 3


def test_returned_states_do_not_alias_the_scratch(grid64):
    cfg = StepperConfig()
    s0 = small_state(grid64, amplitude=2.0)
    s1 = compressible.step(s0, cfg, compressible.cfl_dt(s0, cfg))
    k = compressible.rhs_nonlinear(s1)
    final, _, snaps = compressible.run(s1, 0.05, cfg, snapshot_times=[0.02])
    returned = [s0.modes, s1.modes, k, final.modes] + [s.modes for s in snaps.values()]
    kept = [a.copy() for a in returned]
    state = s1
    for _ in range(3):
        state = compressible.step(state, cfg, compressible.cfl_dt(state, cfg))
        compressible.monitor_row(state)
        compressible.rhs_nonlinear(state)
        compressible.cfl_dt(state, cfg)
    compressible.run(s0, 0.05, cfg)
    for a, b in zip(returned, kept):
        assert a.tobytes() == b.tobytes()
