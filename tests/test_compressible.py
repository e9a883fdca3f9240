"""Split integrator for the rescaled barotropic system."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from machlab import compressible, incompressible, spectral
from machlab import littlewood_paley as lp
from machlab.compressible import Blowup, StepperConfig
from machlab.initial_data import KNOWN_DATA, make_initial_data


def small_state(grid, eps=0.1, amplitude=0.5, seed=0):
    return make_initial_data("vortex-pair-ill", grid, eps=eps, amplitude=amplitude,
                             seed=seed, gamma_bar=0.2)


def state_norm(a, b):
    return spectral.l2_norm(spectral.sub(a, b))


def acoustic_state(state, dt, rotation=None):
    """The exact acoustic step of a dealiased state as a new state: the
    kernel's band columns, zero past them."""
    g = state.grid
    if rotation is None:
        rotation = compressible._rotation(g, dt, state.eps)
    modes = np.zeros_like(state.modes)
    compressible.acoustic_exact_step(state.modes[..., :g.band], rotation, modes[..., :g.band])
    return spectral.FlowState(g, modes, state.eps, state.gamma_bar)


def test_acoustic_exact_step_conserves_mode_energy(grid64):
    state = small_state(grid64)
    out = acoustic_state(state, 0.043)
    grid = grid64
    khat_x = np.where(grid.kmag > 0, grid.kx / np.where(grid.kmag > 0, grid.kmag, 1.0), 0.0)
    khat_y = np.where(grid.kmag > 0, grid.ky / np.where(grid.kmag > 0, grid.kmag, 1.0), 0.0)

    def mode_energy(s):
        a = khat_x * s.modes[0] + khat_y * s.modes[1]
        return np.abs(a) ** 2 + np.abs(s.modes[2]) ** 2

    e0, e1 = mode_energy(state), mode_energy(out)
    assert np.max(np.abs(e1 - e0)) <= 1e-13 * np.max(e0)


def full_table_rotation(grid, dt, eps):
    """cos, sin of theta = |k| dt / eps over the whole half table and the unit
    wavevector; the once-per-|k| rotation must reproduce them bit for bit."""
    theta = grid.kmag * (dt / eps)
    return np.cos(theta), np.sin(theta), grid.kvec * grid.inv_kmag


def test_acoustic_step_matches_the_full_table_rotation_bit_for_bit(grid64, monkeypatch):
    state = small_state(grid64)
    for dt in (0.043, 0.19):
        got = acoustic_state(state, dt)
        want = acoustic_state(state, dt, full_table_rotation(grid64, dt, state.eps))
        assert got.modes.tobytes() == want.modes.tobytes(), dt
    cfg = StepperConfig()
    got = compressible.step(spectral.dealias(state), cfg, 0.05)  # each step on its own copy
    monkeypatch.setattr(compressible, "_rotation", full_table_rotation)
    want = compressible.step(spectral.dealias(state), cfg, 0.05)
    assert got.modes.tobytes() == want.modes.tobytes()


def test_acoustic_exact_step_leaves_solenoidal_part_alone(grid64):
    state = small_state(grid64)
    out = acoustic_state(state, 0.19)
    p0 = spectral.leray_p(state.v)
    p1 = spectral.leray_p(out.v)
    assert np.max(np.abs(p1.modes - p0.modes)) <= 1e-14


def test_linear_run_matches_free_propagator(grid64):
    """With the nonlinearity off the solver must reproduce the closed-form
    fast evolution: rotated wave variables over an unchanged vortical part."""
    from machlab import acoustic
    state = small_state(grid64, eps=0.05)
    t_final = 0.3
    cfg = StepperConfig(cfl=0.4, max_dt=0.02, disable_nonlinear=True)
    final, _, _ = compressible.run(state, t_final, cfg)
    rotated = acoustic.free_propagate(acoustic.make_acoustic(state), t_final, state.eps)
    exact = acoustic.acoustic_to_state(rotated, spectral.leray_p(state.v), state.eps,
                                       state.gamma_bar)
    assert state_norm(final, exact) <= 1e-12 * spectral.l2_norm(state)


def test_projected_dynamics_matches_vorticity_solver(grid64, monkeypatch):
    """Projecting the quadratic tendency and starting from c = 0 turns the
    split scheme into the incompressible solver, step for step."""
    rhs = compressible.rhs_nonlinear

    def projected_rhs(grid, u, gamma_bar, out):
        out = rhs(grid, u, gamma_bar, out)
        full = np.zeros((2,) + grid.modes_shape, complex)
        full[..., :grid.band] = out[:2]  # the tendency is zero past the band
        out[:2] = spectral.leray_p(spectral.Field(grid, full)).modes[..., :grid.band]
        return out

    monkeypatch.setattr(compressible, "rhs_nonlinear", projected_rhs)
    state = small_state(grid64)
    v0 = spectral.leray_p(state.v)
    zero_c = np.zeros((1,) + grid64.modes_shape, complex)
    proj_state = spectral.FlowState(grid64, np.concatenate([v0.modes, zero_c]), eps=state.eps,
                                    gamma_bar=state.gamma_bar)
    dt, t_final = 0.01, 0.1
    cfg = StepperConfig(cfl=1.0, max_dt=dt)
    comp_final, _, _ = compressible.run(proj_state, t_final, cfg)

    omega0 = spectral.curl2d(v0)
    inc_final, _, _ = incompressible.run_incompressible(omega0, t_final, cfl=1.0, max_dt=dt)
    v_inc = incompressible.velocity_from_vorticity(inc_final)
    err = spectral.l2_norm(spectral.sub(comp_final.v, v_inc))
    assert err <= 1e-10 * spectral.l2_norm(v0)
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
    g0 = spectral.jacobian_sup(state.grid, state.modes[:2])
    with pytest.raises(Blowup) as info:
        compressible.run(state, 1.0, StepperConfig(blowup_grad_linf=2.0 * g0))
    blow = info.value
    assert blow.column == "grad_v_linf"
    assert blow.step == len(blow.ledger) - 1 > 0
    assert blow.time == blow.ledger.times[-1] > 0.0


def test_blowup_row_trips_a_nan_in_the_c_modes_at_the_same_step(grid32, monkeypatch):
    """A NaN in the sound speed alone leaves grad v finite; the block sum
    vc_b2 still goes NaN, so the blowup row trips at the step the full
    monitor row trips at, naming another column."""
    state = small_state(grid32, amplitude=2.0)
    real_step = compressible.step
    calls = []

    def planting_step(s, config, dt):
        s = real_step(s, config, dt)
        calls.append(dt)
        if len(calls) == 3:
            s.modes[2, 1, 1] = np.nan
        return s

    monkeypatch.setattr(compressible, "step", planting_step)
    trips = []
    for monitor in (compressible.MONITOR, compressible.BLOWUP_MONITOR):
        calls.clear()
        with pytest.raises(Blowup) as info:
            compressible.run(state, 1.0, StepperConfig(), monitor=monitor)
        trips.append(info.value)
    full, blowup = trips
    assert full.step == blowup.step == 3
    assert full.time == blowup.time == full.ledger.times[-1] > 0.0
    assert (full.column, blowup.column) == ("grad_c_linf", "vc_b2")
    assert blowup.ledger.columns == ["grad_v_linf", "vc_b2"]


def test_blowup_row_equals_the_monitor_rows_columns(grid64):
    state = small_state(grid64, amplitude=2.0)
    full = compressible.monitor_row(state)
    assert compressible.blowup_row(state) == {k: full[k] for k in ("grad_v_linf", "vc_b2")}


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
    band = grid64.band
    want = parent_rhs(state)
    assert not np.any(want[..., band:])
    out = np.full((3, grid64.n, band), np.nan, complex)
    assert compressible.rhs_nonlinear(grid64, state.modes, state.gamma_bar, out=out) is out
    assert out.tobytes() == np.ascontiguousarray(want[..., :band]).tobytes()
    cut = np.full_like(out, np.nan)  # from the band columns of the state only
    compressible.rhs_nonlinear(grid64, state.modes[..., :band], state.gamma_bar, out=cut)
    assert cut.tobytes() == out.tobytes()


def full_width_acoustic(state, dt):
    """The allocating full-width acoustic step, with the full cos and sin tables."""
    cos_t, sin_t, khat = full_table_rotation(state.grid, dt, state.eps)
    v, b = state.modes[:2], state.modes[2]
    a = khat[0] * v[0] + khat[1] * v[1]
    modes = np.empty_like(state.modes)
    modes[2] = b * cos_t - (1j * a) * sin_t
    modes[:2] = v + ((a * cos_t - (1j * b) * sin_t) - a) * khat
    return replace(state, modes=modes)


def full_width_rk4(state, dt):
    """The allocating RK4 of the quadratic terms, in the sum order of ``spectral.rk4``."""
    def f(u):
        return parent_rhs(replace(state, modes=u))

    u = state.modes
    acc = f(u)
    k = f(u + (dt / 2.0) * acc)
    acc = acc + 2.0 * k
    k = f(u + (dt / 2.0) * k)
    acc = acc + 2.0 * k
    acc = acc + f(u + dt * k)
    return replace(state, modes=u + (dt / 6.0) * acc)


def full_width_step(state, config, dt):
    """The full-width Strang step: both acoustic halves, the RK4, then the
    ``np.where`` dealias, each on new arrays."""
    half = full_width_acoustic(state, 0.5 * dt)
    if not config.disable_nonlinear:
        half = full_width_rk4(half, dt)
    full = full_width_acoustic(half, 0.5 * dt)
    return replace(full, modes=np.where(state.grid.dealias_mask, full.modes, 0.0))


def full_width_cfl_dt(state, config):
    """The CFL step from a full-width inverse and the magnitude of the velocity."""
    samples = np.fft.irfft2(state.modes, norm="forward")
    v_max = float(np.max(np.sqrt(np.sum(samples[:2] ** 2, axis=0))))
    c_max = float(np.max(np.abs(samples[2])))
    return spectral.advective_dt(state.grid, v_max + state.gamma_bar * c_max,
                                 config.cfl, config.max_dt)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("name", KNOWN_DATA)
@pytest.mark.parametrize("linear", [False, True])
def test_band_steps_equal_the_full_width_steps_bit_for_bit(n, name, linear):
    grid = spectral.Grid(n)
    cfg = StepperConfig(disable_nonlinear=linear)
    want = make_initial_data(name, grid, eps=0.3, amplitude=2.0, seed=1)
    got = spectral.dealias(want)  # the copy run steps
    modes = got.modes
    for i in range(5):
        dt = full_width_cfl_dt(want, cfg)
        assert compressible.cfl_dt(got, cfg) == dt, i
        want = full_width_step(want, cfg, dt)
        got = compressible.step(got, cfg, dt)
        assert got.modes is modes and modes.tobytes() == want.modes.tobytes(), i
    assert compressible.step(got, cfg, 0.01).modes.tobytes() \
        == full_width_step(want, cfg, 0.01).modes.tobytes()


def test_blowup_row_equals_the_full_width_expressions_bit_for_bit(grid64):
    g = grid64
    state = small_state(g, amplitude=2.0)
    for _ in range(3):
        state = compressible.step(state, StepperConfig(), 0.05)
        grad = float(np.max(np.abs(spectral.to_samples(1j * g.kvec[:, None] * state.modes[None, :2]))))
        power = g.parseval_weight * np.sum(np.abs(state.modes) ** 2, axis=0)
        b2 = g.box_length * np.sqrt(np.sum(g.blocks**2 * power, axis=(1, 2)))
        assert compressible.blowup_row(state) == {"grad_v_linf": grad,
                                                  "vc_b2": lp.besov_sum(b2, 2.0)}


def run_steps(state, steps, between=lambda: None):
    """Final modes and monitor rows after ``steps`` CFL-sized Strang steps of
    a copy of ``state``, calling ``between`` after each one."""
    cfg = StepperConfig()
    state = spectral.dealias(state)
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
    """What a step, a tendency and a run return survives later work and a
    NaN fill of every scratch array; a step returns the state it stepped in
    place, and the run steps its own copy of the initial state and
    snapshots copies of the live one."""
    cfg = StepperConfig()
    s1 = small_state(grid64, amplitude=2.0)
    assert compressible.step(s1, cfg, compressible.cfl_dt(s1, cfg)) is s1
    initial = s1.modes.copy()
    k = compressible.rhs_nonlinear(grid64, s1.modes, s1.gamma_bar,
                                   np.empty((3, grid64.n, grid64.band), complex))
    final, ledger, snaps = compressible.run(s1, 0.05, cfg, snapshot_times=[0.0, 0.02, 0.05])
    assert s1.modes.tobytes() == initial.tobytes()
    assert final.modes is not s1.modes
    returned = [s1.modes, k, final.modes] + [s.modes for s in snaps.values()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(returned) for b in returned[i + 1:])
    kept = [a.copy() for a in returned]
    columns = {c: ledger.column(c).tobytes() for c in ledger.columns}
    times = list(ledger.times)
    for arr in spectral.scratch(grid64.n)._arrays.values():
        arr.fill(np.nan)
    for a, b in zip(returned, kept):
        assert a.tobytes() == b.tobytes()
    state = spectral.dealias(s1)
    for _ in range(3):
        state = compressible.step(state, cfg, compressible.cfl_dt(state, cfg))
        compressible.monitor_row(state)
        compressible.rhs_nonlinear(grid64, state.modes, state.gamma_bar, np.empty_like(k))
        compressible.cfl_dt(state, cfg)
    compressible.run(s1, 0.05, cfg)
    for a, b in zip(returned, kept):
        assert a.tobytes() == b.tobytes()
    assert {c: ledger.column(c).tobytes() for c in ledger.columns} == columns
    assert ledger.times == times


@pytest.mark.parametrize("solver", ["compressible", "incompressible"])
def test_snapshots_are_copies_that_keep_their_values(grid64, solver):
    """Each solver steps one state in place; its snapshots share no memory
    with each other or with the final state, and each keeps the state of
    its time: the dealiased start, or the end of a run stopped there."""
    state = small_state(grid64, amplitude=2.0)
    if solver == "compressible":
        start = state

        def run(t_final, times=()):
            return compressible.run(state, t_final, StepperConfig(max_dt=0.01), times)
    else:
        start = spectral.curl2d(spectral.leray_p(state.v))

        def run(t_final, times=()):
            return incompressible.run_incompressible(start, t_final, max_dt=0.01,
                                                     snapshot_times=times)

    times = [0.0, 0.02, 0.05]
    final, _, snaps = run(0.05, times)
    arrays = [final.modes] + [snaps[t].modes for t in times]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    assert snaps[0.0].modes.tobytes() == spectral.dealias(start).modes.tobytes()
    for t in times[1:]:
        assert snaps[t].modes.tobytes() == run(t)[0].modes.tobytes(), t
    assert snaps[0.05].modes.tobytes() == final.modes.tobytes()


def test_a_run_allocates_no_array_per_step(grid64):
    """After a warm-up run, a run of ten or more steps holds at once no more
    than its state and its ledger, and less than one band plane besides.
    numpy's ufunc iteration buffers (up to 8192 elements an operand) are
    numpy's, not the step's, and a buffer size of 64 keeps them out of the
    count; a per-step array of the grid's size still fails."""
    state = small_state(grid64, amplitude=2.0)
    cfg = StepperConfig(max_dt=0.01)
    compressible.run(state, 0.02, cfg, monitor=compressible.BLOWUP_MONITOR)
    size = np.setbufsize(64)
    tracemalloc.start()
    try:
        final, ledger, _ = compressible.run(state, 0.1, cfg, monitor=compressible.BLOWUP_MONITOR)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        np.setbufsize(size)
    assert len(ledger) > 10
    band_plane = grid64.n * grid64.band * 16
    ledger_bytes = held - final.modes.nbytes  # what the run returns beside its state
    assert 0 < ledger_bytes < band_plane
    assert peak < final.modes.nbytes + ledger_bytes + band_plane
