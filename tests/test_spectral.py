"""Fourier substrate: transforms, calculus, projections, dealiasing."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from machlab import spectral
from machlab.ledger import mixed_time_norm
from machlab.spectral import Grid


def random_field(grid, rng):
    return spectral.fft_forward(grid, rng.standard_normal((grid.n, grid.n)))


def random_vector(grid, rng):
    return spectral.Field(grid, spectral.to_modes(rng.standard_normal((2, grid.n, grid.n))))


def test_roundtrip(grid64, rng):
    samples = rng.standard_normal((64, 64))
    back = spectral.fft_forward(grid64, samples).values()
    assert np.max(np.abs(back - samples)) <= 1e-12 * np.max(np.abs(samples))


def test_parseval(grid64, rng):
    """l2_norm in mode space must equal the quadrature L2 norm."""
    samples = rng.standard_normal((64, 64))
    f = spectral.fft_forward(grid64, samples)
    quad = math.sqrt(np.sum(samples**2) * grid64.cell_area)
    assert abs(spectral.l2_norm(f) - quad) <= 1e-12 * quad


def test_derivatives_exact_on_modes(grid64):
    k = 2.0 * math.pi / grid64.box_length * 3
    x, y = grid64.coordinates()
    f = spectral.fft_forward(grid64, np.sin(k * x) * np.cos(2 * k * y))
    gx = spectral.grad(f).values()[0]
    exact = k * np.cos(k * x) * np.cos(2 * k * y)
    assert np.max(np.abs(gx - exact)) <= 1e-12 * k


def test_laplacian_matches_div_grad(grid64, rng):
    f = random_field(grid64, rng)
    a = spectral.laplacian(f)
    b = spectral.div(spectral.grad(f))
    assert np.max(np.abs(a.modes - b.modes)) <= 1e-13 * np.max(np.abs(a.modes))


def test_inv_laplacian_inverts_on_mean_free(grid64, rng):
    f = random_field(grid64, rng)
    g = spectral.inv_laplacian(spectral.laplacian(f))
    diff = f.modes.copy()
    diff[0, 0] = 0.0  # the zero mode is not recoverable
    assert np.max(np.abs(g.modes - diff)) <= 1e-12 * np.max(np.abs(diff))


class TestLeray:
    def test_annihilates_gradients(self, grid64, rng):
        g = spectral.grad(random_field(grid64, rng))
        p = spectral.leray_p(g)
        scale = max(spectral.l2_norm(spectral.Field(grid64, m)) for m in g.modes)
        assert spectral.l2_norm(p) <= 1e-12 * scale

    def test_idempotent(self, grid64, rng):
        once = spectral.leray_p(random_vector(grid64, rng))
        twice = spectral.leray_p(once)
        assert np.max(np.abs(twice.modes - once.modes)) <= 1e-13

    def test_divergence_free(self, grid64, rng):
        v = random_vector(grid64, rng)
        p = spectral.leray_p(v)
        assert spectral.l2_norm(spectral.div(p)) <= 1e-12 * spectral.l2_norm(v)

    def test_p_plus_q_is_identity(self, grid64, rng):
        v = random_vector(grid64, rng)
        p, q = spectral.leray_p(v), spectral.leray_q(v)
        assert np.max(np.abs(p.modes + q.modes - v.modes)) <= 1e-13


def test_perp_grad_is_divergence_free_and_curls_back(grid64, rng):
    psi = random_field(grid64, rng)
    v = spectral.perp_grad(psi)
    assert spectral.l2_norm(spectral.div(v)) <= 1e-12 * spectral.l2_norm(v)
    omega = spectral.curl2d(v)
    lap = spectral.laplacian(psi)
    assert np.max(np.abs(omega.modes - lap.modes)) <= 1e-12 * np.max(np.abs(lap.modes))


def test_dealias_idempotent_and_radial(grid64, rng):
    f = spectral.dealias(random_field(grid64, rng))
    again = spectral.dealias(f)
    assert np.array_equal(f.modes, again.modes)
    assert np.all(f.modes[~grid64.dealias_mask] == 0.0)


def test_dealiased_product_is_alias_free(grid64, rng):
    """Quadratic products of retained modes must match a padded fine-grid
    product on the retained set; the radial 2/3 cutoff makes this exact."""
    f = spectral.dealias(random_field(grid64, rng))
    g = spectral.dealias(random_field(grid64, rng))
    coarse = spectral.fft_forward(grid64, f.values() * g.values())

    fine = Grid(128, grid64.box_length)
    ix = np.fft.fftfreq(64, d=1.0 / 64).astype(int)

    def lift(h):  # zero-pad the half spectrum; the dealiased Nyquist modes are zero
        big = np.zeros(fine.modes_shape, dtype=np.complex128)
        big[ix, :33] = h.modes
        return spectral.Field(fine, big)
    prod_fine = spectral.fft_forward(fine, lift(f).values() * lift(g).values())
    restricted = prod_fine.modes[ix, :33]
    kept = spectral.dealias(coarse).modes
    ref = spectral.dealias(spectral.Field(grid64, restricted)).modes
    assert np.max(np.abs(kept - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_transforms_write_into_out_bit_for_bit(rng):
    """irfft2 drops its ``out`` argument, so to_samples must not rely on it:
    with ``out`` the result is irfft2's, bit for bit, in the given array."""
    stack = spectral.to_modes(rng.standard_normal((3, 3, 32, 32)))
    want = np.fft.irfft2(stack, norm="forward")
    buf = np.full((3, 3, 32, 32), np.nan)
    assert spectral.to_samples(stack, out=buf) is buf
    assert buf.tobytes() == want.tobytes()


def dealiased_stack(grid, planes, rng):
    """The half spectra of random samples, every mode outside the dealias disk zero."""
    modes = spectral.to_modes(rng.standard_normal((planes, grid.n, grid.n)))
    return np.where(grid.dealias_mask, modes, 0.0)


@pytest.mark.parametrize("n", [8, 32, 128, 512])
def test_to_samples_of_a_cut_spectrum_equals_the_full_width_inverse_bit_for_bit(n):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    for planes in (1, int(rng.integers(2, 9)), 9):
        modes = dealiased_stack(grid, planes, rng)
        want = np.fft.irfftn(modes, axes=(-2, -1), norm="forward").tobytes()
        assert spectral.to_samples(modes).tobytes() == want
        assert spectral.to_samples(modes[..., :grid.band]).tobytes() == want
        out = np.full((planes, n, n), np.nan)
        assert spectral.to_samples(np.ascontiguousarray(modes[..., :grid.band]), out=out) is out
        assert out.tobytes() == want
        # any cut that keeps every nonzero column
        cut = int(rng.integers(grid.band, n // 2 + 2))
        assert spectral.to_samples(modes[..., :cut]).tobytes() == want


@pytest.mark.parametrize("n", [8, 32, 128, 512])
def test_to_dealiased_modes_equals_to_modes_and_the_mask_bit_for_bit(n):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    for shape in ((n, n), (3, n, n)):
        samples = rng.standard_normal(shape)
        want = spectral.to_modes(samples)
        np.copyto(want, 0.0, where=~grid.dealias_mask)
        assert spectral.to_dealiased_modes(grid, samples).tobytes() == want.tobytes()
        out = np.full(want.shape, np.nan, dtype=np.complex128)
        assert spectral.to_dealiased_modes(grid, samples, out=out) is out
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, band", [(8, 3), (32, 11), (128, 43), (256, 86), (512, 171)])
def test_band_holds_exactly_the_columns_of_the_dealias_disk(n, band):
    for box in (16.0 * math.pi, 2.0 * math.pi, 3.0):
        grid = Grid(n, box)
        assert grid.band == band
        columns = np.flatnonzero(np.any(grid.dealias_mask, axis=0))
        assert columns.tolist() == list(range(band)), box


@pytest.mark.parametrize("n, columns", [(32, (11, 17)), (128, (11, 22, 43, 65)),
                                        (512, (11, 22, 43, 86, 171, 257))])
def test_block_columns_hold_exactly_the_support_of_each_block(n, columns):
    """The outer edge 8/3 * 2**q of ring q is 2**q * 64/3 columns out at this
    box, the low block's 4/3 is 32/3, and no block reaches past column n/2."""
    grid = Grid(n)
    assert grid.block_columns == columns
    assert len(grid.block_columns) == len(grid.blocks)
    for block, c in zip(grid.blocks, grid.block_columns):
        assert np.all(block[:, c:] == 0.0) and np.any(block[:, c - 1] != 0.0)


def test_wavenumber_tables_are_built_on_first_read_and_equal_their_formulas():
    grid = Grid(64)
    lazy = ("kvec", "khat", "k2", "inv_k2", "inv_kmag")
    assert not set(lazy) & set(vars(grid))
    kx, ky = grid.kx, grid.ky
    k2 = kx * kx + ky * ky
    assert grid.k2.tobytes() == k2.tobytes()
    assert grid.kmag.tobytes() == np.sqrt(k2).tobytes()
    nz = k2 > 0.0
    inv_k2, inv_kmag = np.zeros_like(k2), np.zeros_like(k2)
    inv_k2[nz] = 1.0 / k2[nz]
    inv_kmag[nz] = 1.0 / np.sqrt(k2)[nz]
    assert grid.inv_k2.tobytes() == inv_k2.tobytes()
    assert grid.inv_kmag.tobytes() == inv_kmag.tobytes()
    kvec = np.stack(np.broadcast_arrays(kx, ky))
    assert grid.kvec.tobytes() == kvec.tobytes()
    assert grid.khat.tobytes() == (kvec * inv_kmag).tobytes()
    assert all(getattr(grid, name) is vars(grid)[name] for name in lazy)


def test_scratch_arrays_of_any_column_count_share_one_buffer():
    buf = spectral.Scratch(32)
    full = buf.modes(9)
    cut = buf.modes(9, 11)
    assert cut.shape == (9, 32, 11) and cut.flags.c_contiguous
    assert np.shares_memory(cut, full)
    assert buf.multipliers(2, 11).shape == (2, 32, 11)


@pytest.mark.parametrize("n", [8, 64, 256, 512])
def test_kmag_cos_sin_equals_the_full_table_trig_bit_for_bit(n):
    grid = Grid(n)
    for s in (0.0, 4e-3, -14.8, 22.0):  # negative: free propagation backwards in time
        cos_t, sin_t = spectral.kmag_cos_sin(grid, s)
        assert cos_t.tobytes() == np.cos(grid.kmag * s).tobytes(), s
        assert sin_t.tobytes() == np.sin(grid.kmag * s).tobytes(), s


@pytest.mark.parametrize("n", [8, 64, 512])
def test_kmag_levels_are_the_distinct_kmag_values(n):
    grid = Grid(n)
    assert np.all(np.diff(grid.kmag_levels) > 0.0)
    assert grid.kmag_index.dtype == np.intp and grid.kmag_index.shape == grid.modes_shape
    assert grid.kmag_levels[grid.kmag_index].tobytes() == grid.kmag.tobytes()


def test_rk4_matches_the_textbook_formula_bit_for_bit(rng):
    u = rng.standard_normal((3, 32, 17)) + 1j * rng.standard_normal((3, 32, 17))

    def f(w, t):
        return np.cos(t) * w * w - 1j * w

    def into(w, t, out):
        out[...] = f(w, t)

    t, dt = 0.3, 0.05
    k1 = f(u, t)
    k2 = f(u + (dt / 2.0) * k1, t + 0.5 * dt)
    k3 = f(u + (dt / 2.0) * k2, t + 0.5 * dt)
    k4 = f(u + dt * k3, t + dt)
    want = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = spectral.rk4(into, u, t, dt)
    assert got.tobytes() == want.tobytes()
    again = spectral.rk4(into, u, t, dt)  # the work arrays are reused, the result is not
    assert again.tobytes() == want.tobytes()
    assert not np.shares_memory(got, again)
    assert got.tobytes() == want.tobytes()


def clock_row(rows):
    """A one-column monitor of a state that is its own clock; each row also
    appends its time to ``rows``."""

    def row(u, t):
        rows.append(t)
        return {"u": u}

    return row, ["u"]


def toy_integrate(rows, steps, check=lambda t, row, step: None, snapshot_times=()):
    """spectral.integrate from 0 to 1 on a state that is its own clock, with
    a proposed dt of 0.375; every value involved is exact in binary."""

    def advance(u, t, dt):
        assert u == t
        steps.append(dt)
        return u + dt

    return spectral.integrate(0.0, 0.0, 1.0, lambda u: 0.375, advance, clock_row(rows),
                              snapshot_times, check=check)


def test_integrate_clips_to_snapshots_and_to_t_final():
    rows, steps = [], []
    u, ledger, snaps = toy_integrate(rows, steps, snapshot_times=(0.5, 0.0, 0.25, 0.5))
    assert steps == [0.25, 0.25, 0.375, 0.125]  # two snapshot clips, then t_final
    assert rows == [0.0, 0.25, 0.5, 0.875, 1.0]  # the start, then once per step
    assert snaps == {0.0: 0.0, 0.25: 0.25, 0.5: 0.5}
    assert u == 1.0
    assert ledger.times == rows


def test_integrate_returns_the_ledger_of_its_monitor():
    def row(u, t):
        return {"u": u, "twice": 2.0 * t}

    u, ledger, _ = spectral.integrate(0.0, 0.0, 1.0, lambda u: 0.375, lambda u, t, dt: u + dt,
                                      (row, ["u", "twice", "int_u"]))
    assert u == 1.0
    assert ledger.columns == ["u", "twice", "int_u"]
    assert ledger.times == [0.0, 0.375, 0.75, 1.0]
    assert list(ledger.column("u")) == ledger.times
    assert list(ledger.column("twice")) == [0.0, 0.75, 1.5, 2.0]
    assert list(ledger.column("int_u")) == [0.0, 0.0703125, 0.28125, 0.5]  # trapezoids of u


class StopCheck(spectral.RunEnded):
    """A run-ending exception raised by a test's check."""


def test_integrate_runs_check_after_each_append_with_its_step_number():
    seen = []

    def check(t, row, step):
        seen.append((t, row, step))
        if step == 2:
            raise StopCheck(t)

    rows, steps = [], []
    with pytest.raises(StopCheck) as err:
        toy_integrate(rows, steps, check)
    assert seen == [(0.0, {"u": 0.0}, 0), (0.375, {"u": 0.375}, 1), (0.75, {"u": 0.75}, 2)]
    assert err.value.ledger.times == [0.0, 0.375, 0.75]  # the row that tripped was appended
    assert steps == [0.375, 0.375]


def test_integrate_propagates_a_raise_in_record_after_the_earlier_rows():
    def check(t, row, step):
        if t > 0.6:
            raise RuntimeError(f"tripped at {t}")

    rows, steps = [], []
    with pytest.raises(RuntimeError, match="tripped at 0.75") as err:
        toy_integrate(rows, steps, check)
    assert rows == [0.0, 0.375, 0.75]
    assert steps == [0.375, 0.375]
    assert not hasattr(err.value, "ledger")  # only a RunEnded carries the rows


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_integrate_raises_on_a_step_that_does_not_advance_time(bad):
    proposals = [0.25, 0.25, bad]
    rows, steps = [], []

    def advance(u, t, dt):
        steps.append(dt)
        return u + dt

    with pytest.raises(spectral.StalledStep, match=r"step 3 does not advance time from t=0\.5") as err:
        spectral.integrate(0.0, 0.0, 1.0, lambda u: proposals.pop(0), advance,
                           clock_row(rows))
    assert (err.value.time, err.value.step) == (0.5, 3)
    assert rows == [0.0, 0.25, 0.5]  # the rows before the stall are kept
    assert err.value.ledger.times == rows and list(err.value.ledger.column("u")) == rows
    assert steps == [0.25, 0.25]


def test_integrate_keeps_only_what_capture_returns_at_each_snapshot():
    seen = []

    def capture(u, s):
        seen.append((u, s))
        return -u

    u, _, snaps = spectral.integrate(0.0, 0.0, 1.0, lambda u: 0.375, lambda u, t, dt: u + dt,
                                     clock_row([]), (0.5, 0.0, 0.25), capture)
    assert snaps == {0.0: -0.0, 0.25: -0.25, 0.5: -0.5}
    assert seen == [(0.0, 0.0), (0.25, 0.25), (0.5, 0.5)]  # once per time, as the run passes it
    assert u == 1.0


def test_integrate_stops_a_run_that_spends_its_step_budget(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_STEPS", 3)
    rows, steps = [], []

    def advance(u, t, dt):
        steps.append(dt)
        return u + dt

    with pytest.raises(spectral.StepBudgetSpent,
                       match=r"3 steps reach only t=0\.75 of t_final=1\.0") as err:
        spectral.integrate(0.0, 0.0, 1.0, lambda u: 0.25, advance, clock_row(rows))
    assert (err.value.time, err.value.step) == (0.75, 3)
    assert rows == [0.0, 0.25, 0.5, 0.75]  # the rows before the budget ran out are kept
    assert err.value.ledger.times == rows and list(err.value.ledger.column("u")) == rows
    assert steps == [0.25] * 3
    # a run that needs exactly the budget ends at t_final
    monkeypatch.setattr(spectral, "MAX_STEPS", 4)
    u, _, _ = spectral.integrate(0.0, 0.0, 1.0, lambda u: 0.25, lambda u, t, dt: u + dt,
                                 clock_row([]))
    assert u == 1.0


def test_jacobian_sup_of_a_cut_velocity_equals_the_full_width_one(rng):
    for n in (8, 32, 128):
        grid = Grid(n)
        v = np.where(grid.dealias_mask,
                     spectral.to_modes(rng.standard_normal((2, n, n))), 0.0)
        full = spectral.jacobian_sup(grid, v)
        assert spectral.jacobian_sup(grid, v[..., :grid.band]) == full
        assert full == float(np.max(np.abs(spectral.to_samples(
            1j * grid.kvec[:, None] * v[None]))))


def test_scratch_is_per_thread_and_keeps_one_grid_size():
    buf = spectral.scratch(32)
    assert spectral.scratch(32) is buf
    assert spectral.scratch(32).modes(4).shape == (4, 32, 17)
    assert spectral.scratch(32).samples(2).shape == (2, 32, 32)
    assert spectral.scratch(32).multipliers(2).dtype == np.float64
    other = []
    worker = threading.Thread(target=lambda: other.append(spectral.scratch(32)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and other[0] is not buf
    assert spectral.scratch(64) is not buf
    assert spectral.scratch(32) is not buf


def test_scratch_keeps_the_rk4_work_of_the_last_shape_only():
    buf = spectral.Scratch(16)
    modes, feet = np.zeros((3, 16, 9), complex), np.zeros((3, 16, 16))
    first = buf.rk4_work(modes)
    assert first.shape == (3,) + modes.shape and np.shares_memory(buf.rk4_work(modes), first)
    assert buf.rk4_work(feet).shape == (3,) + feet.shape
    again = buf.rk4_work(modes)
    assert again.shape == first.shape and not np.shares_memory(again, first)


def test_lp_norm_inf_is_pointwise_sup(grid64, rng):
    samples = rng.standard_normal((64, 64))
    f = spectral.fft_forward(grid64, samples)
    assert abs(spectral.lp_norm(f, math.inf) - np.max(np.abs(samples))) <= 1e-12


def test_mixed_time_norm():
    times = np.linspace(0.0, 2.0, 201)
    values = np.full_like(times, 3.0)
    # constant c on [0, T]: L1 = c T, L4 = c T**(1/4), Linf = c
    assert abs(mixed_time_norm(times, values, 1.0) - 6.0) <= 1e-12
    assert abs(mixed_time_norm(times, values, 4.0) - 3.0 * 2.0**0.25) <= 1e-12
    assert abs(mixed_time_norm(times, values, math.inf) - 3.0) <= 1e-12


def test_snapshot_roundtrip(tmp_path, grid32, rng):
    v = random_vector(grid32, rng)
    path = tmp_path / "state.mlf"
    spectral.write_snapshot(path, v)
    n, box, arrays = spectral.read_snapshot(path)
    assert n == 32 and abs(box - grid32.box_length) == 0.0
    assert len(arrays) == 2
    assert np.array_equal(arrays[0], spectral.to_samples(v.modes[0]))
    assert np.array_equal(arrays[1], spectral.to_samples(v.modes[1]))


def test_snapshot_of_a_flow_state_holds_its_three_components(tmp_path, grid32):
    from machlab.initial_data import make_initial_data

    state = make_initial_data("vortex-pair-ill", grid32, eps=0.1, seed=1)
    path = tmp_path / "state.mlf"
    spectral.write_snapshot(path, state)
    _, _, arrays = spectral.read_snapshot(path)
    assert len(arrays) == 3
    for plane, modes in zip(arrays, state.modes):
        assert plane.tobytes() == spectral.to_samples(modes).tobytes()


def test_field_takes_any_stack_on_its_grid_and_nothing_else(grid32):
    half = grid32.modes_shape
    for lead in ((), (2,), (3, 2)):
        assert spectral.Field(grid32, np.zeros(lead + half, complex)).modes.shape == lead + half
    for shape in ((32, 32), (2, 16, 17), (3, 2, 32, 16), (17,)):
        with pytest.raises(ValueError, match="does not match grid n=32"):
            spectral.Field(grid32, np.zeros(shape, complex))
    with pytest.raises(ValueError, match="flow state"):
        spectral.FlowState(grid32, np.zeros((2,) + half, complex), eps=0.1)


def test_read_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "junk.mlf"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(ValueError):
        spectral.read_snapshot(path)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), scale=st.floats(0.1, 100.0))
def test_l2_norm_homogeneous(seed, scale):
    grid = Grid(32, 16.0 * math.pi)
    f = spectral.fft_forward(grid, np.random.default_rng(seed).standard_normal((32, 32)))
    a = spectral.l2_norm(spectral.scale(f, scale))
    assert abs(a - scale * spectral.l2_norm(f)) <= 1e-12 * a


def test_cubic_spline_matches_scipy_grid_wrap_interpolation(rng):
    """The numpy periodic cubic B-spline equals scipy's
    map_coordinates(order=3, mode="grid-wrap") up to rounding, on nodes and
    on feet many periods outside the box."""
    ndimage = pytest.importorskip("scipy.ndimage")
    grid = Grid(64, 16.0 * math.pi)
    f = random_field(grid, rng)
    L = grid.box_length
    x = rng.uniform(-40.0 * L, 40.0 * L, (64, 64))
    y = rng.uniform(-3.0 * L, 5.0 * L, (64, 64))
    x[0], y[0] = np.arange(64) * grid.spacing, 0.0  # nodes: the samples themselves
    got = spectral.cubic_spline_at(f, x, y)
    coords = np.stack([x, y]) / grid.spacing
    want = ndimage.map_coordinates(f.values(), coords.reshape(2, -1), order=3,
                                   mode="grid-wrap").reshape(64, 64)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(got[0] - f.values()[:, 0])) <= 1e-13 * np.max(np.abs(want))


def whole_grid_seeds(f, m):
    """The upsampled seeds as the whole m-by-m inverse gives them: the first
    (row, column, value) of the minimum and of the maximum."""
    n = f.grid.n
    big = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    big[np.fft.fftfreq(n, d=1.0 / n).astype(int), : n // 2 + 1] = f.modes
    big[:, n // 2] *= 0.5
    fine = spectral.to_samples(big)
    seeds = []
    for pick in (np.argmin, np.argmax):
        jx, jy = np.unravel_index(pick(fine), fine.shape)
        seeds.append((int(jx), int(jy), float(fine[jx, jy])))
    return seeds


@pytest.mark.parametrize("n", [16, 64, 128])
def test_chunked_upsampled_seeds_equal_the_whole_grid_inverse_bit_for_bit(n):
    rng = np.random.default_rng(n)
    grid = Grid(n, 16.0 * math.pi)
    f = spectral.dealias(random_field(grid, rng))
    got = spectral._upsampled_seeds(f, 4 * n)
    want = whole_grid_seeds(f, 4 * n)
    assert [(r, c, np.float64(v).tobytes()) for r, c, v in got] == \
        [(r, c, np.float64(v).tobytes()) for r, c, v in want]


def test_refined_extrema_calls_only_the_nd_transforms(grid32, rng, monkeypatch):
    """The benchmark's tracer counts the 2-D/N-D entry points of numpy.fft
    only, so a 1-D call would take transforms out of its counts."""
    f = spectral.dealias(random_field(grid32, rng))
    want = spectral.refined_extrema(f)

    def one_dimensional(*args, **kwargs):
        raise AssertionError("a 1-D numpy.fft entry point was called")

    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"):
        monkeypatch.setattr(np.fft, name, one_dimensional)
    assert spectral.refined_extrema(f) == want


def test_upsampled_seeds_keep_the_first_occurrence_across_chunks(grid32):
    """A constant field ties at every fine point: the seeds are the first one."""
    f = spectral.fft_forward(grid32, np.full((grid32.n, grid32.n), 2.0))
    assert spectral._upsampled_seeds(f, 128) == whole_grid_seeds(f, 128)
    assert [s[:2] for s in spectral._upsampled_seeds(f, 128)] == [(0, 0), (0, 0)]


def test_trig_point_matches_the_matrix_products(rng):
    """The einsum sums of the trigonometric interpolant agree with the
    ``@`` products they replace to rounding."""
    grid = Grid(64, 16.0 * math.pi)
    f = random_field(grid, rng)
    kx, ky = grid.kx.ravel(), grid.ky.ravel()
    for x, y in [(0.3, 1.7), (grid.box_length - 0.01, 22.2)]:
        ex = np.exp(1j * kx * x)
        ey = grid.parseval_weight * np.exp(1j * ky * y)
        cy, cy1, cy2 = f.modes @ ey, f.modes @ (1j * ky * ey), f.modes @ (-(ky**2) * ey)
        want = [np.real(ex @ cy), np.real((1j * kx * ex) @ cy), np.real(ex @ cy1),
                np.real((-(kx**2) * ex) @ cy), np.real((1j * kx * ex) @ cy1),
                np.real(ex @ cy2)]
        val, g, h = spectral._trig_point(f, x, y)
        scale = np.max(np.abs(f.modes)) * kx.size * ky.size
        for got, ref, order in zip((val, *g, *h), want, (0, 1, 1, 2, 2, 2)):
            assert abs(got - ref) <= 1e-13 * scale * np.max(np.abs(kx)) ** order
