"""Fast-wave diagonalization, free propagator, dispersive measurements."""

import math

import numpy as np
import pytest

from machlab import acoustic, spectral
from machlab.initial_data import make_initial_data
from machlab.ledger import mixed_time_norm


@pytest.fixture
def state64(grid64):
    return make_initial_data("vortex-pair-ill", grid64, eps=0.1, amplitude=0.5,
                             seed=2, gamma_bar=0.2)


def test_make_acoustic_drops_the_mean(state64):
    waves = acoustic.make_acoustic(state64)
    assert waves.modes.shape == (3, 2, 64, 33)  # (Gamma_x, Gamma_y, Upsilon) x (re, im)
    assert np.all(waves.modes[:, :, 0, 0] == 0.0)  # real and imaginary parts alike


def test_state_roundtrip_through_wave_variables(state64):
    """state -> (Gamma, Upsilon) + solenoidal part -> state is the identity
    whenever c is mean-free."""
    waves = acoustic.make_acoustic(state64)
    sol = spectral.leray_p(state64.v)
    back = acoustic.acoustic_to_state(waves, sol, state64.eps, state64.gamma_bar)
    err = spectral.l2_norm(spectral.sub(back, state64))
    assert err <= 1e-12 * spectral.l2_norm(state64)
    assert (back.eps, back.gamma_bar) == (state64.eps, state64.gamma_bar)


def pairs(waves):
    """The three (re, im) fields of a ``make_acoustic`` stack, one by one."""
    return [spectral.Field(waves.grid, m) for m in waves.modes]


def test_free_propagate_is_unitary_and_reversible(state64):
    for f in pairs(acoustic.make_acoustic(state64)):
        n0 = spectral.l2_norm(f)
        fwd = acoustic.free_propagate(f, 0.37, state64.eps)
        assert abs(spectral.l2_norm(fwd) - n0) <= 1e-13 * n0
        back = acoustic.free_propagate(fwd, -0.37, state64.eps)
        assert np.max(np.abs(back.modes - f.modes)) <= 1e-13 * np.max(np.abs(f.modes))


def test_free_propagate_rotates_a_whole_stack_as_each_pair_alone(state64):
    waves = acoustic.make_acoustic(state64)
    for t in (0.37, -1.48):
        moved = acoustic.free_propagate(waves, t, state64.eps)
        assert moved.modes.shape == waves.modes.shape
        for i, f in enumerate(pairs(waves)):
            alone = acoustic.free_propagate(f, t, state64.eps)
            assert moved.modes[i].tobytes() == alone.modes.tobytes(), (t, i)


def complex_field(grid, z):
    """The (re, im) field of complex samples z."""
    return spectral.Field(grid, spectral.to_modes(np.stack([z.real, z.imag])))


def test_free_propagate_single_mode_phase(grid64):
    """One Fourier mode picks up exactly exp(-i |k| t / eps)."""
    i, j = np.ogrid[:64, :64]
    # e^{ik.x} at the nodes for the mode (3, 5), its phase reduced exactly to [0, 2 pi)
    z = (1.0 + 0.5j) * np.exp(2j * math.pi * (((3 * i + 5 * j) % 64) / 64))
    kmag = float(grid64.kmag[3, 5])
    t, eps = 0.21, 0.05
    re, im = spectral.to_samples(acoustic.free_propagate(complex_field(grid64, z), t, eps).modes)
    expect = z * np.exp(-1j * kmag * t / eps)
    assert np.max(np.abs(re + 1j * im - expect)) <= 1e-14


def test_wraparound_window_scales_with_box_and_eps(grid64):
    w = acoustic.wraparound_window(grid64.box_length, 0.1)
    assert abs(w - 0.45 * grid64.box_length * 0.1) <= 1e-14


def test_strichartz_exponents():
    assert acoustic.strichartz_exponents(math.inf) == (4.0, 0.25)
    assert acoustic.strichartz_exponents(2.0) == (math.inf, 0.0)
    r, decay = acoustic.strichartz_exponents(4.0)
    assert abs(r - 8.0) <= 1e-14 and abs(decay - 0.125) <= 1e-14
    with pytest.raises(ValueError):
        acoustic.strichartz_exponents(1.5)


def test_free_wave_sup_decays_inside_window(grid64):
    """Dispersive spreading: the sup norm of a localized packet is visibly
    smaller than its initial value well before wraparound."""
    from machlab.experiments import gaussian_bump_complex
    probe = gaussian_bump_complex(grid64)
    eps = 0.05
    sup0 = spectral.lp_norm(probe, math.inf)
    window = acoustic.wraparound_window(grid64.box_length, eps)
    supT = spectral.lp_norm(acoustic.free_propagate(probe, 0.9 * window, eps), math.inf)
    assert supT < 0.75 * sup0


def measure_strichartz(initial, eps, t_final, p):
    """The mixed time-space norm of the free evolution of ``initial``: the
    L^r-in-time (r from ``strichartz_exponents``) of its L^p norm at the 64
    ``sample_times`` of [0, t_final], each from ``free_wave_norms`` at its
    phase scale t / eps. ``experiments.free_wave_normalized`` is this
    measurement over an eps sweep."""
    r, _ = acoustic.strichartz_exponents(p)
    times = acoustic.sample_times(t_final)
    return mixed_time_norm(times, acoustic.free_wave_norms(initial, times / eps, p), r)


def test_measure_strichartz_normalization_is_eps_stable(grid64):
    from machlab.experiments import gaussian_bump_complex
    probe = gaussian_bump_complex(grid64)
    eps_list = (0.2, 0.1, 0.05)
    window = 0.99 * acoustic.wraparound_window(grid64.box_length, min(eps_list))
    vals = {e: measure_strichartz(probe, e, window, math.inf) for e in eps_list}
    normalized = [vals[e] / e**0.25 for e in eps_list]
    assert max(normalized) / min(normalized) <= 2.0


def full_spectrum_strichartz(grid, z, eps, t_final, p):
    """measure_strichartz written out on the full spectrum of the complex
    samples z: fft2, times exp(-i t |k| / eps), ifft2, modulus."""
    k = (2.0 * math.pi / grid.box_length) * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kmag = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
    modes = np.fft.fft2(z)
    times = np.linspace(0.0, t_final, 64)
    vals = []
    for t in times:
        mag = np.abs(np.fft.ifft2(modes * np.exp(-1j * (t / eps) * kmag)))
        if math.isinf(p):
            vals.append(np.max(mag))
        else:
            vals.append((np.sum(mag**p) * grid.cell_area) ** (1.0 / p))
    r, _ = acoustic.strichartz_exponents(p)
    return float(np.trapezoid(np.asarray(vals) ** r, times) ** (1.0 / r))


@pytest.mark.parametrize("p", [math.inf, 4.0])
def test_measure_strichartz_matches_the_full_spectrum_evolution(grid64, p):
    from machlab.experiments import gaussian_bump_complex
    probe = gaussian_bump_complex(grid64)
    x, y = grid64.coordinates()
    L = grid64.box_length
    # a moving packet whose imaginary part is nonzero
    wave = np.exp(-((x - 0.3 * L) ** 2 + (y - 0.6 * L) ** 2) / (2.0 * (L / 16.0) ** 2))
    z_wave = (0.5 - 1.5j) * wave * np.exp(1j * (0.75 * x - 0.5 * y))
    eps = 0.05
    window = 0.99 * acoustic.wraparound_window(grid64.box_length, eps)
    for f, z in ((probe, spectral.to_samples(probe.modes[0])),
                 (complex_field(grid64, z_wave), z_wave)):
        got = measure_strichartz(f, eps, window, p)
        expect = full_spectrum_strichartz(grid64, z, eps, window, p)
        assert abs(got - expect) <= 1e-12 * expect


@pytest.mark.parametrize("p", [math.inf, 4.0])
def test_measure_strichartz_of_an_input_that_is_not_dealiased_matches_the_full_spectrum(
        grid64, p):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    f = complex_field(grid64, z)
    assert np.all(np.any(f.modes != 0.0, axis=(0, 1)))  # every column, n/2 included
    eps = 0.05
    window = 0.99 * acoustic.wraparound_window(grid64.box_length, eps)
    got = measure_strichartz(f, eps, window, p)
    expect = full_spectrum_strichartz(grid64, z, eps, window, p)
    assert abs(got - expect) <= 1e-12 * expect


def full_table_rotate(f, t, eps):
    """The modes of f, a stack of (re, im) pairs on axis -3, rotated with cos
    and sin evaluated over the whole table of theta = |k| * t / eps; the
    once-per-|k| rotation must reproduce it bit for bit."""
    theta = f.grid.kmag * (t / eps)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    re, im = np.moveaxis(f.modes, -3, 0)
    return np.stack([cos_t * re + sin_t * im, cos_t * im - sin_t * re], axis=-3)


def propagated(f, t, eps):
    """The modes of ``acoustic.free_propagate(f, t, eps)``."""
    return acoustic.free_propagate(f, t, eps).modes


def full_width_strichartz(f, eps, t_final, p, rotate):
    """measure_strichartz with every sample time rotated by ``rotate(f, t, eps)``
    and inverted on all n/2 + 1 columns of the half spectrum."""
    times = np.linspace(0.0, t_final, 64)
    vals = []
    for t in times:
        re, im = np.fft.irfftn(rotate(f, float(t), eps), axes=(-2, -1), norm="forward")
        mag2 = re * re + im * im
        if math.isinf(p):
            vals.append(math.sqrt(np.max(mag2)))
        else:
            vals.append((np.sum(mag2 ** (0.5 * p)) * f.grid.cell_area) ** (1.0 / p))
    r, _ = acoustic.strichartz_exponents(p)
    return mixed_time_norm(times, np.asarray(vals), r)


@pytest.mark.parametrize("p", [math.inf, 4.0])
def test_measure_strichartz_on_the_occupied_columns_equals_the_full_width_bit_for_bit(
        grid64, p):
    from machlab.experiments import gaussian_bump_complex
    probe = gaussian_bump_complex(grid64)
    assert not np.any(probe.modes[..., grid64.band:])  # a dealiased probe: a cut spectrum
    window = 0.99 * acoustic.wraparound_window(grid64.box_length, 0.05)
    got = measure_strichartz(probe, 0.05, window, p)
    want = full_width_strichartz(probe, 0.05, window, p, propagated)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def lopsided_pair(grid):
    """A pair whose nonzero modes lie in the rows 2..9 (kx >= 0 only) and the
    columns 1..12."""
    rng = np.random.default_rng(11)
    modes = np.zeros((2,) + grid.modes_shape, complex)
    modes[:, 2:10, 1:13] = (rng.standard_normal((2, 8, 12))
                            + 1j * rng.standard_normal((2, 8, 12)))
    return spectral.Field(grid, modes)


def nyquist_row_pair(grid):
    """The Gaussian probe plus one mode on the Nyquist row n/2."""
    from machlab.experiments import gaussian_bump_complex
    modes = gaussian_bump_complex(grid).modes.copy()
    modes[:, grid.n // 2, 3] = (0.25 - 0.5j, 0.125 + 0.75j)
    return spectral.Field(grid, modes)


def rough_pair(grid):
    """The complex field of random samples: every row and column is occupied."""
    rng = np.random.default_rng(7)
    n = grid.n
    return complex_field(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def upsilon_pair(grid):
    """The Upsilon pair of the ``state64`` flow state."""
    state = make_initial_data("vortex-pair-ill", grid, eps=0.1, amplitude=0.5, seed=2,
                              gamma_bar=0.2)
    return pairs(acoustic.make_acoustic(state))[2]


def test_free_propagate_matches_the_full_table_rotation_bit_for_bit(state64):
    g = state64.grid
    waves = acoustic.make_acoustic(state64)
    inputs = [waves] + pairs(waves) + [
        make(g) for make in (lopsided_pair, nyquist_row_pair, rough_pair)]
    for i, f in enumerate(inputs):
        for t in (0.37, -1.48, 3.0):
            want = full_table_rotate(f, t, state64.eps)
            assert propagated(f, t, state64.eps).tobytes() == want.tobytes(), (i, t)


@pytest.mark.parametrize("p", [math.inf, 4.0])
def test_measure_strichartz_matches_the_full_table_rotation_bit_for_bit(state64, p):
    f = upsilon_pair(state64.grid)
    window = acoustic.wraparound_window(state64.grid.box_length, state64.eps)
    got = measure_strichartz(f, state64.eps, window, p)
    want = full_width_strichartz(f, state64.eps, window, p, full_table_rotate)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("p", [math.inf, 4.0])
@pytest.mark.parametrize("make, support", [
    (lopsided_pair, (9, 13)),
    (nyquist_row_pair, (32, 22)),  # the probe fills the band, 64 // 3 + 1 = 22 columns
    (rough_pair, (32, 33)),
    (upsilon_pair, None),
])
def test_free_wave_norms_on_the_occupied_support_equal_the_whole_table_bit_for_bit(
        grid64, make, support, p):
    f = make(grid64)
    k, c, top = acoustic._occupied_support(grid64, f.modes)
    rows, cols = np.nonzero(np.any(f.modes != 0.0, axis=0))
    assert np.all(np.minimum(rows, 64 - rows) <= k) and np.all(cols < c)
    assert np.all(grid64.kmag_index[rows, cols] < top)
    assert top == int(np.max(grid64.kmag_index[rows, cols])) + 1
    if support is not None:
        assert (k, c) == support
    eps = 0.05
    window = 0.99 * acoustic.wraparound_window(grid64.box_length, eps)
    got = measure_strichartz(f, eps, window, p)
    scales = acoustic.sample_times(window) / eps
    assert got == mixed_time_norm(acoustic.sample_times(window),
                                  acoustic.free_wave_norms(f, scales, p),
                                  acoustic.strichartz_exponents(p)[0])
    for rotate in (propagated, full_table_rotate):
        want = full_width_strichartz(f, eps, window, p, rotate)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), rotate.__name__


def test_the_level_cut_of_a_dealiased_probe_leaves_out_the_levels_past_the_disk(grid64):
    from machlab.experiments import gaussian_bump_complex
    k, c, top = acoustic._occupied_support(grid64, gaussian_bump_complex(grid64).modes)
    assert (k, c) == (21, grid64.band)  # |kx| <= n/3
    assert grid64.kmag_levels[top - 1] <= grid64.kmax_dealias < grid64.kmag_levels[top]
    assert acoustic._occupied_support(grid64, np.zeros((2,) + grid64.modes_shape)) == (0, 1, 1)
