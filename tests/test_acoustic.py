"""Fast-wave diagonalization, free propagator, dispersive measurements."""

import math

import numpy as np
import pytest

from machlab import acoustic, spectral
from machlab.initial_data import make_initial_data


@pytest.fixture
def state64(grid64):
    return make_initial_data("vortex-pair-ill", grid64, eps=0.1, amplitude=0.5,
                             seed=2, gamma_bar=0.2)


def test_make_acoustic_drops_the_mean(state64):
    pair = acoustic.make_acoustic(state64)
    for f in (pair.gamma_x, pair.gamma_y, pair.upsilon):
        assert f.modes.shape == (2, 64, 33)
        assert np.all(f.modes[:, 0, 0] == 0.0)  # real and imaginary parts alike


def test_state_roundtrip_through_wave_variables(state64):
    """state -> (Gamma, Upsilon) + solenoidal part -> state is the identity
    whenever c is mean-free."""
    pair = acoustic.make_acoustic(state64)
    sol = spectral.leray_p(state64.v)
    back = acoustic.acoustic_to_state(pair, sol, state64.gamma_bar)
    scale = spectral.l2_norm([state64.v.ux, state64.v.uy, state64.c])
    err = spectral.l2_norm([
        spectral.sub(back.v.ux, state64.v.ux),
        spectral.sub(back.v.uy, state64.v.uy),
        spectral.sub(back.c, state64.c),
    ])
    assert err <= 1e-12 * scale


def test_free_propagate_is_unitary_and_reversible(state64):
    pair = acoustic.make_acoustic(state64)
    for f in (pair.gamma_x, pair.upsilon):
        n0 = spectral.l2_norm(f)
        fwd = acoustic.free_propagate(f, 0.37, state64.eps)
        assert abs(spectral.l2_norm(fwd) - n0) <= 1e-13 * n0
        back = acoustic.free_propagate(fwd, -0.37, state64.eps)
        assert np.max(np.abs(back.modes - f.modes)) <= 1e-13 * np.max(np.abs(f.modes))


def complex_field(grid, z):
    """The ComplexField of complex samples z."""
    return acoustic.ComplexField(grid, spectral.to_modes(np.stack([z.real, z.imag])))


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


def test_measure_strichartz_normalization_is_eps_stable(grid64):
    from machlab.experiments import gaussian_bump_complex
    probe = gaussian_bump_complex(grid64)
    eps_list = (0.2, 0.1, 0.05)
    window = 0.99 * acoustic.wraparound_window(grid64.box_length, min(eps_list))
    vals = {e: acoustic.measure_strichartz(probe, e, window, math.inf) for e in eps_list}
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
        got = acoustic.measure_strichartz(f, eps, window, p)
        expect = full_spectrum_strichartz(grid64, z, eps, window, p)
        assert abs(got - expect) <= 1e-12 * expect
