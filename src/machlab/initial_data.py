"""Deterministic catalog of initial states for the sweep experiments.

Every entry is normalized after dealiasing so the quantities the experiments
care about scale linearly with ``amplitude``:

* ``taylor-green-ill``       cellular divergence-free velocity plus a sound
                             speed fluctuation with ||grad c0||_inf = amplitude;
                             single-mode, so the acoustic part does not disperse
* ``vortex-pair-ill``        localized counter-rotating vortices plus localized
                             acoustic packets (gradient velocity and sound
                             speed) oscillating on a fixed wavenumber shell,
                             with sup norm of (div v0, grad c0) equal to
                             amplitude; the packets disperse and oscillate fast
* ``random-band:rate``       seeded random fields with joint block norms
                             ||Delta_q (v0, c0)||_2 = amplitude * 2**(-(2+rate) q)
                             on every ring the lattice populates
* ``well-prepared-contrast`` same vortical part, acoustic part scaled by eps

The first three are independent of eps (ill-prepared data); the last one has
(div v0, grad c0) of size eps * amplitude by construction.
"""

from __future__ import annotations

import math

import numpy as np

from . import littlewood_paley as lp
from . import spectral
from .incompressible import velocity_from_vorticity
from .spectral import FlowState, Grid, SpectralScalarField, SpectralVectorField

KNOWN_DATA = ("taylor-green-ill", "vortex-pair-ill", "random-band", "well-prepared-contrast")


def periodized_bump(grid: Grid, center: tuple[float, float], sigma: float) -> np.ndarray:
    """Gaussian bump via minimal-image distance; smooth to machine precision
    for sigma well below the box size."""
    x, y = grid.coordinates()
    L = grid.box_length
    dx = (x - center[0] + 0.5 * L) % L - 0.5 * L
    dy = (y - center[1] + 0.5 * L) % L - 0.5 * L
    return np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))


def _mean_free(f: SpectralScalarField) -> SpectralScalarField:
    modes = f.modes.copy()
    modes[0, 0] = 0.0
    return SpectralScalarField(f.grid, modes)


def _scaled(f: SpectralScalarField, target_sup: float, measure) -> SpectralScalarField:
    cur = measure(f)
    if cur <= 0.0:
        raise ValueError("cannot normalize a vanishing field")
    return spectral.scale(f, target_sup / cur)


def _carrier_wavenumber(grid: Grid) -> float:
    """Nearest lattice wavenumber to 2, at least one lattice step."""
    step = 2.0 * math.pi / grid.box_length
    return step * max(1, round(2.0 / step))


def _vortex_parts(grid: Grid, rng: np.random.Generator):
    """Shared localized building blocks: vortical velocity, gradient velocity
    potential, sound bump. The rng jitters the centers so different seeds give
    genuinely different fields.

    The acoustic blocks carry an oscillation at a fixed wavenumber k0 so their
    spectra sit on the shell |k| ~ k0 instead of piling up near zero; acoustic
    modes then oscillate with period ~ 2 pi eps / k0, fast for every eps in a
    desk sweep, rather than a near-standing push from the gravest box modes.
    """
    L = grid.box_length
    x, y = grid.coordinates()
    k0 = _carrier_wavenumber(grid)
    jit = lambda: float(rng.uniform(-L / 32.0, L / 32.0))
    sep = L / 10.0
    sig_v = L / 16.0
    sig_a = L / 14.0
    omega_raw = (periodized_bump(grid, (L / 2 + jit(), L / 2 + sep + jit()), sig_v)
                 - periodized_bump(grid, (L / 2 + jit(), L / 2 - sep + jit()), sig_v))
    omega = spectral.dealias(_mean_free(spectral.fft_forward(grid, omega_raw)))
    cx, cy = L / 4 + jit(), L / 4 + jit()
    phi_raw = periodized_bump(grid, (cx, cy), sig_a) * np.cos(k0 * (x - cx))
    phi = spectral.dealias(_mean_free(spectral.fft_forward(grid, phi_raw)))
    cx, cy = 3 * L / 4 + jit(), L / 4 + jit()
    c_raw = periodized_bump(grid, (cx, cy), sig_a) * np.cos(k0 * (y - cy))
    c = spectral.dealias(_mean_free(spectral.fft_forward(grid, c_raw)))
    return omega, phi, c


def _taylor_green(grid: Grid, amplitude: float, gamma_bar: float, eps: float) -> FlowState:
    L = grid.box_length
    kappa = 4.0 * math.pi / L  # two cells per side
    x, y = grid.coordinates()
    vx = amplitude * np.sin(kappa * x) * np.cos(kappa * y)
    vy = -amplitude * np.cos(kappa * x) * np.sin(kappa * y)
    c = (amplitude / kappa) * np.sin(kappa * x) * np.sin(kappa * y)
    samples = np.stack(np.broadcast_arrays(vx, vy, c))
    modes = np.where(grid.dealias_mask, spectral.to_modes(samples), 0.0)
    return FlowState(grid, modes, eps, gamma_bar)


def _vortex_pair(grid: Grid, amplitude: float, gamma_bar: float, eps: float, seed: int,
                 acoustic_scale: float = 1.0) -> FlowState:
    rng = np.random.default_rng(seed)
    omega, phi, c = _vortex_parts(grid, rng)
    omega = _scaled(omega, amplitude, lambda f: spectral.lp_norm(f, math.inf))
    v_rot = velocity_from_vorticity(omega)
    # gradient part scaled so ||div v0||_inf = acoustic_scale * amplitude
    grad_phi = spectral.grad(phi)
    div_sup = spectral.lp_norm(spectral.laplacian(phi), math.inf)
    s = acoustic_scale * amplitude / div_sup
    c = _scaled(c, 1.0, lambda f: spectral.lp_norm(spectral.grad(f), math.inf))
    c = spectral.scale(c, acoustic_scale * amplitude)
    v = SpectralVectorField(grid, v_rot.modes + s * grad_phi.modes)
    return FlowState.from_fields(v, c, eps, gamma_bar)


def _random_band(grid: Grid, amplitude: float, gamma_bar: float, eps: float, seed: int,
                 rate: float) -> FlowState:
    """Noise restricted to the plateau annuli of the dyadic rings.

    On the band where a ring multiplier equals one, the block of the sum IS
    the restricted piece, so the joint block norms hit 2^{-(2+rate) q}
    exactly rather than up to neighbor leakage.
    """
    rng = np.random.default_rng(seed)
    part = lp.build_partition(grid)
    white = rng.standard_normal((3, grid.n, grid.n))
    whites = np.where(grid.dealias_mask, spectral.to_modes(white), 0.0)
    kmag = grid.kmag
    acc = np.zeros_like(whites)
    for q in range(-1, part.q_max + 1):
        if q < 0:
            mask = (kmag <= 0.75) & (kmag > 0.0)
        else:
            mask = ((4.0 / 3.0) * 2.0**q <= kmag) & (kmag <= 1.5 * 2.0**q)
        pieces = np.where(mask, whites, 0.0)
        joint = spectral.l2_norm([SpectralScalarField(grid, p) for p in pieces])
        if joint <= 0.0:
            continue  # ring empty on this lattice (can happen at the cutoff)
        weight = 1.0 if q < 0 else 2.0 ** (-(2.0 + rate) * q)
        acc += (amplitude * weight / joint) * pieces
    acc[:, 0, 0] = 0.0  # mean-free
    return FlowState(grid, acc, eps, gamma_bar)


def make_initial_data(name: str, grid: Grid, eps: float, amplitude: float = 1.0,
                      seed: int = 0, gamma_bar: float = 0.2) -> FlowState:
    """Build a catalog state. ``name`` may carry a parameter after a colon,
    e.g. ``random-band:2``. The same arguments always produce bit-identical
    states."""
    if not (amplitude > 0.0):
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    base, _, param = name.partition(":")
    if base == "taylor-green-ill":
        return _taylor_green(grid, amplitude, gamma_bar, eps)
    if base == "vortex-pair-ill":
        return _vortex_pair(grid, amplitude, gamma_bar, eps, seed, acoustic_scale=1.0)
    if base == "well-prepared-contrast":
        return _vortex_pair(grid, amplitude, gamma_bar, eps, seed, acoustic_scale=eps)
    if base == "random-band":
        rate = float(param) if param else 2.0
        if rate < 0.0:
            raise ValueError(f"random-band rate must be nonnegative, got {rate}")
        return _random_band(grid, amplitude, gamma_bar, eps, seed, rate)
    raise ValueError(f"unknown initial data {name!r}; known: {', '.join(KNOWN_DATA)}")
