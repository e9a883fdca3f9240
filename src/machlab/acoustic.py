"""Acoustic filtering and the free half-wave propagator.

The fast part of the rescaled system is diagonalized by two complex
quantities built from the gradient part of the velocity and the sound speed
fluctuation:

    Gamma   = Qv - i grad |D|^-1 c        (complex vector field)
    Upsilon = |D|^-1 div v + i c          (complex scalar field)

Both satisfy (d/dt + (i/eps)|D|) psi = source, so the source-free evolution
multiplies each Fourier mode by exp(-i t |k| / eps), a unitary map mode by
mode. Real and imaginary parts are taken pointwise in physical space; the
coefficient arrays themselves carry no conjugate symmetry, so complex fields
keep the full (n, n) spectrum with the full |k| table built here. Real
fields cross over only at the edges: ``make_acoustic`` expands their half
spectra, and ``spatial_real_part``/``spatial_imag_part`` fold back to half.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import FlowState, Grid, SpectralScalarField, SpectralVectorField


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar field as normalized full-spectrum Fourier coefficients
    (n, n): a complex field has no conjugate symmetry to halve it by."""

    grid: Grid
    modes: np.ndarray

    def __post_init__(self) -> None:
        if self.modes.shape != (self.grid.n, self.grid.n):
            raise ValueError("mode array shape does not match grid")

    def spatial(self) -> np.ndarray:
        """Complex samples on the grid."""
        return np.fft.ifft2(self.modes, norm="forward")


@functools.lru_cache(maxsize=8)
def full_kmag(grid: Grid) -> np.ndarray:
    """|k| on the full (n, n) lattice that complex fields use (read-only, cached
    because the propagator applies it at every sample time)."""
    k = (2.0 * math.pi / grid.box_length) * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kmag = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
    kmag.flags.writeable = False
    return kmag


def full_spectrum(half: np.ndarray) -> np.ndarray:
    """Expand half spectra (..., n, n/2 + 1) of real fields to full (..., n, n)
    spectra: column n - j holds the conjugate of column j at row -i."""
    n = half.shape[-2]
    rows = (-np.arange(n)) % n
    return np.concatenate([half, np.conj(half[..., rows, n // 2 - 1:0:-1])], axis=-1)


def _conjugate_flip(modes: np.ndarray) -> np.ndarray:
    # coefficient of -k, conjugated: index map i -> (n - i) mod n on both axes
    return np.conj(np.roll(modes[::-1, ::-1], shift=1, axis=(0, 1)))


def spatial_real_part(f: ComplexField) -> SpectralScalarField:
    """Pointwise real part, returned as a real (half-spectrum) field."""
    half = 0.5 * (f.modes + _conjugate_flip(f.modes))
    return SpectralScalarField(f.grid, half[:, : f.grid.n // 2 + 1])


def spatial_imag_part(f: ComplexField) -> SpectralScalarField:
    half = (f.modes - _conjugate_flip(f.modes)) / 2j
    return SpectralScalarField(f.grid, half[:, : f.grid.n // 2 + 1])


def complex_lp_norm(fields, p: float) -> float:
    """L^p norm of the pointwise modulus; accepts one field or a sequence."""
    if isinstance(fields, ComplexField):
        fields = [fields]
    fields = list(fields)
    grid = fields[0].grid
    mag2 = np.zeros((grid.n, grid.n))
    for f in fields:
        mag2 += np.abs(f.spatial()) ** 2
    mag = np.sqrt(mag2)
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.cell_area) ** (1.0 / p))


def complex_l2_norm(fields) -> float:
    """L^2 norm via Parseval on the coefficient arrays."""
    if isinstance(fields, ComplexField):
        fields = [fields]
    fields = list(fields)
    total = sum(float(np.sum(np.abs(f.modes) ** 2)) for f in fields)
    return fields[0].grid.box_length * math.sqrt(total)


@dataclass(frozen=True)
class AcousticPair:
    """The two filtered quantities of one flow state."""

    gamma_x: ComplexField
    gamma_y: ComplexField
    upsilon: ComplexField
    eps: float

    @property
    def grid(self) -> Grid:
        return self.gamma_x.grid


def make_acoustic(state: FlowState) -> AcousticPair:
    """Build Gamma and Upsilon from a flow state.

    The 1/|D| factors use the mean-free gauge: the spatial means of c and of
    the velocity potential are projected away here, deliberately and
    silently, since the zero mode carries no acoustic content. The real
    ingredients are built as half spectra and expanded to full spectra
    before they are combined into complex fields.
    """
    g = state.grid
    c = state.modes[2].copy()
    c[0, 0] = 0.0
    div_modes = spectral.div(state.v).modes
    phi = -g.inv_k2 * div_modes  # velocity potential, mean-free
    q = 1j * g.kvec * phi
    grad_c = 1j * g.kvec * g.inv_kmag * c  # grad |D|^-1 c in mode space: (i k / |k|) c
    qx, qy, gx, gy, pot, cf = full_spectrum(
        np.concatenate([q, grad_c, np.stack([g.inv_kmag * div_modes, c])]))
    return AcousticPair(gamma_x=ComplexField(g, qx - 1j * gx),
                        gamma_y=ComplexField(g, qy - 1j * gy),
                        upsilon=ComplexField(g, pot + 1j * cf), eps=state.eps)


def acoustic_to_state(pair: AcousticPair, solenoidal: SpectralVectorField,
                      gamma_bar: float, time: float = 0.0) -> FlowState:
    """Reassemble a flow state from filtered quantities plus the untouched
    divergence-free velocity part.

    Qv is the pointwise real part of Gamma and c the pointwise imaginary part
    of Upsilon.
    """
    q = np.stack([spatial_real_part(pair.gamma_x).modes, spatial_real_part(pair.gamma_y).modes])
    c = spatial_imag_part(pair.upsilon).modes
    return FlowState(solenoidal.grid, np.concatenate([solenoidal.modes + q, c[None]]),
                     pair.eps, gamma_bar, time)


def free_propagate(f: ComplexField, t: float, eps: float) -> ComplexField:
    """Source-free evolution: multiply mode k by exp(-i t |k| / eps)."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    phase = np.exp(-1j * (t / eps) * full_kmag(f.grid))
    return ComplexField(f.grid, f.modes * phase)


def strichartz_exponents(p: float) -> tuple[float, float]:
    """Time exponent r and decay exponent for the space exponent p in [2, inf].

    r = 4 + 8 / (p - 2) and the smallness prefactor scales like
    eps**(1/4 - 1/(2p)). At p = 2 there is no decay and the time exponent is
    infinity by convention; at p = inf the pair is (4, 1/4).
    """
    if not (p >= 2.0):
        raise ValueError(f"space exponent must be in [2, inf], got {p}")
    if p == 2.0:
        return math.inf, 0.0
    if math.isinf(p):
        return 4.0, 0.25
    return 4.0 + 8.0 / (p - 2.0), 0.25 - 0.5 / p


def wraparound_window(grid_or_length, eps: float) -> float:
    """Largest time for which torus wraparound has not yet polluted decay.

    Fast waves cross the box in time box_length * eps; measurements are
    trusted below 0.45 of that.
    """
    length = grid_or_length.box_length if isinstance(grid_or_length, Grid) else float(grid_or_length)
    return 0.45 * length * eps


def measure_strichartz(initial: ComplexField, eps: float, t_final: float, p: float,
                       num_times: int = 64) -> float:
    """Mixed time-space norm of the free evolution, sampled at uniform times.

    Returns the L^r-in-time (r from ``strichartz_exponents``) of the spatial
    L^p norm over [0, t_final] with at least 64 samples. Callers should keep
    t_final inside ``wraparound_window``; the measurement itself does not
    enforce it.
    """
    if num_times < 64:
        num_times = 64
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    r, _ = strichartz_exponents(p)
    times = np.linspace(0.0, t_final, num_times)
    vals = np.empty(num_times)
    for i, t in enumerate(times):
        vals[i] = complex_lp_norm(free_propagate(initial, float(t), eps), p)
    return spectral.mixed_time_norm(times, vals, r)
