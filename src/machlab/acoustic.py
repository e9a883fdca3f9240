"""Acoustic filtering and the free half-wave propagator.

The fast part of the rescaled system is diagonalized by two complex
quantities built from the gradient part of the velocity and the sound speed
fluctuation:

    Gamma   = Qv - i grad |D|^-1 c        (complex vector field)
    Upsilon = |D|^-1 div v + i c          (complex scalar field)

Both satisfy (d/dt + (i/eps)|D|) psi = source, so the source-free evolution
multiplies each Fourier mode by exp(-i t |k| / eps), a unitary map mode by
mode. Real and imaginary parts are taken pointwise in physical space, so a
complex field is the pair of real fields (re, im), each carried as its half
spectrum like every real field; the propagator acts on the pair as the
rotation re' = cos(theta) re + sin(theta) im, im' = cos(theta) im -
sin(theta) re with theta = t |k| / eps on the half table. No full spectrum
is ever formed, and ``spectral.lp_norm``/``l2_norm`` measure the pointwise
modulus of a complex field like that of a two-component real field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import FlowState, Grid, SpectralVectorField


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar field as the (2, n, n/2 + 1) stack of the half spectra of
    its pointwise real part (plane 0) and imaginary part (plane 1)."""

    grid: Grid
    modes: np.ndarray

    def __post_init__(self) -> None:
        if self.modes.shape != (2,) + self.grid.modes_shape:
            raise ValueError("mode array shape does not match grid")


@dataclass(frozen=True)
class AcousticPair:
    """The two filtered quantities of one flow state."""

    gamma_x: ComplexField
    gamma_y: ComplexField
    upsilon: ComplexField
    eps: float


def make_acoustic(state: FlowState) -> AcousticPair:
    """Build Gamma and Upsilon from a flow state.

    The 1/|D| factors use the mean-free gauge: the spatial means of c and of
    the velocity potential are projected away here, deliberately and
    silently, since the zero mode carries no acoustic content. Every
    ingredient is a real field, so each complex field is the stack of its
    real and imaginary parts: Gamma = (Qv, -grad |D|^-1 c) per component and
    Upsilon = (|D|^-1 div v, c).
    """
    g = state.grid
    c = state.modes[2].copy()
    c[0, 0] = 0.0
    div_modes = spectral.div(state.v).modes
    phi = -g.inv_k2 * div_modes  # velocity potential, mean-free
    q = 1j * g.kvec * phi
    grad_c = 1j * g.kvec * g.inv_kmag * c  # grad |D|^-1 c in mode space: (i k / |k|) c
    return AcousticPair(gamma_x=ComplexField(g, np.stack([q[0], -grad_c[0]])),
                        gamma_y=ComplexField(g, np.stack([q[1], -grad_c[1]])),
                        upsilon=ComplexField(g, np.stack([g.inv_kmag * div_modes, c])),
                        eps=state.eps)


def acoustic_to_state(pair: AcousticPair, solenoidal: SpectralVectorField,
                      gamma_bar: float) -> FlowState:
    """Reassemble a flow state from filtered quantities plus the untouched
    divergence-free velocity part.

    Qv is the pointwise real part of Gamma (plane 0) and c the pointwise
    imaginary part of Upsilon (plane 1).
    """
    q = np.stack([pair.gamma_x.modes[0], pair.gamma_y.modes[0]])
    return FlowState(solenoidal.grid, np.concatenate([solenoidal.modes + q, pair.upsilon.modes[1:]]),
                     pair.eps, gamma_bar)


def _rotate(f: ComplexField, t: float, eps: float, trig: np.ndarray, out: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """Write the modes of f after a time t of free evolution into ``out``
    (2, n, n/2 + 1); ``trig`` (2, n, n/2 + 1) real and ``tmp`` (n, n/2 + 1)
    are work space."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    cos_t, sin_t = trig
    np.multiply(f.grid.kmag, t / eps, out=cos_t)
    np.sin(cos_t, out=sin_t)
    np.cos(cos_t, out=cos_t)
    re, im = f.modes
    np.add(np.multiply(cos_t, re, out=out[0]), np.multiply(sin_t, im, out=tmp), out=out[0])
    np.subtract(np.multiply(cos_t, im, out=out[1]), np.multiply(sin_t, re, out=tmp), out=out[1])
    return out


def free_propagate(f: ComplexField, t: float, eps: float) -> ComplexField:
    """Source-free evolution: multiply mode k by exp(-i t |k| / eps), which
    rotates the (re, im) half spectra by theta = t |k| / eps."""
    trig = np.empty((2,) + f.grid.modes_shape)
    return ComplexField(f.grid, _rotate(f, t, eps, trig, np.empty_like(f.modes), np.empty_like(f.modes[0])))


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


def wraparound_window(box_length: float, eps: float) -> float:
    """Largest time for which torus wraparound has not yet polluted decay.

    Fast waves cross the box in time box_length * eps; measurements are
    trusted below 0.45 of that.
    """
    return 0.45 * box_length * eps


def measure_strichartz(initial: ComplexField, eps: float, t_final: float, p: float) -> float:
    """Mixed time-space norm of the free evolution, sampled at uniform times.

    Returns the L^r-in-time (r from ``strichartz_exponents``) of the spatial
    L^p norm over [0, t_final] from 64 uniform sample times. Callers should keep
    t_final inside ``wraparound_window``; the measurement itself does not
    enforce it. Each sample time rotates, inverts and reduces in this
    thread's scratch, so the loop allocates no n-by-n array.
    """
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    r, _ = strichartz_exponents(p)
    g = initial.grid
    buf = spectral.scratch(g.n)
    trig, rotated, samples = buf.multipliers(2), buf.modes(3), buf.samples(2)
    times = np.linspace(0.0, t_final, 64)
    vals = np.empty(64)
    for i, t in enumerate(times):
        _rotate(initial, float(t), eps, trig, rotated[:2], rotated[2])
        re, im = spectral.to_samples(rotated[:2], out=samples)
        mag2 = np.add(np.multiply(re, re, out=re), np.multiply(im, im, out=im), out=re)
        if math.isinf(p):
            vals[i] = math.sqrt(np.max(mag2))
        else:
            vals[i] = (np.sum(np.power(mag2, 0.5 * p, out=mag2)) * g.cell_area) ** (1.0 / p)
    return spectral.mixed_time_norm(times, vals, r)
