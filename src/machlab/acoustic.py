"""Acoustic filtering and the free half-wave propagator.

The fast part of the rescaled system is diagonalized by two complex
quantities built from the gradient part of the velocity and the sound speed
fluctuation:

    Gamma   = Qv - i grad |D|^-1 c        (complex vector field)
    Upsilon = |D|^-1 div v + i c          (complex scalar field)

Both satisfy (d/dt + (i/eps)|D|) psi = source, so the source-free evolution
multiplies each Fourier mode by exp(-i t |k| / eps), a unitary map mode by
mode that depends on t and eps only through the phase scale s = t / eps:
the rotation and ``free_wave_norms`` take s, so an eps sweep evaluates a
phase its members share once. Real and imaginary parts are taken
pointwise in physical space, so a complex field is a ``spectral.Field``
whose axis -3 is the pair of real fields (re, im), each carried as its half
spectrum like every real field: ``make_acoustic`` returns the
(3, 2, n, n/2 + 1) stack (Gamma_x, Gamma_y, Upsilon) x (re, im). The
propagator rotates every pair of a stack at once,
re' = cos(theta) re + sin(theta) im, im' = cos(theta) im - sin(theta) re
with theta = |k| s on the half table, its cos and sin evaluated once per
distinct |k| and gathered onto the table. One kernel, ``_rotate_rows``,
does this for both ``free_propagate``, which turns every row and level,
and ``free_wave_norms``. The rotation keeps every zero mode zero, so
``free_wave_norms`` works on the support of its input only: the leading
columns and the two row blocks 0..K and n-K..n-1 that hold its nonzero
modes, with the cos and sin taken on the |k| levels below the largest
level they reach.
No full spectrum is ever formed, and ``spectral.lp_norm``/``l2_norm``
measure the pointwise modulus of a complex field like that of a
two-component real field.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .ledger import mixed_time_norm
from .spectral import Field, FlowState


def make_acoustic(state: FlowState) -> Field:
    """Build Gamma and Upsilon from a flow state, as the (3, 2, n, n/2 + 1)
    stack (Gamma_x, Gamma_y, Upsilon) x (re, im).

    The 1/|D| factors use the mean-free gauge: the spatial means of c and of
    the velocity potential are projected away here, deliberately and
    silently, since the zero mode carries no acoustic content. Every
    ingredient is a real field: Gamma = (Qv, -grad |D|^-1 c) per component
    and Upsilon = (|D|^-1 div v, c).
    """
    g = state.grid
    c = state.modes[2].copy()
    c[0, 0] = 0.0
    div_modes = spectral.div(state.v).modes
    phi = -g.inv_k2 * div_modes  # velocity potential, mean-free
    q = 1j * g.kvec * phi
    grad_c = 1j * g.kvec * g.inv_kmag * c  # grad |D|^-1 c in mode space: (i k / |k|) c
    re = np.concatenate([q, [g.inv_kmag * div_modes]])
    im = np.concatenate([-grad_c, [c]])
    return Field(g, np.stack([re, im], axis=1))


def acoustic_to_state(waves: Field, solenoidal: Field, eps: float,
                      gamma_bar: float) -> FlowState:
    """Reassemble a flow state from the ``make_acoustic`` stack plus the
    untouched divergence-free velocity part.

    Qv is the pointwise real part of Gamma and c the pointwise imaginary part
    of Upsilon.
    """
    return FlowState(solenoidal.grid,
                     np.concatenate([solenoidal.modes + waves.modes[:2, 0], waves.modes[2:, 1]]),
                     eps, gamma_bar)


def _check_eps(eps: float) -> None:
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")


def free_propagate(f: Field, t: float, eps: float) -> Field:
    """Source-free evolution: multiply mode k by exp(-i t |k| / eps), which
    rotates every (re, im) pair (axis -3) of f by theta = t |k| / eps.

    The rotation is ``_rotate_rows`` on one block of all rows and on every
    |k| level: each mode, a zero one too, is turned."""
    _check_eps(eps)
    g = f.grid
    trig = np.empty((2,) + g.modes_shape)
    tmp = np.empty(f.modes.shape[:-3] + g.modes_shape, dtype=f.modes.dtype)
    return Field(g, _rotate_rows(g.kmag_levels, [(slice(None), g.kmag_index)], f.modes,
                                 t / eps, trig, np.empty_like(f.modes), tmp))


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


def sample_times(t_final: float) -> np.ndarray:
    """The 64 uniform sample times of a mixed-norm measurement over [0, t_final]."""
    return np.linspace(0.0, t_final, 64)


def _occupied_support(grid: spectral.Grid, modes: np.ndarray) -> tuple[int, int, int]:
    """Where the nonzero modes of the half-spectrum stack ``modes`` lie, as
    (rows, columns, levels): ``rows`` is K, the largest |kx| in grid units
    of a row that holds one, so they lie in the rows 0..K and n-K..n-1;
    ``columns`` is the count c of leading columns that hold them; ``levels``
    is the level cut, 1 + the largest ``grid.kmag_index`` of one. A zero
    stack gives (0, 1, 1)."""
    rows, cols = np.nonzero(np.any(modes != 0.0, axis=tuple(range(modes.ndim - 2))))
    if not rows.size:
        return 0, 1, 1
    return (int(np.max(np.minimum(rows, grid.n - rows))), int(np.max(cols)) + 1,
            int(np.max(grid.kmag_index[rows, cols])) + 1)


def _rotate_rows(levels: np.ndarray, blocks, modes: np.ndarray, scale: float,
                 trig: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Write ``modes``, the first c half-spectrum columns of a stack of
    (re, im) pairs on axis -3, after free evolution to the phase scale
    ``scale`` = t / eps into the rows of ``blocks`` of ``out``, shaped alike:
    re' = cos re + sin im, im' = cos im - sin re with theta = |k| * scale.
    ``trig`` (2, n, c) real and ``tmp``, shaped like one (re, im) plane of
    ``out``, are work space. The cos and sin are evaluated once per |k|
    level of ``levels``, the leading ``grid.kmag_levels``, and gathered on
    each block, a (rows, index) pair of a row slice and its rows of
    ``grid.kmag_index``; each theta is the same float product as
    ``grid.kmag * scale``. An index past the last level is clipped to it: it
    marks a zero mode, which any rotation keeps zero."""
    theta = levels * scale
    cos_l, sin_l = np.cos(theta), np.sin(theta)
    re, im = np.moveaxis(modes, -3, 0)
    out_re, out_im = np.moveaxis(out, -3, 0)
    for rows, index in blocks:
        cos_t, sin_t = trig[0, rows], trig[1, rows]
        # mode="clip" also spares np.take a copy of out
        np.take(cos_l, index, out=cos_t, mode="clip")
        np.take(sin_l, index, out=sin_t, mode="clip")
        r, i, o_re, o_im, w = (a[..., rows, :] for a in (re, im, out_re, out_im, tmp))
        np.add(np.multiply(cos_t, r, out=o_re), np.multiply(sin_t, i, out=w), out=o_re)
        np.subtract(np.multiply(cos_t, i, out=o_im), np.multiply(sin_t, r, out=w), out=o_im)
    return out


def free_wave_norms(initial: Field, scales, p: float) -> np.ndarray:
    """Spatial L^p norm of the free evolution of the (re, im) pair
    ``initial`` at each phase scale s = t / eps of ``scales``.

    The rotation keeps every zero mode zero, so each call first finds the
    support of ``initial`` (``_occupied_support``): the c leading
    half-spectrum columns, the two row blocks 0..K and n-K..n-1, and the
    level cut. Each scale then evaluates the cos and sin on the |k| levels
    below the cut only, and gathers them and rotates on the two blocks
    (``_rotate_rows``), straight into their rows of a cut spectrum (see
    ``spectral.to_samples``) whose other rows are zeroed once per call. It
    then inverts and reduces. The values equal those of the whole-table
    rotation bit for bit. Each scale works in this thread's scratch, so the
    loop allocates no n-by-n array.
    """
    g = initial.grid
    n = g.n
    k, c, top = _occupied_support(g, initial.modes)
    modes = np.ascontiguousarray(initial.modes[..., :c])
    # with K = n/2 the two blocks meet and cover every row
    rows = (slice(0, k + 1), slice(max(n - k, k + 1), n))
    blocks = [(r, np.ascontiguousarray(g.kmag_index[r, :c])) for r in rows]
    levels = g.kmag_levels[:top]
    buf = spectral.scratch(n)
    trig, rotated, samples = buf.multipliers(2, c), buf.modes(3, c), buf.samples(2)
    rotated[:2, rows[0].stop:rows[1].start] = 0.0
    vals = np.empty(len(scales))
    for i, s in enumerate(scales):
        _rotate_rows(levels, blocks, modes, float(s), trig, rotated[:2], rotated[2])
        re, im = spectral.to_samples(rotated[:2], out=samples)
        mag2 = np.add(np.multiply(re, re, out=re), np.multiply(im, im, out=im), out=re)
        if math.isinf(p):
            vals[i] = math.sqrt(np.max(mag2))
        else:
            vals[i] = (np.sum(np.power(mag2, 0.5 * p, out=mag2)) * g.cell_area) ** (1.0 / p)
    return vals


def measure_strichartz(initial: Field, eps: float, t_final: float, p: float) -> float:
    """Mixed time-space norm of the free evolution, sampled at uniform times.

    Returns the L^r-in-time (r from ``strichartz_exponents``) of the spatial
    L^p norm over [0, t_final] at the ``sample_times``, each evaluated by
    ``free_wave_norms`` at its phase scale t / eps. Callers should keep
    t_final inside ``wraparound_window``; the measurement itself does not
    enforce it.
    """
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    _check_eps(eps)
    r, _ = strichartz_exponents(p)
    times = sample_times(t_final)
    return mixed_time_norm(times, free_wave_norms(initial, times / eps, p), r)
