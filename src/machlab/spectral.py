"""Spectral substrate for doubly periodic 2D fields.

Fields live on an n-by-n grid over a square box of side ``box_length``. A
real field is carried as its half spectrum: the coefficient array is
``numpy.fft.rfft2(samples, norm="forward")`` of shape (n, n/2 + 1), so the
zero mode equals the spatial mean, a pure cosine of unit amplitude shows up
as a coefficient of magnitude 1/2, and the inverse ``irfft2(..., norm="forward")``
needs no rescaling. The columns hold ky = 0 .. n/2; the negative ky half is
the complex conjugate and is never stored. Sums over the full spectrum
become sums over the half with the Parseval column weights: 1 on columns 0
and n/2, which are their own conjugate partners, and 2 on every other column.

Every field is one ``Field``: a grid and a stack of half spectra of shape
(*components, n, n/2 + 1), whether it holds a scalar, a vector, or the
(Gamma_x, Gamma_y, Upsilon) x (re, im) stack of the acoustic variables; norms
take the pointwise magnitude over all its components. ``FlowState`` is the
(vx, vy, c) stack with the constants eps and gamma_bar.

Every transform goes through ``to_modes``/``to_samples``, which act on the
last two axes, so stacks of fields transform in one batched call. Hot paths
pass ``out=`` arrays from ``scratch``, the per-thread work buffers.

The solvers keep their fields inside the dealias disk, whose modes lie in
the first ``Grid.band`` = n//3 + 1 of the n/2 + 1 columns. ``to_samples``
takes a half spectrum cut to its first c columns, the missing columns
meaning zero, and runs its column pass on those c columns only; callers
whose input is dealiased by construction pass ``modes[..., :grid.band]``.
``to_dealiased_modes`` is the forward transform followed by the dealias
mask, with its column pass on the band only. Both give the full-width
results bit for bit. All transforms call numpy's N-D entry points
(``rfftn``, ``irfftn``, ``fftn``, ``ifftn``) with ``axes=``.
Derivatives, inverse operators, and the Leray projectors are exact Fourier
multipliers; quadrature norms use the uniform cell weight ``(box_length/n)**2``.
The dyadic partition of the Littlewood-Paley blocks is a table of the grid,
``Grid.blocks``, built on first read, with the column count of each block's
support in ``Grid.block_columns``.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .ledger import RunLedger

DEFAULT_BOX_LENGTH = 16.0 * math.pi

_SNAPSHOT_MAGIC = b"MLF1"
_SNAPSHOT_HEADER = struct.Struct("<4sIdI")


def to_modes(samples: np.ndarray) -> np.ndarray:
    """Half spectra of real samples, batched over every leading axis."""
    return np.fft.rfftn(samples, axes=(-2, -1), norm="forward")


def to_samples(modes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of half spectra, batched over every leading axis; written
    into ``out`` when it is given.

    ``modes`` may be cut to its first c <= n/2 + 1 columns, the missing
    columns being zero. The column pass (``ifftn`` over axis -2) runs on those
    c columns into a full-width array whose other columns are zeroed, and the
    row pass (``irfftn`` over axis -1) inverts that, so the samples equal
    those of the full-width spectrum bit for bit. These are the two passes
    ``irfftn`` over both axes takes. (Handing ``irfftn`` the c columns to pad
    itself gives the same samples, but its row pass then runs slower than at
    full width.)
    """
    n, c = modes.shape[-2:]
    columns = np.empty(modes.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    columns[..., c:] = 0.0
    np.fft.ifftn(modes, axes=(-2,), norm="forward", out=columns[..., :c])
    return np.fft.irfftn(columns, s=(n,), axes=(-1,), norm="forward", out=out)


def to_dealiased_modes(grid: "Grid", samples: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """``to_modes`` of ``samples`` with every mode outside the dealias disk
    zeroed, bit for bit; written into ``out`` when it is given.

    The row pass (``rfftn`` over axis -1) fills every column, and the column
    pass (``fftn`` over axis -2) runs on the first ``grid.band`` columns only,
    in place; the columns past the band are zeroed.
    """
    out = np.fft.rfftn(samples, axes=(-1,), norm="forward", out=out)
    band = out[..., :grid.band]
    np.fft.fftn(band, axes=(-2,), norm="forward", out=band)
    out[..., grid.band:] = 0.0
    np.copyto(band, 0.0, where=~grid.dealias_mask[:, :grid.band])
    return out


class Scratch:
    """Work arrays of one thread for one grid size, kept from call to call.

    Their contents are garbage on entry. No array that is returned, stored in
    a state or kept in a snapshot may alias them.
    """

    def __init__(self, n: int):
        self.n = n
        self._arrays: dict = {}

    def _take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A contiguous array of ``shape`` on the front of the buffer ``key``,
        which grows to the largest size asked of it."""
        size = math.prod(shape)
        arr = self._arrays.get(key)
        if arr is None or arr.size < size or arr.dtype != dtype:
            arr = self._arrays[key] = np.empty(size, dtype)
        return arr[:size].reshape(shape)

    def modes(self, planes: int, columns: int | None = None) -> np.ndarray:
        """A (planes, n, columns) complex stack; the columns default to n/2 + 1."""
        return self._take("modes", (planes, self.n, columns or self.n // 2 + 1), np.complex128)

    def multipliers(self, planes: int, columns: int | None = None) -> np.ndarray:
        """A (planes, n, columns) real stack, for multipliers on the half table;
        the columns default to n/2 + 1."""
        return self._take("multipliers", (planes, self.n, columns or self.n // 2 + 1),
                          np.float64)

    def samples(self, planes: int) -> np.ndarray:
        """A (planes, n, n) real stack."""
        return self._take("samples", (planes, self.n, self.n), np.float64)

    def rk4_work(self, u: np.ndarray) -> np.ndarray:
        """The RK4 work arrays (acc, k, stage) shaped like ``u``; only the last
        dtype's are kept."""
        return self._take("rk4", (3,) + u.shape, u.dtype)


_THREAD = threading.local()


def scratch(n: int) -> Scratch:
    """This thread's work arrays for grids of n points per side.

    Threads never share them, and a thread keeps those of its last grid size
    only: asking for another size drops them.
    """
    buf = getattr(_THREAD, "scratch", None)
    if buf is None or buf.n != n:
        buf = _THREAD.scratch = Scratch(n)
    return buf


def dealias_cutoff(n: int, box_length: float) -> float:
    """The radial 2/3-rule cutoff (2/3) (n/2) (2 pi / box_length) of an n-point grid."""
    return (2.0 / 3.0) * (n / 2.0) * (2.0 * math.pi / box_length)


# chi, the profile of the low block, is 1 on r <= CHI_PLATEAU and 0 on
# r >= CHI_SUPPORT; the ring phi_q is therefore 1 on
# CHI_SUPPORT * 2**q <= |k| <= CHI_PLATEAU * 2**(q+1)
CHI_PLATEAU = 0.75
CHI_SUPPORT = 4.0 / 3.0
FIRST_RING = CHI_PLATEAU  # inner support edge 3/4 * 2**q of the ring q = 0

# Values of the plateau profile below this are snapped to exact zero so that
# support disjointness (|p - q| >= 2) holds in exact arithmetic.
_SUPPORT_SNAP = 1e-300


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    out = np.where(t >= 1.0, 1.0, 0.0)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    out[out < _SUPPORT_SNAP] = 0.0
    return out


def _chi_profile(r: np.ndarray) -> np.ndarray:
    """Radial plateau: 1 on r <= 3/4, 0 on r >= 4/3, smooth monotone between."""
    r = np.asarray(r, dtype=np.float64)
    return _smooth_step((CHI_SUPPORT - r) / (CHI_SUPPORT - CHI_PLATEAU))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with its half-spectrum wavenumber tables.

    Parameters
    ----------
    n : int
        Points per side. Must be a power of two, at least 8.
    box_length : float
        Physical side length of the periodic box.

    ``kx`` (n, 1) and ``ky`` (1, n/2 + 1) broadcast to the half-spectrum
    shape, ``kmag`` is |k| on it and ``parseval_weight`` is the column weight
    row of the half-spectrum sums. ``kmag_levels`` holds the sorted distinct
    values of ``kmag`` and the intp table ``kmag_index`` places them,
    ``kmag_levels[kmag_index] == kmag`` exactly, so a function of |k| is
    evaluated once per distinct value (``kmag_cos_sin``,
    ``acoustic._rotate_rows``). These are built
    with the grid. The tables that only some runs read are built on first
    read: ``kvec`` stacks kx and ky to (2, n, n/2 + 1), ``khat`` is the unit
    wavevector ``kvec * inv_kmag`` (zero at k = 0), ``k2`` is |k|^2,
    ``inv_k2`` and ``inv_kmag`` are 1/|k|^2 and 1/|k| (zero at k = 0), and
    ``blocks`` and ``block_columns`` hold the dyadic partition.

    The 2/3-rule dealiasing cutoff is radial:
    ``kmax_dealias = (2/3) * (n/2) * (2*pi/box_length)``. Because n is a
    power of two the cutoff circle never passes exactly through a lattice
    mode, so the retained set is unambiguous and quadratic products of
    masked fields are alias-free on the retained modes. The cutoff is n/3
    grid wavenumbers whatever the box, so the retained modes lie in the
    first ``band`` = n//3 + 1 columns of the half spectrum.
    """

    n: int
    box_length: float = DEFAULT_BOX_LENGTH

    def __post_init__(self) -> None:
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")
        if not (self.box_length > 0.0):
            raise ValueError(f"box_length must be positive, got {self.box_length}")
        dk = 2.0 * math.pi / self.box_length
        kx = dk * np.fft.fftfreq(n, d=1.0 / n)[:, None]  # signed rows
        ky = dk * np.arange(n // 2 + 1, dtype=np.float64)[None, :]
        kmag = np.sqrt(kx * kx + ky * ky)
        kmax = dealias_cutoff(n, self.box_length)
        weight = np.full(n // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        # sort, mask and searchsorted: np.unique(return_inverse=True) keeps more memory
        flat = np.sort(kmag, axis=None)
        levels = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
        tables = {
            "kx": kx, "ky": ky, "kmag": kmag,
            "kmag_levels": levels, "kmag_index": np.searchsorted(levels, kmag),
            "kmax_dealias": kmax, "dealias_mask": kmag <= kmax, "parseval_weight": weight,
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    @cached_property
    def kvec(self) -> np.ndarray:
        return np.stack(np.broadcast_arrays(self.kx, self.ky))

    @cached_property
    def khat(self) -> np.ndarray:
        return self.kvec * self.inv_kmag

    @cached_property
    def k2(self) -> np.ndarray:
        return self.kx * self.kx + self.ky * self.ky

    @cached_property
    def inv_k2(self) -> np.ndarray:
        k2 = self.k2
        out = np.zeros_like(k2)
        nz = k2 > 0.0
        out[nz] = 1.0 / k2[nz]
        return out

    @cached_property
    def inv_kmag(self) -> np.ndarray:
        out = np.zeros_like(self.kmag)
        nz = self.kmag > 0.0
        out[nz] = 1.0 / self.kmag[nz]
        return out

    @property
    def band(self) -> int:
        """The number of leading half-spectrum columns that hold the dealias
        disk: its radius is n/3 grid wavenumbers, and n/3 is never whole."""
        return self.n // 3 + 1

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def cell_area(self) -> float:
        return (self.box_length / self.n) ** 2

    @property
    def modes_shape(self) -> tuple[int, int]:
        return (self.n, self.n // 2 + 1)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes as broadcastable (n,1) and (1,n) arrays; samples[i,j] = u(x_i, y_j)."""
        x = np.arange(self.n) * self.spacing
        return x[:, None], x[None, :]

    @cached_property
    def blocks(self) -> np.ndarray:
        """The dyadic partition: a (q_max + 2, n, n/2 + 1) stack of
        half-spectrum multipliers, built on first read.

        ``blocks[0]`` is the low block, a radial plateau chi equal to 1 on
        |k| <= 3/4 and supported in |k| <= 4/3; ``blocks[q + 1]`` is the ring
        phi_q(k) = chi(k / 2**(q+1)) - chi(k / 2**q), supported in
        3/4 * 2**q <= |k| <= 8/3 * 2**q. Frequencies are physical wavenumbers,
        so ring q isolates |k| near 2**q and first derivatives of a block
        scale like 2**q with grid-independent constants. q_max is the largest
        ring whose inner edge lies at or below the dealias cutoff, so the
        multipliers sum to exactly 1 on every retained mode. Raises if the
        grid is too coarse to host even the q = 0 ring below the cutoff.
        """
        kmax = self.kmax_dealias
        if kmax < FIRST_RING:
            raise ValueError(f"dealias cutoff {kmax:.4g} is below the first ring; "
                             "refine the grid or shrink the box")
        q_max = int(math.floor(math.log2(kmax / FIRST_RING)))
        kmag = self.kmag
        scales = [float(2**q) for q in range(q_max + 1)]
        return np.stack([_chi_profile(kmag)]
                        + [_chi_profile(kmag / (2.0 * s)) - _chi_profile(kmag / s) for s in scales])

    @cached_property
    def block_columns(self) -> tuple[int, ...]:
        """For each block of ``blocks``, the number of leading half-spectrum
        columns that hold its support; every later column of the block is
        exactly zero."""
        occupied = np.any(self.blocks != 0.0, axis=1)
        return tuple(int(np.flatnonzero(row)[-1]) + 1 for row in occupied)


def kmag_cos_sin(grid: Grid, scale: float) -> np.ndarray:
    """The (2, n, n/2 + 1) stack (cos, sin) of theta = |k| * scale on the
    half table, for the compressible solver's exact acoustic step.

    Many modes share one |k|, so the cos and sin are evaluated once per
    distinct |k| (``grid.kmag_levels``) and gathered by ``grid.kmag_index``;
    each theta is the same float product as ``grid.kmag * scale``, so the
    result equals ``np.cos``/``np.sin`` of that table bit for bit.
    """
    out = np.empty((2,) + grid.modes_shape)
    theta = grid.kmag_levels * scale
    # the index is in range by construction; mode="clip" spares np.take a copy of out
    np.take(np.cos(theta), grid.kmag_index, out=out[0], mode="clip")
    np.take(np.sin(theta), grid.kmag_index, out=out[1], mode="clip")
    return out


@dataclass(frozen=True)
class Field:
    """A stack of real fields on one grid, each stored as its half spectrum.

    ``modes`` has shape (*components, n, n/2 + 1): one plane for a scalar,
    (2, ...) for a vector, (3, 2, ...) for the acoustic stack of
    ``acoustic.make_acoustic``. Norms treat every leading axis as components
    of one pointwise magnitude.
    """

    grid: Grid
    modes: np.ndarray

    def __post_init__(self) -> None:
        if self.modes.shape[-2:] != self.grid.modes_shape:
            raise ValueError(f"mode array shape {self.modes.shape} does not match grid "
                             f"n={self.grid.n} (expected trailing axes {self.grid.modes_shape})")

    def values(self) -> np.ndarray:
        """Real-space samples on the grid, one plane per component."""
        return to_samples(self.modes)


def _planes(f) -> np.ndarray:
    """The modes of a field or flow state as a (components, n, n/2 + 1) stack."""
    return f.modes.reshape((-1,) + f.grid.modes_shape)


def fft_forward(grid: Grid, samples: np.ndarray) -> Field:
    """Transform real samples to a half-spectrum field.

    Rejects sample arrays whose shape does not match the grid.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n, grid.n):
        raise ValueError(f"sample array shape {samples.shape} does not match grid n={grid.n}")
    return Field(grid, to_modes(samples))


def dealias(f):
    """Zero every mode with |k| above the radial 2/3 cutoff.

    Works on any object with ``grid`` and ``modes``: fields and flow states
    alike.
    """
    return replace(f, modes=np.where(f.grid.dealias_mask, f.modes, 0.0))


def _mul(f, multiplier: np.ndarray):
    return replace(f, modes=f.modes * multiplier)


def grad(f: Field) -> Field:
    g = f.grid
    return Field(g, 1j * g.kvec * f.modes)


def div(v: Field) -> Field:
    g = v.grid
    return Field(g, 1j * g.kx * v.modes[0] + 1j * g.ky * v.modes[1])


def curl2d(v: Field) -> Field:
    """Scalar vorticity d(uy)/dx - d(ux)/dy."""
    g = v.grid
    return Field(g, 1j * g.kx * v.modes[1] - 1j * g.ky * v.modes[0])


def laplacian(f: Field) -> Field:
    return _mul(f, -f.grid.k2)


def inv_laplacian(f: Field) -> Field:
    """Inverse Laplacian in the mean-free gauge: the zero mode maps to zero."""
    return _mul(f, -f.grid.inv_k2)


def leray_q(v: Field) -> Field:
    """Gradient (curl-free) part: Q = grad inv_laplacian div."""
    g = v.grid
    phi = -g.inv_k2 * div(v).modes
    return Field(g, 1j * g.kvec * phi)


def leray_p(v: Field) -> Field:
    """Divergence-free part: P = I - Q. The zero mode stays in P."""
    return Field(v.grid, v.modes - leray_q(v).modes)


def perp_grad(psi: Field) -> Field:
    """Rotated gradient (-d/dy, d/dx); gives the velocity of a stream function."""
    g = psi.grid
    return Field(g, np.stack([-1j * g.ky * psi.modes, 1j * g.kx * psi.modes]))


def sub(f, g):
    return replace(f, modes=f.modes - g.modes)


def scale(f, a: float):
    return replace(f, modes=a * f.modes)


def magnitude(samples: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean magnitude over the component axis (third from last)."""
    if samples.shape[-3] == 1:
        return np.abs(samples[..., 0, :, :])
    return np.sqrt(np.sum(samples**2, axis=-3))


def plane_norms(samples: np.ndarray, p: float, cell_area: float) -> np.ndarray:
    """L^p quadrature norm of each plane, over the last two axes."""
    if math.isinf(p):
        return np.max(np.abs(samples), axis=(-2, -1))
    return (np.sum(np.abs(samples) ** p, axis=(-2, -1)) * cell_area) ** (1.0 / p)


def lp_norm(f, p: float) -> float:
    """Spatial L^p quadrature norm, p in [1, inf].

    Multi-component fields use the pointwise Euclidean magnitude over all
    their planes. A constant field of height a has L^p norm
    a * box_length**(2/p).
    """
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1, got {p}")
    return float(plane_norms(magnitude(to_samples(_planes(f))), p, f.grid.cell_area))


def l2_norm(f) -> float:
    """L^2 norm via Parseval: ||u||_2^2 = box_length^2 * sum_full |coeff|^2,
    summed over the half spectrum with the column weights."""
    total = float(np.sum(f.grid.parseval_weight * np.abs(_planes(f)) ** 2))
    return f.grid.box_length * math.sqrt(total)


def jacobian_sup(grid: Grid, v: np.ndarray) -> float:
    """Largest sup norm over the four entries of grad v, from one batched inverse.

    ``v`` is the (2, n, c) half spectrum of the velocity, cut to its first c
    columns as ``to_samples`` allows: a caller whose velocity is dealiased
    passes ``modes[..., :grid.band]``, any other the full width.
    """
    c = v.shape[-1]
    return float(np.max(np.abs(to_samples(1j * grid.kvec[:, None, :, :c] * v[None]))))


def rk4(tendency, u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step of du/dt = tendency(u, t): the only RK4 of the
    three solvers and the transport oracle. ``u`` is a mode array, or a real
    array whose second-to-last axis has n points (the oracle's feet).

    ``tendency(u, t, out)`` writes its value into ``out``. The stages live in
    this thread's scratch, and the returned array is new. The sum runs in the
    order ((k1 + 2 k2) + 2 k3) + k4, then times dt/6, then plus u, so the
    result is bit for bit that of the textbook expression.
    """
    acc, k, stage = scratch(u.shape[-2]).rk4_work(u)
    tendency(u, t, acc)
    np.add(u, np.multiply(dt / 2.0, acc, out=stage), out=stage)
    tendency(stage, t + 0.5 * dt, k)
    np.add(u, np.multiply(dt / 2.0, k, out=stage), out=stage)
    acc += np.multiply(2.0, k, out=k)
    tendency(stage, t + 0.5 * dt, k)
    np.add(u, np.multiply(dt, k, out=stage), out=stage)
    acc += np.multiply(2.0, k, out=k)
    tendency(stage, t + dt, k)
    acc += k
    return u + np.multiply(dt / 6.0, acc, out=acc)


def advective_dt(grid: Grid, speed: float, cfl: float, max_dt: float) -> float:
    """The advective step of every solver: ``cfl`` grid spacings per ``speed``,
    at most ``max_dt``. The speed gets a floor of 1e-12, added last, so a
    field at rest still gets a finite step."""
    return min(max_dt, cfl * grid.spacing / (speed + 1e-12))


class RunEnded(RuntimeError):
    """A run ended early inside ``integrate`` (``StoppedShort``, or a check's
    ``compressible.Blowup``): ``integrate`` sets ``ledger`` to its rows so far."""

    ledger = None


class StoppedShort(RunEnded):
    """A run that ``integrate`` stopped before its end: ``time`` is where it
    stopped and ``step`` the step count there. ``ledgers`` maps eps to the
    ledgers a driver writes: every member's where a sweep attaches them
    (``experiments.run_sweep``), the stopped run's where a lifespan run does
    (``experiments.measure_lifespans``), and is None otherwise.
    """

    def __init__(self, message: str, time: float, step: int):
        super().__init__(message)
        self.time = time
        self.step = step
        self.ledgers = None


class StalledStep(StoppedShort):
    """Raised by ``integrate`` when a step would not advance time: its dt is
    not finite, not positive, or too small to change t. ``step`` is the
    number of that step (1 is the first); ``ledger`` holds the rows before it.
    """

    def __init__(self, time: float, step: int, dt: float):
        super().__init__(f"step {step} does not advance time from t={time!r} (dt={dt!r})",
                         time, step)


# The most time steps a run may take. A horizon over max_dt is the fewest
# steps that reach it, whatever dt the CFL rule picks, and ``config`` rejects
# a config past this ceiling; ``integrate`` stops a run whose CFL steps
# shrink so far that it would take more. One Strang step with its monitor row
# took 0.9 ms at n = 8, the smallest grid, and 51 ms at n = 256 on a 2-core
# x86 host, so a million steps run for a quarter of an hour at n = 8 and for
# some 14 hours at n = 256. The shipped configs need at most 200 (t_cap = 4
# at max_dt = 0.02).
MAX_STEPS = 10**6


class StepBudgetSpent(StoppedShort):
    """Raised by ``integrate`` when a run has taken ``MAX_STEPS`` steps and
    not reached its end: ``time`` is where the budget ran out and ``step``
    the number of steps taken; ``ledger`` holds the rows so far."""

    def __init__(self, time: float, step: int, t_final: float):
        super().__init__(f"step budget spent: {step} steps reach only t={time!r} "
                         f"of t_final={t_final!r}", time, step)


def keep_state(u, t: float):
    """The default capture of ``integrate``: the state itself."""
    return u


def integrate(u, t: float, t_final: float, dt_of, advance, monitor, snapshot_times=(),
              capture=keep_state, check=lambda t, row, step: None):
    """The time loop shared by every solver: step u from time t to t_final.

    ``dt_of(u)`` proposes a step size, which is clipped to t_final and to the
    next pending snapshot time; ``advance(u, t, dt)`` returns the state one
    step of dt later. Time advances as t + dt, step by step. ``monitor`` is a
    (row, columns) pair: ``row(u, t)`` of the initial state and of every
    accepted step is appended to the run's ``RunLedger`` of ``columns``, then
    ``check(t, row, step)`` runs on it (step 0 is the initial state).

    Returns (u, ledger, snapshots); ``snapshots`` maps each requested time s
    to ``capture(u, s)`` of the state there, hit exactly, and every time at
    or before the start to that of the initial state. ``capture`` keeps the
    state itself by default; a caller that reads only some reduction of a
    snapshot passes that reduction, so the states pass through and are
    never held. A step whose clipped dt would not advance t raises
    ``StalledStep`` instead of looping or ending at t = NaN, and a run that
    would take more than ``MAX_STEPS`` steps raises ``StepBudgetSpent``;
    each, and any ``RunEnded`` of ``check``, carries the ledger so far.
    """
    row_of, columns = monitor
    ledger = RunLedger(columns)
    steps = 0

    def record(u, t: float) -> None:
        row = row_of(u, t)
        ledger.append(t, **row)
        check(t, row, steps)

    pending = sorted({s for s in snapshot_times if s > t})  # a repeated time would stall
    try:
        record(u, t)
        snapshots = {s: capture(u, s) for s in snapshot_times if s <= t}
        while t < t_final - 1e-12:
            if steps == MAX_STEPS:
                raise StepBudgetSpent(t, steps, t_final)
            dt = min(dt_of(u), t_final - t)
            if pending:
                dt = min(dt, pending[0] - t)
            steps += 1
            if not (math.isfinite(dt) and dt > 0.0 and t + dt != t):
                raise StalledStep(t, steps, dt)
            u = advance(u, t, dt)
            t = t + dt
            record(u, t)
            if pending and t >= pending[0] - 1e-12:
                s = pending.pop(0)
                snapshots[s] = capture(u, s)
    except RunEnded as end:
        end.ledger = ledger
        raise
    return u, ledger, snapshots


def cubic_spline_at(f: Field, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The periodic cubic B-spline interpolant of the samples of a scalar
    field, at the points (x, y) in box units, which may lie any number of
    periods outside the box.

    The spline's coefficients have the spectrum of f divided by the spline's
    symbol ((2 + cos(k0 h)) / 3) ((2 + cos(k1 h)) / 3), h the grid spacing,
    and take one inverse transform. Each point then sums the 4 x 4 nodes
    around it, read from a wrap-padded table of the coefficients.
    """
    grid = f.grid
    n = grid.n
    symbol = ((2.0 + np.cos(grid.kx * grid.spacing)) / 3.0
              * ((2.0 + np.cos(grid.ky * grid.spacing)) / 3.0))
    table = np.pad(to_samples(f.modes / symbol), (1, 2), mode="wrap").ravel()

    def node_and_weights(u):
        """The node i at or below u (grid units) mod n, and the weights of
        the nodes i - 1 .. i + 2."""
        node = np.floor(u)
        s = u - node
        r = 1.0 - s
        return node.astype(np.intp) % n, (
            r * r * r / 6.0, (3.0 * s * s * s - 6.0 * s * s + 4.0) / 6.0,
            (3.0 * r * r * r - 6.0 * r * r + 4.0) / 6.0, s * s * s / 6.0)

    ix, wx = node_and_weights(x / grid.spacing)
    iy, wy = node_and_weights(y / grid.spacing)
    corner = ix * (n + 3) + iy  # node (i - 1, j - 1) of the padded table
    out = np.zeros(corner.shape)
    for a in range(4):
        for b in range(4):
            out += wx[a] * wy[b] * np.take(table, corner + (a * (n + 3) + b))
    return out


def _trig_point(f: Field, x: float, y: float):
    """Value, gradient, Hessian of the trigonometric interpolant at (x, y).

    The sums run through ``np.einsum`` without BLAS: a matrix-vector product
    this small costs far more in a multi-threaded BLAS's start-up than in
    arithmetic.
    """
    def dot(a, b):
        return np.einsum("...j,j->...", a, b, optimize=False)

    kx = f.grid.kx.ravel()
    ky = f.grid.ky.ravel()
    ex = np.exp(1j * kx * x)
    ey = f.grid.parseval_weight * np.exp(1j * ky * y)  # the conjugate half, folded in
    cy = dot(f.modes, ey)
    cy1 = dot(f.modes, 1j * ky * ey)
    cy2 = dot(f.modes, -(ky**2) * ey)
    val = float(np.real(dot(ex, cy)))
    g = (float(np.real(dot(1j * kx * ex, cy))), float(np.real(dot(ex, cy1))))
    h = (float(np.real(dot(-(kx**2) * ex, cy))),
         float(np.real(dot(1j * kx * ex, cy1))),
         float(np.real(dot(ex, cy2))))
    return val, g, h


def _upsampled_seeds(f: Field, m: int) -> list[tuple[int, int, float]]:
    """(row, column, value) of the first minimum and the first maximum, in
    row-major order, of f's samples on the m-by-m grid (m a multiple of n).

    The padded spectrum is cut to the n/2 + 1 columns the zero padding
    leaves nonzero, and inverted as ``to_samples`` inverts a cut spectrum:
    the column pass over all m rows, then the row pass n rows at a time, so
    no m-by-m array is ever held and the samples are ``to_samples``'s bit
    for bit.
    """
    n = f.grid.n
    padded = np.zeros((m, n // 2 + 1), dtype=np.complex128)
    padded[np.fft.fftfreq(n, d=1.0 / n).astype(int)] = f.modes
    padded[:, n // 2] *= 0.5  # the Nyquist column is interior on the fine grid
    columns = np.fft.ifftn(padded, axes=(0,), norm="forward")
    found: dict = {np.argmin: [], np.argmax: []}
    for r0 in range(0, m, n):
        rows = np.fft.irfftn(columns[r0:r0 + n], s=(m,), axes=(1,), norm="forward")
        for pick, seeds in found.items():
            j = int(pick(rows))
            seeds.append((r0 + j // m, j % m, float(rows.flat[j])))
    # the first chunk holding the extreme value (or a NaN) holds the first occurrence
    return [seeds[int(pick([v for _, _, v in seeds]))] for pick, seeds in found.items()]


def refined_extrema(f: Field) -> tuple[float, float]:
    """(min, max) of the trigonometric interpolant, not of the grid samples.

    The grid sup of a band-limited field understates the true extremum by
    O((spacing / feature width)^2) whenever the peak sits between points,
    which swamps a 1e-6 max-principle tolerance; upsampled seeds plus a
    Newton polish on the spectral series remove that sampling error. Seeds
    come from the grid 4 times finer, and each gets up to 4 Newton steps.
    """
    grid = f.grid
    m = 4 * grid.n
    h_fine = grid.box_length / m
    out = []
    for jx, jy, seed in _upsampled_seeds(f, m):
        x, y = jx * h_fine, jy * h_fine
        val, g, hess = _trig_point(f, x, y)
        for _ in range(4):
            hxx, hxy, hyy = hess
            det = hxx * hyy - hxy * hxy
            if abs(det) < 1e-30:
                break
            dx = -(hyy * g[0] - hxy * g[1]) / det
            dy = -(hxx * g[1] - hxy * g[0]) / det
            step = math.hypot(dx, dy)
            if step > h_fine:  # stay inside the seeding cell
                dx *= h_fine / step
                dy *= h_fine / step
            x += dx
            y += dy
            val, g, hess = _trig_point(f, x, y)
        out.append((val, seed))
    (lo, lo_seed), (hi, hi_seed) = out
    return min(lo, lo_seed), max(hi, hi_seed)


@dataclass(frozen=True)
class FlowState:
    """Velocity-plus-sound-speed state of the rescaled barotropic system.

    ``modes`` stacks the half spectra of (vx, vy, c) into one
    (3, n, n/2 + 1) array. ``c`` is the rescaled sound speed fluctuation,
    ``eps`` the Mach-like scaling parameter in (0, 1], and
    ``gamma_bar = (gamma - 1) / 2`` the coupling constant in front of the
    quadratic terms.
    """

    grid: Grid
    modes: np.ndarray
    eps: float
    gamma_bar: float = 0.2

    def __post_init__(self) -> None:
        if self.modes.shape != (3,) + self.grid.modes_shape:
            raise ValueError(f"flow state modes of shape {self.modes.shape} do not match grid "
                             f"n={self.grid.n} (expected {(3,) + self.grid.modes_shape})")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if not (self.gamma_bar > 0.0):
            raise ValueError(f"gamma_bar must be positive, got {self.gamma_bar}")

    @property
    def v(self) -> Field:
        return Field(self.grid, self.modes[:2])

    @property
    def c(self) -> Field:
        return Field(self.grid, self.modes[2])


def write_snapshot(path, field) -> None:
    """Write the real-space samples of every component of a field (or flow
    state) in the MLF1 container.

    Layout: magic ``MLF1``, u32 n, f64 box_length, u32 field count, then one
    n*n row-major little-endian f64 block per component, inverted one at a
    time. Round trips bit-exactly.
    """
    grid, planes = field.grid, _planes(field)
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_HEADER.pack(_SNAPSHOT_MAGIC, grid.n, grid.box_length, len(planes)))
        for plane in planes:
            fh.write(to_samples(plane).astype("<f8", copy=False).tobytes())


def read_snapshot(path) -> tuple[int, float, list[np.ndarray]]:
    """Read an MLF1 container; returns (n, box_length, list of sample arrays)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _SNAPSHOT_HEADER.size:
        raise ValueError("snapshot file truncated")
    magic, n, box_length, count = _SNAPSHOT_HEADER.unpack_from(raw, 0)
    if magic != _SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    expected = _SNAPSHOT_HEADER.size + count * n * n * 8
    if len(raw) != expected:
        raise ValueError(f"snapshot payload size {len(raw)} does not match header ({expected})")
    out = []
    offset = _SNAPSHOT_HEADER.size
    for _ in range(count):
        block = np.frombuffer(raw, dtype="<f8", count=n * n, offset=offset).reshape(n, n)
        out.append(block.copy())
        offset += n * n * 8
    return int(n), float(box_length), out
