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

Every transform goes through ``to_modes``/``to_samples``, which act on the
last two axes, so stacks of fields transform in one batched call. Hot paths
pass ``out=`` arrays from ``scratch``, the per-thread work buffers.
Derivatives, inverse operators, and the Leray projectors are exact Fourier
multipliers; quadrature norms use the uniform cell weight ``(box_length/n)**2``.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_BOX_LENGTH = 16.0 * math.pi

_SNAPSHOT_MAGIC = b"MLF1"
_SNAPSHOT_HEADER = struct.Struct("<4sIdI")


def to_modes(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectra of real samples, batched over every leading axis; written
    into ``out`` when it is given."""
    return np.fft.rfftn(samples, axes=(-2, -1), norm="forward", out=out)


def to_samples(modes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of half spectra, batched over every leading axis; written
    into ``out`` when it is given.

    This calls ``irfftn``: ``irfft2`` passes ``out=None`` on to it, so an
    ``out`` given to ``irfft2`` is left untouched and a new array returned.
    """
    return np.fft.irfftn(modes, axes=(-2, -1), norm="forward", out=out)


class Scratch:
    """Work arrays of one thread for one grid size, kept from call to call.

    Their contents are garbage on entry. No array that is returned, stored in
    a state or kept in a snapshot may alias them.
    """

    def __init__(self, n: int):
        self.n = n
        self._arrays: dict = {}

    def _take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or len(arr) < shape[0] or arr.shape[1:] != shape[1:] or arr.dtype != dtype:
            arr = self._arrays[key] = np.empty(shape, dtype)
        return arr[: shape[0]]

    def modes(self, planes: int) -> np.ndarray:
        """A (planes, n, n/2 + 1) complex stack."""
        return self._take("modes", (planes, self.n, self.n // 2 + 1), np.complex128)

    def multipliers(self, planes: int) -> np.ndarray:
        """A (planes, n, n/2 + 1) real stack, for multipliers on the half table."""
        return self._take("multipliers", (planes, self.n, self.n // 2 + 1), np.float64)

    def samples(self, planes: int) -> np.ndarray:
        """A (planes, n, n) real stack."""
        return self._take("samples", (planes, self.n, self.n), np.float64)

    def rk4_work(self, u: np.ndarray) -> np.ndarray:
        """The RK4 work arrays (acc, k, stage) shaped like ``u``; only the last shape's are kept."""
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


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with precomputed half-spectrum wavenumber tables.

    Parameters
    ----------
    n : int
        Points per side. Must be a power of two, at least 8.
    box_length : float
        Physical side length of the periodic box.

    ``kx`` (n, 1) and ``ky`` (1, n/2 + 1) broadcast to the half-spectrum
    shape, ``kvec`` stacks them to (2, n, n/2 + 1), and ``parseval_weight``
    is the column weight row of the half-spectrum sums.

    The 2/3-rule dealiasing cutoff is radial:
    ``kmax_dealias = (2/3) * (n/2) * (2*pi/box_length)``. Because n is a
    power of two the cutoff circle never passes exactly through a lattice
    mode, so the retained set is unambiguous and quadratic products of
    masked fields are alias-free on the retained modes.
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
        k2 = kx * kx + ky * ky
        kmag = np.sqrt(k2)
        kmax = (2.0 / 3.0) * (n / 2.0) * dk
        nz = k2 > 0.0
        inv_k2 = np.zeros_like(k2)
        inv_k2[nz] = 1.0 / k2[nz]
        inv_kmag = np.zeros_like(kmag)
        inv_kmag[nz] = 1.0 / kmag[nz]
        weight = np.full(n // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        tables = {
            "kx": kx, "ky": ky, "kvec": np.stack(np.broadcast_arrays(kx, ky)),
            "k2": k2, "kmag": kmag, "inv_k2": inv_k2, "inv_kmag": inv_kmag,
            "kmax_dealias": kmax, "dealias_mask": kmag <= kmax, "parseval_weight": weight,
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

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


def _check_shape(grid: Grid, modes: np.ndarray, lead: tuple[int, ...]) -> None:
    if modes.shape != lead + grid.modes_shape:
        raise ValueError(
            f"mode array shape {modes.shape} does not match grid n={grid.n} "
            f"(expected {lead + grid.modes_shape})"
        )


@dataclass(frozen=True)
class SpectralScalarField:
    """Real scalar field stored as its (n, n/2 + 1) half spectrum."""

    grid: Grid
    modes: np.ndarray

    def __post_init__(self) -> None:
        _check_shape(self.grid, self.modes, ())

    def values(self) -> np.ndarray:
        """Real-space samples on the grid."""
        return to_samples(self.modes)

    @property
    def mean(self) -> float:
        return float(np.real(self.modes[0, 0]))


@dataclass(frozen=True)
class SpectralVectorField:
    """Two-component real vector field stored as one (2, n, n/2 + 1) array."""

    grid: Grid
    modes: np.ndarray

    def __post_init__(self) -> None:
        _check_shape(self.grid, self.modes, (2,))

    @property
    def ux(self) -> SpectralScalarField:
        return SpectralScalarField(self.grid, self.modes[0])

    @property
    def uy(self) -> SpectralScalarField:
        return SpectralScalarField(self.grid, self.modes[1])


def gather(f) -> tuple[Grid, np.ndarray]:
    """Grid and stacked (components, n, n/2 + 1) modes of a field.

    Accepts anything with ``grid`` and ``modes`` (scalar and vector fields,
    flow states) or a sequence of such objects, whose components are
    concatenated in order.
    """
    if hasattr(f, "modes"):
        return f.grid, f.modes[None] if f.modes.ndim == 2 else f.modes
    parts = [gather(x) for x in f]
    if not parts:
        raise ValueError("need at least one field")
    grid = parts[0][0]
    if any(g != grid for g, _ in parts):
        raise ValueError("all fields must share one grid")
    return grid, np.concatenate([m for _, m in parts])


def fft_forward(grid: Grid, samples: np.ndarray) -> SpectralScalarField:
    """Transform real samples to a half-spectrum field.

    Rejects sample arrays whose shape does not match the grid.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n, grid.n):
        raise ValueError(f"sample array shape {samples.shape} does not match grid n={grid.n}")
    return SpectralScalarField(grid, to_modes(samples))


def from_function(grid: Grid, fn) -> SpectralScalarField:
    x, y = grid.coordinates()
    return fft_forward(grid, np.broadcast_to(fn(x, y), (grid.n, grid.n)))


def vector(ux: SpectralScalarField, uy: SpectralScalarField) -> SpectralVectorField:
    if ux.grid != uy.grid:
        raise ValueError("vector components must share one grid")
    return SpectralVectorField(ux.grid, np.stack([ux.modes, uy.modes]))


def dealias(f):
    """Zero every mode with |k| above the radial 2/3 cutoff.

    Works on any object with ``grid`` and ``modes``: scalar and vector
    fields and flow states alike.
    """
    return replace(f, modes=np.where(f.grid.dealias_mask, f.modes, 0.0))


def _mul(f, multiplier: np.ndarray):
    return replace(f, modes=f.modes * multiplier)


def grad(f: SpectralScalarField) -> SpectralVectorField:
    g = f.grid
    return SpectralVectorField(g, 1j * g.kvec * f.modes)


def div(v: SpectralVectorField) -> SpectralScalarField:
    g = v.grid
    return SpectralScalarField(g, 1j * g.kx * v.modes[0] + 1j * g.ky * v.modes[1])


def curl2d(v: SpectralVectorField) -> SpectralScalarField:
    """Scalar vorticity d(uy)/dx - d(ux)/dy."""
    g = v.grid
    return SpectralScalarField(g, 1j * g.kx * v.modes[1] - 1j * g.ky * v.modes[0])


def laplacian(f: SpectralScalarField) -> SpectralScalarField:
    return _mul(f, -f.grid.k2)


def inv_laplacian(f: SpectralScalarField) -> SpectralScalarField:
    """Inverse Laplacian in the mean-free gauge: the zero mode maps to zero."""
    return _mul(f, -f.grid.inv_k2)


def leray_q(v: SpectralVectorField) -> SpectralVectorField:
    """Gradient (curl-free) part: Q = grad inv_laplacian div."""
    g = v.grid
    phi = -g.inv_k2 * div(v).modes
    return SpectralVectorField(g, 1j * g.kvec * phi)


def leray_p(v: SpectralVectorField) -> SpectralVectorField:
    """Divergence-free part: P = I - Q. The zero mode stays in P."""
    return SpectralVectorField(v.grid, v.modes - leray_q(v).modes)


def perp_grad(psi: SpectralScalarField) -> SpectralVectorField:
    """Rotated gradient (-d/dy, d/dx); gives the velocity of a stream function."""
    g = psi.grid
    return SpectralVectorField(g, np.stack([-1j * g.ky * psi.modes, 1j * g.kx * psi.modes]))


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

    Accepts a scalar field, a vector field, or a sequence of fields;
    multi-component inputs use the pointwise Euclidean magnitude. A constant
    field of height a has L^p norm a * box_length**(2/p).
    """
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1, got {p}")
    grid, modes = gather(f)
    return float(plane_norms(magnitude(to_samples(modes)), p, grid.cell_area))


def l2_norm(f) -> float:
    """L^2 norm via Parseval: ||u||_2^2 = box_length^2 * sum_full |coeff|^2,
    summed over the half spectrum with the column weights."""
    grid, modes = gather(f)
    total = float(np.sum(grid.parseval_weight * np.abs(modes) ** 2))
    return grid.box_length * math.sqrt(total)


def jacobian_sup(v: SpectralVectorField) -> float:
    """Largest sup norm over the four entries of grad v, from one batched inverse."""
    g = v.grid
    return float(np.max(np.abs(to_samples(1j * g.kvec[:, None] * v.modes[None]))))


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


class StalledStep(RuntimeError):
    """Raised by ``integrate`` when a step would not advance time: its dt is
    not finite, not positive, or too small to change t. ``step`` is the
    number of that step (1 is the first); the rows recorded before it stay.
    """

    def __init__(self, time: float, step: int, dt: float):
        super().__init__(f"step {step} does not advance time from t={time!r} (dt={dt!r})")
        self.time = time
        self.step = step


def integrate(u, t: float, t_final: float, dt_of, advance, record, snapshot_times=()):
    """The time loop shared by every solver: step u from time t to t_final.

    ``dt_of(u)`` proposes a step size, which is clipped to t_final and to the
    next pending snapshot time; ``advance(u, t, dt)`` returns the state one
    step of dt later; ``record(u, t)`` runs on the initial state and after
    every accepted step, and whatever it raises propagates with the earlier
    rows already recorded. Time advances as t + dt, step by step.

    Returns (u, snapshots); ``snapshots`` maps each requested time to the
    state there, hit exactly, and every time at or before the start to the
    initial state. A step whose clipped dt would not advance t raises
    ``StalledStep`` instead of looping or ending at t = NaN.
    """
    pending = sorted({s for s in snapshot_times if s > t})  # a repeated time would stall
    snapshots = {s: u for s in snapshot_times if s <= t}
    record(u, t)
    steps = 0
    while t < t_final - 1e-12:
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
            snapshots[pending.pop(0)] = u
    return u, snapshots


def _trig_point(f: "SpectralScalarField", x: float, y: float):
    """Value, gradient, Hessian of the trigonometric interpolant at (x, y)."""
    kx = f.grid.kx.ravel()
    ky = f.grid.ky.ravel()
    ex = np.exp(1j * kx * x)
    ey = f.grid.parseval_weight * np.exp(1j * ky * y)  # the conjugate half, folded in
    cy = f.modes @ ey
    cy1 = f.modes @ (1j * ky * ey)
    cy2 = f.modes @ (-(ky**2) * ey)
    val = float(np.real(ex @ cy))
    g = (float(np.real((1j * kx * ex) @ cy)), float(np.real(ex @ cy1)))
    h = (float(np.real((-(kx**2) * ex) @ cy)),
         float(np.real((1j * kx * ex) @ cy1)),
         float(np.real(ex @ cy2)))
    return val, g, h


def refined_extrema(f: "SpectralScalarField") -> tuple[float, float]:
    """(min, max) of the trigonometric interpolant, not of the grid samples.

    The grid sup of a band-limited field understates the true extremum by
    O((spacing / feature width)^2) whenever the peak sits between points,
    which swamps a 1e-6 max-principle tolerance; upsampled seeds plus a
    Newton polish on the spectral series remove that sampling error. Seeds
    come from the grid 4 times finer, and each gets up to 4 Newton steps.
    """
    grid = f.grid
    n = grid.n
    m = 4 * n
    big = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    ix = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    big[ix, : n // 2 + 1] = f.modes
    big[:, n // 2] *= 0.5  # the Nyquist column is interior on the fine grid
    fine = to_samples(big)
    h_fine = grid.box_length / m
    out = []
    for pick in (np.argmin, np.argmax):
        jx, jy = np.unravel_index(pick(fine), fine.shape)
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
        out.append(val)
    lo = min(out[0], float(np.min(fine)))
    hi = max(out[1], float(np.max(fine)))
    return lo, hi


def mixed_time_norm(times, values, r: float) -> float:
    """Trapezoidal L^r-in-time norm of sampled nonnegative values.

    ``times`` must be nondecreasing with at least two samples; ``r`` is a
    time exponent >= 1, or inf for the running supremum.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size < 2:
        raise ValueError("need at least two time samples")
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nondecreasing")
    if math.isinf(r):
        return float(np.max(values))
    if not (r >= 1.0):
        raise ValueError(f"time exponent must be >= 1 or inf, got {r}")
    return float(np.trapezoid(values**r, times) ** (1.0 / r))


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
        _check_shape(self.grid, self.modes, (3,))
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if not (self.gamma_bar > 0.0):
            raise ValueError(f"gamma_bar must be positive, got {self.gamma_bar}")

    @classmethod
    def from_fields(cls, v: SpectralVectorField, c: SpectralScalarField, eps: float,
                    gamma_bar: float = 0.2) -> "FlowState":
        if v.grid != c.grid:
            raise ValueError("velocity and sound speed must share one grid")
        return cls(v.grid, np.concatenate([v.modes, c.modes[None]]), eps, gamma_bar)

    @property
    def v(self) -> SpectralVectorField:
        return SpectralVectorField(self.grid, self.modes[:2])

    @property
    def c(self) -> SpectralScalarField:
        return SpectralScalarField(self.grid, self.modes[2])


def write_snapshot(path, grid: Grid, fields) -> None:
    """Write real-space samples in the MLF1 container.

    Layout: magic ``MLF1``, u32 n, f64 box_length, u32 field count, then one
    n*n row-major little-endian f64 block per field. Round trips bit-exactly.
    """
    blocks = []
    for f in fields:
        samples = f.values() if isinstance(f, SpectralScalarField) else np.asarray(f, dtype=np.float64)
        if samples.shape != (grid.n, grid.n):
            raise ValueError("snapshot field shape does not match grid")
        blocks.append(np.ascontiguousarray(samples, dtype="<f8"))
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_HEADER.pack(_SNAPSHOT_MAGIC, grid.n, grid.box_length, len(blocks)))
        for b in blocks:
            fh.write(b.tobytes())


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
