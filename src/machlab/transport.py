"""Transport-by-prescribed-velocity laboratory.

Advances d f/dt + v . grad f + f div v = 0 for synthetic velocities with
closed-form derivatives, two independent ways:

* a pseudo-spectral RK4 integrator (products dealiased, derivatives exact),
  which steps its own dealiased copy of f0 in place, samples the velocity's
  spatial factors on the grid once per solve (``SyntheticVelocity.on_grid``)
  and only scales them by their time factor at each stage and ledger row,
* a semi-Lagrangian oracle that traces characteristics backward with the
  same RK4 step (``spectral.rk4``), in place on its path, reads the
  velocity and its divergence at the feet with the point methods
  (``SyntheticVelocity.velocity``, ``divergence``), evaluates f0 at the
  foot by its periodic cubic B-spline (``spectral.cubic_spline_at``), and
  multiplies by exp of minus the divergence accumulated along the path.

Each velocity is written once, as ``on_grid``. Agreement between the two
validates both; the ledger feeds the logarithmic growth estimate for the
block-sum norm of f under compressible transport.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import littlewood_paley as lp
from . import spectral
from .fitting import smallest_passing
from .ledger import TRANSPORT_COLUMNS, TRANSPORT_MASS_COLUMNS, RunLedger
from .spectral import Field, Grid

Arrays = tuple[np.ndarray, np.ndarray]


class GridVelocity(NamedTuple):
    """A velocity's callables at fixed nodes: each takes only t and scales
    spatial factors sampled at the nodes on first read and kept, so a
    callable that is never called samples nothing."""

    velocity: Callable[[float], Arrays]
    jacobian: Callable[[float], tuple[np.ndarray, ...]]
    divergence: Callable[[float], np.ndarray]


@dataclass(frozen=True)
class SyntheticVelocity:
    """Velocity with closed-form Jacobian and divergence, defined once by
    ``on_grid``.

    ``on_grid(x, y)`` returns the ``GridVelocity`` at the nodes (x, y);
    ``speed_bound`` dominates |v| for CFL purposes. The point methods take
    (t, x, y) and read ``on_grid(x, y)`` at t: ``velocity`` returns
    (vx, vy), ``jacobian`` the four entries (dx_vx, dy_vx, dx_vy, dy_vy) and
    ``divergence`` div v, all broadcast over the coordinate arrays.
    """

    name: str
    speed_bound: float
    on_grid: Callable[[np.ndarray, np.ndarray], GridVelocity]

    def velocity(self, t: float, x: np.ndarray, y: np.ndarray) -> Arrays:
        return self.on_grid(x, y).velocity(t)

    def jacobian(self, t: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
        return self.on_grid(x, y).jacobian(t)

    def divergence(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.on_grid(x, y).divergence(t)


def _zeros(x, y) -> np.ndarray:
    return np.zeros(np.broadcast(x, y).shape)


def shear_velocity(amplitude: float, m: int, omega: float,
                   box_length: float = spectral.DEFAULT_BOX_LENGTH) -> SyntheticVelocity:
    """Divergence-free horizontal shear: vx = A cos(omega t) sin(k y)."""
    k = 2.0 * math.pi * m / box_length

    def amp(t):
        return amplitude * math.cos(omega * t)

    def on_grid(x, y):
        sin_ky = functools.cache(lambda: np.sin(k * y))
        cos_ky = functools.cache(lambda: np.cos(k * y))

        def velocity(t):
            vx = amp(t) * sin_ky()
            return vx, np.zeros_like(vx + x * 0.0)

        def jacobian(t):
            z = _zeros(x, y)
            return z, amp(t) * k * cos_ky() + z, z.copy(), z.copy()

        return GridVelocity(velocity, jacobian, lambda t: _zeros(x, y))

    return SyntheticVelocity(f"shear(A={amplitude},m={m},w={omega})", abs(amplitude), on_grid)


def compressible_mode(amplitude: float, m: tuple[int, int], omega: float,
                      box_length: float = spectral.DEFAULT_BOX_LENGTH,
                      phase: float = 0.0) -> SyntheticVelocity:
    """Pure gradient mode: v = A sin(omega t + phase) cos(k.x) khat."""
    kx = 2.0 * math.pi * m[0] / box_length
    ky = 2.0 * math.pi * m[1] / box_length
    kmag = math.hypot(kx, ky)
    if kmag == 0.0:
        raise ValueError("mode index must be nonzero")
    ex, ey = kx / kmag, ky / kmag

    def amp(t):
        return amplitude * math.sin(omega * t + phase)

    def on_grid(x, y):
        # each factor forms its own phase: a point call reads one factor, so a
        # shared cached phase would only add work there
        carrier = functools.cache(lambda: np.cos(kx * x + ky * y))
        sine = functools.cache(lambda: np.sin(kx * x + ky * y))

        def velocity(t):
            v = amp(t) * carrier()
            return v * ex, v * ey

        def jacobian(t):
            s = -amp(t) * sine()
            return s * kx * ex, s * ky * ex, s * kx * ey, s * ky * ey

        return GridVelocity(velocity, jacobian, lambda t: -amp(t) * sine() * kmag)

    return SyntheticVelocity(f"mode(A={amplitude},m={m},w={omega})", abs(amplitude), on_grid)


def _add(a, b):
    """a + b for two arrays, componentwise for two tuples of arrays."""
    if isinstance(a, tuple):
        return tuple(p + q for p, q in zip(a, b))
    return a + b


def _sum(terms):
    """The terms added in order: ((t0 + t1) + t2) + ..."""
    return functools.reduce(_add, terms)


def superpose(members: Sequence[SyntheticVelocity]) -> SyntheticVelocity:
    """The sum of ``members``, added in order at every node and time."""
    members = list(members)
    if not members:
        raise ValueError("need at least one member")

    def on_grid(x, y):
        parts = [m.on_grid(x, y) for m in members]
        return GridVelocity(lambda t: _sum(p.velocity(t) for p in parts),
                            lambda t: _sum(p.jacobian(t) for p in parts),
                            lambda t: _sum(p.divergence(t) for p in parts))

    return SyntheticVelocity("superpose(" + "+".join(m.name for m in members) + ")",
                             sum(m.speed_bound for m in members), on_grid)


def _transport_tendency(f_modes: np.ndarray, grid: Grid, vel: GridVelocity,
                        t: float, out: np.ndarray) -> None:
    vx, vy = vel.velocity(t)
    dvg = vel.divergence(t)
    f_modes = f_modes[..., :grid.band]  # f is dealiased
    f, fx, fy = spectral.to_samples(np.concatenate([f_modes[None],
                                                    1j * grid.kvec[..., :grid.band] * f_modes]))
    spectral.to_dealiased_modes(grid, -(vx * fx + vy * fy) - f * dvg, out=out)


def transport_monitor_row(f: Field, vel: GridVelocity, t: float) -> dict:
    """Ledger columns for one time, ``vel`` sampled on the grid of f; the
    blocks of f and of div v are inverted together, one block at a time."""
    grid = f.grid
    area = grid.cell_area
    # the Jacobian's planes are freed before the blocks below
    grad_sup = max(float(np.max(np.abs(np.broadcast_to(a, (grid.n, grid.n)))))
                   for a in vel.jacobian(t))
    div_samples = np.broadcast_to(vel.divergence(t), (grid.n, grid.n))
    div_modes = spectral.to_modes(div_samples)
    # per block: sup of f, sup of div v, L^4 of div v
    norms = lp.per_block(grid, np.stack([f.modes, div_modes]), lambda s: (
        *spectral.plane_norms(s, math.inf, area), spectral.plane_norms(s[1], 4.0, area)))
    return {
        "f_mass": float(np.real(f.modes[0, 0])) * grid.box_length**2,
        "f_b0": lp.besov_sum(norms[:, 0], 0.0),
        "grad_v_linf": grad_sup,
        "div_v_linf": float(np.max(np.abs(div_samples))),
        "div_v_b0": lp.besov_sum(norms[:, 1], 0.0),
        "div_v_b12": lp.besov_sum(norms[:, 2], 0.5),
        "div_v_b1": lp.besov_norm(Field(grid, div_modes), 1.0, 2.0),
    }


def transport_mass_row(f: Field, vel: GridVelocity, t: float) -> dict:
    """The two columns of ``transport_monitor_row`` that mass conservation
    and divergence-free detection read, each computed as there, with no
    transform."""
    grid = f.grid
    return {
        "f_mass": float(np.real(f.modes[0, 0])) * grid.box_length**2,
        "div_v_linf": float(np.max(np.abs(np.broadcast_to(vel.divergence(t),
                                                          (grid.n, grid.n))))),
    }


# the monitors of ``solve_transport_spectral``: every ledger column, or the two
# of ``transport_mass_row``; each row takes (f, vel sampled on the grid, t)
MONITOR = (lambda f, vel, t: transport_monitor_row(f, vel, t), TRANSPORT_COLUMNS)
MASS_MONITOR = (lambda f, vel, t: transport_mass_row(f, vel, t), TRANSPORT_MASS_COLUMNS)


def solve_transport_spectral(f0: Field, vel: SyntheticVelocity, t_final: float,
                             cfl: float = 0.4, max_dt: float = 0.05,
                             monitor=MONITOR) -> tuple[Field, RunLedger]:
    """RK4 integration of the continuity-form transport equation, in place on
    the ``spectral.dealias`` copy of ``f0``, which is returned with the ledger.

    The velocity's spatial factors are sampled on the grid once per solve
    (``vel.on_grid``) and scaled by their time factor at every stage and
    ledger row; ``monitor`` keeps every column (``MONITOR``) or the two of
    ``transport_mass_row`` (``MASS_MONITOR``). The mean of f (total mass) is
    conserved to rounding because the tendency is an exact divergence of a
    resolvable product.
    """
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    grid = f0.grid
    dt_base = spectral.advective_dt(grid, vel.speed_bound, cfl, max_dt)
    sampled = vel.on_grid(*grid.coordinates())
    row, columns = monitor

    def advance(f: Field, t: float, dt: float) -> Field:
        spectral.rk4(lambda m, s, out: _transport_tendency(m, grid, sampled, s, out),
                     f.modes, t, dt, out=f.modes)
        return f

    return spectral.integrate(
        spectral.dealias(f0), 0.0, t_final, lambda f: dt_base, advance,
        (lambda f, t: row(f, sampled, t), columns))[:2]


def solve_transport_oracle(f0: Field, vel: SyntheticVelocity, t_final: float,
                           substeps: int) -> np.ndarray:
    """Backward-characteristics reference solution on the grid nodes.

    Traces dX/dtau = v(tau, X) from t_final back to 0 with ``substeps`` steps
    of ``spectral.rk4`` on the stack (X, Y, S), where S accumulates the
    divergence along the path with the same stages, then returns
    f0(foot) * exp(-integral of div v) as real samples, f0(foot) from the
    periodic cubic B-spline of f0's samples.
    """
    if substeps < 1:
        raise ValueError("need at least one substep")
    grid = f0.grid
    x, y = grid.coordinates()
    path = np.zeros((3, grid.n, grid.n))
    path[0], path[1] = x, y

    def tendency(w: np.ndarray, t: float, out: np.ndarray) -> None:
        out[0], out[1] = vel.velocity(t, w[0], w[1])
        out[2] = vel.divergence(t, w[0], w[1])

    h = -t_final / substeps
    t = t_final
    for _ in range(substeps):
        spectral.rk4(tendency, path, t, h, out=path)
        t += h
    return spectral.cubic_spline_at(f0, path[0], path[1]) * np.exp(path[2])


@dataclass(frozen=True)
class LogEstimateReport:
    """Pointwise-in-time comparison of the block-sum norm of f against the
    compressible-transport growth bound

        C ||f0|| (1 + exp(C int ||grad v||) * (int ||div v||_{B^{1/2}_{4,1}})^2)
          * (1 + int ||grad v||).
    """

    max_ratio: float
    ratios: np.ndarray
    times: np.ndarray
    div_free: bool

    @property
    def passed(self) -> bool:
        return bool(self.max_ratio <= 1.0 + 1e-12)


def _log_estimate_rhs(ledger: RunLedger, c: float) -> np.ndarray:
    f0 = ledger.column("f_b0")[0]
    grad_budget = ledger.column("int_grad_v_linf")
    div_budget = ledger.column("int_div_v_b12")
    # exp may overflow to inf while fitting probes huge constants; an infinite
    # bound simply holds, so the overflow is benign
    with np.errstate(over="ignore"):
        return (
            c * f0 * (1.0 + np.exp(c * grad_budget) * div_budget**2) * (1.0 + grad_budget)
        )


def evaluate_log_estimate(ledger: RunLedger, c: float) -> LogEstimateReport:
    lhs = ledger.column("f_b0")
    rhs = _log_estimate_rhs(ledger, c)
    ratios = lhs / rhs
    div_free = bool(np.max(ledger.column("div_v_linf")) < 1e-12)
    return LogEstimateReport(
        max_ratio=float(np.max(ratios)),
        ratios=ratios,
        times=ledger.time_array(),
        div_free=div_free,
    )


def fit_log_constant(ledger: RunLedger) -> float:
    """Smallest constant making the growth bound hold on a calibration run,
    doubled for headroom before being applied to holdout runs."""
    return 2.0 * smallest_passing(lambda c: evaluate_log_estimate(ledger, c).passed)
