"""Reference incompressible Euler solver in vorticity-stream form.

The scalar vorticity is advected by its own Biot-Savart velocity:

    d omega / dt + v . grad omega = 0,    v = perp_grad inv_laplacian omega.

The state is the vorticity field itself: the step, the CFL size and the
run take and return a scalar ``spectral.Field``, and ``spectral.integrate``
keeps the clock. Classical RK4 (``spectral.rk4``) in time with 2/3-rule
dealiasing of the advection product. Kinetic energy and every L^p norm of
omega are conserved by the continuous flow, which makes long-run drift a
sharp discretization diagnostic.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import spectral
from .ledger import INCOMPRESSIBLE_COLUMNS, RunLedger
from .spectral import Field, Grid


def velocity_from_vorticity(omega: Field) -> Field:
    """Biot-Savart law on the torus: v = perp_grad inv_laplacian omega.

    The vorticity zero mode is ignored (it has no periodic stream function);
    curl(velocity_from_vorticity(w)) returns the mean-free part of w.
    """
    return spectral.perp_grad(spectral.inv_laplacian(omega))


def _band_velocity(grid: Grid, w: np.ndarray, buf: spectral.Scratch, psi: np.ndarray,
                   out: np.ndarray) -> None:
    """v = perp_grad inv_laplacian w on the dealias band, into ``out`` (2, n,
    band), with the stream function in ``psi``, from the band columns ``w``
    of a dealiased vorticity: the operations of ``velocity_from_vorticity``,
    in their order, so v equals its band columns bit for bit."""
    band = grid.band
    np.multiply(w, np.negative(grid.inv_k2[:, :band], out=buf.multipliers(1, band)[0]), out=psi)
    np.multiply(-1j * grid.ky[:, :band], psi, out=out[0])
    np.multiply(1j * grid.kx, psi, out=out[1])


def _advection_tendency(w: np.ndarray, grid: Grid, out: np.ndarray) -> None:
    """-(v . grad omega), dealiased, into ``out``, from one batched inverse of
    v and grad omega on the dealias band (w is dealiased); the stacks live
    in this thread's scratch."""
    band = grid.band
    w = w[..., :band]
    buf = spectral.scratch(grid.n)
    stack = buf.modes(5, band)
    _band_velocity(grid, w, buf, stack[4], stack[:2])
    np.multiply(1j * grid.kx, w, out=stack[2])  # grad omega
    np.multiply(1j * grid.ky[:, :band], w, out=stack[3])
    vx, vy, wx, wy = spectral.to_samples(stack[:4], out=buf.samples(4))
    np.add(np.multiply(vx, wx, out=vx), np.multiply(vy, wy, out=vy), out=vx)
    np.negative(spectral.to_dealiased_modes(grid, vx, out=out), out=out)


def step_incompressible(omega: Field, dt: float) -> Field:
    g = omega.grid
    # the tendency never reads the stage times, and is dealiased, so RK4 keeps omega dealiased
    modes = spectral.rk4(lambda w, t, out: _advection_tendency(w, g, out), omega.modes, 0.0, dt)
    return Field(g, modes)


def _sup(samples: np.ndarray) -> float:
    """Largest |sample|, taken in place."""
    return float(np.max(np.abs(samples, out=samples)))


def cfl_dt_incompressible(omega: Field, cfl: float, max_dt: float) -> float:
    """The advective step at the sup of |v|, with v inverted on the dealias
    band in this thread's scratch (omega is dealiased)."""
    g = omega.grid
    buf = spectral.scratch(g.n)
    stack = buf.modes(3, g.band)
    _band_velocity(g, omega.modes[:, :g.band], buf, stack[2], stack[:2])
    vx, vy = spectral.to_samples(stack[:2], out=buf.samples(2))
    # the sup of sqrt(vx^2 + vy^2) is the square root of the sup of the sum
    speed = math.sqrt(np.max(np.add(np.multiply(vx, vx, out=vx), np.multiply(vy, vy, out=vy),
                                    out=vx)))
    return spectral.advective_dt(g, speed, cfl, max_dt)


def vorticity_monitor_row(omega: Field) -> dict[str, float]:
    """The ledger row of a dealiased vorticity: the sups invert the band columns
    in this thread's scratch, and the Parseval sum reads v at full width."""
    g = omega.grid
    band = g.band
    v = velocity_from_vorticity(omega)
    buf = spectral.scratch(g.n)
    stack = buf.modes(4, band)
    jac = stack.reshape((2, 2, g.n, band))  # jac[i, j] = d_i v_j
    np.multiply(1j * g.kx, v.modes[..., :band], out=jac[0])
    np.multiply(1j * g.ky[:, :band], v.modes[..., :band], out=jac[1])
    grad_v_linf = _sup(spectral.to_samples(stack, out=buf.samples(4)))
    omega_linf = _sup(spectral.to_samples(omega.modes[None, :, :band], out=buf.samples(1)))
    return {"grad_v_linf": grad_v_linf, "omega_linf": omega_linf, "v_l2": spectral.l2_norm(v)}


def run_incompressible(omega0: Field, t_final: float, cfl: float = 0.4,
                       max_dt: float = 0.05, snapshot_times: Optional[list[float]] = None,
                       ) -> tuple[Field, RunLedger, dict[float, Field]]:
    """Integrate the vorticity from t = 0 to t_final with per-step norm
    logging (``vorticity_monitor_row``) and exact snapshot times."""
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    return spectral.integrate(
        spectral.dealias(omega0), 0.0, t_final, lambda w: cfl_dt_incompressible(w, cfl, max_dt),
        lambda w, t, dt: step_incompressible(w, dt),
        (lambda w, t: vorticity_monitor_row(w), INCOMPRESSIBLE_COLUMNS), snapshot_times or ())
