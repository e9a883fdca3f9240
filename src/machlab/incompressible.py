"""Reference incompressible Euler solver in vorticity-stream form.

The scalar vorticity is advected by its own Biot-Savart velocity:

    d omega / dt + v . grad omega = 0,    v = perp_grad inv_laplacian omega.

The state is the vorticity field itself, a scalar ``spectral.Field``: the
step advances it in place, the run steps its own dealiased copy of the
initial field, and ``spectral.integrate`` keeps the clock. Classical RK4
(``spectral.rk4``) in time with 2/3-rule dealiasing of the advection
product. Kinetic energy and every L^p norm of omega are conserved by the
continuous flow, which makes long-run drift a sharp discretization
diagnostic.
"""

from __future__ import annotations

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
    """One RK4 step of size dt of a dealiased vorticity, in place: returns
    ``omega``, its modes stepped."""
    g = omega.grid
    # the tendency never reads the stage times, and is dealiased, so RK4 keeps omega dealiased
    spectral.rk4(lambda w, t, out: _advection_tendency(w, g, out), omega.modes, 0.0, dt,
                 out=omega.modes)
    return omega


def cfl_dt_incompressible(omega: Field, cfl: float, max_dt: float) -> float:
    """The advective step at the sup of |v|, with v inverted on the dealias
    band in this thread's scratch (omega is dealiased)."""
    g = omega.grid
    buf = spectral.scratch(g.n)
    stack = buf.modes(3, g.band)
    _band_velocity(g, omega.modes[:, :g.band], buf, stack[2], stack[:2])
    speed = spectral.speed_sup(spectral.to_samples(stack[:2], out=buf.samples(2)))
    return spectral.advective_dt(g, speed, cfl, max_dt)


def vorticity_monitor_row(omega: Field) -> dict[str, float]:
    """The ledger row of a dealiased vorticity: the sups invert the band columns
    in this thread's scratch, and the Parseval sum reads v at full width."""
    g = omega.grid
    band = g.band
    v = velocity_from_vorticity(omega)
    grad_v_linf = spectral.jacobian_sup(g, v.modes[..., :band])
    samples = spectral.to_samples(omega.modes[None, :, :band], out=spectral.scratch(g.n).samples(1))
    return {"grad_v_linf": grad_v_linf, "omega_linf": float(np.max(np.abs(samples, out=samples))),
            "v_l2": spectral.l2_norm(v)}


def run_incompressible(omega0: Field, t_final: float, cfl: float = 0.4,
                       max_dt: float = 0.05, snapshot_times: Optional[list[float]] = None,
                       ) -> tuple[Field, RunLedger, dict[float, Field]]:
    """Integrate the vorticity from t = 0 to t_final with per-step norm
    logging (``vorticity_monitor_row``) and exact snapshot times, stepping
    the ``spectral.dealias`` copy of ``omega0`` in place; each snapshot is a
    copy of the state there."""
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    return spectral.integrate(
        spectral.dealias(omega0), 0.0, t_final, lambda w: cfl_dt_incompressible(w, cfl, max_dt),
        lambda w, t, dt: step_incompressible(w, dt),
        (lambda w, t: vorticity_monitor_row(w), INCOMPRESSIBLE_COLUMNS), snapshot_times or ())
