"""Reference incompressible Euler solver in vorticity-stream form.

The scalar vorticity is advected by its own Biot-Savart velocity:

    d omega / dt + v . grad omega = 0,    v = perp_grad inv_laplacian omega.

Classical RK4 in time with 2/3-rule dealiasing of the advection product.
Kinetic energy and every L^p norm of omega are conserved by the continuous
flow, which makes long-run drift a sharp discretization diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from .ledger import INCOMPRESSIBLE_COLUMNS, RunLedger
from .spectral import Grid, SpectralScalarField, SpectralVectorField

_CFL_FLOOR = 1e-12


@dataclass(frozen=True)
class IncompressibleState:
    omega: SpectralScalarField
    time: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.omega.grid


def velocity_from_vorticity(omega: SpectralScalarField) -> SpectralVectorField:
    """Biot-Savart law on the torus: v = perp_grad inv_laplacian omega.

    The vorticity zero mode is ignored (it has no periodic stream function);
    curl(velocity_from_vorticity(w)) returns the mean-free part of w.
    """
    return spectral.perp_grad(spectral.inv_laplacian(omega))


def _advection_tendency(w: np.ndarray, grid: Grid, out: np.ndarray) -> None:
    """-(v . grad omega), dealiased, into ``out``, from one batched inverse of
    v and grad omega."""
    v = velocity_from_vorticity(SpectralScalarField(grid, w)).modes
    vx, vy, wx, wy = spectral.to_samples(np.concatenate([v, 1j * grid.kvec * w]))
    np.negative(spectral.to_modes(vx * wx + vy * wy, out=out), out=out)
    np.copyto(out, 0.0, where=~grid.dealias_mask)


def step_incompressible(state: IncompressibleState, dt: float) -> IncompressibleState:
    g = state.grid
    modes = spectral.rk4(lambda w, t, out: _advection_tendency(w, g, out), state.omega.modes,
                         state.time, dt)
    return IncompressibleState(omega=spectral.dealias(SpectralScalarField(g, modes)),
                               time=state.time + dt)


def cfl_dt_incompressible(state: IncompressibleState, cfl: float, max_dt: float) -> float:
    v = velocity_from_vorticity(state.omega)
    speed = spectral.lp_norm(v, math.inf) + _CFL_FLOOR
    return min(max_dt, cfl * state.grid.spacing / speed)


def run_incompressible(initial: IncompressibleState, t_final: float, cfl: float = 0.4,
                       max_dt: float = 0.05,
                       snapshot_times: Optional[list[float]] = None,
                       run_id: str = "", config_hash: str = "",
                       ) -> tuple[IncompressibleState, RunLedger, dict[float, IncompressibleState]]:
    """Integrate to t_final with per-step norm logging and exact snapshot times."""
    if not (t_final > initial.time):
        raise ValueError("t_final must exceed the initial time")
    ledger = RunLedger(INCOMPRESSIBLE_COLUMNS, run_id=run_id, config_hash=config_hash)

    def record(st: IncompressibleState, t: float) -> None:
        v = velocity_from_vorticity(st.omega)
        ledger.append(t, grad_v_linf=spectral.jacobian_sup(v),
                      omega_linf=spectral.lp_norm(st.omega, math.inf), v_l2=spectral.l2_norm(v))

    state, snapshots = spectral.integrate(
        IncompressibleState(spectral.dealias(initial.omega), time=initial.time), initial.time,
        t_final, lambda s: cfl_dt_incompressible(s, cfl, max_dt),
        lambda s, t, dt: step_incompressible(s, dt), record, snapshot_times or ())
    return state, ledger, snapshots
