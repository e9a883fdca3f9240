"""Pseudo-spectral integrator for the rescaled 2D barotropic system.

The state (v, c) obeys

    dv/dt + v.grad v + gamma_bar c grad c + (1/eps) grad c = 0
    dc/dt + v.grad c + gamma_bar c div v + (1/eps) div v = 0

split per step into the stiff linear acoustic flow, solved exactly mode by
mode, and the quadratic terms, advanced with classical RK4 under an
advective CFL condition. The Strang composition

    half acoustic step -> full RK4 nonlinear step -> half acoustic step

is second order in dt and conserves the per-mode acoustic energy of the
linear flow to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import littlewood_paley as lp
from . import spectral
from .ledger import COMPRESSIBLE_COLUMNS, RunLedger
from .spectral import FlowState

_CFL_FLOOR = 1e-12
BLOWUP_BESOV = 1e8  # threshold of the vc_b2 column


@dataclass(frozen=True)
class StepperConfig:
    """Time stepping knobs and the gradient blowup threshold.

    ``disable_nonlinear`` freezes the quadratic terms, so the step reduces to
    the exact acoustic flow and can be checked against the closed-form
    propagator.
    """

    cfl: float = 0.4
    max_dt: float = 0.05
    blowup_grad_linf: float = 1e4
    disable_nonlinear: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (self.max_dt > 0.0):
            raise ValueError(f"max_dt must be positive, got {self.max_dt}")


class Blowup(RuntimeError):
    """Raised when a monitored norm crosses its threshold or goes non-finite.

    ``time`` is the ledger time of the row that tripped, ``column`` names
    the ledger column that tripped and ``step`` is the number of the
    accepted step whose monitor row tripped (0 is the initial state).
    """

    def __init__(self, time: float, reason: str, ledger: Optional[RunLedger] = None,
                 column: str = "", step: int = 0):
        super().__init__(f"blowup at t={time:.6g}, step {step}: {reason}")
        self.time = time
        self.reason = reason
        self.ledger = ledger
        self.column = column
        self.step = step


def rhs_nonlinear(state: FlowState, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Quadratic tendencies of (vx, vy, c), dealiased, as one (3, n, n/2 + 1) array:

    f = -(v.grad) v - gamma_bar c grad c
    g = -(v.grad) c - gamma_bar c div v

    Written into ``out`` when it is given, else into a new array; the
    transforms run in this thread's scratch.
    """
    g = state.grid
    u = state.modes
    if out is None:
        out = np.empty_like(u)
    buf = spectral.scratch(g.n)
    # one inverse of 9 planes: (vx, vy, c), their x derivatives, their y derivatives
    stack = buf.modes(9)
    stack[:3] = u
    np.multiply(1j * g.kx, u, out=stack[3:6])
    np.multiply(1j * g.ky, u, out=stack[6:9])
    samples = buf.samples(10)
    spectral.to_samples(stack, out=samples[:9])
    vx, vy, gc = samples[:3]
    dx, dy, div_v = samples[3:6], samples[6:9], samples[9]
    np.add(dx[0], dy[1], out=div_v)
    gc *= state.gamma_bar
    # tendency i = -(vx dx_i + vy dy_i) - gamma_bar c coupling_i, formed over dx_i;
    # dy_i is free once read, and each coupling plane is read before it is overwritten
    for i, coupling in enumerate((dx[2], dy[2], div_v)):
        np.multiply(vx, dx[i], out=dx[i])
        np.add(dx[i], np.multiply(vy, dy[i], out=dy[i]), out=dx[i])
        np.negative(dx[i], out=dx[i])
        np.subtract(dx[i], np.multiply(gc, coupling, out=dy[i]), out=dx[i])
    spectral.to_modes(dx, out=out)
    np.copyto(out, 0.0, where=~g.dealias_mask)
    return out


def _rotation(grid: spectral.Grid, dt: float, eps: float) -> tuple[np.ndarray, ...]:
    """cos(theta), sin(theta) with theta = |k| dt / eps, and the unit wavevector."""
    theta = grid.kmag * (dt / eps)
    return np.cos(theta), np.sin(theta), grid.kvec * grid.inv_kmag


def acoustic_exact_step(state: FlowState, dt: float, rotation=None) -> FlowState:
    """Exact flow of the stiff linear part over dt.

    Per mode, with a the component of the velocity coefficient along the unit
    wavevector and b the sound speed coefficient, the update is the rotation

        a' = a cos(theta) - i b sin(theta)
        b' = b cos(theta) - i a sin(theta),    theta = |k| dt / eps.

    The divergence-free velocity part and the zero mode are untouched, and
    |a|^2 + |b|^2 is conserved mode by mode. ``rotation`` is
    ``_rotation(grid, dt, eps)`` when the caller already holds it; the
    temporaries live in this thread's scratch and the returned state is new.
    """
    g = state.grid
    cos_t, sin_t, khat = rotation if rotation is not None else _rotation(g, dt, state.eps)
    v, b = state.modes[:2], state.modes[2]
    modes = np.empty_like(state.modes)
    a, a2, tmp = spectral.scratch(g.n).modes(3)
    np.add(np.multiply(khat[0], v[0], out=a), np.multiply(khat[1], v[1], out=tmp), out=a)
    # a2 = a cos - (i b) sin and b2 = b cos - (i a) sin, each term in that order
    np.subtract(np.multiply(a, cos_t, out=a2),
                np.multiply(np.multiply(1j, b, out=tmp), sin_t, out=tmp), out=a2)
    np.subtract(np.multiply(b, cos_t, out=modes[2]),
                np.multiply(np.multiply(1j, a, out=tmp), sin_t, out=tmp), out=modes[2])
    np.multiply(np.subtract(a2, a, out=a2), khat, out=modes[:2])
    np.add(v, modes[:2], out=modes[:2])
    return replace(state, modes=modes)


def cfl_dt(state: FlowState, config: StepperConfig) -> float:
    """Advective step size: the fast linear part is integrated exactly, so
    only |v| and the quadratic sound speed coupling constrain dt."""
    samples = spectral.to_samples(state.modes, out=spectral.scratch(state.grid.n).samples(3))
    v_max = float(np.max(spectral.magnitude(samples[:2])))
    c_max = float(np.max(np.abs(samples[2])))
    speed = v_max + state.gamma_bar * c_max + _CFL_FLOOR
    return min(config.max_dt, config.cfl * state.grid.spacing / speed)


def _nonlinear_rk4(state: FlowState, dt: float) -> FlowState:
    def deriv(u: np.ndarray, t: float, out: np.ndarray) -> None:
        rhs_nonlinear(replace(state, modes=u), out)

    # the quadratic terms do not depend on time, so the stage times are never read
    return replace(state, modes=spectral.rk4(deriv, state.modes, 0.0, dt))


def step(state: FlowState, config: StepperConfig, dt: float) -> FlowState:
    """One Strang step of size dt."""
    rotation = _rotation(state.grid, 0.5 * dt, state.eps)  # shared by both half steps
    half = acoustic_exact_step(state, 0.5 * dt, rotation)
    if not config.disable_nonlinear:
        half = _nonlinear_rk4(half, dt)
    full = acoustic_exact_step(half, 0.5 * dt, rotation)
    return spectral.dealias(full)


def monitor_row(state: FlowState) -> dict[str, float]:
    """All ledger columns for one state (accumulators excluded).

    The sample-space columns come from one batched inverse of the velocity
    Jacobian, grad c, Qv and c, and the block-sum column from the block
    inverse of the divergence; both run in this thread's scratch.
    """
    g = state.grid
    u = state.modes
    buf = spectral.scratch(g.n)
    stack = buf.modes(9)
    jac = stack[:4].reshape((2, 2) + g.modes_shape)  # jac[i, j] = d_i v_j
    np.multiply(1j * g.kvec[:, None], u[None, :2], out=jac)
    div_m = jac[0, 0] + jac[1, 1]
    np.multiply(1j * g.kvec, u[2], out=stack[4:6])
    stack[6:8] = spectral.leray_q(state.v).modes
    stack[8] = u[2]
    samples = spectral.to_samples(stack, out=buf.samples(9))
    dx_vx, dx_vy, dy_vx, dy_vy = samples[:4]
    grad_v_linf = float(np.max(np.abs(samples[:4])))
    grad_c_linf = float(np.max(spectral.magnitude(samples[4:6])))
    div_v_linf = float(np.max(np.abs(dx_vx + dy_vy)))
    omega_linf = float(np.max(np.abs(dx_vy - dy_vx)))
    qv_linf = float(np.max(spectral.magnitude(samples[6:8])))
    c_linf = float(np.max(np.abs(samples[8])))
    # the block inverse of div v overwrites the samples
    part = lp.build_partition(g).stack
    div_blocks = spectral.to_samples(np.multiply(part, div_m, out=buf.modes(len(part))),
                                     out=buf.samples(len(part)))
    b2 = lp.block_norms(state, 2.0)
    row = {
        "grad_v_linf": grad_v_linf,
        "grad_c_linf": grad_c_linf,
        "div_v_linf": div_v_linf,
        "omega_linf": omega_linf,
        "vc_l2": spectral.l2_norm(state),
        "vc_b2": lp.besov_sum(b2, 2.0),
        "div_v_b0": lp.besov_sum(spectral.plane_norms(div_blocks, math.inf, g.cell_area), 0.0),
        "qv_linf": qv_linf,
        "c_linf": c_linf,
    }
    row["grad_sum"] = row["grad_v_linf"] + row["grad_c_linf"]
    return row


def _check_blowup(t: float, row: dict[str, float], config: StepperConfig,
                  ledger: RunLedger) -> None:
    step_no = len(ledger) - 1
    for k, v in row.items():
        if not math.isfinite(v):
            raise Blowup(t, f"non-finite {k}", ledger, k, step_no)
    for k, limit in (("grad_v_linf", config.blowup_grad_linf), ("vc_b2", BLOWUP_BESOV)):
        if row[k] > limit:
            raise Blowup(t, f"{k} {row[k]:.3e} over threshold", ledger, k, step_no)


def run(initial: FlowState, t_final: float, config: StepperConfig,
        snapshot_times: Optional[list[float]] = None,
        run_id: str = "", config_hash: str = "") -> tuple[FlowState, RunLedger, dict[float, FlowState]]:
    """Integrate from t = 0 to t_final, logging every accepted step.

    ``snapshot_times`` are hit exactly (dt is clipped); the returned dict maps
    each requested time to the state there. On blowup the partial ledger is
    attached to the raised exception.
    """
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    ledger = RunLedger(COMPRESSIBLE_COLUMNS, run_id=run_id, config_hash=config_hash)

    def record(state: FlowState, t: float) -> None:
        row = monitor_row(state)
        ledger.append(t, **row)
        _check_blowup(t, row, config, ledger)

    state, snapshots = spectral.integrate(
        spectral.dealias(initial), 0.0, t_final, lambda s: cfl_dt(s, config),
        lambda s, t, dt: step(s, config, dt), record, snapshot_times or ())
    return state, ledger, snapshots
