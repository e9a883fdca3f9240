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

The state is dealiased, so its modes lie in the first ``grid.band`` columns
of the half spectrum. A step works on (3, n, band) stacks in this thread's
scratch and writes the modes inside the dealias disk of the state it steps,
in place: a step allocates no array of the grid's size, and neither do
``cfl_dt`` and ``blowup_row``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import littlewood_paley as lp
from . import spectral
from .ledger import BLOWUP_COLUMNS, COMPRESSIBLE_COLUMNS, RunLedger
from .spectral import Field, FlowState

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


class Blowup(spectral.RunEnded):
    """Raised when a monitored norm crosses its threshold or goes non-finite.

    ``time`` is the ledger time of the row that tripped, ``column`` names
    the ledger column that tripped and ``step`` is the number of the
    accepted step whose monitor row tripped (0 is the initial state); that
    row is the last of ``ledger``.
    """

    def __init__(self, time: float, reason: str, column: str = "", step: int = 0):
        super().__init__(f"blowup at t={time:.6g}, step {step}: {reason}")
        self.time = time
        self.reason = reason
        self.column = column
        self.step = step


def rhs_nonlinear(grid: spectral.Grid, u: np.ndarray, gamma_bar: float,
                  out: np.ndarray) -> np.ndarray:
    """Quadratic tendencies of (vx, vy, c), dealiased, on the dealias band:

    f = -(v.grad) v - gamma_bar c grad c
    g = -(v.grad) c - gamma_bar c div v

    ``u`` is the (3, n, c) mode stack of a dealiased state, c >= ``grid.band``;
    only its first ``grid.band`` columns are read. The tendencies are the
    (3, n, band) stack of their first ``grid.band`` columns (every later
    column is zero), written into ``out`` and returned. The transforms run
    in this thread's scratch.
    """
    band = grid.band
    u = u[..., :band]
    buf = spectral.scratch(grid.n)
    # one inverse of 9 planes: (vx, vy, c), their x derivatives, their y derivatives
    stack = buf.modes(9, band)
    stack[:3] = u
    np.multiply(1j * grid.kx, u, out=stack[3:6])
    np.multiply(1j * grid.ky[:, :band], u, out=stack[6:9])
    samples = buf.samples(10)
    spectral.to_samples(stack, out=samples[:9])
    vx, vy, gc = samples[:3]
    dx, dy, div_v = samples[3:6], samples[6:9], samples[9]
    np.add(dx[0], dy[1], out=div_v)
    gc *= gamma_bar
    # tendency i = -(vx dx_i + vy dy_i) - gamma_bar c coupling_i, formed over dx_i;
    # dy_i is free once read, and each coupling plane is read before it is overwritten
    for i, coupling in enumerate((dx[2], dy[2], div_v)):
        np.multiply(vx, dx[i], out=dx[i])
        np.add(dx[i], np.multiply(vy, dy[i], out=dy[i]), out=dx[i])
        np.negative(dx[i], out=dx[i])
        np.subtract(dx[i], np.multiply(gc, coupling, out=dy[i]), out=dx[i])
    return spectral.to_dealiased_modes(grid, dx, out=out)


def _rotation(grid: spectral.Grid, dt: float, eps: float) -> tuple[np.ndarray, ...]:
    """cos(theta), sin(theta) with theta = |k| dt / eps on the dealias band,
    each evaluated once per distinct |k| (``spectral.kmag_cos_sin``) into
    this thread's scratch, and the unit wavevector there."""
    cos_t, sin_t = spectral.kmag_cos_sin(grid, dt / eps,
                                         spectral.scratch(grid.n).multipliers(2, grid.band))
    return cos_t, sin_t, grid.khat[..., :grid.band]


def acoustic_exact_step(u: np.ndarray, rotation, out: np.ndarray) -> np.ndarray:
    """Exact flow of the stiff linear part over dt, on the first c columns
    of a (vx, vy, c) mode stack: ``u`` and ``out`` are (3, n, c) and must not
    overlap, and ``rotation`` is ``_rotation(grid, dt, eps)`` (tables at
    least c columns wide).

    Per mode, with a the component of the velocity coefficient along the unit
    wavevector and b the sound speed coefficient, the update is the rotation

        a' = a cos(theta) - i b sin(theta)
        b' = b cos(theta) - i a sin(theta),    theta = |k| dt / eps.

    The divergence-free velocity part and the zero mode are untouched, and
    |a|^2 + |b|^2 is conserved mode by mode. The result is written into
    ``out``; the temporaries live in this thread's scratch.
    """
    n, c = u.shape[-2:]
    cos_t, sin_t, khat = (table[..., :c] for table in rotation)
    v, b = u[:2], u[2]
    a, a2, tmp = spectral.scratch(n).modes(3, c)
    np.add(np.multiply(khat[0], v[0], out=a), np.multiply(khat[1], v[1], out=tmp), out=a)
    # a2 = a cos - (i b) sin and b2 = b cos - (i a) sin, each term in that order
    np.subtract(np.multiply(a, cos_t, out=a2),
                np.multiply(np.multiply(1j, b, out=tmp), sin_t, out=tmp), out=a2)
    np.subtract(np.multiply(b, cos_t, out=out[2]),
                np.multiply(np.multiply(1j, a, out=tmp), sin_t, out=tmp), out=out[2])
    np.multiply(np.subtract(a2, a, out=a2), khat, out=out[:2])
    np.add(v, out[:2], out=out[:2])
    return out


def cfl_dt(state: FlowState, config: StepperConfig) -> float:
    """Advective step size: the fast linear part is integrated exactly, so
    only |v| and the quadratic sound speed coupling constrain dt. The sups
    are taken in place in this thread's scratch."""
    g = state.grid  # the state is dealiased
    samples = spectral.to_samples(state.modes[..., :g.band], out=spectral.scratch(g.n).samples(3))
    v_max = spectral.speed_sup(samples[:2])
    c_max = float(np.max(np.abs(samples[2], out=samples[2])))
    return spectral.advective_dt(state.grid, v_max + state.gamma_bar * c_max,
                                 config.cfl, config.max_dt)


def step(state: FlowState, config: StepperConfig, dt: float) -> FlowState:
    """One Strang step of size dt of a dealiased state, on the dealias band,
    in place: returns ``state``, its modes stepped.

    The stages run on the first ``grid.band`` columns in this thread's
    scratch: both half steps share one rotation, and the RK4 of the
    quadratic terms writes into its own stage array. The result goes into
    the modes inside the dealias disk of ``state.modes``; the entries
    outside it stay zero.
    """
    g = state.grid
    band = g.band
    buf = spectral.scratch(g.n)
    rotation = _rotation(g, 0.5 * dt, state.eps)  # shared by both half steps
    half = acoustic_exact_step(state.modes[..., :band], rotation, buf.state(band))
    stage = buf.rk4_work(half)[2]
    if not config.disable_nonlinear:
        def deriv(u: np.ndarray, t: float, k: np.ndarray) -> None:
            rhs_nonlinear(g, u, state.gamma_bar, k)

        # the quadratic terms do not depend on time, so the stage times are never read;
        # the RK4 result lands in its stage array, and the state stack is free again
        half, stage = spectral.rk4(deriv, half, 0.0, dt, out=stage), half
    full = acoustic_exact_step(half, rotation, stage)
    np.copyto(state.modes[..., :band], full, where=g.dealias_mask[:, :band])
    return state


def monitor_row(state: FlowState) -> dict[str, float]:
    """All ledger columns for one state (accumulators excluded).

    The sample-space columns come from one batched inverse of the velocity
    Jacobian, grad c, Qv and c in this thread's scratch, on the columns of
    the dealias band; the block-sum column of div v is ``lp.besov_norm``,
    which inverts one block at a time.
    """
    g = state.grid
    band = g.band  # the state is dealiased
    u = state.modes[..., :band]
    kvec = g.kvec[..., :band]
    buf = spectral.scratch(g.n)
    stack = buf.modes(9, band)
    jac = stack[:4].reshape((2, 2, g.n, band))  # jac[i, j] = d_i v_j
    np.multiply(1j * kvec[:, None], u[None, :2], out=jac)
    div_m = np.zeros(g.modes_shape, dtype=np.complex128)
    np.add(jac[0, 0], jac[1, 1], out=div_m[:, :band])
    np.multiply(1j * kvec, u[2], out=stack[4:6])
    stack[6:8] = spectral.leray_q(state.v).modes[..., :band]
    stack[8] = u[2]
    samples = spectral.to_samples(stack, out=buf.samples(9))
    dx_vx, dx_vy, dy_vx, dy_vy = samples[:4]
    grad_v_linf = float(np.max(np.abs(samples[:4])))
    grad_c_linf = float(np.max(spectral.magnitude(samples[4:6])))
    div_v_linf = float(np.max(np.abs(dx_vx + dy_vy)))
    omega_linf = float(np.max(np.abs(dx_vy - dy_vx)))
    qv_linf = float(np.max(spectral.magnitude(samples[6:8])))
    c_linf = float(np.max(np.abs(samples[8])))
    b2 = lp.block_norms(state, 2.0)
    row = {
        "grad_v_linf": grad_v_linf,
        "grad_c_linf": grad_c_linf,
        "div_v_linf": div_v_linf,
        "omega_linf": omega_linf,
        "vc_l2": spectral.l2_norm(state),
        "vc_b2": lp.besov_sum(b2, 2.0),
        "div_v_b0": lp.besov_norm(Field(g, div_m), 0.0, math.inf),
        "qv_linf": qv_linf,
        "c_linf": c_linf,
    }
    row["grad_sum"] = row["grad_v_linf"] + row["grad_c_linf"]
    return row


def blowup_row(state: FlowState) -> dict[str, float]:
    """The two columns the blowup thresholds read, each computed as in
    ``monitor_row``: one 4-plane inverse of the velocity Jacobian and a
    Parseval block sum.

    A non-finite mode of any component makes ``vc_b2`` non-finite (a zero
    partition weight times inf is NaN), so a state that trips a full monitor
    row trips this one too, at the same step. Both work in this thread's
    scratch, so a row allocates no array of the grid's size.
    """
    g = state.grid  # the state is dealiased
    return {
        "grad_v_linf": spectral.jacobian_sup(g, state.modes[:2, :, :g.band]),
        "vc_b2": lp.besov_sum(lp.block_norms(state, 2.0), 2.0),
    }


# the monitors of ``run``: every ledger column, or the two the blowup thresholds read
MONITOR = (lambda state, t: monitor_row(state), COMPRESSIBLE_COLUMNS)
BLOWUP_MONITOR = (lambda state, t: blowup_row(state), BLOWUP_COLUMNS)


def _check_blowup(t: float, row: dict[str, float], step_no: int,
                  config: StepperConfig) -> None:
    for k, v in row.items():
        if not math.isfinite(v):
            raise Blowup(t, f"non-finite {k}", k, step_no)
    for k, limit in (("grad_v_linf", config.blowup_grad_linf), ("vc_b2", BLOWUP_BESOV)):
        if row[k] > limit:
            raise Blowup(t, f"{k} {row[k]:.3e} over threshold", k, step_no)


def run(initial: FlowState, t_final: float, config: StepperConfig,
        snapshot_times: Optional[list[float]] = None,
        monitor=MONITOR, capture=spectral.keep_state,
        ) -> tuple[FlowState, RunLedger, dict]:
    """Integrate from t = 0 to t_final, logging every accepted step.

    The run steps one state in place: the ``spectral.dealias`` copy of
    ``initial``, which is never written. That copy is the returned final
    state. ``snapshot_times`` are hit exactly (dt is clipped); the returned
    dict maps each requested time t to ``capture(state, t)`` of the state
    there, a copy of it by default (see ``spectral.integrate``).
    ``monitor`` keeps every column (``MONITOR``) or the two of
    ``blowup_row`` (``BLOWUP_MONITOR``); a run trips at the same step and
    time with either, though the column it names may differ. A ``Blowup``,
    and a stop short of t_final (``spectral.StoppedShort``), carries the
    partial ledger.
    """
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    return spectral.integrate(
        spectral.dealias(initial), 0.0, t_final, lambda s: cfl_dt(s, config),
        lambda s, t, dt: step(s, config, dt), monitor, snapshot_times or (), capture,
        lambda t, row, step_no: _check_blowup(t, row, step_no, config))
