"""Transport-by-prescribed-velocity laboratory.

Advances d f/dt + v . grad f + f div v = 0 for synthetic velocities with
closed-form derivatives, two independent ways:

* a pseudo-spectral RK4 integrator (products dealiased, derivatives exact),
* a semi-Lagrangian oracle that traces characteristics backward with the
  same RK4 step (``spectral.rk4``), evaluates f0 at the foot by periodic
  bicubic interpolation, and multiplies by exp of minus the divergence
  accumulated along the path.

Agreement between the two validates both; the ledger feeds the logarithmic
growth estimate for the block-sum norm of f under compressible transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import littlewood_paley as lp
from . import spectral
from .fitting import smallest_passing
from .ledger import TRANSPORT_COLUMNS, RunLedger
from .spectral import Grid, SpectralScalarField

Arrays = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SyntheticVelocity:
    """Velocity with closed-form Jacobian and divergence.

    ``velocity(t, x, y)`` returns (vx, vy); ``jacobian`` returns the four
    entries (dx_vx, dy_vx, dx_vy, dy_vy); all callables broadcast over
    coordinate arrays. ``speed_bound`` dominates |v| for CFL purposes.
    """

    name: str
    velocity: Callable[[float, np.ndarray, np.ndarray], Arrays]
    jacobian: Callable[[float, np.ndarray, np.ndarray], tuple[np.ndarray, ...]]
    divergence: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    speed_bound: float


def shear_velocity(amplitude: float, m: int, omega: float,
                   box_length: float = spectral.DEFAULT_BOX_LENGTH) -> SyntheticVelocity:
    """Divergence-free horizontal shear: vx = A cos(omega t) sin(k y)."""
    k = 2.0 * math.pi * m / box_length

    def vel(t, x, y):
        amp = amplitude * math.cos(omega * t)
        vx = amp * np.sin(k * y)
        return vx, np.zeros_like(vx + x * 0.0)

    def jac(t, x, y):
        amp = amplitude * math.cos(omega * t)
        z = np.zeros(np.broadcast(x, y).shape)
        return z, amp * k * np.cos(k * y) + z, z.copy(), z.copy()

    def dvg(t, x, y):
        return np.zeros(np.broadcast(x, y).shape)

    return SyntheticVelocity(
        name=f"shear(A={amplitude},m={m},w={omega})",
        velocity=vel, jacobian=jac, divergence=dvg,
        speed_bound=abs(amplitude),
    )


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

    def vel(t, x, y):
        amp = amplitude * math.sin(omega * t + phase)
        carrier = np.cos(kx * x + ky * y)
        return amp * carrier * ex, amp * carrier * ey

    def jac(t, x, y):
        amp = amplitude * math.sin(omega * t + phase)
        s = -amp * np.sin(kx * x + ky * y)
        return s * kx * ex, s * ky * ex, s * kx * ey, s * ky * ey

    def dvg(t, x, y):
        amp = amplitude * math.sin(omega * t + phase)
        return -amp * np.sin(kx * x + ky * y) * kmag

    return SyntheticVelocity(
        name=f"mode(A={amplitude},m={m},w={omega})",
        velocity=vel, jacobian=jac, divergence=dvg,
        speed_bound=abs(amplitude),
    )


def superpose(members: Sequence[SyntheticVelocity]) -> SyntheticVelocity:
    members = list(members)
    if not members:
        raise ValueError("need at least one member")

    def vel(t, x, y):
        vx, vy = members[0].velocity(t, x, y)
        vx, vy = np.array(vx, dtype=np.float64), np.array(vy, dtype=np.float64)
        for mem in members[1:]:
            ax, ay = mem.velocity(t, x, y)
            vx = vx + ax
            vy = vy + ay
        return vx, vy

    def jac(t, x, y):
        parts = [np.array(a, dtype=np.float64) for a in members[0].jacobian(t, x, y)]
        for mem in members[1:]:
            for i, a in enumerate(mem.jacobian(t, x, y)):
                parts[i] = parts[i] + a
        return tuple(parts)

    def dvg(t, x, y):
        d = np.array(members[0].divergence(t, x, y), dtype=np.float64)
        for mem in members[1:]:
            d = d + mem.divergence(t, x, y)
        return d

    return SyntheticVelocity(
        name="superpose(" + "+".join(m.name for m in members) + ")",
        velocity=vel, jacobian=jac, divergence=dvg,
        speed_bound=sum(m.speed_bound for m in members),
    )


def _transport_tendency(f_modes: np.ndarray, grid: Grid, vel: SyntheticVelocity,
                        t: float, out: np.ndarray) -> None:
    x, y = grid.coordinates()
    vx, vy = vel.velocity(t, x, y)
    dvg = vel.divergence(t, x, y)
    f, fx, fy = spectral.to_samples(np.concatenate([f_modes[None], 1j * grid.kvec * f_modes]))
    spectral.to_modes(-(vx * fx + vy * fy) - f * dvg, out=out)
    np.copyto(out, 0.0, where=~grid.dealias_mask)


def transport_monitor_row(f: SpectralScalarField, vel: SyntheticVelocity, t: float) -> dict:
    """Ledger columns for one time; the blocks of f and of div v come from
    one batched inverse."""
    grid = f.grid
    area = grid.cell_area
    x, y = grid.coordinates()
    j = vel.jacobian(t, x, y)
    grad_sup = max(float(np.max(np.abs(np.broadcast_to(a, (grid.n, grid.n))))) for a in j)
    div_samples = np.broadcast_to(vel.divergence(t, x, y), (grid.n, grid.n))
    div_modes = spectral.to_modes(div_samples)
    blocks = lp.block_samples(grid, np.stack([f.modes, div_modes]))
    return {
        "f_mass": f.mean * grid.box_length**2,
        "f_b0": lp.besov_sum(spectral.plane_norms(blocks[:, 0], math.inf, area), 0.0),
        "grad_v_linf": grad_sup,
        "div_v_linf": float(np.max(np.abs(div_samples))),
        "div_v_b0": lp.besov_sum(spectral.plane_norms(blocks[:, 1], math.inf, area), 0.0),
        "div_v_b12": lp.besov_sum(spectral.plane_norms(blocks[:, 1], 4.0, area), 0.5),
        "div_v_b1": lp.besov_norm(SpectralScalarField(grid, div_modes), 1.0, 2.0),
    }


def solve_transport_spectral(f0: SpectralScalarField, vel: SyntheticVelocity, t_final: float,
                             cfl: float = 0.4, max_dt: float = 0.05, run_id: str = "",
                             config_hash: str = "") -> tuple[SpectralScalarField, RunLedger]:
    """RK4 integration of the continuity-form transport equation.

    The velocity is sampled analytically at every stage time; the mean of f
    (total mass) is conserved to rounding because the tendency is an exact
    divergence of a resolvable product.
    """
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    grid = f0.grid
    ledger = RunLedger(TRANSPORT_COLUMNS, run_id=run_id, config_hash=config_hash)
    dt_base = min(max_dt, cfl * grid.spacing / (vel.speed_bound + 1e-12))

    def advance(f: SpectralScalarField, t: float, dt: float) -> SpectralScalarField:
        return SpectralScalarField(grid, spectral.rk4(
            lambda m, s, out: _transport_tendency(m, grid, vel, s, out), f.modes, t, dt))

    f, _ = spectral.integrate(
        spectral.dealias(f0), 0.0, t_final, lambda f: dt_base, advance,
        lambda f, t: ledger.append(t, **transport_monitor_row(f, vel, t)))
    return f, ledger


def solve_transport_oracle(f0: SpectralScalarField, vel: SyntheticVelocity, t_final: float,
                           substeps: int) -> np.ndarray:
    """Backward-characteristics reference solution on the grid nodes.

    Traces dX/dtau = v(tau, X) from t_final back to 0 with ``substeps`` steps
    of ``spectral.rk4`` on the stack (X, Y, S), where S accumulates the
    divergence along the path with the same stages, then returns
    f0(foot) * exp(-integral of div v) as real samples.
    """
    if substeps < 1:
        raise ValueError("need at least one substep")
    from scipy import ndimage  # imported here: the oracle is its only user

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
        path = spectral.rk4(tendency, path, t, h)
        t += h
    f0_samples = f0.values()
    coords = path[:2] / grid.spacing
    feet = ndimage.map_coordinates(f0_samples, coords.reshape(2, -1), order=3,
                                   mode="grid-wrap").reshape(grid.n, grid.n)
    return feet * np.exp(path[2])


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
