"""Vorticity-form reference solver."""

import math

import numpy as np
import pytest

from machlab import incompressible, spectral
from machlab.ledger import INCOMPRESSIBLE_COLUMNS


def test_velocity_from_vorticity_inverts_curl(grid64, rng):
    omega = spectral.dealias(spectral.fft_forward(grid64, rng.standard_normal((64, 64))))
    omega.modes[0, 0] = 0.0
    v = incompressible.velocity_from_vorticity(omega)
    assert spectral.l2_norm(spectral.div(v)) <= 1e-12 * spectral.l2_norm(v)
    back = spectral.curl2d(v)
    assert np.max(np.abs(back.modes - omega.modes)) <= 1e-12 * np.max(np.abs(omega.modes))


def test_cellular_eigenfield_is_steady(grid64):
    """sin(kx) sin(ky) vorticity is an exact steady Euler state; any motion
    is scheme error."""
    k = 2.0 * math.pi / grid64.box_length * 2
    x, y = grid64.coordinates()
    omega = spectral.fft_forward(grid64, np.sin(k * x) * np.sin(k * y))
    final, _, _ = incompressible.run_incompressible(
        spectral.dealias(omega), 0.5, cfl=0.4, max_dt=0.02)
    drift = spectral.l2_norm(spectral.sub(final, spectral.dealias(omega)))
    assert drift <= 1e-10 * spectral.l2_norm(omega)


def test_energy_and_vorticity_sup_nearly_conserved(grid64, rng):
    raw = rng.standard_normal((64, 64))
    k_corner = 1.0
    modes = spectral.fft_forward(grid64, raw).modes * np.exp(-(grid64.kmag / k_corner) ** 2)
    omega = spectral.dealias(spectral.Field(grid64, modes))
    omega.modes[0, 0] = 0.0
    final, ledger, _ = incompressible.run_incompressible(omega, 1.0, cfl=0.4, max_dt=0.02)
    energy = ledger.column("v_l2") ** 2
    assert np.max(np.abs(energy - energy[0])) <= 1e-8 * energy[0]
    # grid-sampled sup wobbles by O(h^2) as the peak moves between points
    sup = ledger.column("omega_linf")
    assert np.max(np.abs(sup - sup[0])) <= 0.03 * sup[0]


def test_mean_vorticity_stays_zero(grid64, rng):
    omega = spectral.dealias(spectral.fft_forward(grid64, rng.standard_normal((64, 64))))
    omega.modes[0, 0] = 0.0
    out = incompressible.step_incompressible(omega, 0.01)
    assert abs(out.modes[0, 0]) <= 1e-18  # rounding-level quadrature residue


def test_row_and_cfl_on_the_band_equal_the_full_width_norms_bit_for_bit(grid64, rng):
    """The ledger row and the CFL speed invert the velocity, its Jacobian and
    omega on the dealias band only; each must be the full-width value."""
    omega = spectral.dealias(spectral.fft_forward(grid64, rng.standard_normal((64, 64))))
    final, ledger, _ = incompressible.run_incompressible(omega, 0.01, cfl=0.4, max_dt=0.01)
    assert list(ledger.time_array()) == [0.0, 0.01]
    for i, w in enumerate((omega, final)):
        v = incompressible.velocity_from_vorticity(w)
        assert ledger.column("grad_v_linf")[i] == spectral.jacobian_sup(grid64, v.modes)
        assert ledger.column("omega_linf")[i] == spectral.lp_norm(w, math.inf)
        assert ledger.column("v_l2")[i] == spectral.l2_norm(v)
        for cfl, max_dt in ((0.4, 10.0), (0.4, 1e-9)):
            speed = spectral.lp_norm(v, math.inf)
            assert (incompressible.cfl_dt_incompressible(w, cfl, max_dt)
                    == spectral.advective_dt(grid64, speed, cfl, max_dt))


def test_a_stopped_run_carries_every_row_up_to_its_stop(grid32, rng, monkeypatch):
    omega = spectral.dealias(spectral.fft_forward(grid32, rng.standard_normal((32, 32))))
    _, full, _ = incompressible.run_incompressible(omega, 0.05, cfl=0.4, max_dt=0.01)
    assert len(full) == 6
    monkeypatch.setattr(spectral, "MAX_STEPS", 3)
    with pytest.raises(spectral.StepBudgetSpent) as err:
        incompressible.run_incompressible(omega, 0.05, cfl=0.4, max_dt=0.01)
    ledger = err.value.ledger
    assert ledger.times == full.times[:4] and ledger.times[-1] == err.value.time
    for column in INCOMPRESSIBLE_COLUMNS:
        assert ledger.column(column).tobytes() == full.column(column)[:4].tobytes(), column
