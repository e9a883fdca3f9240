"""Transport laboratory: spectral solver, characteristics oracle, growth bound."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from machlab import littlewood_paley as lp
from machlab import spectral, transport
from machlab.ledger import TRANSPORT_COLUMNS, TRANSPORT_MASS_COLUMNS
from machlab.experiments import (evaluate_transport_velocity, transport_catalog,
                                 transport_initial_density)


BOX = 16.0 * math.pi


def test_catalog_divergence_matches_sampled_field(grid64):
    """The analytic divergence callable must agree with the spectral
    divergence of the sampled velocity."""
    vel = transport.compressible_mode(0.8, (3, 1), 2.0, BOX, phase=0.4)
    t = 0.37
    x, y = grid64.coordinates()
    vx, vy = vel.velocity(t, x, y)
    v = spectral.Field(grid64, spectral.to_modes(np.stack(np.broadcast_arrays(vx, vy))))
    div_spectral = spectral.div(v).values()
    div_analytic = np.broadcast_to(vel.divergence(t, x, y), (64, 64))
    assert np.max(np.abs(div_spectral - div_analytic)) <= 1e-10


def test_shear_is_divergence_free(grid64):
    vel = transport.shear_velocity(1.0, 2, 0.9, BOX)
    x, y = grid64.coordinates()
    assert np.max(np.abs(np.broadcast_to(vel.divergence(0.3, x, y), (64, 64)))) == 0.0


def test_mass_is_conserved_exactly(grid64):
    f0 = transport_initial_density(grid64, seed=5)
    vel = transport.compressible_mode(1.0, (2, 2), 1.5, BOX)
    _, ledger = transport.solve_transport_spectral(f0, vel, 0.5, max_dt=0.02)
    mass = ledger.column("f_mass")
    assert np.max(np.abs(mass - mass[0])) <= 1e-12 * abs(mass[0])


def test_a_stopped_solve_carries_every_row_up_to_its_stop(grid32, monkeypatch):
    f0 = transport_initial_density(grid32, seed=5)
    vel = transport.compressible_mode(1.0, (2, 2), 1.5, BOX)
    _, full = transport.solve_transport_spectral(f0, vel, 0.1, max_dt=0.02)
    assert len(full) == 6
    monkeypatch.setattr(spectral, "MAX_STEPS", 2)
    with pytest.raises(spectral.StepBudgetSpent) as err:
        transport.solve_transport_spectral(f0, vel, 0.1, max_dt=0.02)
    ledger = err.value.ledger
    assert ledger.times == full.times[:3] and ledger.times[-1] == err.value.time
    for column in TRANSPORT_COLUMNS:
        assert ledger.column(column).tobytes() == full.column(column)[:3].tobytes(), column


def test_spectral_solution_matches_characteristics(grid64):
    f0 = transport_initial_density(grid64, seed=5)
    vel = transport.superpose([
        transport.shear_velocity(0.8, 2, 1.0, BOX),
        transport.compressible_mode(0.8, (3, 1), 2.0, BOX),
    ])
    fT, ledger = transport.solve_transport_spectral(f0, vel, 0.5, max_dt=0.02)
    steps = max(1, len(ledger) - 1)
    oracle = transport.solve_transport_oracle(f0, vel, 0.5, substeps=4 * steps)
    assert np.max(np.abs(fT.values() - oracle)) <= 1e-3


def test_divergence_free_max_principle(grid64):
    f0 = transport_initial_density(grid64, seed=5)
    vel = transport.shear_velocity(1.0, 1, 0.9, BOX)
    fT, _ = transport.solve_transport_spectral(f0, vel, 1.0, max_dt=0.02)
    lo0, hi0 = spectral.refined_extrema(f0)
    lo1, hi1 = spectral.refined_extrema(fT)
    expansion = max(hi1 - hi0, lo0 - lo1, 0.0) / (hi0 - lo0)
    assert expansion <= 1e-6


def test_log_constant_transfers_to_holdout(grid64):
    f0 = transport_initial_density(grid64, seed=5)
    cal = transport.superpose([
        transport.shear_velocity(0.8, 2, 1.0, BOX),
        transport.compressible_mode(0.8, (3, 1), 2.0, BOX),
    ])
    _, cal_led = transport.solve_transport_spectral(f0, cal, 0.5, max_dt=0.02)
    c_fit = transport.fit_log_constant(cal_led)
    assert transport.evaluate_log_estimate(cal_led, c_fit).max_ratio <= 1.0 + 1e-12
    hold = transport.compressible_mode(0.6, (5, 2), 3.0, BOX)
    _, led = transport.solve_transport_spectral(f0, hold, 0.5, max_dt=0.02)
    rep = transport.evaluate_log_estimate(led, c_fit)
    assert rep.max_ratio <= 1.0 + 1e-12


def test_oracle_is_exact_for_uniform_translation(grid64):
    """Constant velocity: characteristics are straight lines and the density
    is a pure shift; the oracle must track it to interpolation accuracy."""
    f0 = transport_initial_density(grid64, seed=7)
    vel = transport.superpose([
        transport.shear_velocity(0.0, 1, 1.0, BOX),
    ])
    out = transport.solve_transport_oracle(f0, vel, 0.5, substeps=8)
    assert np.max(np.abs(out - f0.values())) <= 1e-10


def hand_written_oracle(f0, vel, t_final, substeps):
    """Characteristics traced by a hand-written RK4 over the feet X, Y and
    the divergence integral S, with f0 read at the feet by its cubic B-spline;
    the oracle must reproduce it bit for bit."""
    grid = f0.grid
    x, y = grid.coordinates()
    X = np.broadcast_to(x, (grid.n, grid.n)).astype(np.float64).copy()
    Y = np.broadcast_to(y, (grid.n, grid.n)).astype(np.float64).copy()
    S = np.zeros_like(X)
    h = -t_final / substeps
    t = t_final
    for _ in range(substeps):
        k1x, k1y = vel.velocity(t, X, Y)
        k1s = vel.divergence(t, X, Y)
        k2x, k2y = vel.velocity(t + 0.5 * h, X + 0.5 * h * k1x, Y + 0.5 * h * k1y)
        k2s = vel.divergence(t + 0.5 * h, X + 0.5 * h * k1x, Y + 0.5 * h * k1y)
        k3x, k3y = vel.velocity(t + 0.5 * h, X + 0.5 * h * k2x, Y + 0.5 * h * k2y)
        k3s = vel.divergence(t + 0.5 * h, X + 0.5 * h * k2x, Y + 0.5 * h * k2y)
        k4x, k4y = vel.velocity(t + h, X + h * k3x, Y + h * k3y)
        k4s = vel.divergence(t + h, X + h * k3x, Y + h * k3y)
        X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        Y = Y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        S = S + (h / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
        t += h
    return spectral.cubic_spline_at(f0, X, Y) * np.exp(S)


def test_oracle_matches_the_hand_written_characteristic_rk4(grid32):
    f0 = transport_initial_density(grid32, seed=3)
    cal, holdouts = transport_catalog(BOX)
    for vel in [cal] + holdouts:
        got = transport.solve_transport_oracle(f0, vel, 0.5, substeps=12)
        assert got.tobytes() == hand_written_oracle(f0, vel, 0.5, 12).tobytes(), vel.name


def parent_tendency(f_modes, grid, vel, t, out):
    """The spectral solve's tendency with the velocity evaluated at the grid
    nodes at every stage; the solve must reproduce it bit for bit."""
    x, y = grid.coordinates()
    vx, vy = vel.velocity(t, x, y)
    dvg = vel.divergence(t, x, y)
    f, fx, fy = spectral.to_samples(np.concatenate([f_modes[None], 1j * grid.kvec * f_modes]))
    np.copyto(out, spectral.to_modes(-(vx * fx + vy * fy) - f * dvg))
    np.copyto(out, 0.0, where=~grid.dealias_mask)


def point_sampled_solve(f0, vel, t_final, max_dt):
    """``solve_transport_spectral`` with ``parent_tendency`` and ledger rows
    whose Jacobian and divergence are evaluated at the nodes at every row."""
    grid = f0.grid
    x, y = grid.coordinates()
    at_nodes = transport.GridVelocity(lambda t: vel.velocity(t, x, y),
                                      lambda t: vel.jacobian(t, x, y),
                                      lambda t: vel.divergence(t, x, y))
    dt = min(max_dt, 0.4 * grid.spacing / (vel.speed_bound + 1e-12))

    def advance(f, t, h):
        return spectral.Field(grid, spectral.rk4(
            lambda m, s, out: parent_tendency(m, grid, vel, s, out), f.modes, t, h))

    f, ledger, _ = spectral.integrate(
        spectral.dealias(f0), 0.0, t_final, lambda f: dt, advance,
        (lambda f, t: transport.transport_monitor_row(f, at_nodes, t), TRANSPORT_COLUMNS))
    return f, ledger


def test_grid_sampled_solve_matches_point_evaluation_bit_for_bit(grid32):
    f0 = transport_initial_density(grid32, seed=3)
    cal, holdouts = transport_catalog(BOX)
    for vel in [cal] + holdouts:
        got_f, got = transport.solve_transport_spectral(f0, vel, 0.3, max_dt=0.05)
        want_f, want = point_sampled_solve(f0, vel, 0.3, 0.05)
        assert len(got) == len(want) == 7, vel.name
        assert got_f.modes.tobytes() == want_f.modes.tobytes(), vel.name
        assert got.times == want.times, vel.name
        for column in TRANSPORT_COLUMNS:
            assert got.column(column).tobytes() == want.column(column).tobytes(), \
                (vel.name, column)


def test_the_mass_monitor_keeps_its_two_columns_and_the_solve_bit_for_bit(grid32):
    f0 = transport_initial_density(grid32, seed=3)
    cal, holdouts = transport_catalog(BOX)
    for vel in [cal] + holdouts:
        full = evaluate_transport_velocity(f0, vel, 0.3, 0.4, 0.05)
        cut = evaluate_transport_velocity(f0, vel, 0.3, 0.4, 0.05, transport.MASS_MONITOR)
        assert cut.ledger.columns == TRANSPORT_MASS_COLUMNS
        assert cut.ledger.times == full.ledger.times, vel.name
        for column in TRANSPORT_MASS_COLUMNS:
            assert cut.ledger.column(column).tobytes() == full.ledger.column(column).tobytes()
        assert (cut.oracle_gap, cut.mass_drift, cut.range_growth) == \
            (full.oracle_gap, full.mass_drift, full.range_growth), vel.name


def batched_monitor_norms(f, div_modes):
    """The monitor row's block norms from one inverse of every block of f and
    of div v at once: sup of f, sup of div v, L^4 of div v, per block."""
    grid = f.grid
    blocks = spectral.to_samples(grid.blocks[:, None] * np.stack([f.modes, div_modes]))
    area = grid.cell_area
    return (spectral.plane_norms(blocks[:, 0], math.inf, area),
            spectral.plane_norms(blocks[:, 1], math.inf, area),
            spectral.plane_norms(blocks[:, 1], 4.0, area))


def test_monitor_row_blocks_one_at_a_time_equal_the_batched_inverse_bit_for_bit(grid64):
    f0 = transport_initial_density(grid64, seed=5)
    vel = transport.superpose([transport.shear_velocity(0.8, 2, 1.0, BOX),
                               transport.compressible_mode(0.8, (3, 1), 2.0, BOX)])
    f, _ = transport.solve_transport_spectral(f0, vel, 0.1, max_dt=0.05)
    sampled = vel.on_grid(*grid64.coordinates())
    row = transport.transport_monitor_row(f, sampled, 0.1)
    div_modes = spectral.to_modes(np.broadcast_to(sampled.divergence(0.1), (64, 64)))
    f_inf, div_inf, div_4 = batched_monitor_norms(f, div_modes)
    want = {"f_b0": lp.besov_sum(f_inf, 0.0), "div_v_b0": lp.besov_sum(div_inf, 0.0),
            "div_v_b12": lp.besov_sum(div_4, 0.5)}
    assert {k: row[k] for k in want} == want
    assert all(v > 0.0 for v in want.values())


def constant_velocity(cx, cy):
    """A uniform translation, defined by ``on_grid`` alone."""
    def on_grid(x, y):
        shape = np.broadcast(x, y).shape
        return transport.GridVelocity(lambda t: (np.full(shape, cx), np.full(shape, cy)),
                                      lambda t: tuple(np.zeros(shape) for _ in range(4)),
                                      lambda t: np.zeros(shape))

    return transport.SyntheticVelocity(name=f"constant({cx},{cy})",
                                       speed_bound=math.hypot(cx, cy), on_grid=on_grid)


def test_a_velocity_defined_by_on_grid_alone_runs_both_solvers(grid64):
    vel = constant_velocity(0.7, -0.4)
    x, y = grid64.coordinates()
    X, Y = x + 0.3 * y + 0.1, y - 0.2 * x  # off the nodes
    at = vel.on_grid(X, Y)
    for got, want in ((vel.velocity(0.37, X, Y), at.velocity(0.37)),
                      (vel.jacobian(0.37, X, Y), at.jacobian(0.37)),
                      (vel.divergence(0.37, X, Y), at.divergence(0.37))):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    f0 = transport_initial_density(grid64, seed=5)
    fT, ledger = transport.solve_transport_spectral(f0, vel, 0.5, max_dt=0.02)
    oracle = transport.solve_transport_oracle(f0, vel, 0.5, substeps=8)
    # the exact solution is f0 shifted by (0.7, -0.4) t, a phase per mode
    shift = np.exp(-0.5j * (0.7 * grid64.kx - 0.4 * grid64.ky))
    exact = spectral.Field(grid64, spectral.dealias(f0).modes * shift).values()
    assert np.max(np.abs(fT.values() - exact)) <= 1e-10
    assert np.max(np.abs(oracle - exact)) <= 1e-4
    assert np.max(ledger.column("div_v_linf")) == 0.0
    assert np.max(ledger.column("grad_v_linf")) == 0.0


class CountingNumpy:
    """numpy, with the calls of ``sin`` and ``cos`` counted."""

    def __init__(self):
        self.calls = {"sin": 0, "cos": 0}

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.calls:
            return fn

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


SHEAR = transport.shear_velocity(1.0, 2, 0.9, BOX)
MODE = transport.compressible_mode(0.8, (3, 1), 2.0, BOX)


@pytest.mark.parametrize("vel, method, calls", [
    (SHEAR, "velocity", {"sin": 1, "cos": 0}),
    (SHEAR, "divergence", {"sin": 0, "cos": 0}),
    (MODE, "velocity", {"sin": 0, "cos": 1}),
    (MODE, "divergence", {"sin": 1, "cos": 0}),
])
def test_point_calls_sample_only_the_factors_they_read(grid32, monkeypatch, vel, method, calls):
    """The oracle calls ``velocity`` and ``divergence`` at new feet every
    stage: each call samples only the spatial factor it reads."""
    x, y = grid32.coordinates()
    X, Y = np.broadcast_arrays(x + 0.1 * y, y)
    numpy = CountingNumpy()
    monkeypatch.setattr(transport, "np", numpy)
    getattr(vel, method)(0.3, X, Y)
    assert numpy.calls == calls


NUMPY_ONLY_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from machlab import cli

code = cli.main(["transport-log", "--config", sys.argv[2], "--out", sys.argv[3]])
print(code, "scipy" in sys.modules)
"""


def test_transport_log_never_imports_scipy(tmp_path):
    """The CLI transport lab, oracle included, runs on numpy alone."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 32\nt_final = 0.05\n")
    src = Path(transport.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN, str(src), str(cfg),
                           str(tmp_path / "out")], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stdout


def test_solver_rejects_bad_time():
    grid = spectral.Grid(32, BOX)
    f0 = transport_initial_density(grid, seed=0)
    vel = transport.shear_velocity(1.0, 1, 0.9, BOX)
    with pytest.raises(ValueError):
        transport.solve_transport_spectral(f0, vel, -0.5)
