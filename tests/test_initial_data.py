"""Catalog states: normalization, determinism, eps scaling."""

import math

import numpy as np
import pytest

from machlab import spectral
from machlab.initial_data import KNOWN_DATA, make_initial_data
from machlab import littlewood_paley as lp


def acoustic_sup(state):
    div_sup = spectral.lp_norm(spectral.div(state.v), math.inf)
    gc_sup = spectral.lp_norm(spectral.grad(state.c), math.inf)  # vector magnitude
    return div_sup, gc_sup


def test_same_arguments_give_bit_identical_states(grid64):
    a = make_initial_data("vortex-pair-ill", grid64, eps=0.1, amplitude=0.5, seed=3)
    b = make_initial_data("vortex-pair-ill", grid64, eps=0.1, amplitude=0.5, seed=3)
    assert np.array_equal(a.modes, b.modes)


def test_seed_changes_the_field(grid64):
    a = make_initial_data("vortex-pair-ill", grid64, eps=0.1, seed=3)
    b = make_initial_data("vortex-pair-ill", grid64, eps=0.1, seed=4)
    assert not np.array_equal(a.modes[0], b.modes[0])


@pytest.mark.parametrize("name", ["taylor-green-ill", "vortex-pair-ill"])
def test_ill_prepared_normalization(grid64, name):
    amp = 0.7
    state = make_initial_data(name, grid64, eps=0.05, amplitude=amp, seed=1)
    div_sup, gc_sup = acoustic_sup(state)
    assert abs(gc_sup - amp) <= 1e-10 * amp
    if name == "vortex-pair-ill":
        assert abs(div_sup - amp) <= 1e-10 * amp
        omega_sup = spectral.lp_norm(spectral.curl2d(state.v), math.inf)
        assert abs(omega_sup - amp) <= 1e-10 * amp


def test_ill_prepared_data_is_eps_independent(grid64):
    a = make_initial_data("vortex-pair-ill", grid64, eps=0.2, amplitude=0.5, seed=0)
    b = make_initial_data("vortex-pair-ill", grid64, eps=0.025, amplitude=0.5, seed=0)
    assert np.array_equal(a.modes[0], b.modes[0])
    assert np.array_equal(a.modes[2], b.modes[2])


def test_well_prepared_contrast_scales_acoustic_part_with_eps(grid64):
    amp = 0.5
    for eps in (0.2, 0.05):
        state = make_initial_data("well-prepared-contrast", grid64, eps=eps,
                                  amplitude=amp, seed=0)
        div_sup, gc_sup = acoustic_sup(state)
        assert abs(div_sup - eps * amp) <= 1e-10 * amp
        assert abs(gc_sup - eps * amp) <= 1e-10 * amp
        # the vortical part does not scale
        omega_sup = spectral.lp_norm(spectral.curl2d(state.v), math.inf)
        assert abs(omega_sup - amp) <= 1e-10 * amp


def test_random_band_block_decay(grid64):
    # each piece sits on the plateau of its ring multiplier, so the joint
    # block norms equal amplitude * 2^{-(2+rate) q} exactly on populated rings
    rate = 1.5
    amp = 0.8
    state = make_initial_data(f"random-band:{rate}", grid64, eps=0.1, amplitude=amp, seed=9)
    populated = 0
    for q in range(-1, len(grid64.blocks) - 1):
        joint = spectral.l2_norm(lp.delta_q(spectral.Field(grid64, state.modes), q))
        if joint == 0.0:
            continue  # ring not represented on the 64-point lattice
        want = amp * (1.0 if q < 0 else 2.0 ** (-(2.0 + rate) * q))
        assert abs(joint - want) <= 1e-12 * amp
        populated += 1
    assert populated >= 2


def test_states_are_mean_free_and_dealiased(grid64):
    for name in ("vortex-pair-ill", "random-band:2", "well-prepared-contrast",
                 "taylor-green-ill"):
        state = make_initial_data(name, grid64, eps=0.1, seed=2)
        assert state.modes[2, 0, 0] == 0.0
        assert state.modes[0, 0, 0] == 0.0
        for modes in state.modes:
            masked = np.where(grid64.dealias_mask, 0.0, modes)
            assert np.max(np.abs(masked)) == 0.0


def test_acoustic_spectrum_avoids_the_gravest_modes(grid64):
    """The acoustic packets live on a wavenumber shell: the compressible
    velocity part must carry almost no energy below half the carrier."""
    state = make_initial_data("vortex-pair-ill", grid64, eps=0.1, amplitude=0.5, seed=0)
    qv = spectral.leray_q(state.v)
    low = grid64.kmag <= 0.9
    energy = grid64.parseval_weight * np.sum(np.abs(qv.modes) ** 2, axis=0)  # half spectrum
    low_energy = float(np.sum(energy[low]))
    total = float(np.sum(energy))
    assert low_energy <= 1e-6 * total


def test_unknown_name_and_bad_arguments_raise(grid64):
    with pytest.raises(ValueError, match="unknown initial data"):
        make_initial_data("vortex-quad", grid64, eps=0.1)
    with pytest.raises(ValueError):
        make_initial_data("vortex-pair-ill", grid64, eps=0.1, amplitude=0.0)
    with pytest.raises(ValueError):
        make_initial_data("random-band:-1", grid64, eps=0.1)
    assert set(n.partition(":")[0] for n in KNOWN_DATA) == {
        "taylor-green-ill", "vortex-pair-ill", "random-band", "well-prepared-contrast"}
