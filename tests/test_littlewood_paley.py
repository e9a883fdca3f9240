"""Dyadic partition, block operators, Besov norms, weight profiles."""

import math

import numpy as np
import pytest

from machlab import littlewood_paley as lp
from machlab import spectral


def random_field(grid, rng):
    return spectral.dealias(spectral.fft_forward(grid, rng.standard_normal((grid.n, grid.n))))


def test_partition_telescopes_below_cutoff(grid64):
    part = lp.build_partition(grid64)
    total = part.multiplier(-1).copy()
    for q in range(part.q_max + 1):
        total = total + part.multiplier(q)
    residual = np.abs(total - 1.0)[grid64.dealias_mask]
    assert np.max(residual) <= 1e-12


def test_blocks_reconstruct(grid64, rng):
    f = random_field(grid64, rng)
    part = lp.build_partition(grid64)
    acc = np.zeros_like(f.modes)
    for q in range(-1, part.q_max + 1):
        acc += lp.delta_q(f, q).modes
    assert np.max(np.abs(acc - f.modes)) <= 1e-12 * np.max(np.abs(f.modes))


def test_distant_blocks_are_exactly_disjoint(grid64, rng):
    f = random_field(grid64, rng)
    part = lp.build_partition(grid64)
    for q in range(-1, part.q_max + 1):
        for p in range(q + 2, part.q_max + 1):
            comp = lp.delta_q(lp.delta_q(f, q), p)
            assert np.max(np.abs(comp.modes)) == 0.0


def test_bernstein_ratio_on_shells(grid64, rng):
    f = random_field(grid64, rng)
    part = lp.build_partition(grid64)
    for q in range(0, part.q_max + 1):
        blk = lp.delta_q(f, q)
        nb = spectral.l2_norm(blk)
        if nb <= 1e-8 * spectral.l2_norm(f):
            continue
        g = spectral.grad(blk)
        ratio = spectral.l2_norm([g.ux, g.uy]) / (2.0**q * nb)
        assert 0.125 <= ratio <= 8.0, f"shell {q}: ratio {ratio}"


def test_block_norms_match_delta_q(grid64, rng):
    f = random_field(grid64, rng)
    part = lp.build_partition(grid64)
    norms = lp.block_norms(f, 2.0)
    assert len(norms) == part.q_max + 2
    for i, q in enumerate(range(-1, part.q_max + 1)):
        assert abs(norms[i] - spectral.l2_norm(lp.delta_q(f, q))) <= 1e-12


def test_besov_norm_is_homogeneous(grid64, rng):
    f = random_field(grid64, rng)
    a = lp.besov_norm(f, 2.0, 2.0)
    b = lp.besov_norm(spectral.scale(f, 7.0), 2.0, 2.0)
    assert abs(b - 7.0 * a) <= 1e-12 * b


def test_besov_sup_norm_bounds_single_block(grid64, rng):
    f = random_field(grid64, rng)
    blk = lp.delta_q(f, 1)
    b0 = lp.besov_norm(blk, 0.0, math.inf)
    # a single shell: block-sum norm is within the partition overlap factor
    # of the plain sup norm
    sup = spectral.lp_norm(blk, math.inf)
    assert b0 >= sup * 0.2
    assert b0 <= 4.0 * sup


class TestProfiles:
    def test_weighted_norm_reduces_to_shifted_exponent(self, grid64, rng):
        """Psi(q) = 2**(alpha q) turns the weighted s-norm into the plain
        (s + alpha)-norm, exactly."""
        f = random_field(grid64, rng)
        part = lp.build_partition(grid64)
        for alpha in (0.5, 1.0):
            values = [2.0 ** (alpha * q) for q in range(-1, part.q_max + 1)]
            prof = lp.validate_profile(values, extension=lambda x, a=alpha: 2.0 ** (a * x))
            got = lp.besov_norm(f, 1.0, 2.0, profile=prof)
            want = lp.besov_norm(f, 1.0 + alpha, 2.0)
            assert abs(got - want) <= 1e-12 * want

    def test_validate_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            lp.validate_profile([1.0, 0.5, 0.25])  # decreasing
        with pytest.raises(ValueError):
            lp.validate_profile([0.0, 1.0, 2.0])  # not positive
        with pytest.raises(ValueError):
            lp.validate_profile([1.0])  # too short

    def test_validate_reports_growth_metadata(self):
        prof = lp.validate_profile([1.0, 2.0, 4.0, 8.0])
        assert abs(prof.ratio_bound - 2.0) <= 1e-12
        assert abs(prof.growth_exponent - math.log(2.0)) <= 1e-12

    def test_named_profiles(self):
        exp = lp.named_profile("exp:1")
        assert abs(exp.psi_at(3.0) - math.exp(3.0)) <= 1e-12 * math.exp(3.0)
        pw = lp.named_profile("power:2")
        assert abs(pw.psi_at(2.0) - 16.0) <= 1e-12
        with pytest.raises(ValueError):
            lp.named_profile("cubic:1")

    def test_find_profile_is_admissible(self, grid64, rng):
        f = random_field(grid64, rng)
        prof = lp.find_profile(f, 2.0, 2.0)
        vals = [prof.psi(q) for q in range(-1, prof.q_hi + 1)]
        assert vals[0] == 1.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(b <= 2.0 * a + 1e-12 for a, b in zip(vals, vals[1:]))
        lp.validate_profile(vals)  # must not raise

    def test_serialize_roundtrip(self, tmp_path):
        prof = lp.named_profile("power:2")
        path = tmp_path / "profile.txt"
        prof.serialize(path)
        back = lp.load_profile(path)
        # the table survives; the closed-form extension is not revived
        for q in range(-1, prof.q_hi + 1):
            assert abs(back.psi(q) - prof.psi(q)) <= 1e-12 * prof.psi(q)
