"""The grid's dyadic partition, block operators, Besov norms, weight profiles."""

import math

import numpy as np
import pytest

from machlab import littlewood_paley as lp
from machlab import spectral


def random_field(grid, rng):
    return spectral.dealias(spectral.fft_forward(grid, rng.standard_normal((grid.n, grid.n))))


def test_partition_telescopes_below_cutoff(grid64):
    total = grid64.blocks[0].copy()
    for block in grid64.blocks[1:]:
        total = total + block
    residual = np.abs(total - 1.0)[grid64.dealias_mask]
    assert np.max(residual) <= 1e-12


def test_partition_is_a_grid_table_built_once(grid64):
    blocks = grid64.blocks
    assert blocks is grid64.blocks
    assert blocks.shape == (len(blocks),) + grid64.modes_shape
    # q_max is the largest ring whose inner edge 3/4 * 2**q lies below the cutoff
    q_max = len(blocks) - 2
    assert 0.75 * 2**q_max <= grid64.kmax_dealias < 0.75 * 2 ** (q_max + 1)


def test_partition_needs_the_first_ring_below_the_cutoff():
    grid = spectral.Grid(8, 32.0 * math.pi)  # cutoff 1/6, below the ring q = 0
    with pytest.raises(ValueError, match="dealias cutoff 0.1667 is below the first ring"):
        grid.blocks


def test_delta_q_rejects_indices_outside_the_partition(grid64, rng):
    f = random_field(grid64, rng)
    q_max = len(grid64.blocks) - 2
    for q in (-2, q_max + 1):
        with pytest.raises(ValueError, match=f"block index {q} outside \\[-1, {q_max}\\]"):
            lp.delta_q(f, q)


def test_blocks_reconstruct(grid64, rng):
    f = random_field(grid64, rng)
    acc = np.zeros_like(f.modes)
    for q in range(-1, len(grid64.blocks) - 1):
        acc += lp.delta_q(f, q).modes
    assert np.max(np.abs(acc - f.modes)) <= 1e-12 * np.max(np.abs(f.modes))


def test_distant_blocks_are_exactly_disjoint(grid64, rng):
    f = random_field(grid64, rng)
    q_max = len(grid64.blocks) - 2
    for q in range(-1, q_max + 1):
        for p in range(q + 2, q_max + 1):
            comp = lp.delta_q(lp.delta_q(f, q), p)
            assert np.max(np.abs(comp.modes)) == 0.0


def test_bernstein_ratio_on_shells(grid64, rng):
    f = random_field(grid64, rng)
    for q in range(0, len(grid64.blocks) - 1):
        blk = lp.delta_q(f, q)
        nb = spectral.l2_norm(blk)
        if nb <= 1e-8 * spectral.l2_norm(f):
            continue
        g = spectral.grad(blk)
        ratio = spectral.l2_norm(g) / (2.0**q * nb)
        assert 0.125 <= ratio <= 8.0, f"shell {q}: ratio {ratio}"


def test_block_norms_match_delta_q(grid64, rng):
    f = random_field(grid64, rng)
    norms = lp.block_norms(f, 2.0)
    assert len(norms) == len(grid64.blocks)
    for i, q in enumerate(range(-1, len(grid64.blocks) - 1)):
        assert abs(norms[i] - spectral.l2_norm(lp.delta_q(f, q))) <= 1e-12


@pytest.mark.parametrize("p", [1.0, 4.0, math.inf])
def test_block_norms_one_block_at_a_time_equal_the_batched_inverse_bit_for_bit(grid64, rng, p):
    """Real-space block norms of a vector field, against every block of every
    component inverted at once."""
    v = spectral.Field(grid64, spectral.to_modes(rng.standard_normal((2, 64, 64))))
    batched = spectral.to_samples(grid64.blocks[:, None] * v.modes)
    want = spectral.plane_norms(spectral.magnitude(batched), p, grid64.cell_area)
    assert lp.block_norms(v, p).tobytes() == want.tobytes()


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
        for alpha in (0.5, 1.0):
            values = [2.0 ** (alpha * q) for q in range(-1, len(grid64.blocks) - 1)]
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

    def test_serialize_writes_one_line_per_block(self, tmp_path):
        prof = lp.named_profile("power:2")
        path = tmp_path / "profile.txt"
        prof.serialize(path)
        # a header naming the profile, then "q Psi(q)" at 17 significant digits
        assert path.read_text().splitlines() == (
            ["# besov profile power:2"] + [f"{q} {(q + 2) ** 2}" for q in range(-1, 49)])
        lp.named_profile("exp:1").serialize(path)
        lines = path.read_text().splitlines()
        assert lines[:4] == ["# besov profile exp:1", "-1 0.36787944117144233", "0 1",
                             "1 2.7182818284590451"]
        assert len(lines) == 51
