"""Position sampling from |psi|^2 and the KS diagnostic."""

import numpy as np
import pytest

from bohmlab import SpinorField, gaussian_packet, ks_distance, make_grid, sample, sampling
from helpers import numpy_philox_uniforms, plane_wave

GRID = make_grid(512, -30.0, 30.0)


class TestSample:
    def test_deterministic_and_prefix_stable(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        a = sample(f, 300, seed=5)
        assert np.array_equal(a, sample(f, 300, seed=5))
        assert np.array_equal(a[:100], sample(f, 100, seed=5))
        assert not np.array_equal(a, sample(f, 300, seed=6))

    def test_seed_range_enforced(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="64-bit"):
            sample(f, 10, seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            sample(f, 10, seed=2**64)
        sample(f, 10, seed=2**64 - 1)

    def test_uniform_density_passes_ks(self):
        f = plane_wave(GRID, 2)
        xs = sample(f, 10000, seed=100)
        assert np.all((GRID.x_min <= xs) & (xs < GRID.x_max))
        assert ks_distance(xs, f) < 1.63 / np.sqrt(10000)

    def test_gaussian_moments(self):
        f = gaussian_packet(GRID, 3.0, 0.5, 0.0)
        xs = sample(f, 2000, seed=1)
        assert abs(np.mean(xs) - 3.0) <= 3.0 * 0.5 / np.sqrt(2000)
        assert abs(np.std(xs) - 0.5) <= 0.06

    def test_point_mass_stays_at_its_node(self):
        j = 256
        comp1 = np.zeros(GRID.n, dtype=complex)
        comp1[j] = 1.0
        f = SpinorField(GRID, comp1, np.zeros(GRID.n, dtype=complex)).normalize()
        xs = sample(f, 2000, seed=3)
        node = GRID.x_min + j * GRID.dx
        assert np.max(np.abs(xs - node)) <= GRID.dx + 1e-12
        assert np.mean(np.abs(xs - node) <= GRID.dx / 2) >= 0.5

    def test_band_holds_for_most_seeds(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        band = 1.63 / np.sqrt(10000)
        hits = sum(
            ks_distance(sample(f, 10000, seed=s), f) < band for s in range(20)
        )
        assert hits >= 18

    def test_rejects_bad_inputs(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            sample(f, 0, seed=1)
        with pytest.raises(ValueError, match="64-bit"):
            sample(f, 10, seed=-3)
        unnormalized = SpinorField(GRID, 2.0 * f.comp1, 2.0 * f.comp2)
        with pytest.raises(ValueError, match="normalized"):
            sample(unnormalized, 10, seed=1)


@pytest.mark.filterwarnings("error")
class TestPhiloxStream:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
    def test_equals_numpy_philox(self, seed):
        # whole and partial counters of four words each, and more than four
        # blocks of STATE_BLOCK_BYTES of words
        for count in (1, 2, 3, 4, 5, 8, 4097, 4 * sampling.STATE_BLOCK_BYTES // 8 + 5):
            got = sampling._philox_uniforms(seed, count)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), numpy_philox_uniforms(seed, count).view(np.uint64))

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_sample_draws_equal_the_numpy_stream_draws(self, seed, monkeypatch):
        f = gaussian_packet(GRID, 0.7, 1.3, 0.0)
        ours = sample(f, 10_000, seed)
        monkeypatch.setattr(sampling, "_philox_uniforms", numpy_philox_uniforms)
        assert np.array_equal(ours.view(np.uint64), sample(f, 10_000, seed).view(np.uint64))


class TestKSDistance:
    def test_exact_quantiles_of_uniform_density(self):
        # m evenly spaced quantiles against a linear CDF: KS is exactly 1/(m+1)
        f = plane_wave(GRID, 0)
        m = 100
        xs = GRID.x_min + GRID.length * np.arange(1, m + 1) / (m + 1)
        assert abs(ks_distance(xs, f) - 1.0 / (m + 1)) <= 1e-12

    def test_mirror_invariance(self):
        f = gaussian_packet(GRID, 1.7, 0.9, 0.45)
        mirror = gaussian_packet(GRID, -1.7, 0.9, -0.45)
        xs = sample(f, 500, seed=9)
        assert abs(ks_distance(xs, f) - ks_distance(-xs, mirror)) <= 1e-12

    def test_detects_shifted_ensemble(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        xs = sample(f, 4000, seed=100)
        assert ks_distance(xs + 1.0, f) > 0.3

    def test_needs_samples(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="at least one"):
            ks_distance(np.array([]), f)
