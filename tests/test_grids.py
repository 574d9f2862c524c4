"""Grid, spinor field, and wave-packet construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmlab import SpinorField, density, gaussian_packet, make_grid
from helpers import fd_momentum, inner_product, moments, plane_wave


@pytest.fixture(scope="module")
def grid():
    return make_grid(512, -30.0, 30.0)


class TestGrid:
    def test_spacing_and_nodes(self, grid):
        assert grid.dx == 60.0 / 512.0
        xs = grid.xs()
        assert xs.shape == (512,)
        assert xs[0] == -30.0
        assert np.array_equal(np.diff(xs), np.full(511, grid.dx))
        # the right endpoint is excluded: the grid is periodic
        assert xs[-1] == 30.0 - grid.dx

    def test_wavenumbers_match_fft_convention(self, grid):
        expected = 2.0 * np.pi * np.fft.fftfreq(512, d=grid.dx)
        assert np.array_equal(grid.wavenumbers(), expected)

    @pytest.mark.parametrize("n", [0, 1, 8, 15, 100, 500, 2**63, 2**1024])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            make_grid(n, -1.0, 1.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            make_grid(64, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_grid(64, 2.0, -2.0)
        with pytest.raises(ValueError):
            make_grid(64, 0.0, math.inf)
        with pytest.raises(ValueError, match="spacing .* = inf must be finite"):
            make_grid(64, -1e308, 1e308)  # finite bounds, but the length overflows


class TestSpinorField:
    def test_components_are_locked_copies(self, grid):
        src = np.ones(512, dtype=np.complex128)
        f = SpinorField(grid, src, src)
        src[0] = 5.0
        assert f.comp1[0] == 1.0
        with pytest.raises(ValueError):
            f.comp1[0] = 2.0

    def test_length_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            SpinorField(grid, np.ones(511), np.ones(512))

    def test_density_is_component_sum(self, grid, rng):
        c1 = rng.normal(size=512) + 1j * rng.normal(size=512)
        c2 = rng.normal(size=512) + 1j * rng.normal(size=512)
        f = SpinorField(grid, c1, c2)
        assert np.allclose(density(f), np.abs(c1) ** 2 + np.abs(c2) ** 2, rtol=1e-14, atol=0.0)

    def test_normalize_gives_unit_norm(self, grid, rng):
        f = SpinorField(grid, rng.normal(size=512), rng.normal(size=512))
        g = f.normalize()
        assert abs(g.norm() - 1.0) <= 1e-13

    def test_normalize_idempotent(self, grid, rng):
        f = SpinorField(grid, rng.normal(size=512), rng.normal(size=512)).normalize()
        g = f.normalize()
        assert np.allclose(g.comp1, f.comp1, rtol=1e-15, atol=0.0)
        assert np.allclose(g.comp2, f.comp2, rtol=1e-15, atol=0.0)

    def test_zero_field_normalize_raises(self, grid):
        f = SpinorField(grid, np.zeros(512), np.zeros(512))
        with pytest.raises(ValueError):
            f.normalize()

    def test_conjugate_involution(self, grid, rng):
        f = SpinorField(grid, rng.normal(size=512) + 1j, 1j * rng.normal(size=512))
        g = f.conjugate().conjugate()
        assert np.array_equal(g.comp1, f.comp1)
        assert np.array_equal(g.comp2, f.comp2)


class TestInnerProduct:
    """The helpers' inner product, which the Hamiltonian tests rely on."""

    def test_norm_consistency(self, grid, rng):
        f = SpinorField(grid, rng.normal(size=512), rng.normal(size=512))
        assert abs(inner_product(f, f).real - f.norm_sq()) <= 1e-12 * f.norm_sq()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_hermitian_symmetry(self, grid, seed):
        r = np.random.default_rng(seed)
        f = SpinorField(grid, r.normal(size=512) + 1j * r.normal(size=512), r.normal(size=512))
        g = SpinorField(grid, r.normal(size=512), 1j * r.normal(size=512))
        lhs = inner_product(f, g)
        rhs = np.conj(inner_product(g, f))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_conjugate_linearity(self, grid, rng):
        f = SpinorField(grid, rng.normal(size=512), rng.normal(size=512))
        g = SpinorField(grid, rng.normal(size=512) + 0.3j, rng.normal(size=512))
        z = 0.7 - 1.4j
        scaled = SpinorField(grid, z * f.comp1, z * f.comp2)
        assert abs(inner_product(scaled, g) - np.conj(z) * inner_product(f, g)) <= 1e-12

    def test_grid_mismatch_raises(self, grid):
        other = make_grid(256, -30.0, 30.0)
        f = SpinorField(grid, np.ones(512), np.zeros(512))
        g = SpinorField(other, np.ones(256), np.zeros(256))
        with pytest.raises(ValueError):
            inner_product(f, g)


class TestGaussianPacket:
    def test_unit_norm(self, grid):
        f = gaussian_packet(grid, 0.0, 1.0, 2.0, 0.6, 0.8)
        assert abs(f.norm() - 1.0) <= 1e-12

    def test_center_and_width(self, grid):
        f = gaussian_packet(grid, 1.5, 2.0, 0.0)
        _, center, width = moments(f)
        assert abs(center - 1.5) <= 1e-9
        assert abs(width - 2.0) <= 1e-9

    def test_mean_momentum_matches_phase_slope(self):
        # central-difference oracle on a fine grid, no spectral machinery
        fine = make_grid(131072, -30.0, 30.0)
        f = gaussian_packet(fine, 0.0, 1.0, 2.0)
        assert abs(fd_momentum(f) - 2.0) <= 1e-6

    def test_even_packet_density_exactly_mirror_symmetric(self, grid):
        f = gaussian_packet(grid, 0.0, 1.0, 0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
        rho = density(f)
        assert np.array_equal(rho[1:], rho[1:][::-1])

    def test_spin_weights(self, grid):
        f = gaussian_packet(grid, 0.0, 1.0, 0.0, 0.6, 0.8j)
        p1 = float(np.sum(np.abs(f.comp1) ** 2) * grid.dx)
        assert abs(p1 - 0.36) <= 1e-12

    def test_rejections(self, grid):
        with pytest.raises(ValueError):
            gaussian_packet(grid, 0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_packet(grid, 0.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_packet(grid, 28.0, 1.0, 0.0)  # support leaves the domain
        with pytest.raises(ValueError):
            gaussian_packet(grid, 0.0, 10.0, 0.0)  # too wide for the box

    def test_spectrum_must_stay_inside_the_band(self, grid):
        # pi/dx = 26.808 on this grid; 5/(2 sigma) = 2.5 at sigma = 1
        gaussian_packet(grid, 0.0, 1.0, 24.30)
        gaussian_packet(grid, 0.0, 1.0, -24.30)
        for k in (24.31, -24.31):
            with pytest.raises(ValueError, match=r"spectrum \|k\| \+ 5/\(2 sigma\) = 26.81 must stay below"):
                gaussian_packet(grid, 0.0, 1.0, k)


class TestPlaneWave:
    """The helpers' plane wave, a closed-form input of the velocity and
    sampling tests."""

    def test_uniform_density_and_unit_norm(self, grid):
        f = plane_wave(grid, 3)
        assert abs(f.norm() - 1.0) <= 1e-12
        rho = density(f)
        assert np.allclose(rho, rho[0], rtol=1e-13, atol=0.0)

    def test_wavenumber_is_integer_mode(self, grid):
        f = plane_wave(grid, 4)
        k = 2.0 * np.pi * 4 / grid.length
        phases = np.angle(f.comp1)
        expected = np.angle(np.exp(1j * k * grid.xs()))
        assert np.allclose(phases, expected, rtol=0.0, atol=1e-12)

    def test_mean_momentum(self, grid):
        f = plane_wave(grid, 5)
        k = 2.0 * np.pi * 5 / grid.length
        # sin(k dx)/dx, the exact central-difference symbol for a pure mode
        expected = math.sin(k * grid.dx) / grid.dx
        assert abs(fd_momentum(f) - expected) <= 1e-10
