"""Split-step spinor propagator and its guard rails."""

import math
import warnings

import numpy as np
import pytest

from bohmlab import (
    HamiltonianSpec,
    PacketSpec,
    SGNumerics,
    SGSetup,
    SpinorField,
    WaveTimeline,
    apply_hamiltonian,
    build_timeline,
    energy,
    evolve,
    gaussian_packet,
    inner_product,
    make_grid,
    plane_wave,
    step,
)
from helpers import free_width, l2_distance, moments, sg_field

GRID = make_grid(512, -30.0, 30.0)


def bounded_hamiltonian(grid=GRID, mu=1.0):
    """Smooth periodic V and B that stay under the accuracy guard."""
    xs = grid.xs()
    v = 2.0 * np.cos(2.0 * np.pi * xs / grid.length)
    b = np.zeros((grid.n, 3))
    b[:, 0] = 0.7
    b[:, 2] = 1.1 * np.sin(2.0 * np.pi * xs / grid.length)
    return HamiltonianSpec(grid, v, b, mu)


def trap_hamiltonian(grid=GRID):
    xs = grid.xs()
    b = np.zeros((grid.n, 3))
    b[:, 0] = 0.7
    b[:, 2] = 1.1 * np.sin(2.0 * np.pi * xs / grid.length)
    return HamiltonianSpec(grid, 0.02 * xs**2, b, 1.0)


class TestHamiltonianSpec:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(GRID, np.zeros(511), np.zeros((512, 3)))
        with pytest.raises(ValueError):
            HamiltonianSpec(GRID, np.zeros(512), np.zeros((512, 2)))
        with pytest.raises(ValueError):
            HamiltonianSpec(GRID, np.full(512, np.nan), np.zeros((512, 3)))

    def test_free_factory(self):
        h = HamiltonianSpec.free(GRID)
        assert h.max_effective_potential() == 0.0
        assert np.all(h.field_magnitude() == 0.0)

    def test_max_effective_potential(self):
        b = np.zeros((512, 3))
        b[:, 1] = 3.0
        h = HamiltonianSpec(GRID, np.full(512, -2.0), b, mu=-0.5)
        assert h.max_effective_potential() == pytest.approx(2.0 + 0.5 * 3.0, abs=1e-14)


class TestFreeEvolution:
    def test_plane_wave_picks_up_kinetic_phase(self):
        # kinetic eigenstate: one splitting step is exact; evolve() would
        # refuse the uniform density at the domain edge
        f = plane_wave(GRID, 3)
        k = 2.0 * np.pi * 3 / GRID.length
        h = HamiltonianSpec.free(GRID)
        dt = 1 / 64
        for _ in range(8):
            f = step(f, h, dt)
        expected = np.exp(-0.5j * k * k * 8 * dt) * plane_wave(GRID, 3).comp1
        assert np.max(np.abs(f.comp1 - expected)) <= 1e-12

    def test_gaussian_width_follows_spreading_law(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        tl = evolve(f, HamiltonianSpec.free(GRID), 2.0, 1 / 256, record_every=8)
        for t, field in zip(tl.times, tl.fields):
            _, _, width = moments(field)
            assert abs(width - free_width(1.0, float(t))) <= 1e-9

    def test_moving_packet_center(self):
        f = gaussian_packet(GRID, -3.0, 1.0, 1.5)
        tl = evolve(f, HamiltonianSpec.free(GRID), 2.0, 1 / 256, record_every=128)
        _, center, _ = moments(tl.fields[-1])
        assert abs(center - (-3.0 + 1.5 * 2.0)) <= 1e-8


class TestUniformFieldSpin:
    def test_rabi_rotation_populations(self):
        # T and the spin term commute for uniform B: splitting is exact
        b = np.zeros((512, 3))
        b[:, 0] = 0.9
        h = HamiltonianSpec(GRID, np.zeros(512), b, 1.0)
        tl = evolve(gaussian_packet(GRID, 0.0, 1.0, 0.0), h, 1.0, 1 / 64, record_every=64)
        f = tl.fields[-1]
        p_up = float(np.sum(np.abs(f.comp1) ** 2) * GRID.dx)
        assert abs(p_up - math.cos(0.9) ** 2) <= 1e-12

    def test_uniform_bz_only_adds_phase(self):
        b = np.zeros((512, 3))
        b[:, 2] = 1.3
        h = HamiltonianSpec(GRID, np.zeros(512), b, 1.0)
        f = gaussian_packet(GRID, 0.0, 1.0, 0.5)
        with_field = evolve(f, h, 1.0, 1 / 128, record_every=128).fields[-1]
        free = evolve(f, HamiltonianSpec.free(GRID), 1.0, 1 / 128, record_every=128).fields[-1]
        phase = np.exp(-1j * 1.3)
        assert np.max(np.abs(with_field.comp1 - phase * free.comp1)) <= 1e-12


class TestAccuracy:
    def test_strang_error_falls_fourth_fold_per_halving(self):
        h = bounded_hamiltonian()
        f0 = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)

        def final(dt):
            return evolve(f0, h, 0.5, dt, record_every=int(round(0.5 / dt))).fields[-1]

        ref = final(1 / 1024)
        err_coarse = l2_distance(final(1 / 64), ref)
        err_fine = l2_distance(final(1 / 128), ref)
        assert 3.5 <= err_coarse / err_fine <= 4.5

    def test_norm_preserved_over_long_run(self):
        h = trap_hamiltonian()
        f0 = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)
        tl = evolve(f0, h, 1024 / 256, 1 / 256, record_every=1024)
        assert abs(tl.fields[-1].norm() - 1.0) <= 1e-11

    def test_reversibility(self):
        h = bounded_hamiltonian()
        f0 = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)
        forward = evolve(f0, h, 1.0, 1 / 256, record_every=16)
        back = evolve(forward.fields[-1], h, -1.0, -1 / 256, record_every=16)
        assert l2_distance(back.fields[-1], f0) <= 1e-8

    def test_linearity(self):
        h = bounded_hamiltonian()
        f = gaussian_packet(GRID, -1.0, 1.0, 0.4)
        g = gaussian_packet(GRID, 1.0, 1.2, -0.3, 0.0, 1.0)
        alpha, beta = 0.8 - 0.2j, 0.3 + 0.5j
        combo = SpinorField(
            GRID,
            alpha * f.comp1 + beta * g.comp1,
            alpha * f.comp2 + beta * g.comp2,
        )
        dt = 1 / 128
        lhs = step(combo, h, dt)
        f1, g1 = step(f, h, dt), step(g, h, dt)
        rhs1 = alpha * f1.comp1 + beta * g1.comp1
        rhs2 = alpha * f1.comp2 + beta * g1.comp2
        assert np.max(np.abs(lhs.comp1 - rhs1)) <= 1e-10
        assert np.max(np.abs(lhs.comp2 - rhs2)) <= 1e-10

    def test_energy_conserved_and_matches_ground_value(self):
        # matched Gaussian is the trap ground state: E = omega / 2
        omega = 0.2
        grid = GRID
        h = HamiltonianSpec(grid, 0.5 * omega**2 * grid.xs() ** 2, np.zeros((grid.n, 3)), 0.0)
        f0 = gaussian_packet(grid, 0.0, 1.0 / math.sqrt(2.0 * omega), 0.0)
        e0 = energy(f0, h)
        assert abs(e0 - omega / 2.0) <= 1e-9
        tl = evolve(f0, h, 2.0, 1 / 256, record_every=128)
        for field in tl.fields:
            assert abs(energy(field, h) - e0) <= 1e-10


class TestOperatorAction:
    def test_apply_hamiltonian_hermitian(self, rng):
        h = bounded_hamiltonian()
        f = SpinorField(GRID, rng.normal(size=512) + 1j * rng.normal(size=512), rng.normal(size=512))
        g = SpinorField(GRID, rng.normal(size=512), 1j * rng.normal(size=512))
        lhs = inner_product(f, apply_hamiltonian(g, h))
        rhs = np.conj(inner_product(g, apply_hamiltonian(f, h)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_conjugate_drives_the_conjugated_field(self, rng):
        xs = GRID.xs()
        b = np.zeros((GRID.n, 3))
        b[:, 1] = 0.9 * np.cos(2.0 * np.pi * xs / GRID.length)
        b[:, 2] = 0.4
        h = HamiltonianSpec(GRID, 0.3 * np.sin(2.0 * np.pi * xs / GRID.length), b, 1.3)
        f = SpinorField(GRID, rng.normal(size=512) + 1j * rng.normal(size=512), 1j * rng.normal(size=512))
        lhs = apply_hamiltonian(f.conjugate(), h.conjugate())
        rhs = apply_hamiltonian(f, h).conjugate()
        assert np.max(np.abs(lhs.comp1 - rhs.comp1)) <= 1e-12
        assert np.max(np.abs(lhs.comp2 - rhs.comp2)) <= 1e-12
        # sigma_y is the only imaginary Pauli matrix: without B_y, H* = H
        plain = bounded_hamiltonian().conjugate()
        assert np.array_equal(plain.field_b, bounded_hamiltonian().field_b)

    def test_plane_wave_kinetic_eigenvalue(self):
        f = plane_wave(GRID, 4)
        k = 2.0 * np.pi * 4 / GRID.length
        assert abs(energy(f, HamiltonianSpec.free(GRID)) - 0.5 * k * k) <= 1e-12


class TestGuards:
    def test_accuracy_guard_warns(self):
        h = HamiltonianSpec(GRID, np.full(512, 80.0), np.zeros((512, 3)), 0.0)
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.warns(RuntimeWarning, match="guard"):
            step(f, h, 1 / 64)

    def test_boundary_mass_monitor_stops_escape(self):
        f = gaussian_packet(GRID, 22.0, 1.0, 5.0)
        with pytest.raises(RuntimeError, match="boundary mass"):
            evolve(f, HamiltonianSpec.free(GRID), 2.0, 1 / 256, record_every=512)

    def test_step_rejects_nonpositive_dt(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        h = HamiltonianSpec.free(GRID)
        with pytest.raises(ValueError):
            step(f, h, 0.0)
        with pytest.raises(ValueError):
            step(f, h, -0.1)

    def test_evolve_sign_and_divisibility_rules(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        h = HamiltonianSpec.free(GRID)
        with pytest.raises(ValueError, match="share a sign"):
            evolve(f, h, 1.0, -1 / 64)
        with pytest.raises(ValueError, match="divide t_total"):
            evolve(f, h, 1.0, 0.3)
        with pytest.raises(ValueError, match="record_every"):
            evolve(f, h, 1.0, 1 / 64, record_every=7)
        with pytest.raises(ValueError, match="record_every"):
            evolve(f, h, 1.0, 1 / 64, record_every=-2)


@pytest.fixture(scope="module")
def timeline():
    f = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)
    return evolve(f, bounded_hamiltonian(), 1.0, 1 / 128, record_every=16)


class TestWaveTimeline:

    def test_uniform_times_and_final_record(self, timeline):
        assert timeline.times[0] == 0.0
        assert timeline.times[-1] == pytest.approx(1.0, abs=1e-12)
        gaps = np.diff(timeline.times)
        assert np.allclose(gaps, gaps[0], rtol=1e-12, atol=0.0)
        assert timeline.spacing == pytest.approx(16 / 128, abs=1e-15)

    def test_extend_requires_continuity(self, timeline):
        other = evolve(
            gaussian_packet(GRID, 0.0, 2.0, 0.0), bounded_hamiltonian(), 1.0, 1 / 128, 16
        )
        with pytest.raises(ValueError, match="final record"):
            timeline.extend(other)

    def test_extend_concatenates(self, timeline):
        cont = evolve(timeline.fields[-1], bounded_hamiltonian(), 0.5, 1 / 128, 16)
        joined = timeline.extend(cont)
        assert joined.duration == pytest.approx(1.5, abs=1e-12)
        assert len(joined.fields) == len(timeline.fields) + len(cont.fields) - 1
        assert np.array_equal(joined.fields[-1].comp1, cont.fields[-1].comp1)

    def test_time_reversed_evolves_back(self, timeline):
        rev = timeline.time_reversed()
        # conjugated final state evolved forward reproduces the start
        tl2 = evolve(rev.fields[0], bounded_hamiltonian(), 1.0, 1 / 128, 16)
        recovered = tl2.fields[-1].conjugate()
        assert l2_distance(recovered, timeline.fields[0]) <= 1e-8

    def test_evolve_records_its_generator(self, timeline):
        h = bounded_hamiltonian()
        f = timeline.fields[0]
        (sign, _, count), = timeline.generators
        assert (sign, count) == (1, len(timeline.times) - 1)
        back = evolve(f, h, -0.5, -1 / 128, 16)
        assert back.generators == ((-1, h, 4),)

    def test_extend_joins_and_time_reversed_conjugates_generators(self, timeline):
        xs = GRID.xs()
        b = np.zeros((GRID.n, 3))
        b[:, 1] = 0.5 * np.cos(2.0 * np.pi * xs / GRID.length)
        twisted = HamiltonianSpec(GRID, np.zeros(GRID.n), b, 1.0)
        (_, first, _), = timeline.generators
        tail = evolve(timeline.fields[-1], twisted, -0.25, -1 / 128, 16)
        joined = timeline.extend(tail)
        assert joined.generators == ((1, first, 8), (-1, twisted, 2))
        # runs of one generator object merge; those of another do not
        more = tail.extend(evolve(tail.fields[-1], twisted, -0.25, -1 / 128, 16))
        assert more.generators == ((-1, twisted, 4),)
        (sign_a, h_a, n_a), (sign_b, h_b, n_b) = joined.time_reversed().generators
        assert (sign_a, n_a, sign_b, n_b) == (-1, 2, 1, 8)
        assert np.array_equal(h_a.field_b[:, 1], -b[:, 1])
        assert np.array_equal(h_b.field_b, first.field_b)

    def test_generators_must_cover_the_records(self, timeline):
        (sign, h, count), = timeline.generators
        with pytest.raises(ValueError, match="every record interval"):
            WaveTimeline(timeline.times, timeline.fields, ((sign, h, count - 1),))
        with pytest.raises(ValueError, match="sign"):
            WaveTimeline(timeline.times, timeline.fields, ((0, h, count),))
        with pytest.raises(ValueError, match="interval"):
            WaveTimeline(timeline.times, timeline.fields, ((sign, h, 0), (sign, h, count)))

    def test_requires_two_records(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="two records"):
            WaveTimeline(np.array([0.0]), (f,), ())

    def test_rejects_nonuniform_spacing(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="uniform"):
            WaveTimeline(np.array([0.0, 1.0, 3.0]), (f, f, f), ((1, HamiltonianSpec.free(GRID), 2),))


class TestClosedForm:
    """evolve against the closed-form Stern-Gerlach wave in helpers."""

    def test_splitting_error_is_second_order(self):
        # Strang splitting: the L2 error at t = tau + t_drift falls by 4
        # per halving of dt (1.02e-5, 2.54e-6, 6.36e-7 measured); the free
        # drift adds none, the magnet window all of it
        setup, packet = SGSetup(), PacketSpec()
        a, b = 0.5, math.sqrt(0.75)
        errors = []
        for dt in (1 / 256, 1 / 512, 1 / 1024):
            numerics = SGNumerics(dt=dt, record_every=int(round(setup.tau / dt)))
            final = build_timeline(setup, a, b, packet, numerics).fields[-1]
            t = setup.tau + setup.t_drift
            errors.append(l2_distance(final, sg_field(setup, packet, a, b, final.grid, t)))
        assert errors[0] <= 1.1e-5
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(abs(order - 2.0) <= 0.05 for order in orders)
