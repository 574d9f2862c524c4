"""Spinor propagator, exact when free and split-step otherwise, and its guard rails."""

import math
import re

import numpy as np
import pytest

from bohmlab import (
    HamiltonianSpec,
    PacketSpec,
    SGNumerics,
    SGSetup,
    SpinorField,
    WaveTimeline,
    build_timeline,
    evolve,
    gaussian_packet,
    make_grid,
)
from bohmlab.propagation import _half_potential_factors, _hamiltonian_rows, _step_arrays
from helpers import (
    free_packet, free_width, inner_product, l2_distance, moments, plane_wave, sg_field,
)

GRID = make_grid(512, -30.0, 30.0)


def split_step(psi, h, dt):
    """One Strang step of evolve's kernel."""
    k = h.grid.wavenumbers()
    pot = _half_potential_factors(h, dt)
    c1, c2 = _step_arrays(psi.comp1, psi.comp2, np.exp(-0.5j * dt * k * k), pot)
    return SpinorField(psi.grid, c1, c2)


def apply_h(psi, h):
    """H psi by the kernel that gives the flow tables their time derivatives."""
    c = np.stack((psi.comp1, psi.comp2))
    h_psi = _hamiltonian_rows(c, np.fft.fft(c), h)
    return SpinorField(psi.grid, h_psi[0], h_psi[1])


def energy(psi, h):
    return inner_product(psi, apply_h(psi, h)).real


def bounded_hamiltonian(grid=GRID, mu=1.0):
    """Smooth periodic V and B of order one."""
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
        assert not np.any(h.potential)
        assert np.all(h.field_magnitude() == 0.0)


class TestFreeEvolution:
    def test_plane_wave_picks_up_kinetic_phase(self):
        # kinetic eigenstate: one splitting step is exact; evolve() would
        # refuse the uniform density at the domain edge
        f = plane_wave(GRID, 3)
        k = 2.0 * np.pi * 3 / GRID.length
        h = HamiltonianSpec.free(GRID)
        dt = 1 / 64
        for _ in range(8):
            f = split_step(f, h, dt)
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


class TestExactFreeEvolution:
    """A free evolve against oracles that share no code with its exact path."""

    def test_records_are_the_closed_form_packet(self):
        # measured 8.9e-16 forward and 1.0e-15 backward
        packet = PacketSpec(center=-3.0, sigma=1.0, k=1.5)
        f0 = gaussian_packet(GRID, -3.0, 1.0, 1.5, 0.6, 0.8)
        tl = evolve(f0, HamiltonianSpec.free(GRID), 2.0, 1 / 256, record_every=64)
        assert len(tl.fields) == 9
        for t, field in zip(tl.times, tl.fields):
            assert l2_distance(field, free_packet(packet, 0.6, 0.8, GRID, t)) <= 1e-13

    def test_records_match_the_split_steps(self):
        h = HamiltonianSpec.free(GRID)
        f0 = gaussian_packet(GRID, 1.0, 0.8, -2.0, 0.6, 0.8j)
        tl = evolve(f0, h, 0.5, 1 / 128, record_every=16)
        f = f0
        for i in range(1, 65):
            f = split_step(f, h, 1 / 128)
            if i % 16 == 0:
                record = tl.fields[i // 16]
                assert np.max(np.abs(record.comp1 - f.comp1)) <= 1e-12
                assert np.max(np.abs(record.comp2 - f.comp2)) <= 1e-12

    def test_backward_run(self):
        h = HamiltonianSpec.free(GRID)
        packet = PacketSpec(center=2.0, sigma=0.7, k=-1.0)
        f0 = gaussian_packet(GRID, 2.0, 0.7, -1.0, 0.6, 0.8j)
        back = evolve(f0, h, -1.0, -1 / 128, record_every=32)
        assert back.generators == ((-1, h, 4),)
        assert np.array_equal(back.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        for s, field in zip(back.times, back.fields):
            assert l2_distance(field, free_packet(packet, 0.6, 0.8j, GRID, -s)) <= 1e-13

    @pytest.mark.parametrize("sign", [1, -1])
    def test_boundary_check_between_records_matches_the_split_steps(self, sign):
        # The packet's edge mass crosses 1e-6 between two records.  A uniform
        # B_z only gives each component a phase, so its density is the free
        # one, but evolve takes Strang split steps on it.
        f0 = gaussian_packet(GRID, 15.0 * sign, 1.0, 4.0)
        b = np.zeros((GRID.n, 3))
        b[:, 2] = 0.5
        phase_only = HamiltonianSpec(GRID, np.zeros(GRID.n), b, 1.0)
        dt, record_every = sign / 256, 256
        with pytest.raises(RuntimeError) as split:
            evolve(f0, phase_only, 4.0 * sign, dt, record_every)
        with pytest.raises(RuntimeError) as exact:
            evolve(f0, HamiltonianSpec.free(GRID), 4.0 * sign, dt, record_every)
        assert str(exact.value) == str(split.value)
        t = float(re.search(r"at t = (\S+);", str(exact.value)).group(1))
        step = round(t / dt)
        assert abs(step * dt - t) <= 1e-5 and step % record_every != 0


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
        lhs = split_step(combo, h, dt)
        f1, g1 = split_step(f, h, dt), split_step(g, h, dt)
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
        lhs = inner_product(f, apply_h(g, h))
        rhs = np.conj(inner_product(g, apply_h(f, h)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_conjugate_drives_the_conjugated_field(self, rng):
        xs = GRID.xs()
        b = np.zeros((GRID.n, 3))
        b[:, 1] = 0.9 * np.cos(2.0 * np.pi * xs / GRID.length)
        b[:, 2] = 0.4
        h = HamiltonianSpec(GRID, 0.3 * np.sin(2.0 * np.pi * xs / GRID.length), b, 1.3)
        f = SpinorField(GRID, rng.normal(size=512) + 1j * rng.normal(size=512), 1j * rng.normal(size=512))
        lhs = apply_h(f.conjugate(), h.conjugate())
        rhs = apply_h(f, h).conjugate()
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
    def test_boundary_mass_monitor_stops_escape(self):
        f = gaussian_packet(GRID, 22.0, 1.0, 5.0)
        with pytest.raises(RuntimeError, match="boundary mass"):
            evolve(f, HamiltonianSpec.free(GRID), 2.0, 1 / 256, record_every=512)

    def test_evolve_sign_and_divisibility_rules(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        h = HamiltonianSpec.free(GRID)
        with pytest.raises(ValueError, match="nonzero"):
            evolve(f, h, 1.0, 0.0)
        with pytest.raises(ValueError, match="share a sign"):
            evolve(f, h, 1.0, -1 / 64)
        with pytest.raises(ValueError, match="divide t_total"):
            evolve(f, h, 1.0, 0.3)
        with pytest.raises(ValueError, match="record_every"):
            evolve(f, h, 1.0, 1 / 64, record_every=7)
        with pytest.raises(ValueError, match="record_every"):
            evolve(f, h, 1.0, 1 / 64, record_every=-2)
        for t_total, dt in ((1e308, 1 / 256), (1.0, 1e-320)):  # the step count overflows
            with pytest.raises(ValueError, match="not a finite step count"):
                evolve(f, h, t_total, dt)


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
        # Each component obeys p^2/2 + g x + v0, whose nested commutators
        # are constants, so a Strang step errs by a phase alone: g^2 dt^3/24
        # per step, g^2 tau dt^2/24 over the window, on both components
        # alike.  The drift is exact and keeps it.  Aligned by that one
        # phase, each record matches to rounding (1.1e-13 at worst measured).
        setup, packet = SGSetup(), PacketSpec()
        a, b = 0.5, math.sqrt(0.75)
        g = setup.mu * setup.b_grad
        for dt in (1 / 32, 1 / 256, 1 / 512, 1 / 1024):
            numerics = SGNumerics(dt=dt, record_every=int(round(setup.tau / dt)))
            timeline = build_timeline(setup, a, b, packet, numerics)
            assert timeline.times[1] == setup.tau
            assert timeline.times[-1] == setup.tau + setup.t_drift
            for t, field in zip(timeline.times[1::2], timeline.fields[1::2]):
                exact = sg_field(setup, packet, a, b, field.grid, float(t))
                phase = np.angle(inner_product(exact, field))
                # rounding floor of the fitted phase: 1.6e-15 measured
                assert abs(phase - g * g * setup.tau * dt * dt / 24) <= 1e-14
                turn = np.exp(-1j * phase)
                aligned = SpinorField(field.grid, field.comp1 * turn, field.comp2 * turn)
                assert l2_distance(aligned, exact) <= 1e-12
