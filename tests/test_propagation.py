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
from bohmlab.propagation import (
    _half_potential_factors, _hamiltonian_nodes, _hamiltonian_rows, _step_arrays,
)
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
    nodes = _hamiltonian_nodes(h)
    h_psi = _hamiltonian_rows(c, np.fft.ifft(nodes[0] * np.fft.fft(c)), nodes)
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


def twisted_hamiltonian():
    """A transverse B_y of order one and no V: another generator than bounded_hamiltonian."""
    xs = GRID.xs()
    b = np.zeros((GRID.n, 3))
    b[:, 1] = 0.5 * np.cos(2.0 * np.pi * xs / GRID.length)
    return HamiltonianSpec(GRID, np.zeros(GRID.n), b, 1.0)


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

    def test_a_coupling_past_float_range_is_refused_quietly(self):
        # mu |B| as the split step takes it, sqrt(sum(B^2)), overflows at
        # B_z = 1e308; no numpy warning is raised on the way
        field = np.zeros((512, 3))
        field[:, 2] = 1e308
        with pytest.raises(ValueError, match=r"coupling mu \|B\|"):
            HamiltonianSpec(GRID, np.zeros(512), field, -1.0)
        field[:, 2] = 1e150  # B^2 is finite, and so is mu |B|
        HamiltonianSpec(GRID, np.zeros(512), field, -1.0)

    def test_free_factory(self):
        h = HamiltonianSpec.free(GRID)
        assert not np.any(h.potential)
        assert not np.any(h.field_b)


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
        tl = evolve(f, [(HamiltonianSpec.free(GRID), 2.0)], 1 / 256, record_every=8)
        for t, field in zip(tl.times, tl.fields):
            _, _, width = moments(field)
            assert abs(width - free_width(1.0, float(t))) <= 1e-9

    def test_moving_packet_center(self):
        f = gaussian_packet(GRID, -3.0, 1.0, 1.5)
        tl = evolve(f, [(HamiltonianSpec.free(GRID), 2.0)], 1 / 256, record_every=128)
        _, center, _ = moments(tl.fields[-1])
        assert abs(center - (-3.0 + 1.5 * 2.0)) <= 1e-8


class TestExactFreeEvolution:
    """A free evolve against oracles that share no code with its exact path."""

    def test_records_are_the_closed_form_packet(self):
        # measured 8.9e-16
        packet = PacketSpec(center=-3.0, sigma=1.0, k=1.5)
        f0 = gaussian_packet(GRID, -3.0, 1.0, 1.5, 0.6, 0.8)
        tl = evolve(f0, [(HamiltonianSpec.free(GRID), 2.0)], 1 / 256, record_every=64)
        assert len(tl.fields) == 9
        for t, field in zip(tl.times, tl.fields):
            assert l2_distance(field, free_packet(packet, 0.6, 0.8, GRID, t)) <= 1e-13

    def test_records_match_the_split_steps(self):
        h = HamiltonianSpec.free(GRID)
        f0 = gaussian_packet(GRID, 1.0, 0.8, -2.0, 0.6, 0.8j)
        tl = evolve(f0, [(h, 0.5)], 1 / 128, record_every=16)
        f = f0
        for i in range(1, 65):
            f = split_step(f, h, 1 / 128)
            if i % 16 == 0:
                record = tl.fields[i // 16]
                assert np.max(np.abs(record.comp1 - f.comp1)) <= 1e-12
                assert np.max(np.abs(record.comp2 - f.comp2)) <= 1e-12

    def test_boundary_check_between_records_matches_the_split_steps(self):
        # The packet's edge mass crosses 1e-6 between two records.  A uniform
        # B_z only gives each component a phase, so its density is the free
        # one, but evolve takes Strang split steps on it.
        f0 = gaussian_packet(GRID, 15.0, 1.0, 4.0)
        b = np.zeros((GRID.n, 3))
        b[:, 2] = 0.5
        phase_only = HamiltonianSpec(GRID, np.zeros(GRID.n), b, 1.0)
        dt, record_every = 1 / 256, 256
        with pytest.raises(RuntimeError) as split:
            evolve(f0, [(phase_only, 4.0)], dt, record_every)
        with pytest.raises(RuntimeError) as exact:
            evolve(f0, [(HamiltonianSpec.free(GRID), 4.0)], dt, record_every)
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
        tl = evolve(gaussian_packet(GRID, 0.0, 1.0, 0.0), [(h, 1.0)], 1 / 64, record_every=64)
        f = tl.fields[-1]
        p_up = float(np.sum(np.abs(f.comp1) ** 2) * GRID.dx)
        assert abs(p_up - math.cos(0.9) ** 2) <= 1e-12

    def test_uniform_bz_only_adds_phase(self):
        b = np.zeros((512, 3))
        b[:, 2] = 1.3
        h = HamiltonianSpec(GRID, np.zeros(512), b, 1.0)
        f = gaussian_packet(GRID, 0.0, 1.0, 0.5)
        with_field = evolve(f, [(h, 1.0)], 1 / 128, record_every=128).fields[-1]
        free = evolve(f, [(HamiltonianSpec.free(GRID), 1.0)], 1 / 128, record_every=128).fields[-1]
        phase = np.exp(-1j * 1.3)
        assert np.max(np.abs(with_field.comp1 - phase * free.comp1)) <= 1e-12


class TestAccuracy:
    def test_strang_error_falls_fourth_fold_per_halving(self):
        h = bounded_hamiltonian()
        f0 = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)

        def final(dt):
            return evolve(f0, [(h, 0.5)], dt, record_every=int(round(0.5 / dt))).fields[-1]

        ref = final(1 / 1024)
        err_coarse = l2_distance(final(1 / 64), ref)
        err_fine = l2_distance(final(1 / 128), ref)
        assert 3.5 <= err_coarse / err_fine <= 4.5

    def test_norm_preserved_over_long_run(self):
        h = trap_hamiltonian()
        f0 = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)
        tl = evolve(f0, [(h, 1024 / 256)], 1 / 256, record_every=1024)
        assert abs(tl.fields[-1].norm() - 1.0) <= 1e-11

    def test_reversibility(self):
        # the Strang step is symmetric: a step of -dt undoes a step of dt
        h = bounded_hamiltonian()
        f0 = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)
        f = evolve(f0, [(h, 1.0)], 1 / 256, record_every=16).fields[-1]
        for _ in range(256):
            f = split_step(f, h, -1 / 256)
        assert l2_distance(f, f0) <= 1e-8

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
        tl = evolve(f0, [(h, 2.0)], 1 / 256, record_every=128)
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

    def test_plane_wave_kinetic_eigenvalue(self):
        f = plane_wave(GRID, 4)
        k = 2.0 * np.pi * 4 / GRID.length
        assert abs(energy(f, HamiltonianSpec.free(GRID)) - 0.5 * k * k) <= 1e-12


class TestGuards:
    def test_boundary_mass_monitor_stops_escape(self):
        f = gaussian_packet(GRID, 22.0, 1.0, 5.0)
        with pytest.raises(RuntimeError, match="boundary mass"):
            evolve(f, [(HamiltonianSpec.free(GRID), 2.0)], 1 / 256, record_every=512)
        # a packet already past the limit, 4 sigma from the outer 5%, is refused before any step
        with pytest.raises(RuntimeError, match=r"boundary mass 4\.874e-05 exceeds 1e-06 before evolution;"):
            evolve(gaussian_packet(GRID, 23.0, 1.0, 0.0), [(HamiltonianSpec.free(GRID), 2.0)], 1 / 256)

    def test_evolve_sign_and_divisibility_rules(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        h = HamiltonianSpec.free(GRID)
        for t_total, dt in ((1.0, 0.0), (1.0, -1 / 64), (-1.0, 1 / 64), (-1.0, -1 / 64)):
            with pytest.raises(ValueError, match="must be positive"):
                evolve(f, [(h, t_total)], dt)
        with pytest.raises(ValueError, match="divide duration"):
            evolve(f, [(h, 1.0)], 0.3)
        with pytest.raises(ValueError, match="record_every"):
            evolve(f, [(h, 1.0)], 1 / 64, record_every=7)
        with pytest.raises(ValueError, match="record_every"):
            evolve(f, [(h, 1.0)], 1 / 64, record_every=-2)
        for t_total, dt in ((1e308, 1 / 256), (1.0, 1e-320)):  # the step count overflows
            with pytest.raises(ValueError, match="not a finite step count"):
                evolve(f, [(h, t_total)], dt)


@pytest.fixture(scope="module")
def timeline():
    f = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)
    return evolve(f, [(bounded_hamiltonian(), 1.0)], 1 / 128, record_every=16)


class TestWaveTimeline:

    def test_uniform_times_and_final_record(self, timeline):
        assert timeline.times[0] == 0.0
        assert timeline.times[-1] == pytest.approx(1.0, abs=1e-12)
        gaps = np.diff(timeline.times)
        assert np.allclose(gaps, gaps[0], rtol=1e-12, atol=0.0)
        assert timeline.spacing == pytest.approx(16 / 128, abs=1e-15)

    def test_evolve_records_its_generator(self, timeline):
        h = bounded_hamiltonian()
        (_, count), = timeline.generators
        assert count == len(timeline.times) - 1
        assert evolve(timeline.fields[0], [(h, 0.5)], 1 / 128, 16).generators == ((h, 4),)

    def test_windows_record_one_run_each(self, timeline):
        h, twisted = bounded_hamiltonian(), twisted_hamiltonian()
        joined = evolve(timeline.fields[0], [(h, 1.0), (twisted, 0.25), (twisted, 0.25)], 1 / 128, 16)
        # one run per window, even of one generator object
        assert joined.generators == ((h, 8), (twisted, 2), (twisted, 2))
        # records at start + i dt, start being the last record of the window before
        dt = 1 / 128
        expected = [i * dt for i in range(0, 129, 16)]
        for start in (1.0, 1.25):
            expected += [start + i * dt for i in (16, 32)]
        assert joined.times.tolist() == expected

    def test_windows_continue_from_the_last_record(self, timeline):
        twisted = twisted_hamiltonian()
        tail = evolve(timeline.fields[-1], [(twisted, 0.5)], 1 / 128, 16)
        joined = evolve(timeline.fields[0], [(bounded_hamiltonian(), 1.0), (twisted, 0.5)], 1 / 128, 16)
        parts = timeline.fields + tail.fields[1:]
        assert len(joined.fields) == len(parts)
        for got, want in zip(joined.fields, parts):
            assert np.array_equal(got.comp1, want.comp1) and np.array_equal(got.comp2, want.comp2)
        bm = np.concatenate([timeline.boundary_mass, tail.boundary_mass[1:]])
        assert np.array_equal(joined.boundary_mass, bm)
        assert joined.times[-1] == pytest.approx(1.5, abs=1e-12)

    def test_evolve_refuses_no_window_and_another_grid(self, timeline):
        with pytest.raises(ValueError, match="at least one"):
            evolve(timeline.fields[0], [], 1 / 128, 16)
        elsewhere = HamiltonianSpec.free(make_grid(256, -30.0, 30.0))
        with pytest.raises(ValueError, match="different grids"):
            evolve(timeline.fields[0], [(bounded_hamiltonian(), 1.0), (elsewhere, 1.0)], 1 / 128, 16)

    def test_generators_must_cover_the_records(self, timeline):
        (h, count), = timeline.generators
        with pytest.raises(ValueError, match="every record interval"):
            WaveTimeline(timeline.times, timeline.fields, ((h, count - 1),))
        elsewhere = HamiltonianSpec.free(make_grid(256, -30.0, 30.0))
        with pytest.raises(ValueError, match="grid"):
            WaveTimeline(timeline.times, timeline.fields, ((elsewhere, count),))
        with pytest.raises(ValueError, match="interval"):
            WaveTimeline(timeline.times, timeline.fields, ((h, 0), (h, count)))

    @pytest.mark.parametrize("times, fields, boundary_mass, message", [
        pytest.param([0.0, 0.5], 1, None, "times and fields must have equal length", id="lengths"),
        pytest.param([0.5, 0.0], 2, None, "record times must be strictly increasing", id="increasing"),
        pytest.param([0.0, 0.5], "two grids", None, "all records must share one grid", id="one-grid"),
        pytest.param([0.0, 0.5], 2, [0.0], "boundary_mass must match times in length", id="masses"),
    ])
    def test_refuses_malformed_records(self, times, fields, boundary_mass, message):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        if fields == "two grids":
            fields = (f, gaussian_packet(make_grid(256, -30.0, 30.0), 0.0, 1.0, 0.0))
        else:
            fields = (f,) * fields
        with pytest.raises(ValueError, match=f"^{message}$"):
            WaveTimeline(np.array(times), fields, ((HamiltonianSpec.free(GRID), 1),), boundary_mass)

    def test_requires_two_records(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="two records"):
            WaveTimeline(np.array([0.0]), (f,), ())

    def test_rejects_nonuniform_spacing(self):
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="uniform"):
            WaveTimeline(np.array([0.0, 1.0, 3.0]), (f, f, f), ((HamiltonianSpec.free(GRID), 2),))


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
