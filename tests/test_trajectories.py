"""Guiding-equation integration: velocity field, flow, and equivariance."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from bohmlab import (
    HamiltonianSpec,
    PacketSpec,
    SGNumerics,
    SGSetup,
    SpinorField,
    build_timeline,
    evolve,
    gaussian_packet,
    integrate_ensemble,
    ks_distance,
    make_grid,
    sample,
    velocity,
)
from bohmlab import trajectories
from bohmlab.propagation import _hamiltonian_nodes
from helpers import flow_map, free_velocity, lagrange_flow, lagrange_velocity, plane_wave

GRID = make_grid(512, -30.0, 30.0)
SQ2 = 1.0 / np.sqrt(2.0)
NYQUIST_CAP = 0.5 * np.pi / GRID.dx
# RK4 substep on free_timeline: a quarter of its record spacing, 16 / 256
DT_TRAJ = 1 / 64


@pytest.fixture(scope="module")
def free_timeline():
    f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
    return evolve(f, [(HamiltonianSpec.free(GRID), 1.0)], 1 / 256, record_every=16)


def transported_ks(timeline, q0):
    """KS distance of q0, transported along timeline, from its final density."""
    return ks_distance(integrate_ensemble(timeline, q0, DT_TRAJ).q_final, timeline.fields[-1])


class TestVelocity:
    def test_plane_wave_moves_at_its_wavenumber(self):
        f = plane_wave(GRID, 3)
        k = 2.0 * np.pi * 3 / GRID.length
        qs = np.array([-12.3, 0.0, 0.17, 25.0])
        assert np.max(np.abs(velocity(f, qs) - k)) <= 1e-8

    def test_cap_at_grid_resolvable_speed(self):
        f = plane_wave(GRID, 200)
        k = 2.0 * np.pi * 200 / GRID.length
        assert k > NYQUIST_CAP
        assert velocity(f, 0.0) == pytest.approx(NYQUIST_CAP, abs=1e-9)

    def test_real_field_is_static(self):
        f = gaussian_packet(GRID, 0.0, 2.0, 0.0)
        qs = np.linspace(-5.0, 5.0, 11)
        assert np.max(np.abs(velocity(f, qs))) <= 1e-12

    def test_spreading_gaussian_outflow(self, free_timeline):
        f_t = free_timeline.fields[-1]
        qs = np.linspace(-2.0, 2.0, 9)
        expected = free_velocity(qs, 1.0, 1.0)
        assert np.max(np.abs(velocity(f_t, qs) - expected)) <= 1e-5

    def test_scalar_in_scalar_out(self, free_timeline):
        v = velocity(free_timeline.fields[-1], 0.5)
        assert isinstance(v, float)


def assert_matches_oracle(field, qs):
    got = velocity(field, qs)
    ref = lagrange_velocity(field, qs)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def packet(center, sigma, k):
    x = GRID.xs()
    return np.exp(-(((x - center) / sigma) ** 2) / 4.0 + 1j * k * x)


class TestVelocityOracle:
    """velocity() against the node-by-node Lagrange reference in helpers."""

    def test_random_positions(self):
        up = packet(-2.0, 1.5, 1.3) + 0.6 * packet(3.0, 1.0, -2.0)
        f = SpinorField(GRID, up, 0.8 * packet(0.0, 2.0, 0.5))
        qs = np.random.default_rng(3).uniform(-8.0, 8.0, 500)
        assert_matches_oracle(f, qs)

    def test_wrap_cells(self):
        x = GRID.xs()
        k = 2.0 * np.pi / GRID.length
        up = np.exp(3j * k * x) + 0.5 * np.exp(-5j * k * x)
        f = SpinorField(GRID, up, 0.3 * np.exp(7j * k * x))
        rng = np.random.default_rng(4)
        qs = np.concatenate([
            GRID.x_min + GRID.dx * rng.random(20),
            GRID.x_max - 2.0 * GRID.dx * (1.0 - rng.random(20)),
            [GRID.x_min, GRID.x_max - 2.0 * GRID.dx],
        ])
        assert_matches_oracle(f, qs)

    def test_density_floor(self):
        # the wave vanishes on every node below j0; in the cell starting at
        # x[j0 - 2] the interpolated density is negative, so the floor sets v
        j0 = 300
        x = GRID.xs()
        up = np.where(np.arange(GRID.n) >= j0, packet(x[j0] + 1.0, 1.0, 2.0), 0.0)
        f = SpinorField(GRID, up, np.zeros(GRID.n))
        qs = x[j0 - 2] + GRID.dx * np.array([1e-11, 2e-11, 3e-11])
        num_q, den_q, eps, vmax = lagrange_flow(f, qs)
        assert np.all(den_q < eps) and np.all(np.abs(num_q / eps) < vmax)
        assert_matches_oracle(f, qs)
        inside_node = x[j0 - 20] + 0.3 * GRID.dx
        assert velocity(f, inside_node) == 0.0 == lagrange_velocity(f, inside_node)[0]

    def test_speed_cap(self):
        f = plane_wave(GRID, 200)
        qs = np.array([-12.3, 0.0, 0.17, 25.0])
        assert np.all(lagrange_velocity(f, qs) == NYQUIST_CAP)
        assert_matches_oracle(f, qs)


class TestFlow:
    def test_trajectory_rides_the_width_profile(self, free_timeline):
        # self-similar spreading: Q(t)/q0 = sigma(t)/sigma(0)
        q0 = np.array([-2.0, -0.7, 0.4, 1.5])
        paths = integrate_ensemble(free_timeline, q0, DT_TRAJ)
        expected = q0 * np.sqrt(1.25)
        assert np.max(np.abs(paths.q_final - expected)) <= 1e-3

    def test_substep_refinement_already_converged(self, free_timeline):
        q0 = np.linspace(-2.0, 2.0, 7)
        coarse = integrate_ensemble(free_timeline, q0, DT_TRAJ)
        fine = integrate_ensemble(free_timeline, q0, dt_traj=free_timeline.spacing / 32.0)
        assert np.max(np.abs(coarse.q_final - fine.q_final)) <= 1e-8

    def test_order_preserved(self, free_timeline):
        q0 = np.sort(np.linspace(-3.0, 3.0, 41))
        paths = integrate_ensemble(free_timeline, q0, DT_TRAJ)
        assert np.all(np.diff(paths.q_final) > -1e-9)

    def test_stationary_state_has_frozen_particles(self):
        # real ground-state profile, so the phase is spatially flat
        omega = 0.2
        h = HamiltonianSpec(
            GRID, 0.5 * omega**2 * GRID.xs() ** 2, np.zeros((GRID.n, 3)), 0.0
        )
        f0 = gaussian_packet(GRID, 0.0, 1.0 / np.sqrt(2.0 * omega), 0.0)
        tl = evolve(f0, [(h, 1.0)], 1 / 256, record_every=32)
        q0 = np.array([-2.5, -1.0, 0.5, 3.0])
        paths = integrate_ensemble(tl, q0, tl.spacing / 4)
        assert np.max(np.abs(paths.q_final - q0)) <= 1e-7

    def test_history_shape_and_opt_out(self, free_timeline, forks):
        q0 = np.linspace(-1.0, 1.0, 48)
        for threads, forked in ((1, 0), (3, 4)):
            kept = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True, threads=threads)
            assert kept.positions.shape == (len(kept.times), 48)
            assert np.array_equal(kept.positions[0], q0)
            assert np.array_equal(kept.positions[-1], kept.q_final)
            flat = integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=threads)
            assert flat.positions is None
            assert len(forks) == forked
            # the outputs are read-only, and the caller's q0 is neither
            # written nor shared with them
            for out in (kept.q0, kept.q_final, kept.positions, flat.q0, flat.q_final):
                assert not out.flags.writeable
                assert not np.shares_memory(out, q0)
        assert q0.flags.writeable
        assert np.array_equal(q0, np.linspace(-1.0, 1.0, 48))


class TestMemory:
    def test_peak_does_not_grow_with_the_record_count(self):
        # the flow tables are built one record interval at a time, so 65
        # records must peak no higher than 9; holding a table for every
        # record end (16 KiB each at n = 512) would add 896 KiB here
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        q0 = np.linspace(-2.0, 2.0, 256)
        timelines = {
            every: evolve(f, [(HamiltonianSpec.free(GRID), 0.25)], 1 / 256, record_every=every)
            for every in (1, 8)
        }
        integrate_ensemble(timelines[8], q0, 1 / 256)  # numpy's first-call allocations
        peaks = {}
        for every, timeline in timelines.items():
            tracemalloc.start()
            try:
                integrate_ensemble(timeline, q0, 1 / 256)
                peaks[every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[8] + 16 * 1024, peaks

    def test_history_costs_its_rows_and_nothing_else(self, free_timeline):
        # the history is the RK4 state, so keeping it adds the rows beyond
        # the start and two state rows that every run holds, with at most
        # one row to spare; a separate state and final row would exceed that
        n = 4096
        q0 = np.linspace(-3.0, 3.0, n)
        integrate_ensemble(free_timeline, q0, DT_TRAJ)  # numpy's first-call allocations
        peaks = {}
        for keep in (False, True):
            tracemalloc.start()
            try:
                rows = len(integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=keep).times)
                peaks[keep] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert rows == 65
        assert peaks[True] - peaks[False] <= (rows - 3) * n * 8 + n * 8, peaks

    def test_one_worker_builds_each_flow_end_once(self, free_timeline, monkeypatch):
        # a worker steps all tiles of its block with one flow, so 20k
        # particles in 5 tiles build the tables of each record end as often
        # as one particle
        monkeypatch.setattr(trajectories, "TILE", 4096)
        built = []
        flow_ends = trajectories._flow_ends

        def counted(fields, h, ik):
            built.append(len(fields))
            return flow_ends(fields, h, ik)

        monkeypatch.setattr(trajectories, "_flow_ends", counted)
        counts = []
        for n in (1, 20_000):
            built.clear()
            integrate_ensemble(free_timeline, np.linspace(-3.0, 3.0, n), DT_TRAJ, threads=1)
            counts.append(sum(built))
        assert counts == [len(free_timeline.fields)] * 2


@pytest.fixture
def forks(monkeypatch):
    """Pids of the transport's forked workers, with splitting made cheap.

    Small ensembles split (MIN_PER_WORKER = 16) into up to 4 workers
    whatever the machine's CPU count.
    """
    monkeypatch.setattr(trajectories, "MIN_PER_WORKER", 16)
    monkeypatch.setattr(trajectories, "_usable_cpus", lambda: 4)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDeterminism:
    def test_bitwise_repeatable(self, free_timeline):
        q0 = sample(free_timeline.fields[0], 64, seed=7)
        a = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True)
        b = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True)
        assert np.array_equal(a.positions, b.positions)

    def test_membership_independent(self, free_timeline):
        q0 = np.array([-1.2, 0.4, 1.7])
        full = integrate_ensemble(free_timeline, q0, DT_TRAJ)
        solo = integrate_ensemble(free_timeline, [0.4], DT_TRAJ)
        assert full.q_final[1] == solo.q_final[0]

    def test_thread_count_invisible(self, free_timeline, forks):
        q0 = sample(free_timeline.fields[0], 257, seed=11)
        one = integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=1)
        assert forks == []
        assert trajectories._workers(257, 4) == 4
        four = integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=4)
        assert len(forks) == 3
        assert np.array_equal(one.q_final, four.q_final)

    def test_uneven_shares_invisible(self, free_timeline, forks):
        q0 = sample(free_timeline.fields[0], 203, seed=12)  # 203 does not split evenly
        assert trajectories._workers(203, 3) == 3
        split = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True, threads=3)
        assert len(forks) == 2
        whole = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True, threads=1)
        assert np.array_equal(split.positions, whole.positions)
        assert np.array_equal(split.q_final, whole.q_final)

    @pytest.mark.parametrize("keep_history", [False, True])
    def test_tiles_invisible(self, free_timeline, forks, monkeypatch, keep_history):
        q0 = sample(free_timeline.fields[0], 203, seed=12)
        whole = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=keep_history)
        sizes = []

        class Counted(trajectories._Workspace):
            def __init__(self, m):
                sizes.append(m)
                super().__init__(m)

        monkeypatch.setattr(trajectories, "_Workspace", Counted)
        monkeypatch.setattr(trajectories, "TILE", 16)
        for threads, forked, tiles in ((1, 0, 13), (3, 2, 5)):  # 203; 67 of 67/68/68
            sizes.clear()
            tiled = integrate_ensemble(
                free_timeline, q0, DT_TRAJ, keep_history=keep_history, threads=threads
            )
            assert len(forks) == forked
            assert len(sizes) == tiles and max(sizes) <= 16
            for name in ("q0", "q_final", "positions"):
                a, b = getattr(tiled, name), getattr(whole, name)
                assert a is b is None or a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("n_steps", [17, 18])
    def test_final_row_is_the_last_written(self, free_timeline, n_steps):
        # without history two rows take turns; the step count's parity
        # picks the one that holds q_final
        q0 = sample(free_timeline.fields[0], 50, seed=14)
        kept = integrate_ensemble(free_timeline, q0, 1.0 / n_steps, keep_history=True)
        flat = integrate_ensemble(free_timeline, q0, 1.0 / n_steps)
        assert len(kept.times) == n_steps + 1
        assert flat.q_final.tobytes() == kept.positions[-1].tobytes()
        assert not np.array_equal(flat.q_final, kept.positions[-2])

    def test_workers_never_outnumber_cpus(self, forks, monkeypatch):
        monkeypatch.setattr(trajectories, "_usable_cpus", lambda: 2)
        assert trajectories._workers(257, 4) == 2

    def test_failing_worker_fails_the_call(self, free_timeline, forks, monkeypatch):
        parent = os.getpid()

        class ChildFault(trajectories._Flow):
            def at(self, t):
                if os.getpid() != parent:
                    raise FloatingPointError("worker fault")
                super().at(t)

        monkeypatch.setattr(trajectories, "_Flow", ChildFault)
        q0 = sample(free_timeline.fields[0], 100, seed=13)
        with pytest.raises(RuntimeError, match=r"exit codes \[1, 1\]"):
            integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=3)
        assert len(forks) == 2
        assert_no_children()

    def test_failing_caller_reaps_its_workers(self, free_timeline, forks, monkeypatch):
        parent = os.getpid()

        class ParentFault(trajectories._Flow):
            def at(self, t):
                if os.getpid() == parent:
                    raise FloatingPointError("caller fault")
                super().at(t)

        monkeypatch.setattr(trajectories, "_Flow", ParentFault)
        q0 = sample(free_timeline.fields[0], 100, seed=13)
        with pytest.raises(FloatingPointError, match="caller fault"):
            integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=3)
        assert len(forks) == 2
        assert_no_children()

    def test_live_thread_means_one_worker(self, free_timeline, forks):
        q0 = sample(free_timeline.fields[0], 257, seed=11)
        one = integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=1)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30.0,))
        other.start()
        try:
            assert trajectories._workers(257, 4) == 1
            four = integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=4)
        finally:
            release.set()
            other.join(timeout=30.0)
        assert not other.is_alive()
        assert forks == []
        assert np.array_equal(one.q_final, four.q_final)

    def test_small_ensembles_use_one_worker(self, monkeypatch):
        monkeypatch.setattr(trajectories, "_usable_cpus", lambda: 2)
        assert trajectories._workers(trajectories.MIN_PER_WORKER * 2 - 1, 2) == 1
        assert trajectories._workers(trajectories.MIN_PER_WORKER * 2, 2) == 2


class TestGatherReuse:
    """An evaluation at a repeated stage time re-gathers moved particles only."""

    def test_reuse_is_bit_identical_to_fresh_gathers(self, free_timeline, monkeypatch):
        # one RK4 step per record interval spaces the stages widely enough
        # that some particles change cell between two same-time evaluations
        q0 = sample(free_timeline.fields[0], 400, seed=7)

        def run():
            return integrate_ensemble(
                free_timeline, q0, dt_traj=free_timeline.spacing, keep_history=True
            )

        moved = []
        regather = trajectories._regather

        def counted(coef, work):
            moved.append(int(np.count_nonzero(work.moved)))
            regather(coef, work)

        monkeypatch.setattr(trajectories, "_regather", counted)
        reused = run()
        assert sum(moved) > 0

        interp_quotient = trajectories._interp_quotient

        def fresh_gathers(coef, eps, grid, q, vmax, work, reuse=False):
            return interp_quotient(coef, eps, grid, q, vmax, work)  # gather anew every time

        monkeypatch.setattr(trajectories, "_interp_quotient", fresh_gathers)
        moved.clear()
        fresh = run()
        assert moved == []
        assert reused.positions.tobytes() == fresh.positions.tobytes()

    def test_every_repeated_stage_time_reuses(self, monkeypatch):
        # dt = 0.01 is not a power of two: k4's time must still equal the
        # next step's k1 time bit for bit
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        timeline = evolve(f, [(HamiltonianSpec.free(GRID), 1.0)], 0.01, record_every=5)
        reuses = []
        real = trajectories._interp_quotient

        def counted(coef, eps, grid, q, vmax, work, reuse=False):
            reuses.append(reuse)
            return real(coef, eps, grid, q, vmax, work, reuse)

        monkeypatch.setattr(trajectories, "_interp_quotient", counted)
        paths = integrate_ensemble(timeline, np.linspace(-2.0, 2.0, 100), timeline.spacing / 4)
        n_steps = len(paths.times) - 1
        assert len(reuses) == 4 * n_steps
        # k3 repeats k2's time in every step, k1 repeats k4's in all but the first
        assert sum(reuses) == 2 * n_steps - 1

    def test_one_blend_per_stage_time(self, free_timeline, monkeypatch):
        # times[0], then t + h/2 and t + h in each step: a worker blends
        # 2 n_steps + 1 times, whatever its tiles, and never more
        monkeypatch.setattr(trajectories, "TILE", 16)
        blends = []

        class Counted(trajectories._Flow):
            def at(self, t):
                blends.append(t)
                super().at(t)

        monkeypatch.setattr(trajectories, "_Flow", Counted)
        paths = integrate_ensemble(free_timeline, np.linspace(-2.0, 2.0, 40), DT_TRAJ, threads=1)
        n_steps = len(paths.times) - 1
        assert len(blends) == 2 * n_steps + 1
        assert blends[0] == paths.times[0] and blends[2::2] == list(paths.times[1:])


@pytest.fixture(scope="module")
def driven():
    """A packet under V and all three field components, and its Hamiltonian."""
    grid = make_grid(256, -20.0, 20.0)
    xs = grid.xs()
    b = np.zeros((grid.n, 3))
    b[:, 0] = 0.7
    b[:, 1] = 0.9 * np.cos(2.0 * np.pi * xs / grid.length)
    b[:, 2] = 1.1 * np.sin(2.0 * np.pi * xs / grid.length)
    h = HamiltonianSpec(grid, 0.02 * xs**2, b, 1.0)
    return gaussian_packet(grid, 0.5, 1.0, 1.5, 0.6, 0.8j), h


class TestTimeDerivatives:
    """The Hermite blend's rates."""

    def test_rates_are_the_time_derivatives_of_the_values(self, driven):
        # centered differences over records dt apart agree to O(dt^2)
        # (~5e-6 of the largest rate); psi_t of the wrong sign misses by 2
        f, h = driven
        dt = 1 / 512
        timeline = evolve(f, [(h, 0.25)], dt)
        tables = trajectories._flow_ends(timeline.fields, _hamiltonian_nodes(h), 1j * h.grid.wavenumbers())
        values, rates = tables[:, 0], tables[:, 1]
        centered = (values[2:] - values[:-2]) / (2.0 * dt)
        scale = np.max(np.abs(rates), axis=(0, 1))
        assert np.all(np.max(np.abs(centered - rates[1:-1]), axis=(0, 1)) <= 1e-4 * scale)

    def test_magnet_switch_off_gets_one_sided_rates(self):
        numerics = SGNumerics()
        timeline = build_timeline(SGSetup(), SQ2, SQ2, PacketSpec(), numerics)
        switch = int(round(SGSetup().tau / timeline.spacing))  # the record at tau
        flow = trajectories._Flow(timeline)
        flow._enter(switch - 1)
        magnet_end = flow.cells[2:]
        flow._enter(switch)
        # both ends at tau hold the record's values, with the magnet's and
        # the drift's rates
        assert np.array_equal(magnet_end[0], flow.cells[0])
        assert not np.allclose(magnet_end[1], flow.cells[1])

    def test_streamed_ends_equal_a_fresh_build(self):
        # walking the intervals in order reuses each first end from the
        # interval before; it must equal building both ends anew
        timeline = build_timeline(SGSetup(), SQ2, SQ2, PacketSpec(), SGNumerics())
        flow = trajectories._Flow(timeline)
        for r in range(len(timeline.fields) - 1):
            flow._enter(r)
            fresh = trajectories._Flow(timeline)
            fresh._enter(r)
            assert all(np.array_equal(a, b) for a, b in zip(flow.cells, fresh.cells, strict=True))


class TestFlowMap:
    """The transport against the flow map q_T = F_T^-1(F_0(q_0)) in
    helpers, which shares no code with it: no cubic, blend or RK4.

    Each bound is about twice the error measured on 400 particles (seed
    3).  A velocity sign flipped on |q| in [0.95, 1.05] misses every one
    by 0.2 or more; the earlier linear time blend misses by 9e-5 (driven)
    to 2.4e-2 (Stern-Gerlach).
    """

    @staticmethod
    def miss(timeline, dt_traj):
        q0 = sample(timeline.fields[0], 400, seed=3)
        q_final = integrate_ensemble(timeline, q0, dt_traj).q_final
        return np.max(np.abs(q_final - flow_map(timeline, q0)))

    def test_free_timeline(self, free_timeline):
        assert self.miss(free_timeline, DT_TRAJ) <= 3e-5  # measured 1.5e-5

    def test_stern_gerlach_unequal_weights(self):
        numerics = SGNumerics()
        timeline = build_timeline(SGSetup(), 0.5, np.sqrt(0.75), PacketSpec(), numerics)
        assert self.miss(timeline, numerics.dt_traj) <= 4e-4  # measured 1.8e-4

    def test_driven_timeline(self, driven):
        # no closed form: V + B_x,y,z, 8 record intervals of 16 steps
        f, h = driven
        timeline = evolve(f, [(h, 0.25)], 1 / 512, record_every=16)
        assert self.miss(timeline, timeline.spacing / 2) <= 7e-6  # measured 3.6e-6


class TestEquivariance:
    def test_transported_samples_match_final_density(self, free_timeline):
        q0 = sample(free_timeline.fields[0], 4000, seed=100)
        assert transported_ks(free_timeline, q0) < 1.63 / np.sqrt(4000)

    def test_mismatch_shrinks_with_ensemble_size(self, free_timeline):
        small, large = [], []
        for seed in range(12):
            qs = sample(free_timeline.fields[0], 100, seed=seed)
            small.append(transported_ks(free_timeline, qs))
            ql = sample(free_timeline.fields[0], 3600, seed=seed)
            large.append(transported_ks(free_timeline, ql))
        assert np.median(large) < np.median(small)

    def test_untransported_samples_fail(self, free_timeline):
        # the initial ensemble against a well-spread later density: clear miss
        free = HamiltonianSpec.free(GRID)
        longer = evolve(free_timeline.fields[0], [(free, 1.0), (free, 2.0)], 1 / 256, record_every=16)
        q0 = sample(longer.fields[0], 4000, seed=100)
        assert ks_distance(q0, longer.fields[-1]) > 8.0 / np.sqrt(4000)
        assert transported_ks(longer, q0) < 1.63 / np.sqrt(4000)


class TestValidation:
    def test_rejects_positions_outside_domain(self, free_timeline):
        with pytest.raises(ValueError, match="outside"):
            integrate_ensemble(free_timeline, [0.0, 31.0], DT_TRAJ)

    def test_rejects_empty_ensemble(self, free_timeline):
        with pytest.raises(ValueError, match="at least one"):
            integrate_ensemble(free_timeline, [], DT_TRAJ)

    def test_rejects_fewer_than_one_thread(self, free_timeline):
        for threads in (0, -5):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                integrate_ensemble(free_timeline, [0.0], DT_TRAJ, threads=threads)
        for threads in (2.9, True, "2"):
            with pytest.raises(ValueError, match="threads must be an int"):
                integrate_ensemble(free_timeline, [0.0], DT_TRAJ, threads=threads)

    def test_rejects_bad_substep(self, free_timeline):
        with pytest.raises(ValueError, match="positive"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=0.0)
        with pytest.raises(ValueError, match="exceeds"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=1.0)
        with pytest.raises(ValueError, match="does not divide"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=free_timeline.spacing / 3.1)
        with pytest.raises(ValueError, match="not a finite step count"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=1e-320)
