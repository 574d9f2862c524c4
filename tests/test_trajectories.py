"""Guiding-equation integration: velocity field, flow, and equivariance."""

import os
import threading

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
from bohmlab.stern_gerlach import _magnet_hamiltonian
from helpers import free_velocity, lagrange_flow, lagrange_velocity, plane_wave

GRID = make_grid(512, -30.0, 30.0)
SQ2 = 1.0 / np.sqrt(2.0)
NYQUIST_CAP = 0.5 * np.pi / GRID.dx
# RK4 substep on free_timeline: a quarter of its record spacing, 16 / 256
DT_TRAJ = 1 / 64


@pytest.fixture(scope="module")
def free_timeline():
    f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
    return evolve(f, HamiltonianSpec.free(GRID), 1.0, 1 / 256, record_every=16)


def transported_ks(timeline, q0, dt_traj=DT_TRAJ):
    """KS distance of q0, transported along timeline, from its final density."""
    return ks_distance(integrate_ensemble(timeline, q0, dt_traj).q_final, timeline.fields[-1])


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

    def test_reversed_timeline_returns_home(self, free_timeline):
        q0 = np.array([-1.5, 0.3, 2.0])
        forward = integrate_ensemble(free_timeline, q0, DT_TRAJ)
        back = integrate_ensemble(free_timeline.time_reversed(), forward.q_final, DT_TRAJ)
        assert np.max(np.abs(back.q_final - q0)) <= 1e-4

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
        tl = evolve(f0, h, 1.0, 1 / 256, record_every=32)
        q0 = np.array([-2.5, -1.0, 0.5, 3.0])
        paths = integrate_ensemble(tl, q0, tl.spacing / 4)
        assert np.max(np.abs(paths.q_final - q0)) <= 1e-7

    def test_history_shape_and_opt_out(self, free_timeline):
        q0 = np.array([0.1, 0.9])
        kept = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True)
        assert kept.positions.shape == (len(kept.times), 2)
        assert np.array_equal(kept.positions[0], q0)
        assert np.array_equal(kept.positions[-1], kept.q_final)
        assert integrate_ensemble(free_timeline, q0, DT_TRAJ).positions is None


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
        assert trajectories._chunks(257, 4)[0] == 4
        four = integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=4)
        assert len(forks) == 3
        assert np.array_equal(one.q_final, four.q_final)

    def test_uneven_chunks_invisible(self, free_timeline, forks, monkeypatch):
        monkeypatch.setattr(trajectories, "TILE", 40)
        q0 = sample(free_timeline.fields[0], 203, seed=12)
        workers, bounds = trajectories._chunks(203, 3)
        assert workers == 3 and len(bounds) - 1 == 6
        assert len(set(np.diff(bounds).tolist())) == 2  # 203 does not split evenly
        split = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True, threads=3)
        assert len(forks) == 2
        monkeypatch.setattr(trajectories, "TILE", 1 << 20)
        whole = integrate_ensemble(free_timeline, q0, DT_TRAJ, keep_history=True, threads=1)
        assert np.array_equal(split.positions, whole.positions)
        assert np.array_equal(split.q_final, whole.q_final)

    def test_workers_never_outnumber_cpus(self, forks, monkeypatch):
        monkeypatch.setattr(trajectories, "_usable_cpus", lambda: 2)
        assert trajectories._chunks(257, 4)[0] == 2

    def test_failing_worker_fails_the_call(self, free_timeline, forks, monkeypatch):
        parent = os.getpid()

        class ChildFault(trajectories._Flow):
            def __call__(self, t, p):
                if os.getpid() != parent:
                    raise FloatingPointError("worker fault")
                return super().__call__(t, p)

        monkeypatch.setattr(trajectories, "_Flow", ChildFault)
        q0 = sample(free_timeline.fields[0], 100, seed=13)
        with pytest.raises(RuntimeError, match=r"exit codes \[1, 1\]"):
            integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=3)
        assert len(forks) == 2
        assert_no_children()

    def test_failing_caller_reaps_its_workers(self, free_timeline, forks, monkeypatch):
        parent = os.getpid()

        class ParentFault(trajectories._Flow):
            def __call__(self, t, p):
                if os.getpid() == parent:
                    raise FloatingPointError("caller fault")
                return super().__call__(t, p)

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
            assert trajectories._chunks(257, 4)[0] == 1
            four = integrate_ensemble(free_timeline, q0, DT_TRAJ, threads=4)
        finally:
            release.set()
            other.join(timeout=30.0)
        assert not other.is_alive()
        assert forks == []
        assert np.array_equal(one.q_final, four.q_final)

    def test_small_ensembles_use_one_worker(self, monkeypatch):
        monkeypatch.setattr(trajectories, "_usable_cpus", lambda: 2)
        assert trajectories._chunks(trajectories.MIN_PER_WORKER * 2 - 1, 2)[0] == 1
        assert trajectories._chunks(trajectories.MIN_PER_WORKER * 2, 2)[0] == 2


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

        class FreshGathers(trajectories._Flow):
            def __call__(self, t, p):
                self.key = None  # blend and gather anew at every evaluation
                return super().__call__(t, p)

        monkeypatch.setattr(trajectories, "_Flow", FreshGathers)
        moved.clear()
        fresh = run()
        assert moved == []
        assert reused.positions.tobytes() == fresh.positions.tobytes()

    def test_every_repeated_stage_time_reuses(self, monkeypatch):
        # dt = 0.01 is not a power of two: k4's time must still equal the
        # next step's k1 time bit for bit
        f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
        timeline = evolve(f, HamiltonianSpec.free(GRID), 1.0, 0.01, record_every=5)
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


class TestTimeDerivatives:
    """The Hermite blend's rates, on forward, backward and reversed timelines."""

    @pytest.fixture(scope="class")
    def driven(self):
        # V and all three field components, so H* differs from H (B_y)
        grid = make_grid(256, -20.0, 20.0)
        xs = grid.xs()
        b = np.zeros((grid.n, 3))
        b[:, 0] = 0.7
        b[:, 1] = 0.9 * np.cos(2.0 * np.pi * xs / grid.length)
        b[:, 2] = 1.1 * np.sin(2.0 * np.pi * xs / grid.length)
        h = HamiltonianSpec(grid, 0.02 * xs**2, b, 1.0)
        f = gaussian_packet(grid, 0.5, 1.0, 1.5, 0.6, 0.8j)
        dt = 1 / 512
        forward, backward = evolve(f, h, 0.25, dt), evolve(f, h, -0.25, -dt)
        return dt, {
            "forward": forward,
            "backward": backward,
            "reversed": forward.time_reversed(),
            "reversed backward": backward.time_reversed(),
        }

    @pytest.mark.parametrize("kind", ["forward", "backward", "reversed", "reversed backward"])
    def test_rates_are_the_time_derivatives_of_the_values(self, driven, kind):
        # centered differences over records dt apart agree to O(dt^2)
        # (~5e-6 of the largest rate); a missing conjugate misses by
        # 2.7e-2 or more, a wrong sign by 2
        dt, timelines = driven
        tables, first_end = trajectories._flow_tables(timelines[kind])
        assert len(tables) == len(timelines[kind].fields)
        assert np.array_equal(first_end, np.arange(len(first_end)))
        values, rates = tables[:, 0], tables[:, 1]
        centered = (values[2:] - values[:-2]) / (2.0 * dt)
        scale = np.max(np.abs(rates), axis=(0, 1))
        assert np.all(np.max(np.abs(centered - rates[1:-1]), axis=(0, 1)) <= 1e-4 * scale)

    def test_magnet_switch_off_gets_one_sided_rates(self):
        numerics = SGNumerics()
        timeline = build_timeline(SGSetup(), SQ2, SQ2, PacketSpec(), numerics)
        tables, first_end = trajectories._flow_tables(timeline)
        switch = int(round(SGSetup().tau / timeline.spacing))  # the record at tau
        assert len(tables) == len(timeline.fields) + 1
        assert first_end[switch] == first_end[switch - 1] + 2
        # both ends at tau hold the record's values, with the magnet's and
        # the drift's rates
        assert np.array_equal(tables[switch, 0], tables[switch + 1, 0])
        assert not np.allclose(tables[switch, 1], tables[switch + 1, 1])

    def test_stern_gerlach_round_trip(self):
        # out through the magnet window and the drift, then back along the
        # time-reversed timeline: 1.1e-7 at the defaults.  The reversed
        # rates must mirror the forward ones, or the return misses.
        numerics = SGNumerics()
        timeline = build_timeline(SGSetup(), SQ2, SQ2, PacketSpec(), numerics)
        q0 = sample(timeline.fields[0], 400, seed=3)
        out = integrate_ensemble(timeline, q0, dt_traj=numerics.dt_traj)
        back = integrate_ensemble(timeline.time_reversed(), out.q_final, dt_traj=numerics.dt_traj)
        assert np.max(np.abs(back.q_final - q0)) <= 1e-6


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
        longer = free_timeline.extend(
            evolve(
                free_timeline.fields[-1],
                HamiltonianSpec.free(GRID),
                2.0,
                1 / 256,
                record_every=16,
            )
        )
        q0 = sample(longer.fields[0], 4000, seed=100)
        assert ks_distance(q0, longer.fields[-1]) > 8.0 / np.sqrt(4000)
        assert transported_ks(longer, q0) < 1.63 / np.sqrt(4000)


class TestBackwardTimeline:
    def test_stern_gerlach_stepped_back_is_equivariant(self):
        # the default run's final record stepped back through the drift and
        # then the magnet: generator runs of sign -1, whose particles must
        # retrace the motion (KS 0.5075 if they follow +Im(psi^dagger psi')/rho)
        setup, numerics = SGSetup(), SGNumerics()
        final = build_timeline(setup, SQ2, SQ2, PacketSpec(), numerics).fields[-1]
        grid = final.grid
        drift = evolve(final, HamiltonianSpec.free(grid), -setup.t_drift, -numerics.dt, numerics.record_every)
        magnet = evolve(
            drift.fields[-1], _magnet_hamiltonian(setup, grid), -setup.tau, -numerics.dt,
            numerics.record_every,
        )
        back = drift.extend(magnet)
        assert [sign for sign, _, _ in back.generators] == [-1, -1]
        q0 = sample(back.fields[0], 4000, seed=1)
        ks = transported_ks(back, q0, numerics.dt_traj)
        assert ks <= 1.63 / np.sqrt(4000)


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

    def test_rejects_bad_substep(self, free_timeline):
        with pytest.raises(ValueError, match="positive"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=0.0)
        with pytest.raises(ValueError, match="exceeds"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=1.0)
        with pytest.raises(ValueError, match="does not divide"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=free_timeline.spacing / 3.1)
        with pytest.raises(ValueError, match="not finite"):
            integrate_ensemble(free_timeline, [0.0], dt_traj=1e-320)
