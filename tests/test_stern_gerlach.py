"""Magnet splitting, detector readout, and the polarity-reversal pair."""

import numpy as np
import pytest

from bohmlab import (
    ExperimentSpec,
    HermitianOp,
    Outcome,
    OutcomeStatistics,
    PacketSpec,
    SGNumerics,
    SGSetup,
    branch_overlap,
    build_observable,
    build_timeline,
    contextuality_demo,
    gaussian_packet,
    make_grid,
    no_crossing_check,
    outcome_map,
    run_sg,
    spectral_decompose,
)
from bohmlab.stern_gerlach import _assign_outcomes
from helpers import free_packet, free_width, moments, sg_trajectories

# halved grid keeps the module fast; the beam physics is unchanged
COARSE = SGNumerics(grid_n=256, dt=1 / 256, record_every=16, substeps=4)
SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def balanced_run():
    stats, ensemble = run_sg(
        SGSetup(), SQ2, SQ2, PacketSpec(), n=2000, seed=100, numerics=COARSE
    )
    return stats, ensemble


class TestSetup:
    def test_upper_branch_bookkeeping(self):
        assert SGSetup().upper_branch == "up"
        assert SGSetup(polarity=-1).upper_branch == "down"
        assert SGSetup(reverse_geometry=True).upper_branch == "down"
        assert SGSetup(mu=1.0).upper_branch == "down"

    def test_reversal_equals_polarity_flip_in_the_field(self):
        assert SGSetup(reverse_geometry=True).field_sign == SGSetup(polarity=-1).field_sign

    def test_validation(self):
        with pytest.raises(ValueError, match="polarity"):
            SGSetup(polarity=0)
        with pytest.raises(ValueError, match="tau"):
            SGSetup(tau=0.0)
        with pytest.raises(ValueError, match="drift"):
            SGSetup(t_drift=-1.0)
        with pytest.raises(ValueError, match="b0 = 0"):
            SGSetup(b0=0.5, reverse_geometry=True)
        with pytest.raises(ValueError, match="no splitting"):
            SGSetup(b_grad=0.0).upper_branch

    def test_numerics_validation(self):
        with pytest.raises(ValueError, match="dt"):
            SGNumerics(dt=0.0)
        with pytest.raises(ValueError, match="positive integers"):
            SGNumerics(record_every=0)
        assert SGNumerics().dt_traj == pytest.approx(1 / 32)

    def test_packet_width_positive(self):
        with pytest.raises(ValueError, match="width"):
            PacketSpec(sigma=0.0)


class TestLibraryLaws:
    """The laws and acceptance rules the CLI and the scripts read from the
    library, against the closed forms and hand-set statistics."""

    @pytest.mark.parametrize("t", [0.0, 0.7, 2.0, 4.0])
    def test_free_packet_moments_follow_the_packet_law(self, t):
        packet = PacketSpec(center=-2.0, sigma=0.8, k=1.5)
        field = free_packet(packet, 1.2, 1.6j, make_grid(512, -30.0, 30.0), t)  # norm 2
        norm, center, width = field.moments()
        assert np.allclose((norm, center, width), moments(field), rtol=1e-13, atol=1e-13)
        law_center, law_width = packet.free_center_width(t)
        assert law_center == pytest.approx(-2.0 + 1.5 * t, rel=1e-15, abs=1e-15)
        assert law_width == pytest.approx(free_width(0.8, t), rel=1e-15)
        assert (center, width) == pytest.approx((law_center, law_width), rel=1e-10, abs=1e-10)
        assert norm == pytest.approx(2.0, rel=1e-12)

    @staticmethod
    def statistics(mean, expectation, stderr):
        return OutcomeStatistics(
            n=400, counts={"up": 200, "down": 200, "null": 0},
            frequencies={"up": 0.5, "down": 0.5, "null": 0.0},
            born={"up": 0.5, "down": 0.5, "null": 0.0},
            calibrated_mean=mean, expectation_theory=expectation, stderr_mean=stderr,
        )

    @pytest.mark.parametrize("expectation, stderr", [(0.0, 0.1), (0.25, 1.0), (-0.5, 2.0)])
    def test_calibrated_mean_within_3se_edge(self, expectation, stderr):
        edge = 3.0 * stderr
        for sign in (1.0, -1.0):
            at_edge = expectation + sign * edge
            beyond = float(np.nextafter(at_edge, sign * np.inf))
            # the distances are exact: the edge itself, and one ulp past it
            assert abs(at_edge - expectation) == edge
            assert abs(beyond - expectation) == np.nextafter(edge, np.inf)
            assert self.statistics(at_edge, expectation, stderr).calibrated_within_3se is True
            assert self.statistics(beyond, expectation, stderr).calibrated_within_3se is False

    @pytest.mark.parametrize("stderr", [np.nan, np.inf])
    def test_calibrated_mean_needs_a_finite_stderr(self, stderr):
        assert self.statistics(0.0, 0.0, stderr).calibrated_within_3se is False


class TestTimeline:
    def test_branches_separate_cleanly(self):
        tl = build_timeline(SGSetup(), SQ2, SQ2, PacketSpec(), COARSE)
        final = tl.fields[-1]
        grid = final.grid
        xs = grid.xs()
        rho1 = np.abs(final.comp1) ** 2
        rho2 = np.abs(final.comp2) ** 2
        c1 = float(np.sum(xs * rho1) / np.sum(rho1))
        c2 = float(np.sum(xs * rho2) / np.sum(rho2))
        assert c1 == pytest.approx(10.0, abs=0.02)
        assert c2 == pytest.approx(-10.0, abs=0.02)
        assert branch_overlap(final) <= 1e-4
        assert tl.times[-1] == pytest.approx(3.0, abs=1e-12)

    def test_polarity_flip_mirrors_the_deflection(self):
        tl = build_timeline(SGSetup(polarity=-1), 1.0, 0.0, PacketSpec(), COARSE)
        final = tl.fields[-1]
        xs = final.grid.xs()
        rho1 = np.abs(final.comp1) ** 2
        c1 = float(np.sum(xs * rho1) / np.sum(rho1))
        assert c1 == pytest.approx(-10.0, abs=0.02)

    def test_reverse_geometry_matches_polarity_flip_exactly(self):
        tl_pol = build_timeline(SGSetup(polarity=-1), SQ2, SQ2, PacketSpec(), COARSE)
        tl_rev = build_timeline(SGSetup(reverse_geometry=True), SQ2, SQ2, PacketSpec(), COARSE)
        assert np.array_equal(tl_pol.fields[-1].comp1, tl_rev.fields[-1].comp1)
        assert np.array_equal(tl_pol.fields[-1].comp2, tl_rev.fields[-1].comp2)

    def test_dt_does_not_move_the_transport(self):
        # the magnet's split step is exact up to a global phase, which no
        # density or flow sees: halving dt at one record spacing and one
        # dt_traj moves no particle beyond rounding (2.7e-11 measured)
        setup = SGSetup(mu=-1.5, b_grad=3.0)
        runs = [
            run_sg(
                setup, SQ2, SQ2, PacketSpec(), 10_000, seed=7, keep_history=False,
                numerics=SGNumerics(x_min=-32.0, x_max=32.0, dt=dt, record_every=every),
            )[1]
            for dt, every in ((1 / 128, 8), (1 / 256, 16))
        ]
        assert np.max(np.abs(runs[0].q_final - runs[1].q_final)) <= 1e-9
        assert np.array_equal(runs[0].outcomes, runs[1].outcomes)


class TestAssignOutcomes:
    def test_three_regions(self):
        setup = SGSetup()
        outcomes, lambdas = _assign_outcomes([9.0, -9.0, 0.3, 4.5, -4.5], setup)
        assert list(outcomes) == ["up", "down", "null", "null", "null"]
        assert lambdas[0] == 1.0
        assert lambdas[1] == -1.0
        assert np.all(np.isnan(lambdas[2:]))

    def test_calibrations_flow_through(self):
        setup = SGSetup(calibration_up=7.0, calibration_down=-3.0)
        _, lambdas = _assign_outcomes([9.0, -9.0], setup)
        assert list(lambdas) == [7.0, -3.0]


class TestRunStatistics:
    def test_balanced_spinor(self, balanced_run):
        stats, ensemble = balanced_run
        assert isinstance(stats, OutcomeStatistics)
        assert stats.n == 2000
        assert stats.counts["up"] + stats.counts["down"] + stats.counts["null"] == 2000
        assert stats.born["up"] == pytest.approx(0.5, abs=1e-12)
        assert stats.born["down"] == pytest.approx(0.5, abs=1e-12)
        assert stats.born["null"] == 0.0
        band = 3.0 * np.sqrt(0.25 / 2000)
        assert abs(stats.frequencies["up"] - 0.5) <= band + stats.null_fraction
        assert stats.null_fraction <= 0.01
        assert abs(stats.expectation_theory) <= 1e-15
        assert abs(stats.calibrated_mean) <= 4.0 * stats.stderr_mean
        assert ensemble.q_final.shape == (2000,)
        assert ensemble.positions.shape[1] == 2000

    def test_spin_eigenstate_goes_one_way(self):
        stats, _ = run_sg(
            SGSetup(), 1.0, 0.0, PacketSpec(), n=400, seed=2, numerics=COARSE,
            keep_history=False,
        )
        # a far-tail start can land short of the detector edge: null, never down
        assert stats.counts["down"] == 0
        assert stats.counts["up"] == 400 - stats.counts["null"]
        assert stats.null_fraction <= 0.01
        assert stats.calibrated_mean == 1.0
        assert stats.expectation_theory == 1.0

    def test_uneven_weights(self):
        stats, _ = run_sg(
            SGSetup(), 0.5, np.sqrt(0.75), PacketSpec(), n=4000, seed=100,
            numerics=COARSE, keep_history=False,
        )
        assert stats.born["up"] == pytest.approx(0.25, abs=1e-12)
        band = 3.0 * np.sqrt(0.25 * 0.75 / 4000)
        assert abs(stats.frequencies["up"] - 0.25) <= band + stats.null_fraction
        assert abs(stats.expectation_theory - (-0.5)) <= 1e-12

    def test_flipped_polarity_same_statistics(self):
        # detector swap and calibration swap cancel in the mean
        stats, _ = run_sg(
            SGSetup(polarity=-1, calibration_up=-1.0, calibration_down=1.0),
            0.5, np.sqrt(0.75), PacketSpec(), n=2000, seed=100,
            numerics=COARSE, keep_history=False,
        )
        assert stats.born["up"] == pytest.approx(0.75, abs=1e-12)
        assert abs(stats.expectation_theory - (-0.5)) <= 1e-12

    def test_determinism_and_thread_independence(self):
        kwargs = dict(n=300, seed=17, numerics=COARSE, keep_history=False)
        s1, e1 = run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), **kwargs)
        s2, e2 = run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), **kwargs)
        s4, e4 = run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), threads=4, **kwargs)
        assert np.array_equal(e1.q_final, e2.q_final)
        assert np.array_equal(e1.q_final, e4.q_final)
        assert s1.counts == s2.counts == s4.counts

    def test_input_validation(self):
        with pytest.raises(ValueError, match="spinor"):
            run_sg(SGSetup(), 1.0, 1.0, PacketSpec(), n=10, seed=0, numerics=COARSE)
        with pytest.raises(ValueError, match="ensemble size"):
            run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), n=0, seed=0, numerics=COARSE)
        with pytest.raises(ValueError, match="no splitting"):
            run_sg(SGSetup(mu=0.0), SQ2, SQ2, PacketSpec(), n=10, seed=0, numerics=COARSE)

    def test_misplaced_detector_raises(self):
        with pytest.raises(RuntimeError, match="null-outcome fraction"):
            run_sg(
                SGSetup(z_det=25.0), SQ2, SQ2, PacketSpec(), n=200, seed=3,
                numerics=COARSE, keep_history=False,
            )


class TestOutcomeMap:
    def test_sign_of_start_decides_detector(self):
        qs = np.linspace(-2.0, 2.0, 21)
        lam = outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), qs, COARSE)
        detected = ~np.isnan(lam)
        assert np.all(lam[detected & (qs > 0)] == 1.0)
        assert np.all(lam[detected & (qs < 0)] == -1.0)
        assert np.sum(~detected) <= 1

    def test_rejects_grid_outside_support(self):
        with pytest.raises(ValueError, match="support"):
            outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0, 5.0], COARSE)
        with pytest.raises(ValueError, match="nonempty"):
            outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), [], COARSE)


class TestOneOperatorTwoExperiments:
    """The paper's claim at the operator layer: the base and the
    polarity-reversed experiments are different experiments, with
    pointwise opposite outcome maps, that induce one operator, sigma_z."""

    @staticmethod
    def detector_spec(setup: SGSetup) -> ExperimentSpec:
        """Each detector's outcome is the projector onto the spin branch
        that reaches it, with that detector's calibration."""
        projector = {"up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0])}
        upper = setup.upper_branch
        lower = "down" if upper == "up" else "up"
        return ExperimentSpec(2, (
            Outcome("upper detector", projector[upper], setup.calibration_up),
            Outcome("lower detector", projector[lower], setup.calibration_down),
        ))

    def test_same_operator_opposite_outcome_maps(self):
        base = SGSetup(polarity=1, calibration_up=1.0, calibration_down=-1.0)
        flipped = SGSetup(polarity=-1, calibration_up=-1.0, calibration_down=1.0)
        specs = [self.detector_spec(setup) for setup in (base, flipped)]
        assert [oc.projection[0, 0] for oc in specs[0].outcomes] == [1.0, 0.0]
        assert [oc.projection[0, 0] for oc in specs[1].outcomes] == [0.0, 1.0]
        observables = [build_observable(spec) for spec in specs]
        sigma_z = HermitianOp(np.diag([1.0, -1.0]))
        for op in observables:
            assert np.array_equal(op.entries, sigma_z.entries)

        qs = np.linspace(-2.5, 2.5, 41)
        maps = [outcome_map(setup, SQ2, SQ2, PacketSpec(), qs) for setup in (base, flipped)]
        nulls = [np.isnan(m) for m in maps]
        assert np.array_equal(nulls[0], nulls[1]) and np.sum(nulls[0]) <= 1
        assert np.all(maps[1][~nulls[1]] == -maps[0][~nulls[0]])
        # the sign of the start decides the detector, opposite in the two
        assert np.all(maps[0][qs > 0.1] == 1.0) and np.all(maps[1][qs > 0.1] == -1.0)

    def test_the_operator_does_not_know_which_detector_reads_up(self):
        # decomposing sigma_z recovers one experiment spec whichever of the
        # two experiments built it: the upper detector's identity is lost
        base = SGSetup(polarity=1, calibration_up=1.0, calibration_down=-1.0)
        flipped = SGSetup(polarity=-1, calibration_up=-1.0, calibration_down=1.0)
        specs = [self.detector_spec(setup) for setup in (base, flipped)]
        upper = [spec.outcomes[0].projection for spec in specs]
        assert not np.array_equal(upper[0], upper[1])
        recovered = [spectral_decompose(build_observable(spec)) for spec in specs]
        assert recovered[0].labels() == recovered[1].labels()
        assert np.array_equal(recovered[0].calibrations(), recovered[1].calibrations())
        for a, b in zip(recovered[0].outcomes, recovered[1].outcomes):
            assert np.array_equal(a.projection, b.projection)
        assert sorted(recovered[0].calibrations()) == [-1.0, 1.0]


class TestTransportAgainstClosedForm:
    """The default numerics' transport against the closed-form trajectories."""

    def test_default_numerics_within_a_tenth_of_the_linear_blend_error(self):
        # the earlier linear time blend at record_every 8, substeps 4 was
        # off by 5.2e-3 on these particles (5.6e-3 on 10k); the Hermite
        # blend at the defaults by 4.6e-5
        setup, packet = SGSetup(), PacketSpec()
        _, ensemble = run_sg(setup, SQ2, SQ2, packet, 500, seed=0, keep_history=False)
        truth = sg_trajectories(setup, packet, SQ2, SQ2, ensemble.q0, 384)
        finer = sg_trajectories(setup, packet, SQ2, SQ2, ensemble.q0, 768)
        assert np.max(np.abs(finer - truth)) <= 1e-6  # the truth has converged
        assert np.max(np.abs(ensemble.q_final - truth)) <= 5.6e-4
        outcomes, _ = _assign_outcomes(truth, setup)
        assert np.array_equal(outcomes, ensemble.outcomes)


class TestNoCrossing:
    def test_symmetric_ensemble_never_crosses(self, balanced_run):
        _, ensemble = balanced_run
        assert no_crossing_check(ensemble)

    def test_refusals(self, balanced_run):
        _, ensemble = balanced_run
        from dataclasses import replace

        # b0, |a| = |b| and the packet: TestSharedPreconditions in test_cli.py
        no_hist = replace(ensemble, positions=None)
        with pytest.raises(ValueError, match="without position history"):
            no_crossing_check(no_hist)


    def test_blocked_scan_equals_full_comparison(self, balanced_run):
        from dataclasses import replace

        from bohmlab import stern_gerlach

        def unblocked(positions):
            above = (positions > stern_gerlach.NO_CROSSING_BAND).any(axis=0)
            below = (positions < -stern_gerlach.NO_CROSSING_BAND).any(axis=0)
            return not bool(np.any(above & below))

        _, ensemble = balanced_run
        sides = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        base = sides * np.random.default_rng(5).uniform(0.5, 3.0, size=(23, 6))
        inside = base.copy()  # particle 4 wanders within the band around z = 0
        inside[:, 4] = np.linspace(-1e-9, 1e-9, 23)
        inside[5, 0], inside[7, 1] = -1e-9, 1e-9  # on the band edge, not across it
        cases = [(base, True), (inside, True)]
        for row in range(23):  # row 22 is the last
            excursion = base.copy()  # particle 2 is across in this row only
            excursion[row, 2] = -excursion[row, 2]
            cases.append((excursion, False))
        for row in range(1, 23):  # a switch from row 0 keeps one side
            for particle in (2, 3):  # across from this row on, from either side
                switch = base.copy()
                switch[row:, particle] = -switch[row:, particle]
                cases.append((switch, False))
        for history, expected in cases:
            assert unblocked(history) is expected
            assert no_crossing_check(replace(ensemble, positions=history)) is expected


class TestContextualityDemo:
    def test_opposite_maps_same_statistics(self):
        qs = np.linspace(-1.5, 1.5, 13)
        report = contextuality_demo(
            SGSetup(), SQ2, SQ2, PacketSpec(), qs, n=1500, seed=100, numerics=COARSE
        )
        assert report.pointwise_opposite
        assert report.stats_base.born_within_3sigma
        assert report.stats_reversed.born_within_3sigma
        assert report.n_null_base == report.n_null_reversed
        detected = ~np.isnan(report.lambda_base)
        assert np.all(
            report.lambda_reversed[detected] == -report.lambda_base[detected]
        )
        text = report.summary()
        assert "pointwise opposite" in text
        assert "not of the operator" in text

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_transport_per_experiment_equals_separate_runs(self, threads, monkeypatch):
        # each experiment transports its ensemble and the map grid in one
        # call; outcome_map and run_sg, called apart, give the same bits
        from bohmlab import stern_gerlach, trajectories

        monkeypatch.setattr(trajectories, "MIN_PER_WORKER", 256)  # two workers
        monkeypatch.setattr(trajectories, "TILE", 300)  # and several chunks each
        real, transported = stern_gerlach.integrate_ensemble, []

        def counted(timeline, q0, **kwargs):
            transported.append(np.size(q0))
            return real(timeline, q0, **kwargs)

        monkeypatch.setattr(stern_gerlach, "integrate_ensemble", counted)
        qs, n, seed = np.linspace(-1.5, 1.5, 13), 1500, 100
        report = contextuality_demo(
            SGSetup(), SQ2, SQ2, PacketSpec(), qs, n=n, seed=seed, numerics=COARSE, threads=threads
        )
        assert transported == [n + qs.size] * 2
        base = SGSetup(polarity=1, calibration_up=1.0, calibration_down=-1.0)
        flipped = SGSetup(polarity=-1, calibration_up=-1.0, calibration_down=1.0)
        for setup, lam, stats in (
            (base, report.lambda_base, report.stats_base),
            (flipped, report.lambda_reversed, report.stats_reversed),
        ):
            apart = outcome_map(setup, SQ2, SQ2, PacketSpec(), qs, COARSE, threads)
            assert lam.tobytes() == apart.tobytes()
            alone, _ = run_sg(
                setup, SQ2, SQ2, PacketSpec(), n, seed, COARSE, keep_history=False, threads=threads
            )
            assert stats == alone
            assert np.isfinite(stats.stderr_mean)  # so == compares every field

    def test_preconditions(self, monkeypatch):
        # b0, |a| = |b|, the packet and the support: TestSharedPreconditions
        # in test_cli.py.  Every refusal comes before any evolution.
        from bohmlab import stern_gerlach

        def never(*args, **kwargs):
            raise AssertionError("a timeline was built before the preconditions held")

        monkeypatch.setattr(stern_gerlach, "build_timeline", never)
        with pytest.raises(ValueError, match="unreversed"):
            contextuality_demo(
                SGSetup(reverse_geometry=True), SQ2, SQ2, PacketSpec(), [0.0], numerics=COARSE
            )
        with pytest.raises(ValueError, match="support"):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0, 5.0], numerics=COARSE)
        with pytest.raises(ValueError, match="nonempty"):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [], numerics=COARSE)
        with pytest.raises(ValueError, match="ensemble size must be a positive integer"):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0], n=0, numerics=COARSE)


class TestBranchOverlap:
    def test_disjoint_branches_vanish(self):
        grid = make_grid(256, -30.0, 30.0)
        left = gaussian_packet(grid, -8.0, 1.0, 0.0)
        right = gaussian_packet(grid, 8.0, 1.0, 0.0)
        split = type(left)(grid, right.comp1 * SQ2, left.comp1 * SQ2)
        assert branch_overlap(split) <= 1e-12

    def test_identical_branches_saturate(self):
        grid = make_grid(256, -30.0, 30.0)
        f = gaussian_packet(grid, 0.0, 1.0, 0.0, SQ2, SQ2)
        assert branch_overlap(f) == pytest.approx(1.0, abs=1e-12)

    def test_single_branch_returns_zero(self):
        grid = make_grid(256, -30.0, 30.0)
        f = gaussian_packet(grid, 0.0, 1.0, 0.0)
        assert branch_overlap(f) == 0.0
