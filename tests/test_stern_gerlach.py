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
    integrate_ensemble,
    make_grid,
    no_crossing_check,
    outcome_map,
    run_sg,
    spectral_decompose,
)
from bohmlab.stern_gerlach import _assign_outcomes, _magnet_hamiltonian
from helpers import cdf, free_packet, free_width, moments, sg_field, sg_trajectories

# halved grid keeps the module fast; the beam physics is unchanged
COARSE = SGNumerics(grid_n=256, dt=1 / 256, record_every=16, substeps=4)
SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def balanced_run():
    stats, ensemble = run_sg(
        SGSetup(), SQ2, SQ2, PacketSpec(), n=2000, seed=100, numerics=COARSE, keep_history=True
    )
    return stats, ensemble


@pytest.fixture
def no_evolution(monkeypatch):
    """Fails the test if a timeline is built: every refusal comes first."""
    from bohmlab import stern_gerlach

    def never(*args, **kwargs):
        raise AssertionError("a timeline was built before the preconditions held")

    monkeypatch.setattr(stern_gerlach, "build_timeline", never)


class TestSetup:
    def test_upper_branch_bookkeeping(self):
        assert SGSetup()._upper_branch == "up"
        assert SGSetup(polarity=-1)._upper_branch == "down"
        assert SGSetup(reverse_geometry=True)._upper_branch == "down"
        assert SGSetup(mu=1.0)._upper_branch == "down"

    def test_reversal_equals_polarity_flip_in_the_field(self):
        grid = COARSE.grid()
        reversed_geometry = _magnet_hamiltonian(SGSetup(reverse_geometry=True), grid)
        flipped_polarity = _magnet_hamiltonian(SGSetup(polarity=-1), grid)
        assert np.array_equal(reversed_geometry.field_b, flipped_polarity.field_b)

    def test_validation(self):
        with pytest.raises(ValueError, match="polarity"):
            SGSetup(polarity=0)
        with pytest.raises(ValueError, match="tau"):
            SGSetup(tau=0.0)
        with pytest.raises(ValueError, match="drift"):
            SGSetup(t_drift=-1.0)
        with pytest.raises(ValueError, match="b0 = 0"):
            SGSetup(b0=0.5, reverse_geometry=True)
        # a setup that cannot split is refused where it is made
        for no_split in (dict(b_grad=0.0), dict(mu=0.0)):
            with pytest.raises(ValueError, match="no splitting"):
                SGSetup(**no_split)

    @pytest.mark.parametrize("make, field", [
        *((SGSetup, name) for name in (
            "b0", "b_grad", "mu", "tau", "t_drift", "z_det", "calibration_up", "calibration_down",
        )),
        *((PacketSpec, name) for name in ("center", "sigma", "k")),
        *((SGNumerics, name) for name in ("dt", "x_min", "x_max")),
    ])
    def test_float_fields_must_be_finite(self, make, field):
        # unrefused, a NaN calibration makes run_sg average the other
        # detector's values alone, and a NaN drift skips the drift
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r}$"):
                make(**{field: bad})

    def test_numerics_validation(self):
        with pytest.raises(ValueError, match="dt"):
            SGNumerics(dt=0.0)
        with pytest.raises(ValueError, match="record_every must be >= 1"):
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

    def test_amplitudes_are_scaled_before_the_packet_is_built(self):
        # (1e308, 1e308) scales to the pair (1, 1) does, so no density overflows
        big, unit = (build_timeline(SGSetup(t_drift=0.0), a, a, PacketSpec(), COARSE) for a in (1e308, 1.0))
        for f, g in zip(big.fields, unit.fields):
            assert np.array_equal(f.comp1, g.comp1) and np.array_equal(f.comp2, g.comp2)

    def test_the_magnet_coupling_past_float_range_is_refused_quietly(self):
        with pytest.raises(ValueError, match=r"coupling mu \|B\|"):
            _magnet_hamiltonian(SGSetup(b0=1e308), COARSE.grid())
        with pytest.raises(ValueError, match=r"coupling mu \|B\|"):
            _magnet_hamiltonian(SGSetup(b_grad=1e308), COARSE.grid())

    def test_a_drift_escape_reports_the_experiment_time(self):
        # the packet reaches the domain edge 3.37891 into the drift, which starts at tau = 1
        with pytest.raises(RuntimeError, match=r"exceeds 1e-06 at t = 4\.37891;"):
            build_timeline(SGSetup(t_drift=6.0), SQ2, SQ2, PacketSpec())

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
                setup, SQ2, SQ2, PacketSpec(), 10_000, seed=7,
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
            SGSetup(), 1.0, 0.0, PacketSpec(), n=400, seed=2, numerics=COARSE
        )
        # a far-tail start can land short of the detector edge: null, never down
        assert stats.counts["down"] == 0
        assert stats.counts["up"] == 400 - stats.counts["null"]
        assert stats.null_fraction <= 0.01
        assert stats.calibrated_mean == 1.0
        assert stats.expectation_theory == 1.0

    def test_uneven_weights(self):
        stats, _ = run_sg(
            SGSetup(), 0.5, np.sqrt(0.75), PacketSpec(), n=4000, seed=100, numerics=COARSE
        )
        assert stats.born["up"] == pytest.approx(0.25, abs=1e-12)
        band = 3.0 * np.sqrt(0.25 * 0.75 / 4000)
        assert abs(stats.frequencies["up"] - 0.25) <= band + stats.null_fraction
        assert abs(stats.expectation_theory - (-0.5)) <= 1e-12

    def test_flipped_polarity_same_statistics(self):
        # detector swap and calibration swap cancel in the mean
        stats, _ = run_sg(
            SGSetup(polarity=-1, calibration_up=-1.0, calibration_down=1.0),
            0.5, np.sqrt(0.75), PacketSpec(), n=2000, seed=100, numerics=COARSE,
        )
        assert stats.born["up"] == pytest.approx(0.75, abs=1e-12)
        assert abs(stats.expectation_theory - (-0.5)) <= 1e-12

    def test_determinism_and_thread_independence(self):
        kwargs = dict(n=300, seed=17, numerics=COARSE)
        s1, e1 = run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), **kwargs)
        s2, e2 = run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), **kwargs)
        s4, e4 = run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), threads=4, **kwargs)
        assert np.array_equal(e1.q_final, e2.q_final)
        assert np.array_equal(e1.q_final, e4.q_final)
        assert s1.counts == s2.counts == s4.counts

    def test_input_validation(self, no_evolution):
        with pytest.raises(ValueError, match="threads must be an int"):
            run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), n=10, seed=0, numerics=COARSE, threads=2.9)
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            run_sg(SGSetup(), 0.0, 0.0, PacketSpec(), n=10, seed=0, numerics=COARSE)
        with pytest.raises(ValueError, match="ensemble size"):
            run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), n=0, seed=0, numerics=COARSE)

    @pytest.mark.parametrize("entry", [
        lambda a, b: run_sg(SGSetup(), a, b, PacketSpec(), 10, 0),
        lambda a, b: outcome_map(SGSetup(), a, b, PacketSpec(), [0.0]),
        lambda a, b: contextuality_demo(SGSetup(), a, b, PacketSpec(), [0.0]),
    ], ids=["run_sg", "outcome_map", "contextuality_demo"])
    def test_a_spinor_past_float_range_is_a_value_error(self, no_evolution, entry):
        # a modulus past float range has no unit spinor: _unit_vector's ValueError
        for a, b in ((1.5e308 + 1.5e308j, 0.0), (0.0, 1.5e308 + 1.5e308j)):
            with pytest.raises(ValueError, match="norm out of float range: got inf"):
                entry(a, b)

    def test_misplaced_detector_raises(self):
        with pytest.raises(RuntimeError, match="null-outcome fraction"):
            run_sg(
                SGSetup(z_det=25.0), SQ2, SQ2, PacketSpec(), n=200, seed=3, numerics=COARSE
            )
        # a fast packet carries a branch onto the null band: at k = 1 its
        # nulls (171 in 4000) fail the 1 % verdict, and at k = 2 (31.7 %)
        # the 5 % null limit stops the run
        stats, _ = run_sg(SGSetup(), SQ2, SQ2, PacketSpec(k=1.0), n=4000, seed=0, numerics=COARSE)
        assert stats.null_fraction_le_1pct is False
        with pytest.raises(RuntimeError, match="null-outcome fraction"):
            run_sg(SGSetup(), SQ2, SQ2, PacketSpec(k=2.0), n=4000, seed=0, numerics=COARSE)


class TestOutcomeMap:
    def test_sign_of_start_decides_detector(self):
        qs = np.linspace(-2.0, 2.0, 21)
        lam = outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), qs, COARSE)
        detected = ~np.isnan(lam)
        assert np.all(lam[detected & (qs > 0)] == 1.0)
        assert np.all(lam[detected & (qs < 0)] == -1.0)
        assert np.sum(~detected) <= 1

    @pytest.mark.parametrize("weight_up, packet", [
        *(pytest.param(w, PacketSpec(), id=str(w)) for w in (0.25, 0.5, 0.9)),
        pytest.param(0.25, PacketSpec(center=0.3, k=0.4), id="0.25-center-0.3-k-0.4"),
    ])
    def test_detector_is_set_by_the_start_quantile(self, weight_up, packet):
        # Order is preserved, so a start q0 reaches the upper detector iff
        # F_0(q0) > F_T(z_det) and the lower iff F_0(q0) < F_T(-z_det), with
        # F_t the closed-form wave's distribution: no trajectory is needed
        setup, numerics = SGSetup(), SGNumerics()
        a, b = np.sqrt(weight_up), np.sqrt(1.0 - weight_up)
        qs = np.linspace(-2.5, 2.5, 401)
        grid = numerics.grid()
        start = cdf(sg_field(setup, packet, a, b, grid, 0.0), qs)
        final = sg_field(setup, packet, a, b, grid, setup.tau + setup.t_drift)
        upper, lower = cdf(final, [setup.z_det, -setup.z_det])
        expected = np.full(qs.size, np.nan)
        expected[start > upper] = setup.calibration_up
        expected[start < lower] = setup.calibration_down
        got = outcome_map(setup, a, b, packet, qs, numerics)
        assert np.array_equal(got, expected, equal_nan=True)

    def test_rejects_grid_outside_support(self, no_evolution):
        with pytest.raises(ValueError, match="threads must be an int"):
            outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0], COARSE, threads=2.9)
        with pytest.raises(ValueError, match="support"):
            outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0, 5.0], COARSE)
        with pytest.raises(ValueError, match="nonempty"):
            outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), [], COARSE)


class TestBornFromTheSeparatrix:
    """A deterministic Born gate on the transport alone.

    In 1D the flow keeps the order of positions, so the starts that end
    above 0 are those above one separatrix q_s, and the share of an
    equilibrium ensemble that reaches the upper branch is 1 - F0(q_s),
    with F0 the initial field's exact band-limited law (helpers.cdf).  q_s
    is bisected on the production transport: three rounds of 2001 starts,
    one integrate_ensemble call each, pin it to about 1e-9.  The oracle is
    the Born weight of the upper branch, which shares no code with the
    transport.  Measured: at most 1.0e-6 off on every case here.

    What it cannot see: the sampler's randomness and the detectors'
    routing, which criterion 01 keeps testing, and the sampler's own law,
    which is off F0 by about 2.5e-4; a gate through that law waits for one
    band-limited law for the sampler and the KS reference.
    """

    @pytest.mark.parametrize("weight, changes, packet", [
        *(pytest.param(w, {}, PacketSpec(), id=str(w)) for w in (0.1, 0.25, 0.5, 0.75, 0.9)),
        pytest.param(0.25, {"b0": 1.0}, PacketSpec(), id="0.25-b0"),
        pytest.param(0.25, {"polarity": -1}, PacketSpec(), id="0.25-polarity"),
        pytest.param(0.25, {"reverse_geometry": True}, PacketSpec(), id="0.25-reverse_geometry"),
        pytest.param(0.25, {}, PacketSpec(center=0.3), id="0.25-center-0.3"),
        pytest.param(0.25, {}, PacketSpec(center=-0.5), id="0.25-center--0.5"),
        pytest.param(0.25, {}, PacketSpec(k=0.4), id="0.25-k-0.4"),
        pytest.param(0.9, {}, PacketSpec(center=0.3, k=0.4), id="0.9-center-0.3-k-0.4"),
    ])
    def test_the_upper_share_is_the_born_weight(self, weight, changes, packet):
        setup, numerics = SGSetup(**changes), SGNumerics()
        a, b = np.sqrt(weight), np.sqrt(1.0 - weight)
        timeline = build_timeline(setup, a, b, packet, numerics)
        lo, hi = -5.0, 5.0
        for _ in range(3):
            starts = np.linspace(lo, hi, 2001)
            upper = integrate_ensemble(timeline, starts, numerics.dt_traj).q_final > 0
            i = int(np.argmax(upper))
            assert 0 < i and upper[i:].all() and not upper[:i].any()  # one crossing, in order
            lo, hi = starts[i - 1], starts[i]
        p_upper = weight if setup._upper_branch == "up" else 1.0 - weight
        assert abs(1.0 - cdf(timeline.fields[0], hi) - p_upper) <= 1e-5


class TestOneOperatorTwoExperiments:
    """The paper's claim at the operator layer: the base and the
    polarity-reversed experiments are different experiments, with
    pointwise opposite outcome maps, that induce one operator, sigma_z."""

    @staticmethod
    def detector_spec(setup: SGSetup) -> ExperimentSpec:
        """Each detector's outcome is the projector onto the spin branch
        that reaches it, with that detector's calibration."""
        projector = {"up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0])}
        upper = setup._upper_branch
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
        # blend at the defaults by 4.6e-5, and on the moving packets by
        # 9.7e-5 (center 0.3, k 0.4) and 1.5e-4 (k -0.4)
        setup = SGSetup()
        for packet in (PacketSpec(), PacketSpec(center=0.3, k=0.4), PacketSpec(k=-0.4)):
            _, ensemble = run_sg(setup, SQ2, SQ2, packet, 500, seed=0)
            truth = sg_trajectories(setup, packet, SQ2, SQ2, ensemble.q0, 384)
            finer = sg_trajectories(setup, packet, SQ2, SQ2, ensemble.q0, 768)
            assert np.max(np.abs(finer - truth)) <= 1e-6  # the truth has converged
            assert np.max(np.abs(ensemble.q_final - truth)) <= 5.6e-4
            outcomes, _ = _assign_outcomes(truth, setup)
            assert np.array_equal(outcomes, ensemble.outcomes)


def swapped(history, rows, pair):
    """history with the columns of pair exchanged in rows."""
    out = history.copy()
    out[rows, pair[0]], out[rows, pair[1]] = history[rows, pair[1]], history[rows, pair[0]]
    return out


# 23 rows of 6 particles in order, three on each side of z = 0 and never
# across it, and the same ensemble drifting across z = 0 in order
ROWS = np.random.default_rng(5).uniform(0.5, 3.0, size=(23, 1))
SIDES = ROWS * np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
DRIFT = SIDES + np.linspace(-9.0, 9.0, 23)[:, None]


class TestNoCrossing:
    """No-crossing is order preservation: sorted by q0, every row of the
    history is nondecreasing, for any setup.  The swaps below stay on one
    side of z = 0, and the drifts go across it in order."""

    @pytest.mark.parametrize("history, expected", [
        pytest.param(DRIFT, True, id="drift-across-the-plane"),
        pytest.param(np.insert(DRIFT, 3, DRIFT[:, 2], axis=1), True, id="tied-particles"),
        *(pytest.param(swapped(SIDES, row, (3, 4)), False, id=f"swap-in-row-{row}") for row in (0, 11, 22)),
        *(
            pytest.param(swapped(SIDES, slice(row, None), (i, i + 1)), False, id=f"swap-from-row-{row}-of-{i}")
            for row in (1, 11, 22) for i in (0, 4)
        ),
        pytest.param(
            swapped(np.tile([-2.0, 0.95, 1.05, 3.0], (23, 1)), slice(8, 12), (1, 2)), False,
            id="swap-at-q-near-1",
        ),
    ])
    def test_synthetic_histories(self, balanced_run, history, expected):
        from dataclasses import replace

        _, ensemble = balanced_run
        paths = replace(ensemble, q0=history[0], q_final=history[-1], positions=history)
        assert no_crossing_check(paths) is expected

    def test_symmetric_ensemble_never_crosses(self, balanced_run):
        _, ensemble = balanced_run
        assert no_crossing_check(ensemble)

    @pytest.mark.parametrize("weight, changes, packet", [
        *(pytest.param(w, {}, PacketSpec(), id=str(w)) for w in (0.1, 0.25, 0.9)),
        pytest.param(0.25, {"b0": 1.0}, PacketSpec(), id="0.25-b0"),
        pytest.param(0.25, {"polarity": -1}, PacketSpec(), id="0.25-polarity"),
        pytest.param(0.25, {"reverse_geometry": True}, PacketSpec(), id="0.25-reverse_geometry"),
        pytest.param(0.25, {}, PacketSpec(center=0.3, k=0.4), id="0.25-center-0.3-k-0.4"),
    ])
    def test_every_setup_keeps_the_order(self, weight, changes, packet):
        a, b = np.sqrt(weight), np.sqrt(1.0 - weight)
        _, ensemble = run_sg(
            SGSetup(**changes), a, b, packet, n=2000, seed=100, numerics=COARSE, keep_history=True
        )
        assert no_crossing_check(ensemble)

    def test_an_outward_push_near_q_1_crosses(self, monkeypatch):
        # every other particle in 0.9 < |q| < 1.1 is pushed outward by 0.5:
        # it overtakes its neighbours without coming near z = 0
        from bohmlab import trajectories

        evaluate = trajectories._Flow.evaluate

        def pushed(self, p, work, reuse):
            band = (np.abs(p) > 0.9) & (np.abs(p) < 1.1)
            band[1::2] = False
            return evaluate(self, p, work, reuse) + np.where(band, 0.5 * np.sign(p), 0.0)

        monkeypatch.setattr(trajectories._Flow, "evaluate", pushed)
        _, ensemble = run_sg(
            SGSetup(), SQ2, SQ2, PacketSpec(), n=2000, seed=100, numerics=COARSE, keep_history=True
        )
        positions = ensemble.positions
        assert not np.any((positions > 1e-9).any(axis=0) & (positions < -1e-9).any(axis=0))
        assert not no_crossing_check(ensemble)

    def test_refusals(self, balanced_run):
        _, ensemble = balanced_run
        from dataclasses import replace

        no_hist = replace(ensemble, positions=None)
        with pytest.raises(ValueError, match="without position history"):
            no_crossing_check(no_hist)


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
            alone, _ = run_sg(setup, SQ2, SQ2, PacketSpec(), n, seed, COARSE, threads=threads)
            assert stats == alone
            assert np.isfinite(stats.stderr_mean)  # so == compares every field

    def test_preconditions(self, no_evolution):
        # |a| = |b|, the packet and the support: TestSharedPreconditions
        # in test_cli.py
        with pytest.raises(ValueError, match="threads must be an int"):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0], numerics=COARSE, threads=2.9)
        with pytest.raises(ValueError, match="unreversed"):
            contextuality_demo(
                SGSetup(reverse_geometry=True), SQ2, SQ2, PacketSpec(), [0.0], numerics=COARSE
            )
        with pytest.raises(ValueError, match="support"):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0, 5.0], numerics=COARSE)
        with pytest.raises(ValueError, match="nonempty"):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [], numerics=COARSE)
        with pytest.raises(ValueError, match="ensemble size must be >= 1"):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0], n=0, numerics=COARSE)

    @pytest.mark.parametrize(
        "n, seed, message",
        [(10, 2.5, "seed must be an int"), (10, True, "seed must be an int"),
         (True, 0, "ensemble size"), (10.0, 0, "ensemble size"), (10, -1, "64-bit")],
    )
    def test_count_and_seed_refused_before_any_work(self, no_evolution, n, seed, message):
        with pytest.raises(ValueError, match=message):
            run_sg(SGSetup(), SQ2, SQ2, PacketSpec(), n=n, seed=seed, numerics=COARSE)
        with pytest.raises(ValueError, match=message):
            contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0], n=n, seed=seed, numerics=COARSE)


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
