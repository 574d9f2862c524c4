"""Experiment specs, Born weights, pointer coupling, the spec text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmlab import (
    ExperimentSpec,
    ExperimentSpecError,
    HermitianOp,
    Outcome,
    StateVec,
    born_probabilities,
    build_observable,
    expectation,
    pointer_model,
    reproducibility_check,
    spec_from_text,
    spectral_decompose,
)
from helpers import random_spec, random_state, spec_text

UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
DOWN = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def spin_spec(cal_up=1.0, cal_down=-1.0):
    return ExperimentSpec(
        dim=2,
        outcomes=(
            Outcome("up", UP, cal_up),
            Outcome("down", DOWN, cal_down),
        ),
    )


class TestBornWeights:
    def test_two_level_example(self):
        psi = StateVec(np.array([0.6, 0.8j]))
        probs = born_probabilities(psi, spin_spec())
        assert np.allclose(probs, [0.36, 0.64], atol=1e-15)
        assert abs(probs.sum() - 1.0) <= 1e-15
        assert abs(expectation(psi, spin_spec()) - (-0.28)) <= 1e-15

    def test_calibration_rescaling_moves_the_mean(self):
        psi = StateVec(np.array([0.6, 0.8j]))
        scaled = spin_spec(cal_up=5.0, cal_down=-5.0)
        assert abs(expectation(psi, scaled) - 5.0 * (-0.28)) <= 1e-12

    def test_eigenstate_is_certain(self):
        psi = StateVec(np.array([0.0, 1.0]))
        probs = born_probabilities(psi, spin_spec())
        assert probs[0] == 0.0
        assert probs[1] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            born_probabilities(StateVec(np.array([1.0, 0.0, 0.0]) ), spin_spec())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
    def test_mean_calibrated_outcome_equals_matrix_element(self, seed, dim):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, dim)
        psi = random_state(rng, dim)
        a = build_observable(spec).entries
        direct = float(np.real(np.conj(psi.vec) @ (a @ psi.vec)))
        assert abs(expectation(psi, spec) - direct) <= 1e-12
        probs = born_probabilities(psi, spec)
        assert np.all(probs >= -1e-15)
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestSpecValidation:
    def test_collects_every_failure(self):
        bad_proj = np.array([[0.5, 0.5], [0.2, 0.5]], dtype=complex)
        with pytest.raises(ExperimentSpecError) as err:
            ExperimentSpec(
                dim=2,
                outcomes=(
                    Outcome("a", bad_proj, 1.0),
                    Outcome("a", UP, 2.0),
                ),
            )
        text = "\n".join(err.value.failures)
        assert "unique" in text
        assert "Hermitian" in text
        assert "idempotent" in text
        assert "identity" in text

    def test_orthogonality_enforced(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        with pytest.raises(ExperimentSpecError, match="orthogonal"):
            ExperimentSpec(dim=2, outcomes=(Outcome("a", UP, 1.0), Outcome("b", plus, 2.0)))

    def test_shape_mismatch_reported_per_outcome(self):
        with pytest.raises(ExperimentSpecError, match="shape"):
            ExperimentSpec(dim=3, outcomes=(Outcome("a", UP, 1.0),))

    def test_completeness_enforced(self):
        with pytest.raises(ExperimentSpecError, match="identity"):
            ExperimentSpec(dim=2, outcomes=(Outcome("a", UP, 1.0),))

    def test_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            StateVec(np.array([1.0, 1.0]))
        psi = StateVec.normalized(np.array([1.0, 1.0]))
        assert abs(np.linalg.norm(psi.vec) - 1.0) <= 1e-15
        with pytest.raises(ValueError, match="zero vector"):
            StateVec.normalized(np.zeros(3))

    def test_hermitian_op_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="dimension"):
            HermitianOp(np.zeros((0, 0)))


class TestObservableRoundTrip:
    def test_build_then_decompose_recovers_weights(self, rng):
        spec = random_spec(rng, 5)
        op = build_observable(spec)
        recovered = spectral_decompose(op)
        psi = random_state(rng, 5)
        assert abs(expectation(psi, recovered) - expectation(psi, spec)) <= 1e-9

    def test_projection_sums_reconstruct_operator(self, rng):
        spec = random_spec(rng, 4)
        op = build_observable(spec)
        rebuilt = sum(
            oc.calibration * oc.projection for oc in spectral_decompose(op).outcomes
        )
        assert np.max(np.abs(rebuilt - op.entries)) <= 1e-9

    def test_close_eigenvalues_warn(self):
        # tol = 1e-9 * max|lambda| = 1e-9: 2e-9 is a separate cluster, closer than 10 * tol
        op = HermitianOp(np.diag([0.0, 2e-9, 1.0]))
        with pytest.warns(RuntimeWarning, match="tolerance-sensitive"):
            spectral_decompose(op)

    def test_same_operator_from_different_specs(self):
        # the map spec -> operator forgets labels: distinct experiments
        # with identical statistics collapse to one matrix
        a = spin_spec()
        b = ExperimentSpec(
            dim=2,
            outcomes=(Outcome("north", UP, 1.0), Outcome("south", DOWN, -1.0)),
        )
        assert np.array_equal(build_observable(a).entries, build_observable(b).entries)
        assert a.labels() != b.labels()

    def test_degenerate_outcome_merges_in_decomposition(self):
        spec = ExperimentSpec(
            dim=3,
            outcomes=(
                Outcome("pair", np.diag([1.0, 1.0, 0.0]).astype(complex), 2.0),
                Outcome("solo", np.diag([0.0, 0.0, 1.0]).astype(complex), 7.0),
            ),
        )
        recovered = spectral_decompose(build_observable(spec))
        assert recovered.n_outcomes == 2
        assert sorted(recovered.calibrations()) == [2.0, 7.0]


class TestPointerModel:
    def test_unitary_and_marginals(self, rng):
        spec = random_spec(rng, 4)
        psi = random_state(rng, 4)
        res = pointer_model(psi, spec)
        total = 4 * res.pointer_dim
        assert res.unitary.shape == (total, total)
        dev = np.max(np.abs(res.unitary.conj().T @ res.unitary - np.eye(total)))
        assert dev <= 1e-12
        assert np.max(np.abs(res.marginals - born_probabilities(psi, spec))) <= 1e-12

    def test_eigenstate_points_cleanly(self):
        res = pointer_model(StateVec(np.array([1.0, 0.0])), spin_spec())
        assert res.marginals[0] == pytest.approx(1.0, abs=1e-12)
        assert res.marginals[1] == pytest.approx(0.0, abs=1e-12)
        # composite state is e_0 (x) pointer_1 exactly
        expected = np.zeros(2 * res.pointer_dim, dtype=complex)
        expected[1] = 1.0
        assert np.max(np.abs(res.state - expected)) <= 1e-12

    def test_ready_state_never_occupied_after_coupling(self, rng):
        spec = random_spec(rng, 3)
        psi = random_state(rng, 3)
        res = pointer_model(psi, spec)
        blocks = res.state.reshape(3, res.pointer_dim)
        assert np.max(np.abs(blocks[:, 0])) <= 1e-12

    def test_pointer_dim_contract(self, rng):
        spec = spin_spec()
        psi = StateVec(np.array([0.6, 0.8]))
        assert pointer_model(psi, spec).pointer_dim == 3

    def test_composite_size_cap(self, rng):
        dim = 9
        spec = random_spec(rng, dim)
        while spec.n_outcomes < 7:
            spec = random_spec(rng, dim)
        psi = random_state(rng, dim)
        with pytest.raises(ValueError, match="composite dimension"):
            pointer_model(psi, spec)


class TestReproducibility:
    def test_projective_repeats(self, rng):
        for dim in (2, 3, 5, 8):
            spec = random_spec(rng, dim)
            assert reproducibility_check(random_state(rng, dim), spec)

    def test_superposition_and_eigenstate(self):
        assert reproducibility_check(StateVec(np.array([0.6, 0.8])), spin_spec())
        assert reproducibility_check(StateVec(np.array([0.0, 1.0])), spin_spec())


class TestTextRoundTrip:
    def test_round_trip_preserves_statistics(self, rng):
        spec = random_spec(rng, 4)
        text = spec_text(spec)
        back = spec_from_text(text)
        assert back.dim == spec.dim
        assert back.labels() == spec.labels()
        assert np.array_equal(back.calibrations(), spec.calibrations())
        for a, b in zip(spec.outcomes, back.outcomes):
            assert np.max(np.abs(a.projection - b.projection)) <= 1e-15

    def test_round_trip_is_exact_for_simple_entries(self):
        text = spec_text(spin_spec())
        assert spec_text(spec_from_text(text)) == text

    def test_comments_and_blank_lines_ignored(self):
        text = spec_text(spin_spec())
        padded = "# header\n\n" + text + "\n# trailer\n"
        assert spec_from_text(padded).labels() == ("up", "down")

    def test_parser_reports_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            spec_from_text("outcome a 1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            spec_from_text("dim 2\ndim 2\n")
        with pytest.raises(ValueError, match="line 2"):
            spec_from_text("dim 2\noutcome a nope\n")
        with pytest.raises(ValueError, match="malformed complex"):
            spec_from_text("dim 2\noutcome a 1.0\n1.0+0.0j zebra\n")
        with pytest.raises(ValueError, match="matrix row outside"):
            spec_from_text("dim 2\n1.0 0.0\n")
        with pytest.raises(ValueError, match="missing dim"):
            spec_from_text("# nothing here\n")

    def test_parsed_spec_is_validated(self):
        text = (
            "dim 2\n"
            "outcome only 1.0\n"
            "1.0+0.0j 0.0+0.0j\n"
            "0.0+0.0j 0.0+0.0j\n"
        )
        with pytest.raises(ExperimentSpecError, match="identity"):
            spec_from_text(text)

    def test_whitespace_label_rejected_on_read(self):
        spec = ExperimentSpec(
            dim=2,
            outcomes=(Outcome("has space", UP, 1.0), Outcome("down", DOWN, -1.0)),
        )
        with pytest.raises(ValueError, match="line 2: expected 'outcome <label> <calibration>'"):
            spec_from_text(spec_text(spec))
