"""The 3x3 observable square and its value-assignment obstruction."""

import time

import numpy as np
import pytest

from bohmlab import (
    ObservableGrid,
    assignment_search,
    contextual_witness,
    joint_value_distribution,
    standard_grid,
    verify_grid,
)
from bohmlab.peres_mermin import _count_sign_assignments


@pytest.fixture(scope="module")
def grid():
    return standard_grid()


def bell_state():
    # (|00> + |11>) / sqrt 2
    return np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


class TestGridStructure:
    def test_labels_and_targets(self, grid):
        assert grid.labels == (
            ("XI", "IX", "XX"),
            ("IY", "YI", "YY"),
            ("XY", "YX", "ZZ"),
        )
        assert grid.row_targets == (1, 1, 1)
        assert grid.col_targets == (1, 1, -1)

    def test_verification_passes(self, grid):
        report = verify_grid(grid)
        assert report.ok
        assert all(c.passed for c in report.checks)
        assert report.row_signs == (1, 1, 1)
        assert report.col_signs == (1, 1, -1)

    def test_check_roster(self, grid):
        names = [c.name for c in verify_grid(grid).checks]
        assert names == [
            "hermitian",
            "squares to identity",
            "rows commute",
            "columns commute",
            "row 0 product",
            "row 1 product",
            "row 2 product",
            "column 0 product",
            "column 1 product",
            "column 2 product",
        ]

    def test_negated_entry_breaks_its_row_and_column(self, grid):
        entries = np.array(grid.entries, copy=True)
        entries[1, 1] = -entries[1, 1]
        broken = ObservableGrid(
            entries=entries,
            labels=grid.labels,
            row_targets=grid.row_targets,
            col_targets=grid.col_targets,
        )
        report = verify_grid(broken)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"row 1 product", "column 1 product"}

    def test_non_involutive_entry_flagged(self, grid):
        entries = np.array(grid.entries, copy=True)
        entries[0, 0] = 0.5 * entries[0, 0]
        broken = ObservableGrid(
            entries=entries,
            labels=grid.labels,
            row_targets=grid.row_targets,
            col_targets=grid.col_targets,
        )
        failed = {c.name for c in verify_grid(broken).checks if not c.passed}
        assert "squares to identity" in failed

    def test_constructor_validation(self, grid):
        with pytest.raises(ValueError, match="shape"):
            ObservableGrid(
                entries=np.zeros((3, 3, 2, 2)),
                labels=grid.labels,
                row_targets=(1, 1, 1),
                col_targets=(1, 1, -1),
            )
        with pytest.raises(ValueError, match="signs"):
            ObservableGrid(
                entries=grid.entries,
                labels=grid.labels,
                row_targets=(1, 1, 2),
                col_targets=(1, 1, -1),
            )


class TestAssignmentSearch:
    def test_exhaustive_and_empty(self, grid):
        start = time.perf_counter()
        examined, consistent = assignment_search(grid)
        elapsed = time.perf_counter() - start
        assert examined == 512
        assert consistent == 0
        assert elapsed < 1.0

    def test_relaxed_targets_admit_assignments(self):
        # dropping the odd column target makes the system satisfiable
        constraints = (
            ((0, 1, 2), 1),
            ((3, 4, 5), 1),
            ((6, 7, 8), 1),
            ((0, 3, 6), 1),
            ((1, 4, 7), 1),
            ((2, 5, 8), 1),
        )
        examined, consistent = _count_sign_assignments(9, constraints)
        assert examined == 512
        assert consistent == 16

    def test_single_variable_base_case(self):
        assert _count_sign_assignments(1, (((0,), 1),)) == (2, 1)
        assert _count_sign_assignments(1, (((0,), -1),)) == (2, 1)
        assert _count_sign_assignments(1, ()) == (2, 2)

    def test_broken_grid_refused(self, grid):
        entries = np.array(grid.entries, copy=True)
        entries[2, 2] = -entries[2, 2]
        broken = ObservableGrid(
            entries=entries,
            labels=grid.labels,
            row_targets=grid.row_targets,
            col_targets=grid.col_targets,
        )
        with pytest.raises(ValueError, match="fails operator verification"):
            assignment_search(broken)


class TestWitness:
    def test_certificate_content(self, grid):
        report = contextual_witness(grid)
        assert report.n_candidates == 512
        assert report.n_consistent == 0
        assert report.parity_product == -1
        assert len(report.constraint_lines) == 6
        text = report.as_text()
        assert "512 assignments examined" in text
        assert "0 satisfy" in text
        assert "-1" in text
        assert "v(XI) * v(IX) * v(XX) = +1" in text
        assert "v(XX) * v(YY) * v(ZZ) = -1" in text

    def test_satisfiable_grid_has_no_witness(self):
        # all-identity square: every product is +1 I, constraints solvable
        trivial = ObservableGrid(
            entries=np.broadcast_to(np.eye(4), (3, 3, 4, 4)).copy(),
            labels=(("II",) * 3,) * 3,
            row_targets=(1, 1, 1),
            col_targets=(1, 1, 1),
        )
        assert verify_grid(trivial).ok
        with pytest.raises(ValueError, match="no obstruction"):
            contextual_witness(trivial)

    def test_entry_flip_cannot_remove_the_obstruction(self, grid):
        # negating one entry flips one row target and one column target,
        # so the six-target parity is invariant: still -1
        entries = np.array(grid.entries, copy=True)
        entries[2, 2] = -entries[2, 2]
        flipped = ObservableGrid(
            entries=entries,
            labels=grid.labels,
            row_targets=(1, 1, -1),
            col_targets=(1, 1, 1),
        )
        assert verify_grid(flipped).ok
        report = contextual_witness(flipped)
        assert report.n_consistent == 0
        assert report.parity_product == -1

    def test_default_grid(self):
        assert contextual_witness().n_candidates == 512


class TestJointDistribution:
    @pytest.mark.parametrize("kind,index", [
        ("row", 0), ("row", 1), ("row", 2),
        ("col", 0), ("col", 1), ("col", 2),
    ])
    def test_support_respects_the_product_sign(self, grid, kind, index):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        probs = joint_value_distribution(grid, kind, index, vec)
        assert abs(sum(probs.values()) - 1.0) <= 1e-12
        target = grid.row_targets[index] if kind == "row" else grid.col_targets[index]
        for (a, b, c), p in probs.items():
            if p > 1e-12:
                assert a * b * c == target

    def test_shared_entry_marginal_agrees_across_contexts(self, grid):
        # XX sits in row 0 (third slot) and column 2 (first slot); its
        # one-observable marginal cannot depend on the companions
        rng = np.random.default_rng(11)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        row_probs = joint_value_distribution(grid, "row", 0, vec)
        col_probs = joint_value_distribution(grid, "col", 2, vec)
        p_row = sum(p for (a, b, c), p in row_probs.items() if c == 1)
        p_col = sum(p for (a, b, c), p in col_probs.items() if a == 1)
        assert abs(p_row - p_col) <= 1e-12

    def test_bell_state_perfect_correlations(self, grid):
        # ZZ and XX both take value +1 on the symmetric Bell state
        probs = joint_value_distribution(grid, "col", 2, bell_state())
        p_xx = sum(p for (a, _, _), p in probs.items() if a == 1)
        p_zz = sum(p for (_, _, c), p in probs.items() if c == 1)
        assert p_xx == pytest.approx(1.0, abs=1e-12)
        assert p_zz == pytest.approx(1.0, abs=1e-12)

    def test_input_validation(self, grid):
        good = bell_state()
        with pytest.raises(ValueError, match="kind"):
            joint_value_distribution(grid, "diag", 0, good)
        with pytest.raises(ValueError, match="index"):
            joint_value_distribution(grid, "row", 3, good)
        with pytest.raises(ValueError, match="4-component"):
            joint_value_distribution(grid, "row", 0, np.ones(3))
        with pytest.raises(ValueError, match="normalized"):
            joint_value_distribution(grid, "row", 0, np.ones(4))



class TestValuesBelongToContexts:
    """The paper's claim on the observable square: in every row and
    column, the context a joint measurement realizes, each value triple
    that occurs multiplies to that context's target; yet no assignment of
    values to the nine observables alone meets all six targets."""

    def test_every_context_obeys_its_target_and_no_global_map_exists(self, grid):
        rng = np.random.default_rng(23)
        states = [bell_state(), np.array([1.0, 0.0, 0.0, 0.0]), np.full(4, 0.5)]
        for _ in range(5):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            states.append(vec / np.linalg.norm(vec))
        contexts = [("row", i, grid.row_targets[i]) for i in range(3)]
        contexts += [("col", j, grid.col_targets[j]) for j in range(3)]
        for kind, index, target in contexts:
            for vec in states:
                probs = joint_value_distribution(grid, kind, index, vec)
                assert abs(sum(probs.values()) - 1.0) <= 1e-12
                occurring = [triple for triple, p in probs.items() if p > 1e-12]
                assert occurring
                assert all(a * b * c == target for a, b, c in occurring)
        assert assignment_search(grid) == (512, 0)
