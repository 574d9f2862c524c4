"""Obstruction to noncontextual value maps on a 3x3 observable square.

The square holds nine two-qubit observables arranged so that the three
observables in each row and each column commute and multiply to plus or
minus the identity.  Any assignment of +-1 values that respects all six
product constraints simultaneously would have to satisfy an impossible
parity: the product of all six row and column constraints touches each
entry twice (so the left side squares to +1) while the right side
multiplies to -1.  The search below verifies the operator identities
numerically, enumerates all 2^9 sign assignments, and certifies that
none survives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ObservableGrid",
    "CheckResult",
    "GridReport",
    "WitnessReport",
    "standard_grid",
    "verify_grid",
    "assignment_search",
    "contextual_witness",
    "joint_value_distribution",
]

ATOL = 1e-12

_ID = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_SINGLE = {"I": _ID, "X": _X, "Y": _Y, "Z": _Z}


def _two_qubit(label: str) -> np.ndarray:
    if len(label) != 2 or any(c not in _SINGLE for c in label):
        raise ValueError(f"label must be two of I, X, Y, Z, got {label!r}")
    return np.kron(_SINGLE[label[0]], _SINGLE[label[1]])


@dataclass(frozen=True)
class ObservableGrid:
    """A 3x3 arrangement of 4x4 observables with row/column sign targets."""

    entries: np.ndarray
    labels: tuple
    row_targets: tuple
    col_targets: tuple

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (3, 3, 4, 4):
            raise ValueError(f"entries must have shape (3, 3, 4, 4), got {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if len(self.labels) != 3 or any(len(row) != 3 for row in self.labels):
            raise ValueError("labels must be a 3x3 nested tuple")
        for targets, name in ((self.row_targets, "row"), (self.col_targets, "column")):
            if len(targets) != 3 or any(t not in (1, -1) for t in targets):
                raise ValueError(f"{name} targets must be three signs +-1")


def standard_grid() -> ObservableGrid:
    """The usual two-qubit square: all row products +I, column products
    +I, +I, -I."""
    labels = (
        ("XI", "IX", "XX"),
        ("IY", "YI", "YY"),
        ("XY", "YX", "ZZ"),
    )
    entries = np.array([[_two_qubit(lbl) for lbl in row] for row in labels])
    return ObservableGrid(
        entries=entries,
        labels=labels,
        row_targets=(1, 1, 1),
        col_targets=(1, 1, -1),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class GridReport:
    checks: tuple
    row_signs: tuple
    col_signs: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _product_sign(triple) -> tuple[int | None, float]:
    """Sign s with A B C = s I, or (None, deviation) if not proportional."""
    prod = triple[0] @ triple[1] @ triple[2]
    devs = {sign: float(np.max(np.abs(prod - sign * np.eye(4)))) for sign in (1, -1)}
    for sign, dev in devs.items():
        if dev <= ATOL:
            return sign, dev
    return None, min(devs.values())


def verify_grid(grid: ObservableGrid) -> GridReport:
    """Numerically verify hermiticity, involution, commutation within each
    row and column, and the row/column product signs."""
    entries = [grid.entries[i, j] for i in range(3) for j in range(3)]
    herm_dev = max(float(np.max(np.abs(e - e.conj().T))) for e in entries)
    sq_dev = max(float(np.max(np.abs(e @ e - np.eye(4)))) for e in entries)
    commute: list[CheckResult] = []
    products: list[CheckResult] = []
    signs = {}
    for kind, triples, targets in (
        ("row", list(grid.entries), grid.row_targets),
        ("column", list(grid.entries.swapaxes(0, 1)), grid.col_targets),
    ):
        comm = max(
            float(np.max(np.abs(a @ b - b @ a)))
            for triple in triples
            for a, b in itertools.combinations(triple, 2)
        )
        commute.append(CheckResult(f"{kind}s commute", comm <= ATOL, f"max deviation {comm:.3e}"))
        signs[kind] = []
        for i, (triple, target) in enumerate(zip(triples, targets)):
            sign, dev = _product_sign(triple)
            found = f"{sign:+d} I" if sign is not None else "no sign"
            signs[kind].append(sign)
            products.append(
                CheckResult(
                    f"{kind} {i} product",
                    sign == target,
                    f"expected {target:+d} I, found {found} (deviation {dev:.3e})",
                )
            )
    checks = (
        CheckResult("hermitian", herm_dev <= ATOL, f"max deviation {herm_dev:.3e}"),
        CheckResult("squares to identity", sq_dev <= ATOL, f"max deviation {sq_dev:.3e}"),
        *commute,
        *products,
    )
    return GridReport(checks=checks, row_signs=tuple(signs["row"]), col_signs=tuple(signs["column"]))


def _grid_constraints(grid: ObservableGrid) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Product constraints as (variable indices, target sign) pairs.

    Variables number the nine entries row-major, 0 through 8.
    """
    constraints = []
    for i in range(3):
        constraints.append((tuple(3 * i + j for j in range(3)), grid.row_targets[i]))
    for j in range(3):
        constraints.append((tuple(3 * i + j for i in range(3)), grid.col_targets[j]))
    return tuple(constraints)


def _count_sign_assignments(
    n_vars: int, constraints: tuple[tuple[tuple[int, ...], int], ...]
) -> tuple[int, int]:
    """Exhaustively count +-1 assignments satisfying all constraints.

    Returns (candidates examined, satisfying assignments).
    """
    examined = 0
    consistent = 0
    for values in itertools.product((1, -1), repeat=n_vars):
        examined += 1
        if all(
            int(np.prod([values[k] for k in idx])) == target
            for idx, target in constraints
        ):
            consistent += 1
    return examined, consistent


def assignment_search(grid: ObservableGrid) -> tuple[int, int]:
    """Verify the operator identities, then count consistent assignments."""
    report = verify_grid(grid)
    if not report.ok:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise ValueError(f"grid fails operator verification: {failed}")
    return _count_sign_assignments(9, _grid_constraints(grid))


@dataclass(frozen=True)
class WitnessReport:
    """Certificate that no noncontextual value map exists for the square."""

    PARITY_DEF = (
        "parity_obstruction: each entry appears in exactly one row and one column constraint, so "
        "the product of all six constraints is +1 while the sign targets multiply to -1"
    )
    n_candidates: int
    n_consistent: int
    parity_product: int
    constraint_lines: tuple
    labels: tuple

    @property
    def all_candidates_examined(self) -> bool:
        """Every one of the 2^9 sign assignments was examined.  Deterministic."""
        return self.n_candidates == 512

    @property
    def parity_obstruction(self) -> bool:
        """No assignment is consistent, and the six targets multiply to -1.  Deterministic."""
        return self.n_consistent == 0 and self.parity_product == -1

    def as_text(self) -> str:
        rows = [" | ".join(row) for row in self.labels]
        lines = [
            "Noncontextual value maps on the observable square: none exist.",
            "",
            "Square (rows x columns):",
            *(f"    {r}" for r in rows),
            "",
            "Constraints on a putative assignment v: entries -> {+1, -1}:",
            *(f"    {line}" for line in self.constraint_lines),
            "",
            f"Exhaustive search: {self.n_candidates} assignments examined, "
            f"{self.n_consistent} satisfy all six constraints.",
            "",
            "Parity argument: multiplying all six constraints, every entry",
            "appears exactly twice on the left, so the left side is +1; the",
            f"right side is the product of the six targets, {self.parity_product:+d}.",
            "The constraint system is therefore unsatisfiable: values cannot",
            "be assigned to the observables independently of the experimental",
            "context in which they are measured.",
        ]
        return "\n".join(lines)


def contextual_witness(grid: ObservableGrid | None = None) -> WitnessReport:
    """Run the exhaustive search and package the impossibility certificate."""
    grid = grid or standard_grid()
    examined, consistent = assignment_search(grid)
    if consistent != 0:
        raise ValueError(
            f"grid admits {consistent} consistent assignments; no obstruction to certify"
        )
    parity = 1
    lines = []
    for idx, target in _grid_constraints(grid):
        entries = " * ".join(f"v({grid.labels[k // 3][k % 3]})" for k in idx)
        lines.append(f"{entries} = {target:+d}")
        parity *= target
    return WitnessReport(
        n_candidates=examined,
        n_consistent=consistent,
        parity_product=parity,
        constraint_lines=tuple(lines),
        labels=grid.labels,
    )


def joint_value_distribution(
    grid: ObservableGrid, kind: str, index: int, state: np.ndarray
) -> dict[tuple[int, int, int], float]:
    """Joint probabilities of the three commuting observables in one row
    or column, in the given pure state.

    Each value triple (a, b, c) in {+1, -1}^3 gets ||P_c P_b P_a psi||^2,
    where P_s = (I + s A)/2 projects onto the s-eigenspace of its
    observable A.  The three commute, so the eight projected vectors sum
    to psi and the probabilities to 1.  When A1 A2 A3 = t I, a triple
    with a b c != t gets probability zero to rounding.
    """
    if kind not in ("row", "col"):
        raise ValueError(f"kind must be 'row' or 'col', got {kind!r}")
    if index not in (0, 1, 2):
        raise ValueError(f"index must be 0, 1, or 2, got {index}")
    vec = np.asarray(state, dtype=np.complex128).reshape(-1)
    if vec.shape != (4,):
        raise ValueError(f"state must be a 4-component vector, got shape {vec.shape}")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, got norm {norm!r}")

    triple = grid.entries[index] if kind == "row" else grid.entries[:, index]
    probs: dict[tuple[int, int, int], float] = {}
    for values in itertools.product((1, -1), repeat=3):
        projected = vec
        for sign, observable in zip(values, triple):
            projected = (projected + sign * (observable @ projected)) / 2
        probs[values] = float(np.vdot(projected, projected).real)
    return probs
