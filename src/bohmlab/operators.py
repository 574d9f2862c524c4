"""Finite-dimensional measurement bookkeeping.

An experiment is specified by a complete family of mutually orthogonal
projections (the outcome subspaces) together with a real calibration
value per outcome.  The induced self-adjoint operator A = sum lambda_a
P_a compactly encodes the outcome statistics: p_a = ||P_a psi||^2 and
sum_a p_a lambda_a = <psi, A psi>.  The map experiment -> operator is
deliberately many-to-one and forgets the experiment's identity.

The module also provides the unitary pointer (measurement) model: the
apparatus pointer starts in a ready state, the coupling maps
psi (x) ready to sum_a (P_a psi) (x) pointer_a, and reading the pointer
reproduces the Born weights exactly.  The pointer has pd = n_outcomes + 1
slots: slot 0 is the ready state and outcome a points to slot a + 1.  A
composite vector is indexed i * pd + beta, for system index i and
pointer slot beta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import _check_int, _unit_vector

__all__ = [
    "ExperimentSpecError",
    "HermitianOp",
    "Outcome",
    "ExperimentSpec",
    "StateVec",
    "PointerResult",
    "build_observable",
    "born_probabilities",
    "expectation",
    "spectral_decompose",
    "pointer_model",
    "reproducibility_check",
    "within_tolerance",
    "spec_from_text",
]

ATOL = 1e-12
MAX_COMPOSITE_DIM = 64


class ExperimentSpecError(ValueError):
    """Raised when an experiment specification violates an invariant."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("invalid experiment spec: " + "; ".join(self.failures))


def _as_square_complex(m) -> np.ndarray:
    a = np.array(m, dtype=np.complex128, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _maxdev(m) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


@dataclass(frozen=True)
class HermitianOp:
    """Complex square matrix validated to be Hermitian."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _as_square_complex(self.entries)
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be positive, got 0")
        scale = max(1.0, _maxdev(a))
        dev = _maxdev(a - a.conj().T)
        if dev > ATOL * scale:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


@dataclass(frozen=True)
class Outcome:
    """One experiment outcome: label, projection matrix, calibration value."""

    label: str
    projection: np.ndarray
    calibration: float

    def __post_init__(self) -> None:
        p = _as_square_complex(self.projection)
        p.setflags(write=False)
        object.__setattr__(self, "projection", p)
        object.__setattr__(self, "calibration", float(self.calibration))


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete family of orthogonal outcome projections with calibrations.

    Validation reports every violated invariant, not just the first.
    """

    dim: int
    outcomes: tuple[Outcome, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        failures = []
        try:
            _check_int(self.dim, "dimension")
        except ValueError as exc:
            raise ExperimentSpecError([str(exc)]) from None
        if len(self.outcomes) == 0:
            raise ExperimentSpecError(["at least one outcome is required"])
        labels = [oc.label for oc in self.outcomes]
        if len(set(labels)) != len(labels):
            failures.append("outcome labels must be unique")
        for oc in self.outcomes:
            p = oc.projection
            if p.shape != (self.dim, self.dim):
                failures.append(
                    f"projection '{oc.label}' has shape {p.shape}, expected ({self.dim}, {self.dim})"
                )
                continue
            dev = _maxdev(p - p.conj().T)
            if dev > ATOL:
                failures.append(f"projection '{oc.label}' is not Hermitian (deviation {dev:.3e})")
            dev = _maxdev(p @ p - p)
            if dev > ATOL:
                failures.append(f"projection '{oc.label}' is not idempotent (deviation {dev:.3e})")
        shaped = [oc for oc in self.outcomes if oc.projection.shape == (self.dim, self.dim)]
        for i, oc_a in enumerate(shaped):
            for oc_b in shaped[i + 1 :]:
                dev = _maxdev(oc_a.projection @ oc_b.projection)
                if dev > ATOL:
                    failures.append(
                        f"projections '{oc_a.label}' and '{oc_b.label}' are not orthogonal "
                        f"(deviation {dev:.3e})"
                    )
        if shaped:
            total = sum(oc.projection for oc in shaped)
            dev = _maxdev(total - np.eye(self.dim))
            if dev > ATOL:
                failures.append(f"projections do not sum to the identity (deviation {dev:.3e})")
        if failures:
            raise ExperimentSpecError(failures)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def calibrations(self) -> np.ndarray:
        return np.array([oc.calibration for oc in self.outcomes])

    def labels(self) -> tuple[str, ...]:
        return tuple(oc.label for oc in self.outcomes)


@dataclass(frozen=True)
class StateVec:
    """Unit-norm complex vector."""

    vec: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vec, dtype=np.complex128, copy=True).reshape(-1)
        if v.size < 1:
            raise ValueError("state vector must be nonempty")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > ATOL:
            raise ValueError(f"state vector must have unit norm, got {nrm!r}")
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @classmethod
    def normalized(cls, vec) -> "StateVec":
        return cls(_unit_vector(vec))


def build_observable(spec: ExperimentSpec) -> HermitianOp:
    """A = sum_a lambda_a P_a."""
    total = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    for oc in spec.outcomes:
        total += oc.calibration * oc.projection
    return HermitianOp(total)


def _check_state(psi: StateVec, spec: ExperimentSpec) -> None:
    if psi.vec.size != spec.dim:
        raise ValueError(f"state dimension {psi.vec.size} does not match spec dimension {spec.dim}")


def born_probabilities(psi: StateVec, spec: ExperimentSpec) -> np.ndarray:
    """Outcome distribution p_a = ||P_a psi||^2 (sums to 1)."""
    _check_state(psi, spec)
    return np.array([float(np.linalg.norm(oc.projection @ psi.vec) ** 2) for oc in spec.outcomes])


def expectation(psi: StateVec, spec: ExperimentSpec) -> float:
    """Mean calibrated outcome sum_a p_a lambda_a."""
    return float(born_probabilities(psi, spec) @ spec.calibrations())


def spectral_decompose(a: HermitianOp) -> ExperimentSpec:
    """Recover an experiment spec from a Hermitian operator.

    Eigenvalues closer than tol = 1e-9 * max|lambda| are clustered into
    one outcome.  A warning is issued when two clusters are separated by
    less than 10*tol, since the grouping is then sensitive to the
    tolerance.
    """
    evals, vecs = np.linalg.eigh(a.entries)
    tol = 1e-9 * float(np.max(np.abs(evals), initial=0.0))
    clusters: list[list[int]] = [[0]]
    for i in range(1, evals.size):
        if evals[i] - evals[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    gaps = [
        evals[nxt[0]] - evals[prev[-1]]
        for prev, nxt in zip(clusters, clusters[1:])
    ]
    if any(g < 10 * tol for g in gaps):
        warnings.warn(
            f"eigenvalue clusters separated by less than 10*tol = {10 * tol:.3e}; "
            "the outcome grouping is tolerance-sensitive",
            RuntimeWarning,
            stacklevel=2,
        )
    outcomes = []
    for idx, members in enumerate(clusters):
        block = vecs[:, members]
        outcomes.append(
            Outcome(
                label=f"eig{idx}",
                projection=block @ block.conj().T,
                calibration=float(np.mean(evals[members])),
            )
        )
    return ExperimentSpec(dim=evals.size, outcomes=tuple(outcomes))


@dataclass(frozen=True)
class PointerResult:
    """Composite state after the measurement interaction.

    state has dimension dim * pointer_dim with index (i, beta) flattened
    as i * pointer_dim + beta; pointer index 0 is the ready state and
    outcome a points the apparatus to index a + 1.
    """

    state: np.ndarray
    marginals: np.ndarray
    unitary: np.ndarray
    system_dim: int
    pointer_dim: int


def pointer_model(psi: StateVec, spec: ExperimentSpec) -> PointerResult:
    """Unitary apparatus model psi (x) ready -> sum_a (P_a psi) (x) pointer_a.

    The coupling isometry is completed to a unitary on the composite
    space; the returned marginals are the probabilities of finding the
    pointer at each outcome position and agree with the Born weights to
    within 1e-12.
    """
    _check_state(psi, spec)
    dim, pd = spec.dim, spec.n_outcomes + 1
    total = dim * pd
    if total > MAX_COMPOSITE_DIM:
        raise ValueError(
            f"composite dimension {total} exceeds the supported maximum {MAX_COMPOSITE_DIM}"
        )

    # Isometry columns, the images of e_i (x) ready: P_a in pointer slot
    # a + 1, zeros in the ready slot.
    slots = [np.zeros((dim, dim), dtype=np.complex128)] + [oc.projection for oc in spec.outcomes]
    coupling = np.stack(slots, axis=1).reshape(total, dim)

    # The coupling fills the columns of the ready slot, an orthonormal
    # completion of its range those of the outcome slots.
    evals, evecs = np.linalg.eigh(np.eye(total) - coupling @ coupling.conj().T)
    complement = evecs[:, evals > 0.5].reshape(total, dim, pd - 1)
    unitary = np.concatenate((coupling[:, :, None], complement), axis=2).reshape(total, total)

    initial = np.zeros(total, dtype=np.complex128)
    initial[::pd] = psi.vec
    final = unitary @ initial
    marginals = np.sum(np.abs(final.reshape(dim, pd)) ** 2, axis=0)[1:]
    return PointerResult(
        state=final,
        marginals=marginals,
        unitary=unitary,
        system_dim=dim,
        pointer_dim=pd,
    )


def reproducibility_check(psi: StateVec, spec: ExperimentSpec) -> bool:
    """Immediate repetition yields the same outcome with probability one.

    For every outcome with nonvanishing weight, collapse to the
    normalized projected state and re-evaluate the distribution; the
    check passes when the repeated outcome has probability 1 within 1e-12.
    """
    probs = born_probabilities(psi, spec)
    for a, oc in enumerate(spec.outcomes):
        if probs[a] <= ATOL:
            continue
        projected = oc.projection @ psi.vec
        post = StateVec.normalized(projected)
        repeat = born_probabilities(post, spec)
        if abs(repeat[a] - 1.0) > ATOL:
            return False
    return True


def within_tolerance(deviation: float) -> bool:
    """The verdict on an identity held to rounding, such as the pointer's marginals
    against the Born weights: a deviation of at most ATOL passes.  Deterministic."""
    return deviation <= ATOL


def spec_from_text(text: str) -> ExperimentSpec:
    """Parse a spec from structured text and validate it fully.

    The text holds a line `dim <n>`, then per outcome a line
    `outcome <label> <calibration>` followed by the n rows of its
    projection, one row of n complex entries per line; blank lines and
    `#` comments are skipped.
    """
    dim: int | None = None
    pending: list[tuple[str, float, list[np.ndarray]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "dim":
            if dim is not None:
                raise ValueError(f"line {lineno}: duplicate dim declaration")
            try:
                dim = int(parts[1])
            except (IndexError, ValueError):
                raise ValueError(f"line {lineno}: malformed dim declaration") from None
        elif parts[0] == "outcome":
            if dim is None:
                raise ValueError(f"line {lineno}: outcome before dim declaration")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'outcome <label> <calibration>'")
            try:
                cal = float(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: calibration {parts[2]!r} is not a number") from None
            pending.append((parts[1], cal, []))
        else:
            if not pending:
                raise ValueError(f"line {lineno}: matrix row outside an outcome block")
            try:
                row = np.array([complex(tok) for tok in parts], dtype=np.complex128)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed complex entry") from None
            if row.size != dim:
                raise ValueError(f"line {lineno}: expected {dim} entries, got {row.size}")
            pending[-1][2].append(row)
    if dim is None:
        raise ValueError("missing dim declaration")
    outcomes = []
    for label, cal, proj_rows in pending:
        if len(proj_rows) != dim:
            raise ValueError(f"outcome '{label}': expected {dim} matrix rows, got {len(proj_rows)}")
        outcomes.append(Outcome(label=label, projection=np.vstack(proj_rows), calibration=cal))
    return ExperimentSpec(dim=dim, outcomes=tuple(outcomes))
