"""Simulated single-axis spin-splitting experiment.

The setup is reduced to the deflection coordinate z.  During the magnet
window [0, tau] the Hamiltonian carries the coupling

    mu * polarity * (b0 + b_grad * z) * sigma_z,

then the packet drifts freely for t_drift.  The two spinor branches pick
up opposite momentum kicks of magnitude |mu * b_grad * tau| and separate;
detectors read the sign of the final position: 'up' for z > z_det,
'down' for z < -z_det, 'null' in between.  Calibration values are
attached to detectors, not to spin labels, which is what makes the
polarity-reversal demonstration possible: reversing the magnet polarity
(or equivalently its geometry, the sign of b_grad) while flipping the
detector calibrations realizes the same operator sigma_z through a
position-level outcome map of the opposite sign.

With the default coupling mu = -1 the spin-up branch deflects toward
positive z under polarity +1, so the upper detector registers spin-up.

In 1D the trajectories cannot cross, so the flow keeps the order of the
initial positions and every outcome map is a threshold in q0; the
no-crossing check tests that order on the kept history, for any setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .grids import Grid1D, SpinorField, _check_in_band, _check_int, _unit_vector, make_grid, gaussian_packet
from .propagation import HamiltonianSpec, WaveTimeline, evolve
from .sampling import _check_seed, sample
from .trajectories import EnsemblePaths, integrate_ensemble

__all__ = [
    "PacketSpec",
    "SGSetup",
    "SGNumerics",
    "OutcomeStatistics",
    "TrajectoryEnsemble",
    "ContextualityReport",
    "build_timeline",
    "run_sg",
    "outcome_map",
    "contextuality_demo",
    "no_crossing_check",
    "branch_overlap",
    "branches_separated",
]

NULL_FRACTION_LIMIT = 0.05
MIRROR_TOL = 1e-12


def _check_finite_fields(spec) -> None:
    """Refuse a float field of the dataclass spec that is NaN or infinite."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if field.type == "float" and not -math.inf < value < math.inf:
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian packet parameters on the deflection axis, each
    finite, and the definitions a summary states beside its free laws."""

    WIDTH_DEF = "free_gaussian_width: sigma(t) = sigma0 sqrt(1 + (t / (2 sigma0^2))^2)"
    CENTER_DEF = "free_drift: center(t) = center0 + k t"
    center: float = 0.0
    sigma: float = 1.0
    k: float = 0.0

    def __post_init__(self) -> None:
        _check_finite_fields(self)
        if not self.sigma > 0:
            raise ValueError(f"packet width must be positive, got {self.sigma}")

    def free_center_width(self, t: float) -> tuple[float, float]:
        """Closed-form center and width after free motion for time t:
        center + k t and sigma sqrt(1 + (t / (2 sigma^2))^2)."""
        spread = math.sqrt(1.0 + (t / (2.0 * self.sigma**2)) ** 2)
        return self.center + self.k * t, self.sigma * spread

    def free_motion_verdicts(self, t: float, center: float, width: float) -> tuple[bool, bool]:
        """Whether a measured width lies within 1 % of free_center_width's at
        t, and a measured center within 1e-6 of its, times max(1, |its|).  Deterministic."""
        law_center, law_width = self.free_center_width(t)
        width_ok = abs(width - law_width) <= 0.01 * law_width
        return width_ok, abs(center - law_center) <= 1e-6 * max(1.0, abs(law_center))


@dataclass(frozen=True)
class SGSetup:
    """Magnet and detector parameters.

    Defaults give momentum kicks of magnitude 4, branch centers at +-10
    after the drift, branch separation about 11 standard widths, and a
    null fraction near 0.1%.  Detector calibrations default to
    (lambda_up, lambda_down) = (+1, -1) for polarity +1.
    reverse_geometry flips the sign of b_grad (requires b0 = 0), the
    field-reversal alternative to flipping the polarity.  Every float
    field must be finite, and a setup that cannot split, mu * b_grad = 0,
    is refused here, so every entry point and command meets one rule.
    """

    b0: float = 0.0
    b_grad: float = 4.0
    mu: float = -1.0
    tau: float = 1.0
    t_drift: float = 2.0
    z_det: float = 4.5
    polarity: int = 1
    calibration_up: float = 1.0
    calibration_down: float = -1.0
    reverse_geometry: bool = False

    def __post_init__(self) -> None:
        _check_finite_fields(self)
        _check_int(self.polarity, "polarity", None)
        if self.polarity not in (1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")
        if not self.tau > 0:
            raise ValueError(f"magnet window tau must be positive, got {self.tau}")
        if self.t_drift < 0:
            raise ValueError(f"drift time must be nonnegative, got {self.t_drift}")
        if self.z_det < 0:
            raise ValueError(f"detector boundary must be nonnegative, got {self.z_det}")
        if self.reverse_geometry and self.b0 != 0:
            raise ValueError("geometry reversal is defined for b0 = 0 only")
        if self.mu * self.b_grad == 0:
            raise ValueError("setup produces no splitting: mu * b_grad = 0, so the beam never splits")

    @property
    def _field_sign(self) -> int:
        return self.polarity * (-1 if self.reverse_geometry else 1)

    @property
    def _upper_branch(self) -> str:
        """Which spin component ('up'/'down') reaches the upper detector."""
        return "up" if -self.mu * self._field_sign * self.b_grad > 0 else "down"


@dataclass(frozen=True)
class SGNumerics:
    """Discretization used for the wave and trajectory integration.

    The wave advances in steps of dt and keeps every record_every-th
    field: Strang split steps in the magnet window, and the exact free
    motion at every step time of the drift; each split step is exact up
    to a global phase.  The transport takes substeps RK4
    steps per record interval on the cubic-Hermite time blend of the
    flow.  The defaults, 256 split steps and 512 exact drift steps, 49
    records and 96 RK4 steps on the default run, are the fewest
    RK4 steps whose transport stays within a tenth of the previous
    defaults' error (linear blend, record_every 8, substeps 4: max |dq|
    5.6e-3 against the closed-form trajectories, 10k particles, equal
    weights).  Measured there: 6.6e-5, with no detector outcome changed;
    (8, 1) reaches 2.1e-4 in as many steps, and every choice of 48 steps
    misses the bound ((16, 1) 9.0e-4, (32, 2) 4.8e-3).  The 6.6e-5 is
    partly a cancellation: the time blend's error at this record spacing
    (about 3e-4) and the spatial cubic's at n = 512 (about 2.2e-4) partly
    cancel, so refining either one alone makes the total worse.

    substeps is the package's only RK4 substep default: integrate_ensemble
    has none, and run_sg, the CLI and the scripts derive dt_traj from it.
    """

    grid_n: int = 512
    x_min: float = -30.0
    x_max: float = 30.0
    dt: float = 1.0 / 256.0
    record_every: int = 16
    substeps: int = 2

    def __post_init__(self) -> None:
        _check_finite_fields(self)
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        _check_int(self.record_every, "record_every")
        _check_int(self.substeps, "substeps")

    def grid(self) -> Grid1D:
        return make_grid(self.grid_n, self.x_min, self.x_max)

    @property
    def dt_traj(self) -> float:
        return self.dt * self.record_every / self.substeps


# Preconditions of the entry points, each stated once: parse_config calls the same
# functions, and each entry point first calls _check_entry (threads, spinor), whose
# unit spinor the Born weights read; gaussian_packet scales the caller's pair.
def _check_entry(threads: int, a: complex, b: complex) -> tuple[complex, complex]:
    _check_int(threads, "threads")
    return _unit_vector((a, b))


def _check_packet_symmetric(packet: PacketSpec) -> None:
    if packet.center != 0.0 or packet.k != 0.0:
        raise ValueError(
            "the splitting experiment requires a packet centered at 0 with zero "
            f"mean momentum, got center = {packet.center}, k = {packet.k}"
        )


def _check_equal_weights(a: complex, b: complex) -> None:
    """|a| = |b| to MIRROR_TOL relative to the spinor's norm."""
    if abs(abs(a) - abs(b)) > MIRROR_TOL * math.hypot(abs(a), abs(b)):
        raise ValueError("the mirror-symmetric experiment requires |spin_up| = |spin_down|")


def _check_in_support(q, packet: PacketSpec) -> None:
    """Initial positions strictly within center +- 5 sigma."""
    worst = float(np.max(np.abs(np.asarray(q, dtype=np.float64) - packet.center)))
    if worst >= 5 * packet.sigma:
        raise ValueError(
            f"initial positions must lie within the packet support, |q - center| < "
            f"5 sigma = {5 * packet.sigma}, got {worst}"
        )


def _initial_positions(q_grid, packet: PacketSpec) -> np.ndarray:
    """q_grid as a flat array; refused when empty or outside the support."""
    q = np.asarray(q_grid, dtype=np.float64).reshape(-1)
    if q.size == 0:
        raise ValueError("q_grid must be nonempty")
    _check_in_support(q, packet)
    return q


def _check_reversal_setup(setup: SGSetup) -> None:
    """The demo's base experiment: polarity +1, calibrations (+1, -1), unreversed.
    Any finite b0 is taken: a uniform field only adds a relative phase
    between the spin components, which the velocity cannot see."""
    if setup.reverse_geometry:
        raise ValueError("pass the unreversed setup; the demo drives the reversal itself")
    if (setup.polarity, setup.calibration_up, setup.calibration_down) != (1, 1.0, -1.0):
        raise ValueError(
            "the demo runs polarity +1 with calibrations (+1, -1), then their reversal; got "
            f"polarity {setup.polarity}, calibrations ({setup.calibration_up}, {setup.calibration_down})"
        )


def _check_kick_resolved(setup: SGSetup, packet: PacketSpec, grid: Grid1D) -> None:
    """The band limit at |k| + |mu b_grad| tau, the momentum each branch leaves the magnet with."""
    kick = abs(setup.mu * setup.b_grad) * setup.tau
    message = f"magnet kick |mu b_grad| tau = {kick:.6g}: the branches' |k| + kick + 5/(2 sigma)"
    _check_in_band(grid, abs(packet.k) + kick, packet.sigma, message)


def _magnet_hamiltonian(setup: SGSetup, grid: Grid1D) -> HamiltonianSpec:
    """The coupling of the magnet window on grid; HamiltonianSpec refuses one past float range."""
    field = np.zeros((grid.n, 3))
    with np.errstate(over="ignore"):
        field[:, 2] = setup._field_sign * (setup.b0 + setup.b_grad * grid.xs())
    return HamiltonianSpec(grid, np.zeros(grid.n), field, setup.mu)


def build_timeline(
    setup: SGSetup,
    a: complex,
    b: complex,
    packet: PacketSpec,
    numerics: SGNumerics = SGNumerics(),
) -> WaveTimeline:
    """Evolve the packet through the magnet window, then the free drift if t_drift > 0."""
    grid = numerics.grid()
    psi0 = gaussian_packet(grid, packet.center, packet.sigma, packet.k, a, b)
    _check_kick_resolved(setup, packet, grid)
    windows = [(_magnet_hamiltonian(setup, grid), setup.tau)]
    if setup.t_drift > 0:
        windows.append((HamiltonianSpec.free(grid), setup.t_drift))
    return evolve(psi0, windows, numerics.dt, numerics.record_every)


def _assign_outcomes(q_final, setup: SGSetup) -> tuple[np.ndarray, np.ndarray]:
    """Detector labels and calibrated values for final positions.

    Returns (outcomes, lambdas) where outcomes is an array of 'up',
    'down', 'null' and lambdas carries the detector calibration with NaN
    as the distinguished non-value for null.
    """
    q = np.asarray(q_final, dtype=np.float64)
    outcomes = np.full(q.shape, "null", dtype="<U4")
    outcomes[q > setup.z_det] = "up"
    outcomes[q < -setup.z_det] = "down"
    lambdas = np.full(q.shape, np.nan)
    lambdas[outcomes == "up"] = setup.calibration_up
    lambdas[outcomes == "down"] = setup.calibration_down
    return outcomes, lambdas


@dataclass(frozen=True)
class OutcomeStatistics:
    """Counts, frequencies, and calibrated statistics of one ensemble run.

    Theoretical values follow the Born weights of the spinor amplitudes,
    routed to detectors according to which branch deflects upward.  The
    class holds the definitions a summary states beside them.
    """

    BORN_DEF = "born_weight: p_a = ||P_a psi||^2"
    EXPECT_DEF = "calibrated_expectation: sum_a p_a lambda_a = <psi, A psi>"
    NULL_DEF = "ideal_detection: fully separated branches land on the detectors"
    n: int
    counts: dict
    frequencies: dict
    born: dict
    calibrated_mean: float
    expectation_theory: float
    stderr_mean: float

    @property
    def null_fraction(self) -> float:
        return self.counts["null"] / self.n

    @property
    def freq_up_detected(self) -> float:
        """Up-frequency among the detected particles; NaN when none was."""
        detected = self.counts["up"] + self.counts["down"]
        return self.counts["up"] / detected if detected else float("nan")

    @property
    def stderr_freq_up(self) -> float:
        """Standard error of the up-frequency at the Born weight, sqrt(p (1 - p) / n)."""
        p = self.born["up"]
        return math.sqrt(p * (1.0 - p) / self.n)

    @property
    def null_fraction_le_1pct(self) -> bool:
        """At most 1 % of the ensemble ends between the detectors.  Random:
        at the shipped detectors the starts between the two separatrices
        hold 1.141e-3 of the mass, so at n = 10k its size, the binomial
        tail of more than 100 nulls, is about 5e-59."""
        return self.null_fraction <= 0.01

    @property
    def born_within_3sigma(self) -> bool:
        """The Born acceptance: the detected up-frequency lies within 3
        standard errors of the Born weight (False when none was detected)."""
        return abs(self.freq_up_detected - self.born["up"]) <= 3.0 * self.stderr_freq_up

    @property
    def calibrated_within_3se(self) -> bool:
        """The calibrated mean lies within 3 of its standard errors of the
        expectation (False when the standard error is not finite)."""
        se = self.stderr_mean
        return math.isfinite(se) and abs(self.calibrated_mean - self.expectation_theory) <= 3.0 * se


def _statistics(setup: SGSetup, a: complex, lambdas, outcomes) -> OutcomeStatistics:
    """Statistics of one ensemble's readout, a the unit spinor's up amplitude;
    over 5% of trajectories between the detectors fails the geometry."""
    n = outcomes.size
    counts = {key: int(np.sum(outcomes == key)) for key in ("up", "down", "null")}
    freqs = {key: counts[key] / n for key in counts}
    if freqs["null"] > NULL_FRACTION_LIMIT:
        raise RuntimeError(
            f"null-outcome fraction {freqs['null']:.1%} exceeds {NULL_FRACTION_LIMIT:.0%}; "
            f"detector boundary z_det = {setup.z_det} does not match the beam geometry"
        )
    p_up_spin = abs(a) ** 2
    p_upper = p_up_spin if setup._upper_branch == "up" else 1.0 - p_up_spin
    born = {"up": p_upper, "down": 1.0 - p_upper, "null": 0.0}
    valid = lambdas[~np.isnan(lambdas)]  # nonempty, as the null limit holds
    # over lambda / s, s a power of two <= max |lambda| < 2s: exact, and no square overflows
    s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(valid))))[1] - 1)
    scaled = valid / s
    mean = float(np.mean(scaled)) * s
    stderr = float(np.std(scaled, ddof=1) / np.sqrt(valid.size)) * s if valid.size > 1 else float("nan")
    theory = setup.calibration_up * born["up"] + setup.calibration_down * born["down"]
    return OutcomeStatistics(
        n=n,
        counts=counts,
        frequencies=freqs,
        born=born,
        calibrated_mean=mean,
        expectation_theory=theory,
        stderr_mean=stderr,
    )


def _readout(setup: SGSetup, timeline: WaveTimeline, q0, numerics: SGNumerics, threads: int,
             keep_history: bool = False):
    """Transport q0 along timeline and read the detectors.

    Returns (paths, outcomes, lambdas).  The transport is elementwise, so
    positions read together get the same outcomes as read apart.
    """
    paths = integrate_ensemble(
        timeline, q0, dt_traj=numerics.dt_traj, keep_history=keep_history, threads=threads
    )
    return (paths, *_assign_outcomes(paths.q_final, setup))


@dataclass(frozen=True)
class TrajectoryEnsemble(EnsemblePaths):
    """EnsemblePaths with each trajectory's detector outcome and calibrated value."""

    outcomes: np.ndarray
    lambdas: np.ndarray


def run_sg(
    setup: SGSetup,
    a: complex,
    b: complex,
    packet: PacketSpec,
    n: int,
    seed: int,
    numerics: SGNumerics = SGNumerics(),
    keep_history: bool = False,
    threads: int = 1,
    timeline: WaveTimeline | None = None,
) -> tuple[OutcomeStatistics, TrajectoryEnsemble]:
    """Full experiment: sample, transport, read detectors.

    Initial positions are equilibrium samples of the initial packet;
    trajectories are integrated along the evolving wave and assigned the
    detector outcome of their final position.  Fails if more than 5% of
    trajectories end between the detectors, which indicates a
    misconfigured geometry.  Only with keep_history does the ensemble
    carry the position history that no_crossing_check reads.  (a, b) is any
    spinor _unit_vector takes; the packet and the Born weights each use it
    scaled to unit norm once.
    """
    up, _ = _check_entry(threads, a, b)
    _check_int(n, "ensemble size")
    _check_seed(seed)
    if timeline is None:
        timeline = build_timeline(setup, a, b, packet, numerics)
    q0 = sample(timeline.fields[0], n, seed)
    paths, outcomes, lambdas = _readout(setup, timeline, q0, numerics, threads, keep_history)
    stats = _statistics(setup, up, lambdas, outcomes)
    return stats, TrajectoryEnsemble(**vars(paths), outcomes=outcomes, lambdas=lambdas)


def outcome_map(
    setup: SGSetup,
    a: complex,
    b: complex,
    packet: PacketSpec,
    q_grid,
    numerics: SGNumerics = SGNumerics(),
    threads: int = 1,
) -> np.ndarray:
    """Calibrated outcome as a function of the initial position.

    Returns lambda values with NaN marking null outcomes.  The initial
    positions must lie within the packet support (|q - center| < 5 sigma).
    """
    _check_entry(threads, a, b)
    q = _initial_positions(q_grid, packet)
    timeline = build_timeline(setup, a, b, packet, numerics)
    return _readout(setup, timeline, q, numerics, threads)[2]


@dataclass(frozen=True)
class ContextualityReport:
    """Two realizations of the same observable with opposite outcome maps."""

    q_grid: np.ndarray
    lambda_base: np.ndarray
    lambda_reversed: np.ndarray
    pointwise_opposite: bool
    n_null_base: int
    n_null_reversed: int
    stats_base: OutcomeStatistics
    stats_reversed: OutcomeStatistics

    def summary(self) -> str:
        base_ok, reversed_ok = (s.born_within_3sigma for s in (self.stats_base, self.stats_reversed))
        lines = [
            "Same operator, two experiments:",
            f"  base (polarity +1, calibrations +1/-1):     detected freq_up = "
            f"{self.stats_base.freq_up_detected:.4f}, Born p = {self.stats_base.born['up']:.4f}",
            f"  reversed (polarity -1, calibrations -1/+1): detected freq_up = "
            f"{self.stats_reversed.freq_up_detected:.4f}, Born p = {self.stats_reversed.born['up']:.4f}",
            f"  statistics agree with the Born weights: base {base_ok}, reversed {reversed_ok}",
            f"  outcome maps are pointwise opposite on {self.q_grid.size} initial "
            f"positions: {self.pointwise_opposite}",
            "  the position-level value map is a property of the experiment, not of the operator",
        ]
        return "\n".join(lines)


def contextuality_demo(
    setup: SGSetup,
    a: complex,
    b: complex,
    packet: PacketSpec,
    q_grid,
    n: int = 10_000,
    seed: int = 0,
    numerics: SGNumerics = SGNumerics(),
    threads: int = 1,
) -> ContextualityReport:
    """Run the polarity-reversal pair and compare their outcome maps.

    Requires |a| = |b| and a packet centered at 0 with k = 0, so that the
    two maps mirror each other; any finite b0 is taken.  setup is the
    base experiment, polarity +1 with calibrations (+1, -1); any other
    polarity, calibrations or reverse_geometry is refused.  The reversed
    one uses polarity -1 with calibrations flipped.  Both reproduce the
    Born statistics of the same operator while their position-level
    outcome maps are opposite at every non-null initial position.  Each
    experiment transports its sampled ensemble and the map grid together.
    """
    up, down = _check_entry(threads, a, b)
    _check_reversal_setup(setup)
    _check_equal_weights(up, down)
    _check_packet_symmetric(packet)
    q = _initial_positions(q_grid, packet)
    _check_int(n, "ensemble size")
    _check_seed(seed)
    flipped = replace(setup, polarity=-1, calibration_up=-1.0, calibration_down=1.0)

    readouts = []
    for experiment in (setup, flipped):
        timeline = build_timeline(experiment, a, b, packet, numerics)
        starts = np.concatenate((sample(timeline.fields[0], n, seed), q))
        _, outcomes, lambdas = _readout(experiment, timeline, starts, numerics, threads)
        readouts.append((_statistics(experiment, up, lambdas[:n], outcomes[:n]), lambdas[n:]))
    (stats_base, lam_base), (stats_flip, lam_flip) = readouts

    null_base, null_flip = np.isnan(lam_base), np.isnan(lam_flip)
    same_support = bool(np.array_equal(null_base, null_flip))
    ok = same_support and bool(np.all(lam_flip[~null_flip] == -lam_base[~null_base]))
    return ContextualityReport(
        q_grid=q,
        lambda_base=lam_base,
        lambda_reversed=lam_flip,
        pointwise_opposite=ok,
        n_null_base=int(np.sum(null_base)),
        n_null_reversed=int(np.sum(null_flip)),
        stats_base=stats_base,
        stats_reversed=stats_flip,
    )


def no_crossing_check(ensemble: TrajectoryEnsemble) -> bool:
    """Verify that no two trajectories cross: in 1D, that the flow keeps
    the order of the initial positions, for any setup, spinor and packet.

    With the particles sorted once by q0 (stably), every recorded row of
    the history must be nondecreasing; particles that tie pass.  Rows are
    checked one at a time, so no history-sized temporary is made.
    Refuses an ensemble integrated without position history.
    """
    if ensemble.positions is None:
        raise ValueError("ensemble was integrated without position history")
    order = np.argsort(ensemble.q0, kind="stable")
    for row in ensemble.positions:
        ranked = row[order]
        if not np.all(ranked[1:] >= ranked[:-1]):
            return False
    return True


def branch_overlap(field: SpinorField) -> float:
    """Geometric overlap of the two spinor branches, int |psi1| |psi2| dx.

    Components are normalized individually, so the value measures spatial
    disjointness only; 0.0 when either branch carries no weight.
    """
    dx = field.grid.dx
    a1 = np.abs(field.comp1)
    a2 = np.abs(field.comp2)
    n1 = np.sqrt(np.sum(a1**2) * dx)
    n2 = np.sqrt(np.sum(a2**2) * dx)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.sum(a1 * a2) * dx / (n1 * n2))


def branches_separated(overlap: float) -> bool:
    """The verdict on a branch_overlap value: at most 1e-4.  Deterministic."""
    return overlap <= 1e-4
