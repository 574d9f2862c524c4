"""Unitary time evolution by Strang-split spectral stepping.

One step applies

    exp(-i V_eff dt/2) * exp(-i T dt) * exp(-i V_eff dt/2)

where V_eff(x) = V(x) I + mu B(x).sigma acts pointwise through the exact
2x2 matrix exponential (closed form in the Pauli algebra) and the kinetic
factor T = k^2/2 is diagonal in Fourier space.  Every factor is unitary up
to rounding, so the discrete norm is conserved to machine precision and
the remaining error is the second-order splitting error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, SpinorField, density, inner_product

__all__ = [
    "HamiltonianSpec",
    "WaveTimeline",
    "step",
    "window_steps",
    "evolve",
    "apply_hamiltonian",
    "energy",
]

# Accuracy guard: warn when max|V_eff| * dt exceeds this bound.
GUARD_LIMIT = 0.5
# Mass allowed in the outer 5% of the domain (each side) before evolution aborts.
BOUNDARY_MASS_LIMIT = 1e-6


@dataclass(frozen=True)
class HamiltonianSpec:
    """Scalar potential plus Pauli coupling mu * B(x).sigma on a grid.

    potential : real array of V(x_j), shape (n,)
    field_b   : real array of B(x_j), shape (n, 3)
    mu        : real coupling strength
    """

    grid: Grid1D
    potential: np.ndarray
    field_b: np.ndarray
    mu: float = 0.0

    def __post_init__(self) -> None:
        v = np.array(self.potential, dtype=np.float64, copy=True).reshape(-1)
        b = np.array(self.field_b, dtype=np.float64, copy=True)
        if v.shape != (self.grid.n,):
            raise ValueError(f"potential must have length {self.grid.n}, got {v.shape}")
        if b.shape != (self.grid.n, 3):
            raise ValueError(f"field_b must have shape ({self.grid.n}, 3), got {b.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(b))):
            raise ValueError("potential and field values must be finite")
        v.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "potential", v)
        object.__setattr__(self, "field_b", b)
        object.__setattr__(self, "mu", float(self.mu))

    @classmethod
    def free(cls, grid: Grid1D) -> "HamiltonianSpec":
        return cls(grid, np.zeros(grid.n), np.zeros((grid.n, 3)), 0.0)

    def field_magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.field_b**2, axis=1))

    def max_effective_potential(self) -> float:
        """max_j |V(x_j)| + |mu| |B(x_j)|, the strength entering the guard."""
        return float(np.max(np.abs(self.potential) + abs(self.mu) * self.field_magnitude()))

    def conjugate(self) -> "HamiltonianSpec":
        """The complex conjugate H*, which drives the conjugated field.

        The kinetic term, V and the real Pauli matrices sigma_x, sigma_z
        are unchanged; sigma_y* = -sigma_y flips the y component of B.
        """
        b = np.array(self.field_b, copy=True)
        b[:, 1] = -b[:, 1]
        return HamiltonianSpec(self.grid, self.potential, b, self.mu)


def _half_potential_factors(h: HamiltonianSpec, dt: float):
    """Entries of exp(-i V_eff dt/2) at every grid point.

    exp(-i theta n.sigma) = cos(theta) I - i sin(theta) n.sigma with
    theta = mu |B| dt/2 and n = B/|B| (term vanishes where B = 0).
    """
    bmag = h.field_magnitude()
    nhat = np.divide(
        h.field_b,
        bmag[:, None],
        out=np.zeros_like(h.field_b),
        where=bmag[:, None] > 0,
    )
    theta = h.mu * bmag * (0.5 * dt)
    c = np.cos(theta)
    s = np.sin(theta)
    scalar = np.exp(-0.5j * dt * h.potential)
    u11 = scalar * (c - 1j * s * nhat[:, 2])
    u12 = scalar * (-1j * s * (nhat[:, 0] - 1j * nhat[:, 1]))
    u21 = scalar * (-1j * s * (nhat[:, 0] + 1j * nhat[:, 1]))
    u22 = scalar * (c + 1j * s * nhat[:, 2])
    return u11, u12, u21, u22


def _step_arrays(c1, c2, kin_phase, pot):
    u11, u12, u21, u22 = pot
    # both components in one (2, n) transform pair; each row is transformed
    # exactly as on its own
    d = np.stack((u11 * c1 + u12 * c2, u21 * c1 + u22 * c2))
    d1, d2 = np.fft.ifft(kin_phase * np.fft.fft(d))
    return u11 * d1 + u12 * d2, u21 * d1 + u22 * d2


def _guard_violation(h: HamiltonianSpec, dt: float) -> str | None:
    """Why steps of size dt break the accuracy guard for h, or None.

    The one rule for the guard: evolve and step warn with this message,
    and the CLI rejects a config with it before any work.
    """
    ratio = h.max_effective_potential() * abs(dt)
    if ratio < GUARD_LIMIT:
        return None
    return (
        f"split-step accuracy guard violated: max|V_eff| * dt = "
        f"{ratio:.3g} >= {GUARD_LIMIT}; reduce dt"
    )


def _warn_if_guard_violated(h: HamiltonianSpec, dt: float) -> None:
    message = _guard_violation(h, dt)
    if message is not None:
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def step(psi: SpinorField, h: HamiltonianSpec, dt: float) -> SpinorField:
    """Advance one Strang split step of size dt > 0."""
    if psi.grid != h.grid:
        raise ValueError("field and Hamiltonian live on different grids")
    if not dt > 0:
        raise ValueError(f"step size must be positive, got {dt}")
    _warn_if_guard_violated(h, dt)
    k = h.grid.wavenumbers()
    kin_phase = np.exp(-0.5j * dt * k * k)
    pot = _half_potential_factors(h, dt)
    c1, c2 = _step_arrays(psi.comp1, psi.comp2, kin_phase, pot)
    return SpinorField(psi.grid, c1, c2)


@dataclass(frozen=True)
class WaveTimeline:
    """Uniformly spaced record of an evolving field.

    times has the same length as fields; spacing is uniform and the last
    record sits at the final evolution time.  generators holds the
    dynamics as runs (sign, h, n_intervals): over the next n_intervals
    record intervals the field obeys psi_t = -i sign (h psi), sign being
    -1 where it ran backward in time.  The runs cover every interval.
    Adjacent runs of one sign and one HamiltonianSpec object are merged,
    so a run ends only where the dynamics change (a magnet switching
    off); equal but distinct objects stay separate runs.  evolve records
    one run, extend joins the runs and time_reversed conjugates them.
    boundary_mass holds the outer-domain mass observed at each record.
    """

    times: np.ndarray
    fields: tuple[SpinorField, ...]
    generators: tuple[tuple[int, HamiltonianSpec, int], ...]
    boundary_mass: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=np.float64, copy=True).reshape(-1)
        if t.shape[0] != len(self.fields):
            raise ValueError("times and fields must have equal length")
        if t.shape[0] < 2:
            raise ValueError("a timeline needs at least two records")
        gaps = np.diff(t)
        if not np.all(gaps > 0):
            raise ValueError("record times must be strictly increasing")
        if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
            raise ValueError("record spacing must be uniform")
        g = self.fields[0].grid
        if any(f.grid != g for f in self.fields):
            raise ValueError("all records must share one grid")
        bm = self.boundary_mass
        if bm is None:
            bm = np.zeros(t.shape[0])
        bm = np.array(bm, dtype=np.float64, copy=True).reshape(-1)
        if bm.shape != t.shape:
            raise ValueError("boundary_mass must match times in length")
        runs = []
        for sign, h, count in self.generators:
            if sign not in (1, -1) or h.grid != g or count < 1:
                raise ValueError("each run needs a sign of +-1, the records' grid and an interval")
            if runs and runs[-1][0] == sign and runs[-1][1] is h:
                runs[-1][2] += int(count)
            else:
                runs.append([int(sign), h, int(count)])
        if sum(count for _, _, count in runs) != t.shape[0] - 1:
            raise ValueError("the generator runs must cover every record interval")
        t.setflags(write=False)
        bm.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "boundary_mass", bm)
        object.__setattr__(self, "generators", tuple(tuple(run) for run in runs))

    @property
    def grid(self) -> Grid1D:
        return self.fields[0].grid

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def extend(self, other: "WaveTimeline") -> "WaveTimeline":
        """Concatenate a continuation whose first record equals our last."""
        if other.grid != self.grid:
            raise ValueError("cannot extend with a timeline on a different grid")
        if abs(other.spacing - self.spacing) > 1e-12 * max(1.0, self.spacing):
            raise ValueError("cannot extend with a different record spacing")
        last, first = self.fields[-1], other.fields[0]
        dev = max(
            float(np.max(np.abs(last.comp1 - first.comp1))),
            float(np.max(np.abs(last.comp2 - first.comp2))),
        )
        if dev > 1e-12:
            raise ValueError(f"continuation does not start from the final record (dev {dev:.2e})")
        times = np.concatenate([self.times, self.times[-1] + other.times[1:] - other.times[0]])
        bm = np.concatenate([self.boundary_mass, other.boundary_mass[1:]])
        gens = self.generators + other.generators
        return WaveTimeline(times, self.fields + other.fields[1:], gens, bm)

    def time_reversed(self) -> "WaveTimeline":
        """Timeline of the motion-reversed dynamics (conjugated fields).

        phi(s) = conj(psi(T - s)) obeys phi_s = -i sign (h* phi) when psi
        obeys psi_t = -i sign (h psi), so each generator keeps its sign and
        is conjugated.
        """
        times = self.times[-1] - self.times[::-1]
        fields = tuple(f.conjugate() for f in reversed(self.fields))
        gens = tuple((sign, h.conjugate(), count) for sign, h, count in reversed(self.generators))
        return WaveTimeline(times, fields, gens, self.boundary_mass[::-1])


def _boundary_indices(n: int) -> np.ndarray:
    m = int(np.ceil(0.05 * n))
    return np.concatenate([np.arange(m), np.arange(n - m, n)])


def window_steps(t_total: float, dt: float, record_every: int, name: str = "t_total") -> int:
    """Number of steps of size dt in a window of length t_total.

    dt must divide t_total to one part in 1e9 and record_every must divide
    the step count, so records are uniform and the final time is recorded.
    name is the window's name in error messages.
    """
    if dt == 0 or t_total == 0:
        raise ValueError(f"{name} and dt must be nonzero")
    if (dt > 0) != (t_total > 0):
        raise ValueError(f"dt and {name} must share a sign")
    n_steps = int(round(t_total / dt))
    if n_steps < 1 or abs(n_steps * dt - t_total) > 1e-9 * abs(t_total):
        raise ValueError(
            f"dt = {dt} does not divide {name} = {t_total}; "
            f"{name} must be an integer multiple of dt"
        )
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    if n_steps % record_every != 0:
        raise ValueError(
            f"record_every = {record_every} must divide the step count {n_steps} "
            f"of {name} so the final time is recorded"
        )
    return n_steps


def evolve(
    psi: SpinorField,
    h: HamiltonianSpec,
    t_total: float,
    dt: float,
    record_every: int = 1,
) -> WaveTimeline:
    """Evolve for t_total, recording every record_every steps.

    The window must tile into whole record intervals (see window_steps).
    Negative t_total with matching negative dt runs the dynamics backward;
    the timeline then records elapsed time and its generators carry sign -1.
    Raises RuntimeError if mass in the outer 5% of the domain (each side)
    ever exceeds 1e-6: the packet is about to wrap around.
    """
    if psi.grid != h.grid:
        raise ValueError("field and Hamiltonian live on different grids")
    n_steps = window_steps(t_total, dt, record_every)

    _warn_if_guard_violated(h, dt)
    k = h.grid.wavenumbers()
    kin_phase = np.exp(-0.5j * dt * k * k)
    pot = _half_potential_factors(h, dt)
    edge = _boundary_indices(h.grid.n)
    dx = h.grid.dx

    def edge_mass(c1, c2):
        e1, e2 = c1[edge], c2[edge]
        rho = e1.real**2 + e1.imag**2 + e2.real**2 + e2.imag**2
        return float(np.sum(rho) * dx)

    c1 = np.array(psi.comp1, copy=True)
    c2 = np.array(psi.comp2, copy=True)
    bm = edge_mass(c1, c2)
    if bm > BOUNDARY_MASS_LIMIT:
        raise RuntimeError(
            f"boundary mass {bm:.3e} exceeds {BOUNDARY_MASS_LIMIT:.0e} before evolution; "
            "enlarge the domain"
        )
    times = [0.0]
    fields = [psi]
    bmass = [bm]
    for i in range(1, n_steps + 1):
        c1, c2 = _step_arrays(c1, c2, kin_phase, pot)
        bm = edge_mass(c1, c2)
        if bm > BOUNDARY_MASS_LIMIT:
            raise RuntimeError(
                f"boundary mass {bm:.3e} exceeds {BOUNDARY_MASS_LIMIT:.0e} at t = {i * dt:.6g}; "
                "the packet is reaching the domain edge, enlarge the domain"
            )
        if i % record_every == 0:
            # Backward runs record elapsed time, so times always increase.
            times.append(i * abs(dt))
            fields.append(SpinorField(psi.grid, c1, c2))
            bmass.append(bm)
    generators = ((1 if dt > 0 else -1, h, len(fields) - 1),)
    return WaveTimeline(np.array(times), tuple(fields), generators, np.array(bmass))


def _hamiltonian_rows(c: np.ndarray, c_hat: np.ndarray, h: HamiltonianSpec) -> np.ndarray:
    """H psi for a stack of spinors c of shape (..., 2, n), given c_hat =
    fft(c) along the last axis; one inverse transform serves the stack."""
    out = np.fft.ifft((0.5 * h.grid.wavenumbers() ** 2) * c_hat)
    v = h.potential
    bx, by, bz = h.field_b[:, 0], h.field_b[:, 1], h.field_b[:, 2]
    c1, c2 = c[..., 0, :], c[..., 1, :]
    out[..., 0, :] += (v + h.mu * bz) * c1 + h.mu * (bx - 1j * by) * c2
    out[..., 1, :] += h.mu * (bx + 1j * by) * c1 + (v - h.mu * bz) * c2
    return out


def apply_hamiltonian(psi: SpinorField, h: HamiltonianSpec) -> SpinorField:
    """H psi with the kinetic part evaluated spectrally (not normalized)."""
    if psi.grid != h.grid:
        raise ValueError("field and Hamiltonian live on different grids")
    c = np.stack((psi.comp1, psi.comp2))
    h_psi = _hamiltonian_rows(c, np.fft.fft(c), h)
    return SpinorField(psi.grid, h_psi[0], h_psi[1])


def energy(psi: SpinorField, h: HamiltonianSpec) -> float:
    """<psi, H psi> (real part; the imaginary part is rounding noise)."""
    return inner_product(psi, apply_hamiltonian(psi, h)).real
