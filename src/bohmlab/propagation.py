"""Unitary time evolution: exact for free motion, Strang-split otherwise.

Where the Hamiltonian is free (V = 0 and mu B = 0 on every grid point),
H = T = k^2/2 is diagonal in Fourier space and the state at time t is
exactly ifft(exp(-i k^2 t/2) fft(psi_0)): a free window has no splitting
error.  Any other Hamiltonian takes steps of

    exp(-i V_eff dt/2) * exp(-i T dt) * exp(-i V_eff dt/2)

where V_eff(x) = V(x) I + mu B(x).sigma acts pointwise through the exact
2x2 matrix exponential (closed form in the Pauli algebra).  Every factor
is unitary up to rounding, so the discrete norm is conserved to machine
precision.  The splitting error is second order in dt, and a global
phase where V_eff is diagonal and affine in x, as in the magnet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import STATE_BLOCK_BYTES, Grid1D, SpinorField, _check_int

__all__ = ["HamiltonianSpec", "WaveTimeline", "window_steps", "evolve", "norm_drift"]

# Mass allowed in the outer 5% of the domain (each side) before evolution aborts.
BOUNDARY_MASS_LIMIT = 1e-6
NORM_DEF = "unitarity: the propagator preserves the norm"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Scalar potential plus Pauli coupling mu * B(x).sigma on a grid.

    potential : real array of V(x_j), shape (n,)
    field_b   : real array of B(x_j), shape (n, 3)
    mu        : real coupling strength
    Each must be finite, and so must mu |B(x_j)| as the split step takes it.
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
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, as is a B not finite
            coupling = float(self.mu) * np.sqrt(np.sum(b**2, axis=1))
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(coupling))):
            raise ValueError("potential, field and coupling mu |B| values must be finite")
        v.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "potential", v)
        object.__setattr__(self, "field_b", b)
        object.__setattr__(self, "mu", float(self.mu))

    @classmethod
    def free(cls, grid: Grid1D) -> "HamiltonianSpec":
        return cls(grid, np.zeros(grid.n), np.zeros((grid.n, 3)), 0.0)


def _half_potential_factors(h: HamiltonianSpec, dt: float):
    """Entries of exp(-i V_eff dt/2) at every grid point.

    exp(-i theta n.sigma) = cos(theta) I - i sin(theta) n.sigma with
    theta = mu |B| dt/2 and n = B/|B| (term vanishes where B = 0).
    """
    bmag = np.sqrt(np.sum(h.field_b**2, axis=1))
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


@dataclass(frozen=True)
class WaveTimeline:
    """Uniformly spaced record of an evolving field.

    times has the same length as fields; spacing is uniform and the last
    record sits at the final evolution time.  generators holds the
    dynamics as runs (h, n_intervals): over the next n_intervals record
    intervals the field obeys psi_t = -i h psi.  The runs cover every
    interval, each as given: evolve records one run per window, and no
    runs are merged.  boundary_mass holds the outer-domain mass observed
    at each record.
    """

    times: np.ndarray
    fields: tuple[SpinorField, ...]
    generators: tuple[tuple[HamiltonianSpec, int], ...]
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
        runs = tuple((h, int(count)) for h, count in self.generators)
        if any(h.grid != g or count < 1 for h, count in runs):
            raise ValueError("each run needs the records' grid and an interval")
        if sum(count for _, count in runs) != t.shape[0] - 1:
            raise ValueError("the generator runs must cover every record interval")
        t.setflags(write=False)
        bm.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "boundary_mass", bm)
        object.__setattr__(self, "generators", runs)

    @property
    def grid(self) -> Grid1D:
        return self.fields[0].grid

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


def _boundary_indices(n: int) -> np.ndarray:
    m = int(np.ceil(0.05 * n))
    return np.concatenate([np.arange(m), np.arange(n - m, n)])


def _edge_mass(states: np.ndarray, edge: np.ndarray, dx: float) -> np.ndarray:
    """Mass on the edge points of each spinor in a stack of shape (..., 2, n)."""
    e = states[..., edge]
    return np.sum(e.real**2 + e.imag**2, axis=(-2, -1)) * dx


def _escape(bm: float, when: str) -> RuntimeError:
    if not np.isfinite(bm):
        return RuntimeError(f"the wave is not finite {when}: its boundary mass is {bm}")
    return RuntimeError(
        f"boundary mass {bm:.3e} exceeds {BOUNDARY_MASS_LIMIT:.0e} {when}; "
        "the packet is reaching the domain edge, enlarge the domain"
    )


def _is_free(h: HamiltonianSpec) -> bool:
    """V = 0 and mu B = 0 at every grid point, so that H = T."""
    return not np.any(h.potential) and (h.mu == 0.0 or not np.any(h.field_b))


def _split_records(psi: SpinorField, h: HamiltonianSpec, dt: float, n_steps: int,
                   record_every: int, edge: np.ndarray, start: float):
    """Yield (time, field, boundary mass) at every record of Strang stepping from psi at start."""
    k = h.grid.wavenumbers()
    kin_phase = np.exp(-0.5j * dt * k * k)
    pot = _half_potential_factors(h, dt)
    dx = h.grid.dx
    c1, c2 = psi.comp1, psi.comp2
    for i in range(1, n_steps + 1):
        c1, c2 = _step_arrays(c1, c2, kin_phase, pot)
        bm = float(_edge_mass(np.stack((c1, c2)), edge, dx))
        if not bm <= BOUNDARY_MASS_LIMIT:
            raise _escape(bm, f"at t = {start + i * dt:.6g}")
        if i % record_every == 0:
            yield start + i * dt, SpinorField(psi.grid, c1, c2), bm


def _free_records(psi: SpinorField, dt: float, n_steps: int, record_every: int,
                  edge: np.ndarray, start: float):
    """Yield (time, field, boundary mass) at every record of free motion from psi at start.

    The state after step i is exactly ifft(exp(-i k^2 t/2) fft(psi)) at
    t = i dt after start.  Every step time is transformed, in blocks of
    STATE_BLOCK_BYTES of states (one step time at least; the two phase
    tables take as much again), so the boundary mass is checked where the
    split steps check it; only the records are kept.
    """
    grid = psi.grid
    c_hat = np.fft.fft(np.stack((psi.comp1, psi.comp2)))
    half_k2 = -0.5 * grid.wavenumbers() ** 2
    rows = min(n_steps, max(1, STATE_BLOCK_BYTES // c_hat.nbytes))
    # exp(-i k^2 (t0 + j dt)/2) = exp(-i k^2 t0/2) exp(-i k^2 j dt/2): one
    # table of offsets j = 1..rows serves every block start t0
    offsets = np.exp(1j * np.multiply.outer(np.arange(1, rows + 1) * dt, half_k2))
    phase = np.empty_like(offsets)
    block = np.empty((rows,) + c_hat.shape, dtype=c_hat.dtype)
    for lo in range(0, n_steps, rows):
        m = min(rows, n_steps - lo)
        np.multiply(offsets[:m], np.exp(1j * (lo * dt) * half_k2), out=phase[:m])
        states = block[:m]
        np.multiply(phase[:m, None, :], c_hat, out=states)
        np.fft.ifft(states, out=states)
        masses = _edge_mass(states, edge, grid.dx)
        over = np.flatnonzero(~(masses <= BOUNDARY_MASS_LIMIT))
        if over.size:
            j = int(over[0])
            raise _escape(float(masses[j]), f"at t = {start + (lo + j + 1) * dt:.6g}")
        for j in range((-lo - 1) % record_every, m, record_every):
            t = start + (lo + j + 1) * dt
            yield t, SpinorField(grid, states[j, 0], states[j, 1]), float(masses[j])


def _step_count(total: float, step: float, name: str, step_name: str) -> int:
    """The whole number of steps of size step in total, which both must be
    positive: their ratio must be finite and step must divide total to one
    part in 1e9.  name and step_name name them in error messages."""
    if not (step > 0 and total > 0):
        raise ValueError(f"{name} and {step_name} must be positive, got {total} and {step}")
    ratio = float(total) / float(step)
    if not np.isfinite(ratio):
        raise ValueError(f"{name} / {step_name} = {ratio} is not a finite step count")
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * step - total) > 1e-9 * total:
        raise ValueError(
            f"{step_name} = {step} does not divide {name} = {total}; "
            f"{name} must be an integer multiple of {step_name}"
        )
    return n_steps


def window_steps(t_total: float, dt: float, record_every: int, name: str = "duration") -> int:
    """Number of steps of size dt in a window of length t_total.

    dt must divide t_total to one part in 1e9 and record_every must divide
    the step count, so records are uniform and the final time is recorded.
    name is the window's name in error messages.
    """
    n_steps = _step_count(t_total, dt, name, "dt")
    _check_int(record_every, "record_every")
    if n_steps % record_every != 0:
        raise ValueError(
            f"record_every = {record_every} must divide the step count {n_steps} "
            f"of {name} so the final time is recorded"
        )
    return n_steps


def evolve(
    psi: SpinorField,
    windows,
    dt: float,
    record_every: int = 1,
) -> WaveTimeline:
    """Evolve through consecutive (h, duration) windows, recording every record_every steps.

    windows is a nonempty sequence; each window starts from the last
    record of the one before, at time start, records at start + i dt and
    is one generator run.  A free h (V = 0 and mu B = 0 at every grid
    point) is evolved exactly in Fourier space, with no splitting error;
    any other h takes Strang split steps of dt.  Both check the boundary
    mass after every step.  Each window must tile into whole record
    intervals (see window_steps).  Raises RuntimeError if mass in the
    outer 5% of the domain (each side) ever exceeds 1e-6, the packet
    about to wrap around, or is not finite; the message says which.
    """
    if not windows:
        raise ValueError("evolve needs at least one (h, duration) window")
    if any(h.grid != psi.grid for h, _ in windows):
        raise ValueError("field and Hamiltonian live on different grids")
    counts = [window_steps(duration, dt, record_every) for _, duration in windows]
    edge = _boundary_indices(psi.grid.n)
    bm = float(_edge_mass(np.stack((psi.comp1, psi.comp2)), edge, psi.grid.dx))
    if not bm <= BOUNDARY_MASS_LIMIT:
        raise _escape(bm, "before evolution")
    records = [(0.0, psi, bm)]
    for (h, _), n_steps in zip(windows, counts):
        start, field, _ = records[-1]
        if _is_free(h):
            records += _free_records(field, dt, n_steps, record_every, edge, start)
        else:
            records += _split_records(field, h, dt, n_steps, record_every, edge, start)
    times, fields, bmass = zip(*records)
    generators = tuple((h, n_steps // record_every) for (h, _), n_steps in zip(windows, counts))
    return WaveTimeline(np.array(times), fields, generators, np.array(bmass))


def norm_drift(norms) -> tuple[float, bool]:
    """max |norm - 1| over the records' norms, and the unitarity verdict:
    that drift is at most 1e-10.  Deterministic, as the records are."""
    drift = max(abs(x - 1.0) for x in norms)
    return drift, drift <= 1e-10


def _hamiltonian_nodes(h: HamiltonianSpec):
    """The node arrays of h that H psi reads: k^2/2, then V + mu B_z,
    V - mu B_z, mu (B_x - i B_y) and mu (B_x + i B_y) at every grid point."""
    v, (bx, by, bz) = h.potential, h.field_b.T
    return (
        0.5 * h.grid.wavenumbers() ** 2,
        v + h.mu * bz, v - h.mu * bz, h.mu * (bx - 1j * by), h.mu * (bx + 1j * by),
    )


def _hamiltonian_rows(c: np.ndarray, kinetic: np.ndarray, nodes) -> np.ndarray:
    """H psi for a stack of spinors c of shape (..., 2, n), given nodes =
    _hamiltonian_nodes(h) and kinetic = ifft(nodes[0] * fft(c)) along the
    last axis, the kinetic term, to which the others are added in place."""
    _, up, down, lower, upper = nodes
    c1, c2 = c[..., 0, :], c[..., 1, :]
    kinetic[..., 0, :] += up * c1 + lower * c2
    kinetic[..., 1, :] += upper * c1 + down * c2
    return kinetic
