"""Velocity field and trajectory integration along a wave timeline.

The velocity at position q is

    v(q) = Im[(psi^dagger d_x psi)(q)] / (psi^dagger psi)(q)

with the derivative taken spectrally (multiplication by i k in Fourier
space).  Numerator and denominator are interpolated to q separately with
4-point Lagrange cubics before taking the quotient; near density nodes
the denominator is clamped to eps = 1e-12 * max rho and the speed is
capped at half the grid Nyquist speed.

In time, the numerator and the density are blended between adjacent
records by cubic Hermite interpolation: their values and time
derivatives at both ends of the record interval.  The derivatives are
exact for the timeline's generator, psi_t = -i h psi:

    d/dt rho = 2 Re(psi^dagger psi_t)
    d/dt num = Im(psi_t^dagger d_x psi + psi^dagger d_x psi_t)

At a record where the generator changes, such as the end of a magnet
window, each side uses its own generator, so the blend is one-sided
there.  Against the closed-form Stern-Gerlach trajectories, the Hermite
blend at 96 RK4 steps is off by 6.6e-5 where the earlier linear blend at
384 was off by 5.6e-3 (10k particles, equal weights).  The flow tables,
values and derivatives at both ends of a record interval, are built from
its two records when the integration enters it, the first end taken over
from the interval before inside one generator run.  So a worker builds
each interval's tables once and holds two ends, 32 KiB at n = 512,
whatever the record count.  The walk builds one record at a time and
keeps what repeats: each generator run's node arrays (k^2/2, V +- mu B_z
and mu (B_x -+ i B_y)) are made once per worker, both inverse transforms
of a record's fft run as one stacked call, and the float views of an
interval's tables are taken once, on entering it.

The cubics are evaluated in Horner form.  The values and the derivatives
at an interval end become two (4, n) complex tables, row k holding
c_k(numerator) + 1j c_k(density) for every cell; they are built only
while the integration is inside an interval that ends there.  The
coefficients are computed, and blended with the Hermite weights, in real
arithmetic on the interleaved pairs, so the complex packing changes no
bit.  An evaluation wraps the cell index, gathers four coefficients per
particle into contiguous complex buffers and runs Horner with the cell
offset s held as a complex number whose imaginary part is 0, so each
complex product yields the two real ones.  RK4 evaluates twice at each
stage time: k2 and k3 at t + h/2, k4 and the next step's k1 at t + h.
The RK4 loop makes one blend per stage time and says which evaluations
reuse: k3, and k1 after the first step, keep the coefficients that their
tile's workspace took under that blend and gather again only for the
particles whose cell changed, which gives the same bits as a fresh
gather.  A workspace is allocated once per tile.

Trajectories follow classical RK4 with a fixed substep dt_traj, which
every caller states: SGNumerics.dt_traj is the package's one default.
All per-trajectory arithmetic is elementwise, so results are bit-identical
whether a position is integrated alone, inside a batch, or split across
workers or tiles.  The ensemble is cut into one contiguous block per
worker, and a block of more than TILE particles into near-equal tiles,
which step in lockstep under the worker's one flow: each stage time is
blended once, then every tile evaluates at it.
The RK4 state lives in rows the transport already has.  A stage lives in
its tile's velocity buffer: k <- 2k is added to the k sum, then the
stage p + (h/2)(2k) is formed, which equals p + h k bit for bit.  The k
sum accumulates in the row the step writes, which ends as the new
positions.  With keep_history each step writes the row after the one it
reads; without, q0 stays in row 0 and rows 1 and 2 take turns, so q_final
is the last row written and a step never writes the row it reads.

Workers are processes forked as the transport starts.  Each integrates
its block with one flow, which builds the tables of the intervals it
crosses, and writes its columns of the result into anonymous shared
memory; the caller integrates the first block itself and reaps every
child.
Threads do not help: an evaluation is about twenty short numpy calls,
and the interpreter lock changes hands at each one, which costs more
than a second core gains.  Spawned
workers would first pay for an interpreter and `import numpy`, about
0.2 s: as long as the half of a 10k ensemble's transport that a second
worker takes over.
Fork is only safe in a single-threaded process, so a process running
other threads, or a platform without fork, integrates on one worker.
There are never more workers than usable CPUs, and each gets at least
MIN_PER_WORKER particles.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, SpinorField, _check_int
from .propagation import WaveTimeline, _hamiltonian_nodes, _hamiltonian_rows, _step_count

__all__ = ["EnsemblePaths", "velocity", "integrate_ensemble"]

NODE_EPS_FACTOR = 1e-12

# A second worker pays once its share of the ensemble outweighs the
# per-worker cost of the table walk, the RK4 loop's Python overhead and the
# fork.  integrate_ensemble in process on the default Stern-Gerlach run at
# the shipped numerics (16, 2), 1 vs 2 workers, wall-time medians of 9-11
# interleaved repeats, ranges over four rounds (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4), in ms: 2k 33-40 vs 38-43, 3k 40-41 vs 40-44, 4k
# 43-52 vs 43-47, 5k 48-58 vs 47-50, 10k 86-91 vs 60-73.  On that box two
# forked numpy loops ran 1.3-2.1 times as fast as one (median 1.8): a
# second core is not always free.
MIN_PER_WORKER = 2048

# The most particles a worker evaluates at once: a larger block is cut into
# near-equal tiles that step in lockstep, so each tile's rows and workspace
# (about 140 B per particle) stay in cache.  integrate_ensemble on the default
# Stern-Gerlach run, one worker, shipped numerics (16, 2), min of 3 process
# times over three rounds (2-vCPU Xeon VM, 4 MiB L2 per core, Python 3.11,
# numpy 2.4), in ms: 200k particles as one block 1534-1676, in tiles of
# at most 50000 1223-1362, 32768 1141-1250, 24576 1127-1245, 16384
# 1154-1230; 80k as one block 524-601, in tiles of 32768 458-557.  Smaller
# tiles cost more Python per particle: 20k at (8, 4) took 431-487 ms as
# one block and 456-552 in tiles of 10000, so the bench's blocks (20k and
# under) stay one tile.
TILE = 32768


@dataclass(frozen=True)
class EnsemblePaths:
    """Lockstep-integrated ensemble, read-only: q0 row, final row, optional history.

    positions, when kept, has shape (len(times), len(q0)) with row i the
    ensemble at times[i]; q0 and q_final are its first and last rows.
    """

    times: np.ndarray
    q0: np.ndarray
    q_final: np.ndarray
    positions: np.ndarray | None


def _flux_rows(c: np.ndarray, dc: np.ndarray):
    """Numerator Im(psi^dagger d_x psi) and density of a stack of spinors c
    of shape (..., 2, n), given dc = d_x c."""
    p = np.conj(c) * dc
    num = (p[..., 0, :] + p[..., 1, :]).imag
    c1, c2 = c[..., 0, :], c[..., 1, :]
    den = c1.real**2 + c1.imag**2 + c2.real**2 + c2.imag**2
    return num, den


def _flow_ends(fields, nodes, ik: np.ndarray) -> np.ndarray:
    """Flow tables at the records fields under the generator h.

    Returns shape (len(fields), 2, n, 2): at each record, the (numerator,
    density) pairs Im(psi^dagger d_x psi) and psi^dagger psi at every
    node, then their time derivatives Im(psi_t^dagger d_x psi +
    psi^dagger d_x psi_t) and 2 Re(psi^dagger psi_t), with psi_t = -i h psi;
    each record is what _cell_coefficients reads.  nodes is
    _hamiltonian_nodes(h) and ik is i times the grid's wavenumbers.
    """
    c = np.array([(f.comp1, f.comp2) for f in fields])
    out = np.empty((len(c), 2, c.shape[-1], 2))
    c_hat = np.fft.fft(c)
    # d_x psi and the kinetic term in one stacked inverse transform; each
    # row is transformed exactly as on its own
    dc, c_t = np.fft.ifft(np.stack((ik * c_hat, nodes[0] * c_hat)))
    out[:, 0, :, 0], out[:, 0, :, 1] = _flux_rows(c, dc)
    _hamiltonian_rows(c, c_t, nodes)
    # -i as complex(+0.0, -1.0): the literal -1j is complex(-0.0, -1.0), and
    # products with it turn some zeros negative
    c_t *= complex(0.0, -1.0)
    dc_t = np.fft.ifft(ik * np.fft.fft(c_t))
    c_bar = np.conj(c)
    rate = c_bar * c_t
    out[:, 1, :, 1] = 2.0 * (rate[:, 0].real + rate[:, 1].real)
    np.multiply(c_bar, dc_t, out=rate)
    np.conj(c_t, out=c_t)
    c_t *= dc
    rate += c_t  # psi^dagger d_x psi_t + psi_t^dagger d_x psi
    out[:, 1, :, 0] = rate[:, 0].imag + rate[:, 1].imag
    return out


def _cell_coefficients(nodes) -> np.ndarray:
    """Horner coefficients of the 4-point Lagrange cubic in every cell.

    nodes has shape (k, n, 2): the node values of k (numerator, density)
    pairs.  For q = x_j + s dx (0 <= s < 1) the cubic through nodes
    j-1..j+2 is c0 + s (c1 + s (c2 + s c3)).  The result has shape
    (k, 4, n): row r of table i holds c_r(numerator i) + 1j c_r(density i)
    for every cell j.  The coefficients are computed in real arithmetic
    and then packed: complex division by 2.0 does not round as real
    division does.
    """
    k, n, _ = nodes.shape
    f = np.empty((k, n + 3, 2))  # nodes -1..n+1, wrapped
    f[:, 1:n + 1] = nodes
    f[:, 0] = f[:, n]
    f[:, n + 1:] = f[:, 1:3]
    a, b, c, d = f[:, :-3], f[:, 1:-2], f[:, 2:-1], f[:, 3:]
    coef = np.empty((k, 4, n), dtype=np.complex128)
    pairs = coef.view(np.float64).reshape(k, 4, n, 2)  # (numerator, density)
    pairs[:, 0] = b
    pairs[:, 1] = c - b / 2.0 - a / 3.0 - d / 6.0
    pairs[:, 2] = (a + c) / 2.0 - b
    pairs[:, 3] = (d - a) / 6.0 + (b - c) / 2.0
    return coef


class _Workspace:
    """Buffers for evaluating m positions, allocated once and reused.

    c holds the coefficients of the cells in j, and j_last the cells of
    the evaluation before; the next evaluation under the same blend may
    reuse them.  v holds the velocity, and the RK4 stage between
    evaluations.
    """

    def __init__(self, m: int) -> None:
        self.s = np.zeros(m, dtype=np.complex128)  # imaginary part stays 0
        self.j = np.empty(m, dtype=np.int64)
        self.j_last = np.empty(m, dtype=np.int64)
        self.moved = np.empty(m, dtype=bool)
        self.c = np.empty((4, m), dtype=np.complex128)
        self.acc = np.empty(m, dtype=np.complex128)  # numerator + 1j density
        self.v = np.empty(m)


def _regather(coef, work) -> None:
    """Gather anew the coefficients of the particles whose cell moved."""
    moved = np.flatnonzero(work.moved)
    work.c[:, moved] = coef.take(work.j[moved], axis=1)


def _interp_quotient(coef, eps: float, grid: Grid1D, q, vmax: float, work: _Workspace, reuse=False):
    """Interpolate numerator and density at q, regularize, divide.

    coef is a table from _cell_coefficients; the density is floored at eps
    and the speed capped at vmax.  With reuse, coef is the table that
    work's last evaluation read, and only the particles whose cell
    changed since take their coefficients anew.  The result is work.v.
    """
    w = work
    w.j, w.j_last = w.j_last, w.j
    u, s = w.v, w.s.real  # v holds q in cell units until the quotient lands
    np.subtract(q, grid.x_min, out=u)
    np.multiply(u, grid.n / grid.length, out=u)  # 1/dx: a product is cheaper than a quotient
    np.floor(u, out=s)
    np.copyto(w.j, s, casting="unsafe")
    np.subtract(u, s, out=s)
    # j mod n: n is a power of two (Grid1D), and the mask wraps j < 0 too
    np.bitwise_and(w.j, grid.n - 1, out=w.j)
    c0, c1, c2, c3 = w.c
    if reuse:
        np.not_equal(w.j, w.j_last, out=w.moved)
        if np.count_nonzero(w.moved):
            _regather(coef, w)
    else:
        coef.take(w.j, axis=1, out=w.c, mode="clip")  # j is in range; "raise" copies
    acc = w.acc
    np.multiply(c3, w.s, out=acc)
    np.add(acc, c2, out=acc)
    np.multiply(acc, w.s, out=acc)
    np.add(acc, c1, out=acc)
    np.multiply(acc, w.s, out=acc)
    np.add(acc, c0, out=acc)
    num, den = acc.real, acc.imag
    np.maximum(den, eps, out=den)
    np.divide(num, den, out=w.v)
    np.maximum(w.v, -vmax, out=w.v)
    return np.minimum(w.v, vmax, out=w.v)


def _nyquist_cap(grid: Grid1D) -> float:
    return 0.5 * np.pi / grid.dx


def _floor_eps(den_row) -> float:
    return NODE_EPS_FACTOR * float(np.maximum.reduce(den_row))


def velocity(psi: SpinorField, q):
    """Velocity of the guided particle at q (scalar or array)."""
    c = np.stack((psi.comp1, psi.comp2))[None]
    num, den = _flux_rows(c, np.fft.ifft(1j * psi.grid.wavenumbers() * np.fft.fft(c)))
    coef = _cell_coefficients(np.stack((num, den), axis=-1))[0]
    flat = np.asarray(q, dtype=np.float64).reshape(-1)
    v = _interp_quotient(
        coef, _floor_eps(den[0]), psi.grid, flat, _nyquist_cap(psi.grid), _Workspace(flat.size)
    )
    if np.isscalar(q) or np.asarray(q).ndim == 0:
        return float(v[0])
    return v.reshape(np.shape(q))


class _Flow:
    """Velocity along a timeline for the tiles of a worker's block.

    Cell coefficients exist for the current record interval only: of the
    values and of the time derivatives at both of its ends, built from the
    records on entering the interval.  at(t) makes their blend at a stage
    time, which every evaluation reads until the next at(t).
    """

    def __init__(self, timeline: WaveTimeline) -> None:
        self.timeline, self.grid = timeline, timeline.grid
        self.ik = 1j * self.grid.wavenumbers()
        # the generator run of each record interval, and each run's node arrays
        self.run = np.repeat(np.arange(len(timeline.generators)), [n for _, n in timeline.generators])
        self.nodes = [_hamiltonian_nodes(h) for h, _ in timeline.generators]
        self.t0, self.spacing = float(timeline.times[0]), timeline.spacing
        self.vmax = _nyquist_cap(self.grid)
        self.blend = np.empty((4, self.grid.n), dtype=np.complex128)
        # the blend's real arithmetic runs on the interleaved (numerator,
        # density) pairs; rise is the values' change over the interval
        self.blend_f = self.blend.view(np.float64)
        self.scaled_f = np.empty_like(self.blend_f)
        self.rise_f = np.empty_like(self.blend_f)
        self.r = -2  # the current interval; interval 0 does not follow -2
        self.cells = ()  # values and rates at the first end, then at the second
        self.eps = 0.0

    def at(self, t: float) -> None:
        """Blend the tables at time t, entering its interval if need be."""
        tau = (t - self.t0) / self.spacing
        r = min(max(int(np.floor(tau)), 0), len(self.run) - 1)
        if r != self.r:
            self._enter(r)
        lam = tau - r
        # values + h01 rise + spacing (h10 rates + h11 rates_end), with
        # h01 = lam^2 (3 - 2 lam), h10 = lam (1 - lam)^2, h11 = -lam^2 (1 - lam)
        mu = 1.0 - lam
        blend, scaled = self.blend_f, self.scaled_f
        np.multiply(self.rise_f, lam * lam * (3.0 - 2.0 * lam), out=blend)
        np.add(blend, self.values_f, out=blend)
        np.multiply(self.rates_f, self.spacing * lam * mu * mu, out=scaled)
        np.add(blend, scaled, out=blend)
        np.multiply(self.rates_end_f, -self.spacing * lam * lam * mu, out=scaled)
        np.add(blend, scaled, out=blend)
        self.eps = _floor_eps(self.blend[0].imag)  # the blended density at the nodes

    def evaluate(self, p: np.ndarray, work: _Workspace, reuse: bool) -> np.ndarray:
        """The velocity at p under the last blend; reuse says that work's
        last evaluation was under it too."""
        return _interp_quotient(self.blend, self.eps, self.grid, p, self.vmax, work, reuse)

    def _enter(self, r: int) -> None:
        """Build the cell coefficients at both ends of interval r with its
        own generator; the first end is interval r - 1's second when both
        intervals lie in one generator run, so a record where the generator
        changes gets one-sided derivatives on each side."""
        fields = self.timeline.fields
        if r == self.r + 1 and self.run[r - 1] == self.run[r]:
            start, records = self.cells[2:], fields[r + 1:r + 2]
        else:
            start, records = (), fields[r:r + 2]
        ends = _flow_ends(records, self.nodes[self.run[r]], self.ik)
        self.cells = (*start, *_cell_coefficients(ends.reshape(-1, self.grid.n, 2)))
        self.values_f, self.rates_f, values_end, self.rates_end_f = (
            table.view(np.float64) for table in self.cells
        )
        np.subtract(values_end, self.values_f, out=self.rise_f)
        self.r = r


def _resolve_substep(timeline: WaveTimeline, dt_traj: float) -> tuple[float, int]:
    """dt_traj as a float, and its steps in the timeline: it must not exceed the record spacing."""
    spacing, dt_traj = timeline.spacing, float(dt_traj)
    if dt_traj > spacing * (1 + 1e-9):
        raise ValueError(f"dt_traj = {dt_traj} exceeds the timeline record spacing {spacing}")
    return dt_traj, _step_count(timeline.duration, dt_traj, "the timeline duration", "dt_traj")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(size: int, threads: int) -> int:
    """Worker count for an ensemble of size particles.

    Each worker gets one contiguous block of at least MIN_PER_WORKER
    particles and a CPU of its own.  Workers are forked, so a process
    running other threads, or without os.fork, gets one.
    """
    if hasattr(os, "fork") and threading.active_count() == 1:
        return max(1, min(threads, _usable_cpus(), size // MIN_PER_WORKER))
    return 1


def _bounds(lo: int, hi: int, parts: int) -> list[int]:
    """Bounds of parts near-equal contiguous blocks of [lo, hi)."""
    return np.linspace(lo, hi, parts + 1).astype(int).tolist()


def _shared_empty(shape) -> np.ndarray:
    """Float array in an anonymous shared mapping: what a forked child
    writes there, its parent reads."""
    buf = mmap.mmap(-1, 8 * int(np.prod(shape)))
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def _run_blocks(advance, bounds) -> None:
    """Call advance(lo, hi) once per block [bounds[i], bounds[i + 1]).

    The caller integrates the first block; each other block runs in a
    forked child that leaves with status 0 only if advance returned.
    Every child is reaped, whatever happens in the caller.  With one
    block nothing is forked.
    """
    pids = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:  # the child: never return into the caller's stack
                status = 1
                try:
                    advance(lo, hi)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        advance(bounds[0], bounds[1])
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(f"transport worker processes failed with exit codes {codes}")


def integrate_ensemble(
    timeline: WaveTimeline,
    q0,
    dt_traj: float,
    keep_history: bool = False,
    threads: int = 1,
) -> EnsemblePaths:
    """Integrate many trajectories in lockstep from initial positions q0, which it only reads.

    dt_traj is the RK4 substep; it must divide the timeline's duration
    and not exceed its record spacing.  The timeline's generators give
    the flow's time derivatives.
    threads, an int, caps the worker processes, which only split the
    ensemble into one block of columns each; each element sees identical
    arithmetic, so output is independent of the worker count.
    """
    _check_int(threads, "threads")
    grid = timeline.grid
    starts = np.asarray(q0, dtype=np.float64).reshape(-1)
    if starts.size == 0:
        raise ValueError("need at least one initial position")
    if not np.all((grid.x_min <= starts) & (starts < grid.x_max)):
        bad = starts[~((grid.x_min <= starts) & (starts < grid.x_max))][0]
        raise ValueError(f"initial position {bad} outside [{grid.x_min}, {grid.x_max})")
    dt_sub, n_steps = _resolve_substep(timeline, dt_traj)

    times = float(timeline.times[0]) + dt_sub * np.arange(n_steps + 1)
    half = 0.5 * dt_sub

    workers = _workers(starts.size, threads)
    empty = np.empty if workers == 1 else _shared_empty
    rows = empty((n_steps + 1 if keep_history else 3, starts.size))
    rows[0] = starts

    def row(j: int) -> int:
        """The row of the positions after j steps: without history, rows 1
        and 2 take turns, so a step never writes the row it reads."""
        return j if keep_history or j == 0 else 1 + (j - 1) % 2

    def advance(lo: int, hi: int) -> None:
        # the tiles step in lockstep: each stage time is blended once, then
        # every tile evaluates at it, k1 and k3 reusing the cells of k4 and
        # k2 at the same time; a tile's stage lives in its velocity buffer,
        # and its k sum in the row that the step writes
        flow = _Flow(timeline)
        cuts = _bounds(lo, hi, -(-(hi - lo) // TILE))
        tiles = [(slice(a, b), _Workspace(b - a)) for a, b in zip(cuts, cuts[1:])]
        flow.at(float(times[0]))
        for i in range(n_steps):
            cur, nxt = rows[row(i)], rows[row(i + 1)]
            for cols, work in tiles:  # k1 sets the k2 stage
                k = flow.evaluate(cur[cols], work, reuse=i > 0)
                np.copyto(nxt[cols], k)
                np.multiply(k, half, out=k)
                np.add(cur[cols], k, out=k)
            flow.at(float(times[i]) + half)
            for step, reuse in ((half, False), (dt_sub, True)):  # k2 sets the k3 stage, k3 the k4
                for cols, work in tiles:
                    k, ksum = flow.evaluate(work.v, work, reuse), nxt[cols]
                    np.multiply(k, 2.0, out=k)
                    np.add(ksum, k, out=ksum)
                    np.multiply(k, 0.5 * step, out=k)  # (step/2)(2k) is step k, bit for bit
                    np.add(cur[cols], k, out=k)
            flow.at(float(times[i + 1]))
            for cols, work in tiles:
                ksum = nxt[cols]
                np.add(ksum, flow.evaluate(work.v, work, reuse=False), out=ksum)
                np.multiply(ksum, dt_sub / 6.0, out=ksum)
                np.add(cur[cols], ksum, out=ksum)

    _run_blocks(advance, _bounds(0, starts.size, workers))

    rows.setflags(write=False)
    return EnsemblePaths(
        times=times, q0=rows[0], q_final=rows[row(n_steps)], positions=rows if keep_history else None
    )
