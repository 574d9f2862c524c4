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
exact for the timeline's generator, psi_t = -i sign (h psi):

    d/dt rho = 2 Re(psi^dagger psi_t)
    d/dt num = Im(psi_t^dagger d_x psi + psi^dagger d_x psi_t)

At a record where the generator changes, such as the end of a magnet
window, each side uses its own generator, so the blend is one-sided
there.  A run of sign -1 records psi(t0 - s) at elapsed time s, and the
particles retrace the physical motion along it, so the numerator and
its rate carry that sign; the density and its rate do not.  Against the
closed-form Stern-Gerlach trajectories, the Hermite blend at 96 RK4
steps is off by 6.6e-5 where the earlier linear blend at 384 was off by
5.6e-3 (10k particles, equal weights).  The flow tables, values and
derivatives at every interval end, are built before the transport, with
batched transforms over blocks of records that keep their temporaries
within grids.STATE_BLOCK_BYTES.

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
When the stage time repeats exactly, the second evaluation keeps the
blend and the gathered coefficients and gathers again only for the
particles whose cell changed, which gives the same bits as a fresh
gather.  Every buffer is allocated once per worker.

Trajectories follow classical RK4 with a fixed substep dt_traj, which
every caller states: SGNumerics.dt_traj is the package's one default.
All per-trajectory arithmetic is elementwise, so results are bit-identical
whether a position is integrated alone, inside a batch, or split across
workers.  The ensemble is cut into chunks of at most TILE particles, and
the chunks into one contiguous block per worker.

Workers are processes forked after the flow tables are built, so they
share the tables copy-on-write and write their columns of the result
into anonymous shared memory; the caller integrates the first block
itself and reaps every child.  Threads do not help: an evaluation is
about twenty short numpy calls, and the interpreter lock changes hands
at each one, which costs more than a second core gains.  Spawned
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

from .grids import STATE_BLOCK_BYTES, Grid1D, SpinorField
from .propagation import WaveTimeline, _hamiltonian_rows

__all__ = ["EnsemblePaths", "velocity", "integrate_ensemble"]

NODE_EPS_FACTOR = 1e-12

# A second worker pays once its share of the ensemble outweighs the
# per-worker cost of the RK4 loop's Python overhead and the fork.
# integrate_ensemble in process on the default Stern-Gerlach run, 1 vs 2
# workers, median of 7 (2-vCPU Xeon VM, Python 3.11, numpy 2.4): at the
# shipped numerics (16, 2), 2k 47 vs 54 ms, 4k 63 vs 65, 8k 96 vs 78,
# 10k 112 vs 82; at (8, 4), 10k 421 vs 286 and 20k 836 vs 443.
MIN_PER_WORKER = 2048
# Largest chunk: its buffers, ~145 B per particle, take 2.4 MB, about one
# core's 2 MB L2.  One worker, shipped numerics, median of 5, tiled vs one
# chunk: 40k 403 vs 401 ms, 80k 771 vs 936.
TILE = 16384


@dataclass(frozen=True)
class EnsemblePaths:
    """Lockstep-integrated ensemble: q0 row, final row, optional history.

    positions, when kept, has shape (len(times), len(q0)) with row i the
    ensemble at times[i].
    """

    times: np.ndarray
    q0: np.ndarray
    q_final: np.ndarray
    positions: np.ndarray | None


def _flux_rows(c: np.ndarray, c_hat: np.ndarray, ik: np.ndarray):
    """Numerator Im(psi^dagger d_x psi), density and d_x psi of a stack of
    spinors c of shape (..., 2, n), given c_hat = fft(c)."""
    dc = np.fft.ifft(ik * c_hat)
    p = np.conj(c) * dc
    num = (p[..., 0, :] + p[..., 1, :]).imag
    c1, c2 = c[..., 0, :], c[..., 1, :]
    den = c1.real**2 + c1.imag**2 + c2.real**2 + c2.imag**2
    return num, den, dc


def _flow_tables(timeline: WaveTimeline):
    """Flow tables at both ends of every record interval.

    Returns (tables, first_end).  tables has shape (n_ends, 2, n, 2): at
    each end, the (numerator, density) pairs sign Im(psi^dagger d_x psi)
    and psi^dagger psi at every node, then their time derivatives
    sign Im(psi_t^dagger d_x psi + psi^dagger d_x psi_t) and
    2 Re(psi^dagger psi_t), with psi_t = -i sign (h psi) from the
    interval's generator; each end is what _cell_coefficients reads.
    Interval r runs from end first_end[r] to end first_end[r] + 1.  A
    record inside one of the timeline's generator runs is one end; a
    record between two runs (a magnet switching off) is two, with
    one-sided derivatives.  Records go through the transforms in batches
    whose temporaries, 2 n complex values per record each, stay within
    STATE_BLOCK_BYTES: 8 records at n = 512.
    """
    runs = timeline.generators
    grid = timeline.grid
    ik = 1j * grid.wavenumbers()
    batch = max(1, STATE_BLOCK_BYTES // (2 * grid.n * 16))
    tables = np.empty((len(timeline.fields) - 1 + len(runs), 2, grid.n, 2))
    first_end = np.empty(len(timeline.fields) - 1, dtype=np.int64)
    end = first = 0
    for sign, h, count in runs:
        last = first + count
        first_end[first:last] = end + np.arange(count)
        for r in range(first, last + 1, batch):
            block = timeline.fields[r:min(r + batch, last + 1)]
            nodes = tables[end:end + len(block)]
            c = np.array([(f.comp1, f.comp2) for f in block])
            c_hat = np.fft.fft(c)
            nodes[:, 0, :, 0], nodes[:, 0, :, 1], dc = _flux_rows(c, c_hat, ik)
            c_t = _hamiltonian_rows(c, c_hat, h)
            c_t *= -1j * sign
            dc_t = np.fft.ifft(ik * np.fft.fft(c_t))
            c_bar = np.conj(c)
            rate = c_bar * c_t
            nodes[:, 1, :, 1] = 2.0 * (rate[:, 0].real + rate[:, 1].real)
            np.multiply(c_bar, dc_t, out=rate)
            np.conj(c_t, out=c_t)
            c_t *= dc
            rate += c_t  # psi^dagger d_x psi_t + psi_t^dagger d_x psi
            nodes[:, 1, :, 0] = rate[:, 0].imag + rate[:, 1].imag
            if sign < 0:  # particles retrace the recorded motion: v = -Im(...)/rho
                nodes[..., 0] *= -1.0
            end += len(block)
        first = last
    return tables, first_end


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

    c holds the coefficients gathered at the cells in j; they stay valid
    for the next evaluation on the same table.
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
    work's last evaluation gathered from, and only the particles whose
    cell changed since are gathered again.  The result is work.v.
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
    num, den, _ = _flux_rows(c, np.fft.fft(c), 1j * psi.grid.wavenumbers())
    coef = _cell_coefficients(np.stack((num, den), axis=-1))[0]
    flat = np.asarray(q, dtype=np.float64).reshape(-1)
    v = _interp_quotient(
        coef, _floor_eps(den[0]), psi.grid, flat, _nyquist_cap(psi.grid), _Workspace(flat.size)
    )
    if np.isscalar(q) or np.asarray(q).ndim == 0:
        return float(v[0])
    return v.reshape(np.shape(q))


class _Flow:
    """Velocity along a timeline for m positions, owned by one worker.

    Cell coefficients exist for the current record interval only: of the
    values and of the time derivatives at both of its ends.  Their cubic
    Hermite blend at a stage time is kept while the stage time repeats,
    and so are the coefficients gathered from it.
    """

    def __init__(self, tables, first_end, grid: Grid1D, t0: float, spacing: float, m: int) -> None:
        self.tables, self.first_end, self.grid = tables, first_end, grid
        self.t0, self.spacing = t0, spacing
        self.vmax = _nyquist_cap(grid)
        self.work = _Workspace(m)
        self.blend = np.empty((4, grid.n), dtype=np.complex128)
        # the blend's real arithmetic runs on the interleaved (numerator,
        # density) pairs; rise is the values' change over the interval
        self.blend_f = self.blend.view(np.float64)
        self.scaled_f = np.empty_like(self.blend_f)
        self.rise_f = np.empty_like(self.blend_f)
        self.end = -2  # the current interval's first end
        self.cells = ()  # values and rates at the first end, then at the second
        self.key = None
        self.eps = 0.0

    def __call__(self, t: float, p: np.ndarray) -> np.ndarray:
        tau = (t - self.t0) / self.spacing
        r = min(max(int(np.floor(tau)), 0), len(self.first_end) - 1)
        lam = tau - r
        repeat = (r, lam) == self.key
        if not repeat:
            self._blend(r, lam)
        return _interp_quotient(self.blend, self.eps, self.grid, p, self.vmax, self.work, repeat)

    def _blend(self, r: int, lam: float) -> None:
        e = int(self.first_end[r])
        if e != self.end:
            start = self.cells[2:] if e == self.end + 1 else tuple(_cell_coefficients(self.tables[e]))
            self.cells = (*start, *_cell_coefficients(self.tables[e + 1]))
            values, _, values_end, _ = (table.view(np.float64) for table in self.cells)
            np.subtract(values_end, values, out=self.rise_f)
            self.end = e
        # values + h01 rise + spacing (h10 rates + h11 rates_end), with
        # h01 = lam^2 (3 - 2 lam), h10 = lam (1 - lam)^2, h11 = -lam^2 (1 - lam)
        values, rates, _, rates_end = (table.view(np.float64) for table in self.cells)
        mu = 1.0 - lam
        blend, scaled = self.blend_f, self.scaled_f
        np.multiply(self.rise_f, lam * lam * (3.0 - 2.0 * lam), out=blend)
        np.add(blend, values, out=blend)
        np.multiply(rates, self.spacing * lam * mu * mu, out=scaled)
        np.add(blend, scaled, out=blend)
        np.multiply(rates_end, -self.spacing * lam * lam * mu, out=scaled)
        np.add(blend, scaled, out=blend)
        self.eps = _floor_eps(self.blend[0].imag)  # the blended density at the nodes
        self.key = (r, lam)


def _resolve_substep(timeline: WaveTimeline, dt_traj: float) -> tuple[float, int]:
    spacing = timeline.spacing
    dt_traj = float(dt_traj)
    if not dt_traj > 0:
        raise ValueError(f"dt_traj must be positive, got {dt_traj}")
    if dt_traj > spacing * (1 + 1e-9):
        raise ValueError(
            f"dt_traj = {dt_traj} exceeds the timeline record spacing {spacing}"
        )
    ratio = timeline.duration / dt_traj
    if not np.isfinite(ratio):
        raise ValueError(f"dt_traj = {dt_traj} gives a step count {ratio} that is not finite")
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * dt_traj - timeline.duration) > 1e-9 * timeline.duration:
        raise ValueError(f"dt_traj = {dt_traj} does not divide the timeline duration")
    return dt_traj, n_steps


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(size: int, threads: int) -> tuple[int, np.ndarray]:
    """Worker count and the bounds of near-equal chunks of the ensemble.

    Each worker gets at least MIN_PER_WORKER particles, a CPU of its own
    and the same number of chunks; a chunk holds at most TILE.  Workers
    are forked, so a process running other threads, or without os.fork,
    gets one.
    """
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = max(1, min(int(threads), _usable_cpus(), size // MIN_PER_WORKER))
    else:
        workers = 1
    per_worker = -(-size // (workers * TILE))
    bounds = np.linspace(0, size, workers * per_worker + 1).astype(int)
    return workers, bounds


def _shared_empty(shape) -> np.ndarray:
    """Float array in an anonymous shared mapping: what a forked child
    writes there, its parent reads."""
    buf = mmap.mmap(-1, 8 * int(np.prod(shape)))
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def _run_blocks(advance, blocks) -> None:
    """Run advance over every chunk, one contiguous block per process.

    The caller integrates the first block; each other block runs in a
    forked child that leaves with status 0 only if all its chunks were
    advanced.  Every child is reaped, whatever happens in the caller.
    With one block nothing is forked.
    """
    pids = []
    try:
        for block in blocks[1:]:
            pid = os.fork()
            if pid == 0:  # the child: never return into the caller's stack
                status = 1
                try:
                    for lo, hi in block:
                        advance(lo, hi)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        for lo, hi in blocks[0]:
            advance(lo, hi)
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
    """Integrate many trajectories in lockstep from initial positions q0.

    dt_traj is the RK4 substep; it must divide the timeline's duration
    and not exceed its record spacing.  The timeline's generators give
    the flow's time derivatives.
    threads caps the worker processes, which only split the ensemble into
    column chunks; each element sees identical arithmetic, so output is
    independent of the worker count and of the chunking.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    grid = timeline.grid
    starts = np.array(q0, dtype=np.float64, copy=True).reshape(-1)
    if starts.size == 0:
        raise ValueError("need at least one initial position")
    if not np.all((grid.x_min <= starts) & (starts < grid.x_max)):
        bad = starts[~((grid.x_min <= starts) & (starts < grid.x_max))][0]
        raise ValueError(f"initial position {bad} outside [{grid.x_min}, {grid.x_max})")
    dt_sub, n_steps = _resolve_substep(timeline, dt_traj)

    tables, first_end = _flow_tables(timeline)
    t0 = float(timeline.times[0])
    times = t0 + dt_sub * np.arange(n_steps + 1)
    half = 0.5 * dt_sub

    workers, bounds = _chunks(starts.size, threads)
    empty = np.empty if workers == 1 else _shared_empty
    history = empty((n_steps + 1, starts.size)) if keep_history else None
    q_final = empty(starts.size)

    def advance(lo: int, hi: int) -> None:
        vel = _Flow(tables, first_end, grid, t0, timeline.spacing, hi - lo)
        p = starts[lo:hi].copy()
        stage = np.empty(hi - lo)
        ksum = np.empty(hi - lo)
        if history is not None:
            history[0, lo:hi] = p
        for i in range(n_steps):
            # classical RK4; k lives in the workspace until the next call
            t = float(times[i])
            k = vel(t, p)
            np.copyto(ksum, k)
            np.multiply(k, half, out=stage)
            np.add(p, stage, out=stage)
            k = vel(t + half, stage)
            np.multiply(k, half, out=stage)
            np.add(p, stage, out=stage)
            np.multiply(k, 2.0, out=k)
            np.add(ksum, k, out=ksum)
            k = vel(t + half, stage)
            np.multiply(k, dt_sub, out=stage)
            np.add(p, stage, out=stage)
            np.multiply(k, 2.0, out=k)
            np.add(ksum, k, out=ksum)
            k = vel(float(times[i + 1]), stage)  # the next step's k1 time, bit for bit
            np.add(ksum, k, out=ksum)
            np.multiply(ksum, dt_sub / 6.0, out=ksum)
            np.add(p, ksum, out=p)
            if history is not None:
                history[i + 1, lo:hi] = p
        q_final[lo:hi] = p

    chunks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    per_worker = len(chunks) // workers
    _run_blocks(advance, [chunks[w * per_worker:(w + 1) * per_worker] for w in range(workers)])

    starts.setflags(write=False)
    q_final.setflags(write=False)
    if history is not None:
        history.setflags(write=False)
    return EnsemblePaths(times=times, q0=starts, q_final=q_final, positions=history)
