"""Quantum-equilibrium sampling and empirical distribution distances.

Positions are drawn from the piecewise-linear interpolant of the node
density (periodic closure at the right edge).  That law's CDF is
piecewise quadratic; ks_distance's reference interpolates the same node
CDF linearly, so the two agree at the nodes, not between them.
Randomness comes from a counter-based generator, Philox4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC11), computed
here in numpy and giving the same stream as numpy's
`Generator(Philox(key=seed)).random` without importing numpy.random.
Draw i is a pure function of (seed, i), ensembles are reproducible
bit-for-bit regardless of how the draws are later consumed or
parallelized, and the first n draws of a longer run coincide with a
shorter run's draws.  The stream is computed in blocks of counters whose
words fill grids.STATE_BLOCK_BYTES.
"""

from __future__ import annotations

import numpy as np

from .grids import STATE_BLOCK_BYTES, SpinorField, density

__all__ = ["sample", "ks_distance", "KS_COEFF"]

# Acceptance band used across the suite: KS distance below KS_COEFF/sqrt(n).
KS_COEFF = 1.63

NORM_TOLERANCE = 1e-6

# Philox4x64 round multipliers and Weyl key increments (Random123).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def sample(psi: SpinorField, n: int, seed: int) -> np.ndarray:
    """Draw n positions distributed as the position density of psi.

    psi must be normalized to within 1e-6 and seed must fit in an
    unsigned 64-bit integer; it keys the Philox4x64-10 stream of uniforms
    that numpy's Philox(key=seed) gives.  Draw i consumes uniforms
    (2i, 2i+1) of that stream: one picks a cell by inverse CDF of the
    per-cell masses, one is mapped through the inverse CDF of the linear
    density inside that cell.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"sample count must be a positive integer, got {n!r}")
    nrm = psi.norm()
    if abs(nrm - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"field must be normalized (norm = {nrm:.8f})")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    grid = psi.grid
    rho = density(psi)
    cdf = _node_cdf(rho, grid.dx)
    u = _philox_uniforms(int(seed), 2 * n)
    cells = np.searchsorted(cdf[1:], u[0::2], side="right")  # cell j ends at node j + 1
    a = rho[cells]
    b = np.roll(rho, -1)[cells]
    w = u[1::2]
    # Inverse in-cell CDF for density rising linearly from a to b; the
    # sqrt argument is cancellation-free, and nearly flat cells fall
    # back to the uniform limit.
    root = np.sqrt(a * a * (1.0 - w) + b * b * w)
    denom = b - a
    s = np.where(
        np.abs(denom) <= 1e-9 * (a + b),
        w,
        (root - a) / np.where(denom == 0.0, 1.0, denom),
    )
    return grid.x_min + (cells + s) * grid.dx


def _philox_uniforms(seed: int, count: int) -> np.ndarray:
    """The first count doubles in [0, 1) of the Philox4x64-10 stream keyed by seed.

    Bit for bit numpy's Generator(Philox(key=seed)).random(count): key
    (seed, 0), counters (1, 0, 0, 0), (2, 0, 0, 0), ..., each giving
    four words in order, and word x giving the double (x >> 11) * 2**-53.
    Counters go in blocks whose four 8-byte words fill STATE_BLOCK_BYTES:
    4096 counters, and as many words in each temporary.
    """
    keys = [
        (np.uint64((seed + r * _PHILOX_W0) % 2**64), np.uint64(r * _PHILOX_W1 % 2**64))
        for r in range(_PHILOX_ROUNDS)
    ]
    words = np.empty(-(-count // 4) * 4, dtype=np.uint64)
    per_counter = words.reshape(-1, 4)
    block = STATE_BLOCK_BYTES // 32
    for lo in range(0, len(per_counter), block):
        hi = min(lo + block, len(per_counter))
        x0 = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        x1 = x2 = x3 = np.zeros(hi - lo, dtype=np.uint64)
        for k0, k1 in keys:
            hi0, lo0 = _mulhilo(_PHILOX_M0, x0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        per_counter[lo:hi] = np.stack((x0, x1, x2, x3), axis=1)
    return (words[:count] >> np.uint64(11)) * 2.0**-53


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    mid = a_hi * b_lo + ((a_lo * b_lo) >> _SHIFT32)
    cross = a_lo * b_hi + (mid & _LOW32)
    return a_hi * b_hi + (mid >> _SHIFT32) + (cross >> _SHIFT32), a * b


def _node_cdf(rho, dx: float) -> np.ndarray:
    """Trapezoid CDF of the node density at nodes 0..n, closed periodically."""
    rho_ext = np.concatenate([rho, rho[:1]])
    increments = 0.5 * (rho_ext[:-1] + rho_ext[1:]) * dx
    cdf = np.concatenate([[0.0], np.cumsum(increments)])
    cdf /= cdf[-1]
    return cdf


def ks_distance(samples, psi: SpinorField) -> float:
    """Kolmogorov-Smirnov distance of samples from the density of psi."""
    s = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    if s.size == 0:
        raise ValueError("need at least one sample")
    grid = psi.grid
    nodes = np.concatenate([grid.xs(), [grid.x_max]])
    f = np.interp(s, nodes, _node_cdf(density(psi), grid.dx))
    m = s.size
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(max(np.max(hi - f), np.max(f - lo)))
