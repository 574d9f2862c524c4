"""Quantum-equilibrium sampling and empirical distribution distances.

Positions are drawn from the piecewise-linear interpolant of the node
density (periodic closure at the right edge).  That law's CDF is
piecewise quadratic; ks_distance's reference interpolates the same node
CDF linearly, so the two agree at the nodes, not between them.
Randomness comes from a counter-based generator: draw i is a pure
function of (seed, i), ensembles are reproducible bit-for-bit
regardless of how the draws are later consumed or parallelized, and the
first n draws of a longer run coincide with a shorter run's draws.
"""

from __future__ import annotations

import numpy as np

from .grids import SpinorField, density

__all__ = ["sample", "ks_distance", "KS_COEFF"]

# Acceptance band used across the suite: KS distance below KS_COEFF/sqrt(n).
KS_COEFF = 1.63

NORM_TOLERANCE = 1e-6


def sample(psi: SpinorField, n: int, seed: int) -> np.ndarray:
    """Draw n positions distributed as the position density of psi.

    psi must be normalized to within 1e-6 and seed must fit in an
    unsigned 64-bit integer; it keys a counter-based (Philox) stream of
    uniforms.  Draw i consumes uniforms (2i, 2i+1) of that stream: one
    picks a cell by inverse CDF of the per-cell masses, one is mapped
    through the inverse CDF of the linear density inside that cell.
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
    u = np.random.Generator(np.random.Philox(key=int(seed))).random(2 * n)
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
