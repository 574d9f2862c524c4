"""Shared oracles for the test suite.

Everything here is computed independently of the package internals:
finite differences instead of spectral derivatives, closed-form
Gaussian results, plain sums for moments, and a node-by-node Lagrange
interpolant for the guidance velocity.
"""

import math

import numpy as np

from bohmlab import ExperimentSpec, Outcome, SpinorField, StateVec


def fd_momentum(field: SpinorField) -> float:
    """Mean momentum via second-order central differences (no FFT)."""
    dx = field.grid.dx
    total = 0.0
    for c in (field.comp1, field.comp2):
        dc = (np.roll(c, -1) - np.roll(c, 1)) / (2.0 * dx)
        total += float(np.sum((np.conj(c) * dc).imag) * dx)
    return total


def moments(field: SpinorField) -> tuple[float, float, float]:
    """(norm, center, width) from direct sums over the node density."""
    rho = np.abs(field.comp1) ** 2 + np.abs(field.comp2) ** 2
    dx = field.grid.dx
    xs = field.grid.xs()
    total = float(np.sum(rho) * dx)
    center = float(np.sum(xs * rho) * dx / total)
    var = float(np.sum((xs - center) ** 2 * rho) * dx / total)
    return math.sqrt(total), center, math.sqrt(max(var, 0.0))


def l2_distance(f: SpinorField, g: SpinorField) -> float:
    d = np.sum(np.abs(f.comp1 - g.comp1) ** 2 + np.abs(f.comp2 - g.comp2) ** 2)
    return math.sqrt(float(d) * f.grid.dx)


def free_width(sigma0: float, t: float) -> float:
    return sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)


def free_velocity(q, t: float, sigma0: float = 1.0):
    """Guidance velocity of the freely spreading Gaussian."""
    return np.asarray(q) * t / (4.0 * sigma0**4 + t**2)


def random_state(rng: np.random.Generator, dim: int) -> StateVec:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVec.normalized(v)


def random_spec(rng: np.random.Generator, dim: int) -> ExperimentSpec:
    """Random complete orthogonal family with well-separated calibrations.

    Eigenvalue gaps are at least 0.5 so spectral reconstruction is
    unambiguous.
    """
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    n_out = int(rng.integers(1, dim + 1))
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_out - 1, replace=False).tolist())
    blocks = np.split(np.arange(dim), cuts)
    lam = float(rng.uniform(-3.0, 3.0))
    outcomes = []
    for idx, members in enumerate(blocks):
        cols = q[:, members]
        outcomes.append(Outcome(f"a{idx}", cols @ cols.conj().T, lam))
        lam += 0.5 + float(rng.random())
    return ExperimentSpec(dim=dim, outcomes=tuple(outcomes))


def lagrange_flow(field: SpinorField, q):
    """Guidance numerator and density at q, node by node from the formulas.

    Reference for the transport kernel: spectral derivative, then for each
    q the 4-point Lagrange cubic through nodes j-1..j+2 (taken modulo n),
    with u = (q - x_min)/dx, j = floor(u), s = u - j and weights
    prod_{m != k} (s - m)/(k - m).  Returns (numerator, density, eps, vmax)
    with the density floor eps = 1e-12 * max node density and the speed
    cap vmax = pi/(2 dx).
    """
    grid = field.grid
    ik = 2j * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    num = np.zeros(grid.n)
    den = np.zeros(grid.n)
    for c in (field.comp1, field.comp2):
        num += (np.conj(c) * np.fft.ifft(ik * np.fft.fft(c))).imag
        den += np.abs(c) ** 2
    qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
    num_q = np.zeros(qs.size)
    den_q = np.zeros(qs.size)
    offsets = (-1, 0, 1, 2)
    for i, x in enumerate(qs):
        u = (x - grid.x_min) / grid.dx
        j = math.floor(u)
        s = u - j
        for k in offsets:
            w = 1.0
            for m in offsets:
                if m != k:
                    w *= (s - m) / (k - m)
            num_q[i] += w * num[(j + k) % grid.n]
            den_q[i] += w * den[(j + k) % grid.n]
    return num_q, den_q, 1e-12 * float(den.max()), 0.5 * np.pi / grid.dx


def lagrange_velocity(field: SpinorField, q):
    """Guidance velocity at q: floored quotient of lagrange_flow, capped."""
    num_q, den_q, eps, vmax = lagrange_flow(field, q)
    return np.clip(num_q / np.maximum(den_q, eps), -vmax, vmax)
