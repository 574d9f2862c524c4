"""Shared oracles for the test suite.

Everything here is computed independently of the package internals:
finite differences instead of spectral derivatives, closed-form
Gaussian results (the freely moving packet among them) and plane waves,
plain sums for moments and inner products, a writer for the
experiment-spec text format, a node-by-node Lagrange interpolant for the
guidance velocity, and the closed-form Stern-Gerlach wave with its
guidance velocity and trajectories.
"""

import math

import numpy as np

from bohmlab import ExperimentSpec, Outcome, SpinorField, StateVec


def plane_wave(grid, mode: int, a: complex = 1.0, b: complex = 0.0) -> SpinorField:
    """Normalized plane wave exp(i k x) with k = 2*pi*mode/L, uniform spinor."""
    k = 2.0 * np.pi * mode / grid.length
    wave = np.exp(1j * k * grid.xs())
    amp = 1.0 / np.sqrt(grid.length * (abs(a) ** 2 + abs(b) ** 2))
    return SpinorField(grid, a * amp * wave, b * amp * wave)


def inner_product(phi: SpinorField, psi: SpinorField) -> complex:
    """Discrete inner product <phi, psi> = sum_j phi_j^dagger psi_j dx.

    Conjugate-linear in the first argument.
    """
    if phi.grid != psi.grid:
        raise ValueError("inner product requires fields on the same grid")
    acc = np.sum(np.conj(phi.comp1) * psi.comp1 + np.conj(phi.comp2) * psi.comp2)
    return complex(acc * phi.grid.dx)


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


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def spec_text(spec: ExperimentSpec) -> str:
    """A spec in the text format spec_from_text reads (one matrix row per line)."""
    lines = [f"dim {spec.dim}"]
    for oc in spec.outcomes:
        lines.append(f"outcome {oc.label} {oc.calibration!r}")
        for row in oc.projection:
            lines.append(" ".join(_fmt_complex(z) for z in row))
    return "\n".join(lines) + "\n"


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


# Closed-form Stern-Gerlach oracle.  build_timeline's field points along z
# and is linear in x, so the spinor components never mix: each one is a
# Gaussian exp(A x^2 + B x + C) with complex A, B, C, under the potential
# s mu field_sign (b0 + b_grad x) during the magnet window (s = +1 for
# the first component, -1 for the second) and free afterwards.


def _free_gaussian(a, b, c, t):
    """exp(a x^2 + b x + c) after free evolution for time t.

    Solves i psi_t = -psi_xx / 2: a' = 2i a^2, b' = 2i a b,
    c' = i (b^2 + 2a) / 2.
    """
    d = 1.0 - 2j * a * t
    return a / d, b / d, c + 0.5j * b * b * t / d - 0.5 * np.log(d)


def _packet_gaussian(packet, amplitude):
    """(A, B, C) of the normalized packet, times amplitude, at t = 0."""
    s2 = packet.sigma**2
    a = -1.0 / (4.0 * s2) + 0j
    b = packet.center / (2.0 * s2) + 1j * packet.k
    c = -packet.center**2 / (4.0 * s2) + np.log(complex(amplitude)) - 0.25 * np.log(2 * np.pi * s2)
    return a, b, c


def free_packet(packet, a_up, a_down, grid, t: float) -> SpinorField:
    """The packet with spinor (a_up, a_down) after free motion for time t.

    Negative t is the state that reaches the packet after time |t|.
    """
    x = grid.xs()
    comps = []
    for amplitude in (a_up, a_down):
        if amplitude == 0:
            comps.append(np.zeros(grid.n, complex))
            continue
        a, b, c = _free_gaussian(*_packet_gaussian(packet, amplitude), t)
        comps.append(np.exp(a * x * x + b * x + c))
    return SpinorField(grid, *comps)


def sg_component(setup, packet, amplitude, spin: int, t: float):
    """(A, B, C) of the spin component exp(A x^2 + B x + C) at time t.

    amplitude is the component's spinor amplitude (nonzero) and spin is
    +1 for the first component, -1 for the second.  In the magnet window
    the linear potential v0 + g x enters through the Avron-Herbst form
    psi(x, t) = exp(-i (g t x + g^2 t^3 / 6 + v0 t)) psi_free(x + g t^2 / 2, t).
    """
    a, b, c = _packet_gaussian(packet, amplitude)
    coupling = spin * setup.mu * setup.field_sign
    g, v0 = coupling * setup.b_grad, coupling * setup.b0
    tm = min(t, setup.tau)
    a, b, c = _free_gaussian(a, b, c, tm)
    shift = 0.5 * g * tm * tm
    b, c = (
        2.0 * a * shift + b - 1j * g * tm,
        a * shift * shift + b * shift + c - 1j * (g * g * tm**3 / 6.0 + v0 * tm),
    )
    if t > setup.tau:
        a, b, c = _free_gaussian(a, b, c, t - setup.tau)
    return a, b, c


def _components(a_up, a_down):
    return [(amp, spin) for amp, spin in ((a_up, 1), (a_down, -1)) if amp != 0]


def sg_field(setup, packet, a_up, a_down, grid, t: float) -> SpinorField:
    """The Stern-Gerlach spinor at time t on grid's nodes, in closed form."""
    x = grid.xs()
    comps = {1: np.zeros(grid.n, complex), -1: np.zeros(grid.n, complex)}
    for amp, spin in _components(a_up, a_down):
        a, b, c = sg_component(setup, packet, amp, spin, t)
        comps[spin] = np.exp(a * x * x + b * x + c)
    return SpinorField(grid, comps[1], comps[-1])


def sg_velocity(setup, packet, a_up, a_down, q, t: float):
    """Guidance velocity Im(psi^dagger psi_x) / psi^dagger psi at q, time t.

    For a component exp(A x^2 + B x + C), psi_x = (2 A x + B) psi; the
    components are weighted by their densities, scaled by the largest so
    that nothing underflows in the tails.
    """
    q = np.asarray(q, dtype=np.float64)
    logs, slopes = [], []
    for amp, spin in _components(a_up, a_down):
        a, b, c = sg_component(setup, packet, amp, spin, t)
        logs.append(2.0 * (a.real * q * q + b.real * q + c.real))
        slopes.append(2.0 * a.imag * q + b.imag)
    logs = np.array(logs)
    weights = np.exp(logs - logs.max(axis=0))
    return np.sum(weights * np.array(slopes), axis=0) / np.sum(weights, axis=0)


def sg_trajectories(setup, packet, a_up, a_down, q0, steps: int):
    """Final positions at tau + t_drift by classical RK4 on sg_velocity.

    steps covers the whole run; it must put a step boundary on the magnet
    switch-off tau, where the velocity's time derivative jumps.
    """
    total = setup.tau + setup.t_drift
    h = total / steps
    if abs(round(setup.tau / h) * h - setup.tau) > 1e-12:
        raise ValueError("the RK4 steps must put a boundary on tau")
    q = np.array(q0, dtype=np.float64)

    def v(x, t):
        return sg_velocity(setup, packet, a_up, a_down, x, t)

    for i in range(steps):
        t = i * h
        k1 = v(q, t)
        k2 = v(q + 0.5 * h * k1, t + 0.5 * h)
        k3 = v(q + 0.5 * h * k2, t + 0.5 * h)
        k4 = v(q + h * k3, t + h)
        q = q + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return q
