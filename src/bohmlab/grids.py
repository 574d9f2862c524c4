"""Uniform periodic grids and two-component (spinor) wave functions.

Units are dimensionless with hbar = m = 1 throughout.  A grid covers
[x_min, x_max) with n equispaced points x_j = x_min + j*dx; x_max is
identified with x_min, so fields live on a circle.  Wave functions are
stored as two complex component arrays; spinless states simply carry a
zero second component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "SpinorField",
    "make_grid",
    "check_packet_fits",
    "gaussian_packet",
    "density",
]

# Bytes of stacked temporaries one batched numpy pass may hold: the
# (steps, 2, n) states of a free evolve (propagation._free_records), the
# records of a flow-table batch (trajectories._flow_tables) and the
# Philox words of a counter block (sampling._philox_uniforms).  Larger
# blocks measured no faster at n = 512 and raised a run's peak memory.
STATE_BLOCK_BYTES = 1 << 17


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max).

    Parameters
    ----------
    n : int
        Number of points, a power of two from 16 to 2^62 (the kinetic step
        uses an FFT, and numpy indexes with int64).
    x_min, x_max : float
        Domain bounds, x_min < x_max.
    """

    n: int
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"grid size must be an integer, got {self.n!r}")
        if not _is_power_of_two(int(self.n)) or not 16 <= self.n <= 2**62:
            raise ValueError(f"grid size must be a power of two from 16 to 2^62, got {self.n}")
        if not self.x_min < self.x_max:
            raise ValueError(
                f"grid bounds must satisfy x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if not 0.0 < self.dx < math.inf:  # infinite bounds, or a length that overflows
            raise ValueError(f"grid spacing (x_max - x_min) / n = {self.dx} must be finite and positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def xs(self) -> np.ndarray:
        """Grid points x_j = x_min + j*dx, j = 0..n-1."""
        return self.x_min + self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers 2*pi*fftfreq(n, dx)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


def make_grid(n: int, x_min: float, x_max: float) -> Grid1D:
    """Build a validated uniform periodic grid."""
    return Grid1D(n=n, x_min=float(x_min), x_max=float(x_max))


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpinorField:
    """Two-component complex wave function sampled on a grid.

    Value semantics: component arrays are copied on construction and made
    read-only, so instances are safe to share across workers.  The norm is
    the discrete L2 norm, ||psi||^2 = sum_j (|comp1_j|^2 + |comp2_j|^2) dx.
    """

    grid: Grid1D
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self) -> None:
        c1 = np.array(self.comp1, dtype=np.complex128, copy=True).reshape(-1)
        c2 = np.array(self.comp2, dtype=np.complex128, copy=True).reshape(-1)
        if c1.shape != (self.grid.n,) or c2.shape != (self.grid.n,):
            raise ValueError(
                f"component arrays must have length {self.grid.n}, "
                f"got {c1.shape[0]} and {c2.shape[0]}"
            )
        object.__setattr__(self, "comp1", _locked(c1))
        object.__setattr__(self, "comp2", _locked(c2))

    def norm_sq(self) -> float:
        return float(np.sum(density(self)) * self.grid.dx)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def moments(self) -> tuple[float, float, float]:
        """(norm, center, width): the norm, and the mean and standard
        deviation of position under the density divided by norm_sq()."""
        total = self.norm_sq()
        rho, xs, dx = density(self), self.grid.xs(), self.grid.dx
        center = float(np.sum(xs * rho) * dx / total)
        var = float(np.sum((xs - center) ** 2 * rho) * dx / total)
        return math.sqrt(total), center, math.sqrt(max(var, 0.0))

    def normalize(self) -> "SpinorField":
        """Return the unit-norm rescaling of this field."""
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero field")
        return SpinorField(self.grid, self.comp1 / nrm, self.comp2 / nrm)

    def conjugate(self) -> "SpinorField":
        return SpinorField(self.grid, np.conj(self.comp1), np.conj(self.comp2))


def density(psi: SpinorField) -> np.ndarray:
    """Position density |comp1|^2 + |comp2|^2 on the grid points."""
    c1, c2 = psi.comp1, psi.comp2
    return c1.real**2 + c1.imag**2 + c2.real**2 + c2.imag**2


def check_packet_fits(grid: Grid1D, center: float, sigma: float, k: float = 0.0) -> None:
    """Require the packet support, center +- 5 sigma, strictly inside the grid,
    and its spectrum, k +- 5/(2 sigma), inside the band |k| < pi/dx.

    Beyond 5 sigma the density, and 5/(2 sigma) the spectrum, falls below
    1e-5 of its peak: a packet that passes has negligible images and no aliasing.
    """
    lo, hi = center - 5 * sigma, center + 5 * sigma
    if lo <= grid.x_min or hi >= grid.x_max:
        raise ValueError(
            f"packet support (center +- 5 sigma) = [{lo}, {hi}] must lie strictly "
            f"inside the grid [{grid.x_min}, {grid.x_max}]"
        )
    _check_in_band(grid, k, sigma, "packet spectrum |k| + 5/(2 sigma)")


def _check_in_band(grid: Grid1D, k: float, sigma: float, what: str) -> None:
    """The band limit, the twin of the 5 sigma support: |k| + 5/(2 sigma) < pi/dx."""
    top, band = abs(k) + 2.5 / sigma, math.pi / grid.dx
    if not top < band:
        raise ValueError(f"{what} = {top:.6g} must stay below the grid's band pi/dx = {band:.6g}")


def gaussian_packet(
    grid: Grid1D,
    center: float,
    sigma: float,
    k: float,
    a: complex = 1.0,
    b: complex = 0.0,
) -> SpinorField:
    """Normalized Gaussian wave packet with uniform spinor (a, b).

    Each component is proportional to exp(-(x-center)^2 / (4 sigma^2)) *
    exp(i k x), weighted by the spinor amplitude, and the whole field is
    normalized.  The packet must fit the grid (see check_packet_fits).
    """
    if not sigma > 0:
        raise ValueError(f"packet width must be positive, got {sigma}")
    a = complex(a)
    b = complex(b)
    if a == 0 and b == 0:
        raise ValueError("spinor amplitudes (a, b) must not both vanish")
    check_packet_fits(grid, center, sigma, k)
    x = grid.xs()
    envelope = np.exp(-((x - center) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k * x)
    return SpinorField(grid, a * envelope, b * envelope).normalize()
