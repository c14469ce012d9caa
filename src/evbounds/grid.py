"""Periodic box discretization with DFT-diagonal constant-coefficient operators.

The box is [0, L)^d sampled on N^d equispaced nodes.  Fourier conventions
follow the e^{-2*pi*i*x.xi} normalization, so the Laplacian acts as the
multiplier |2*pi*xi|^2 on the dual lattice xi = m/L with integer coordinates
m in {-N/2, ..., N/2 - 1}.  A GridSpec is the grid: its node coordinates,
frequencies and Laplacian symbol are computed on first use, kept on the
instance and handed out read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularSymbolError

__all__ = [
    "GridSpec",
    "resolvent_symbol",
    "apply_multiplier",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSpec:
    """The periodic box: dimension, side length, nodes per side.

    Equality and hashing see only (d, L, N).  The derived arrays are cached
    on first use and read-only, so every caller shares one copy per spec.
    """

    d: int
    L: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if not self.L > 0:
            raise ValueError(f"box side must be positive, got {self.L}")
        n = self.N
        if n < 4 or n & (n - 1) != 0:
            raise ValueError(f"nodes per side must be a power of two >= 4, got {n}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def cellvol(self) -> float:
        return (self.L / self.N) ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def node_count(self) -> int:
        return self.N**self.d

    @cached_property
    def axis_raw(self) -> np.ndarray:
        """Node coordinates along one axis, in [0, L)."""
        return _read_only(np.arange(self.N) * (self.L / self.N))

    @cached_property
    def axis_centered(self) -> np.ndarray:
        """Torus representatives in [-L/2, L/2) of the axis coordinates.

        Radial potentials centered at the origin wrap around the box without
        seams.
        """
        axis = self.axis_raw
        return _read_only(np.where(axis < self.L / 2, axis, axis - self.L))

    @cached_property
    def freq_axis(self) -> np.ndarray:
        """Dual-lattice frequencies m/L along one axis, in DFT order."""
        return _read_only(np.fft.fftfreq(self.N, d=self.L / self.N))

    @cached_property
    def lap_symbol(self) -> np.ndarray:
        """|2 pi xi|^2 on the dual lattice, shape N^d in DFT layout."""
        meshes = np.meshgrid(*([self.freq_axis] * self.d), indexing="ij")
        return _read_only(sum((2.0 * np.pi * f) ** 2 for f in meshes))

    @cached_property
    def _radii(self) -> np.ndarray:
        return _read_only(np.sqrt(sum(c * c for c in self.coords())))

    def coords(self) -> list[np.ndarray]:
        """Torus-centered node coordinate meshes, one array of shape N^d per dimension."""
        return np.meshgrid(*([self.axis_centered] * self.d), indexing="ij")

    def radii(self) -> np.ndarray:
        """Torus distance of every node to the origin."""
        return self._radii


def resolvent_symbol(grid: GridSpec, z: complex) -> np.ndarray:
    """Multiplier of (-Laplacian - z)^(-1), shape N^d in DFT layout.

    Raises SingularSymbolError when z hits one of the discrete Laplacian
    levels exactly; any other z, including real z between levels, is allowed.
    """
    diff = grid.lap_symbol - z
    if np.any(diff == 0):
        raise SingularSymbolError(
            f"z = {z} coincides with a discrete Laplacian level; resolvent undefined"
        )
    return 1.0 / diff


def apply_multiplier(grid: GridSpec, symbol, values: np.ndarray) -> np.ndarray:
    """Apply a Fourier multiplier: inverse-DFT(symbol * DFT(values)).

    The quadrature weights cancel between the two transforms, so this is
    exact on the discrete space regardless of normalization.
    """
    sym = np.asarray(symbol)
    arr = np.asarray(values)
    if arr.shape != grid.shape:
        raise ValueError(f"field shape {arr.shape} does not match grid shape {grid.shape}")
    if sym.shape != grid.shape:
        raise ValueError(f"symbol shape {sym.shape} does not match grid shape {grid.shape}")
    return np.fft.ifftn(sym * np.fft.fftn(arr))

