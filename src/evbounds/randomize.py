"""Cellwise sign/Gaussian randomization of potentials on an h-lattice.

Each cell of the cube lattice h*Z^d (anchored at the box origin) carries one
i.i.d. weight: a symmetric +-1 sign or a standard Gaussian.  Weights come
from a counter-based Philox stream keyed by (master_seed, realization_index)
with the flattened cell index as counter position, so a cell's value never
depends on platform, draw order, or how many other cells exist before it in
a parallel schedule.

scipy is imported inside the Gaussian branch of `cell_values`, at the first
Gaussian draw: sign draws, and importing this module, never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportError
from .grid import GridSpec
from .potential import PotentialField
from .util import wilson_interval

__all__ = [
    "OmegaSpec",
    "OmegaField",
    "TailEntry",
    "axis_cells",
    "draw_omega",
    "anderson_randomize",
    "tail_table",
]

DISTRIBUTIONS = ("bernoulli", "gaussian")
# Fewest Monte Carlo samples behind a tail table or a mean extension norm.
MIN_SAMPLES = 100


@dataclass(frozen=True)
class OmegaSpec:
    """Cell size, weight law, and the seed pair identifying one realization."""

    h: float
    distribution: str
    master_seed: int
    realization_index: int = 0

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"cell size must be positive, got {self.h}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if not 0 <= self.master_seed < 2**64 or not 0 <= self.realization_index < 2**64:
            raise ValueError("master_seed and realization_index must lie in [0, 2**64)")

    def with_realization(self, index: int) -> OmegaSpec:
        return OmegaSpec(self.h, self.distribution, self.master_seed, index)


@dataclass
class OmegaField:
    """One drawn weight per lattice cell covering the box."""

    spec: OmegaSpec
    grid: GridSpec
    cells: np.ndarray  # shape (nc,) * d, nc cells per axis

    @classmethod
    def constant(cls, spec: OmegaSpec, grid: GridSpec) -> OmegaField:
        """Weight 1 on every cell: the deterministic potential, nothing drawn."""
        nc = _cells_per_axis(spec.h, grid)
        return cls(spec, grid, np.ones((nc,) * grid.d))

    def at_nodes(self) -> np.ndarray:
        """Expand cell weights to the grid nodes (node x sits in cell floor(x/h))."""
        return self.cells[np.ix_(*[axis_cells(self.spec.h, self.grid)] * self.grid.d)]


@dataclass(frozen=True)
class TailEntry:
    threshold: float
    fraction: float
    lower: float
    upper: float


def _cells_per_axis(h: float, gs: GridSpec) -> int:
    if h > gs.L:
        raise SupportError(f"cell size {h} exceeds box side {gs.L}")
    ratio = gs.L / h
    # Tolerate float noise when L/h is meant to be integral.
    return int(np.ceil(ratio - 1e-9 * max(1.0, ratio)))


def axis_cells(h: float, gs: GridSpec) -> np.ndarray:
    """Cell of each node along one axis, the one node-to-cell rule; SupportError if h > L.

    Node k sits in cell floor(k / steps + 1e-9), clipped to the last cell,
    with steps = h / dx snapped to the whole r within 1e-9 of it: cell
    k // r when h is r steps.  A cell holds floor(h/dx) or ceil(h/dx)
    nodes, or fewer at the end of the box.
    """
    nc = _cells_per_axis(h, gs)
    ratio = h / gs.dx
    r = round(ratio)
    steps = float(r) if r >= 1 and abs(ratio - r) <= 1e-9 else ratio
    return np.minimum(np.floor(np.arange(gs.N) / steps + 1e-9).astype(int), nc - 1)


def _raw_stream(spec: OmegaSpec, count: int) -> np.ndarray:
    key = np.array([spec.master_seed, spec.realization_index], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(count)


def cell_values(spec: OmegaSpec, count: int) -> np.ndarray:
    """Weights for cells 0..count-1 of one realization, platform-independent.

    Bernoulli signs use one raw bit per cell; Gaussians map the top 53 raw
    bits through the inverse normal CDF, avoiding any library-specific
    normal sampler.
    """
    raw = _raw_stream(spec, count)
    if spec.distribution == "bernoulli":
        return np.where(raw & np.uint64(1), 1.0, -1.0)
    from scipy.special import ndtri

    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u)


def draw_omega(spec: OmegaSpec, grid: GridSpec) -> OmegaField:
    """Draw the weight field for every cell meeting the box."""
    nc = _cells_per_axis(spec.h, grid)
    vals = cell_values(spec, nc**grid.d)
    return OmegaField(spec, grid, vals.reshape((nc,) * grid.d))


def anderson_randomize(field: PotentialField, omega: OmegaField) -> PotentialField:
    """Multiply V by the cell weights: x in cell j picks up omega_j.

    The support never grows, and for sign weights every pointwise magnitude,
    hence every L^q norm, is preserved exactly.
    """
    if omega.grid != field.grid:
        raise SupportError(
            "omega was drawn for a different grid; cell cover does not match the field"
        )
    values = field.values * omega.at_nodes()
    return PotentialField(field.grid, values, field.support_radius)


def tail_table(samples, thresholds) -> list[TailEntry]:
    """Empirical exceedance fractions with Wilson 95% intervals."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n < MIN_SAMPLES:
        raise ValueError(f"too few samples for a tail table: {n} < {MIN_SAMPLES}")
    out = []
    for t in thresholds:
        k = int(n - np.searchsorted(arr, t, side="right"))
        lo, hi = wilson_interval(k, n)
        out.append(TailEntry(float(t), k / n, lo, hi))
    return out
