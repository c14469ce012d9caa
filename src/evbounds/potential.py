"""Potential families on the grid, their norms, and support decompositions.

Covers sampling of the built-in analytic families (complex amplitudes
throughout), Lebesgue norms, and the dyadic level-set decomposition by
half-measure thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportError
from .grid import GridSpec
from .util import bracket

__all__ = [
    "PotentialSpec",
    "PotentialField",
    "DyadicLayer",
    "sample_potential",
    "lq_norm",
    "weighted_sup_norm",
    "dyadic_decompose",
]

KINDS = (
    "indicator_ball",
    "power_decay",
    "wigner_von_neumann",
    "knapp_oscillatory",
)


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of one potential family.

    kind selects the family; amplitude is the (complex) overall factor; R is
    the support radius for compact kinds; s the decay power for power_decay;
    oscillation holds wavevector/phase parameters for the oscillatory kinds,
    e.g. {"wavenumber": 2.0, "phase": 0.0} or {"eps": 0.25}.
    """

    kind: str
    amplitude: complex = 1.0
    R: float = 1.0
    s: float = 1.0
    oscillation: dict | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "indicator_ball" and not self.R > 0:
            raise ValueError("indicator_ball needs R > 0")
        if self.kind == "power_decay" and not self.s > 0:
            raise ValueError("power_decay needs s > 0")
        if self.kind == "knapp_oscillatory":
            eps = _oscillation(self, "eps", 0.25)
            if not 0 < eps < 1:
                raise ValueError(f"knapp_oscillatory needs oscillation.eps in (0, 1), got {eps}")


@dataclass
class PotentialField:
    """Sampled potential values on a grid; treat `values` as read-only."""

    grid: GridSpec
    values: np.ndarray
    support_radius: float

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class DyadicLayer:
    """One level set of |V| between consecutive half-measure thresholds."""

    index: int
    threshold: float  # H_i, upper bound of |V| on the mask
    mask: np.ndarray
    values: np.ndarray


def _oscillation(spec: PotentialSpec, key: str, default: float) -> float:
    if spec.oscillation and key in spec.oscillation:
        return float(spec.oscillation[key])
    return default


def _slab_half_widths(spec: PotentialSpec, d: int) -> np.ndarray:
    eps = _oscillation(spec, "eps", 0.25)
    # Knapp-type box: short extent 1/eps along d-1 axes, long extent 1/eps^2
    # along the last axis, centered at the origin.
    extents = np.full(d, 1.0 / eps)
    extents[-1] = 1.0 / eps**2
    return extents / 2.0


def sample_potential(spec: PotentialSpec, grid: GridSpec) -> PotentialField:
    """Evaluate a potential family on the grid nodes.

    Compactly supported kinds require the box to dominate the support,
    L >= 4 * support radius, so that periodization does not fold the field
    onto itself.
    """
    r = grid.radii()
    if spec.kind == "indicator_ball":
        support_radius = spec.R
        values = np.where(r <= spec.R, spec.amplitude, 0.0)
    elif spec.kind == "power_decay":
        support_radius = grid.L * np.sqrt(grid.d) / 2
        values = spec.amplitude * bracket(r) ** (-spec.s)
    elif spec.kind == "wigner_von_neumann":
        support_radius = grid.L * np.sqrt(grid.d) / 2
        k = _oscillation(spec, "wavenumber", 2.0)
        phase = _oscillation(spec, "phase", 0.0)
        values = spec.amplitude * np.sin(k * r + phase) / bracket(r)
    elif spec.kind == "knapp_oscillatory":
        half = _slab_half_widths(spec, grid.d)
        support_radius = float(np.sqrt((half**2).sum()))
        mesh = grid.coords()
        inside = np.ones(grid.shape, dtype=bool)
        for axis_coord, h in zip(mesh, half):
            inside &= np.abs(axis_coord) <= h
        values = np.where(inside, spec.amplitude * np.exp(2j * np.pi * mesh[0]), 0.0)
    else:  # pragma: no cover - guarded by PotentialSpec validation
        raise ValueError(spec.kind)

    compact = spec.kind in ("indicator_ball", "knapp_oscillatory")
    if compact and grid.L < 4 * support_radius:
        raise SupportError(
            f"box side {grid.L} too small for support radius {support_radius}; need L >= 4R"
        )
    return PotentialField(grid, np.ascontiguousarray(values, dtype=complex), support_radius)


def lq_norm(field: PotentialField, q: float) -> float:
    """Grid L^q norm (sum |V|^q * cellvol)^(1/q)."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    cellvol = field.grid.cellvol
    return float((np.abs(field.values) ** q).sum() ** (1.0 / q) * cellvol ** (1.0 / q))


def weighted_sup_norm(field: PotentialField, exponent: float) -> float:
    """Sup norm of <x>^exponent * V over the grid nodes."""
    return float((bracket(field.grid.radii()) ** exponent * np.abs(field.values)).max())


def dyadic_decompose(field: PotentialField) -> list[DyadicLayer]:
    """Split V into level sets between half-measure thresholds.

    Threshold i is the least t with measure{|V| > t} <= 2^(i-1); thresholds
    are nonincreasing in i and each node joins the deepest layer whose upper
    threshold still dominates it, so the layers tile the support and sum back
    to V exactly.  The top threshold is clamped to max|V| so that a support
    of measure below 1/2 still lands in layer zero.  Thresholds stop at the
    first 0 or after i = 64, where 64 doublings exhaust the float range.
    """
    absvals = np.abs(field.values)
    support = absvals > 0
    sorted_desc = np.sort(absvals[support])[::-1]
    n = sorted_desc.size
    if n == 0:
        return []
    # measure{|V| > t} is piecewise constant: the k largest values have measure
    # k * cellvol, so H_i is the value after the most that fit in 2^(i-1), or 0
    # once the whole support fits.
    budgets = 2.0 ** np.arange(-1, 64)
    pos = np.searchsorted(np.arange(1, n + 1) * field.grid.cellvol, budgets, side="right")
    pos[0] = 0  # the clamp: H_0 = max|V|
    levels = np.append(sorted_desc[pos[pos < n]], 0.0)  # H_0 >= H_1 >= ... >= H_last = 0

    # Deepest index with H_i >= |V|, by searchsorted on the ascending reversal;
    # H_last = 0 < |V| on the support keeps it inside the valid range.
    assigned = len(levels) - 1 - np.searchsorted(levels[::-1], absvals, side="left")
    layers = []
    for idx in range(len(levels) - 1):
        mask = support & (assigned == idx)
        layers.append(DyadicLayer(idx, float(levels[idx]), mask, np.where(mask, field.values, 0.0)))
    return layers
