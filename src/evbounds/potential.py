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


def _threshold(sorted_desc: np.ndarray, cellvol: float, target: float) -> float:
    """inf over t > 0 of {measure of |V| > t <= target} for sampled values."""
    # measure(t) = count(|V| > t) * cellvol is right-continuous and piecewise
    # constant; scan the distinct sample values as candidate infima.
    count_above = np.arange(1, sorted_desc.size + 1)
    measures = count_above * cellvol
    ok = measures <= target
    if ok.all():
        return 0.0
    first_bad = int(np.argmin(ok))  # smallest count whose measure exceeds target
    return float(sorted_desc[first_bad])


def dyadic_decompose(field: PotentialField) -> list[DyadicLayer]:
    """Split V into level sets between half-measure thresholds.

    Threshold i is the least t with measure{|V| > t} <= 2^(i-1); thresholds
    are nonincreasing in i and each node joins the deepest layer whose upper
    threshold still dominates it, so the layers tile the support and sum back
    to V exactly.  The top threshold is clamped to max|V| so that a support
    of measure below 1/2 still lands in layer zero.
    """
    absvals = np.abs(field.values).ravel()
    nonzero = absvals[absvals > 0]
    if nonzero.size == 0:
        return []
    cellvol = field.grid.cellvol
    sorted_desc = np.sort(nonzero)[::-1]
    vmax = float(sorted_desc[0])

    thresholds = []
    i = 0
    while True:
        h = _threshold(sorted_desc, cellvol, 2.0 ** (i - 1))
        if i == 0:
            h = max(h, vmax)
        thresholds.append(h)
        if h == 0.0:
            break
        i += 1
        if i > 64:  # measure halves each step; 64 doublings exhausts float range
            thresholds.append(0.0)
            break

    levels = np.asarray(thresholds)  # H_0 >= H_1 >= ... >= H_last = 0
    absfield = np.abs(field.values)
    # Deepest index with H_i >= |V|; H_last = 0 < |V| on the support keeps
    # searchsorted inside the valid range.
    flat = absfield.ravel()
    assigned = np.zeros(flat.shape, dtype=int)
    support = flat > 0
    # levels is nonincreasing; reverse for searchsorted's ascending contract.
    rev = levels[::-1]
    pos = np.searchsorted(rev, flat[support], side="left")
    assigned_support = len(levels) - 1 - pos
    assigned[support] = assigned_support

    layers = []
    for idx in range(len(levels) - 1):
        mask = support & (assigned == idx)
        mask = mask.reshape(absfield.shape)
        layers.append(
            DyadicLayer(
                index=idx,
                threshold=float(levels[idx]),
                mask=mask,
                values=np.where(mask, field.values, 0.0),
            )
        )
    return layers

