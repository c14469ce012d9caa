"""Potential families on the grid, their norms, and support decompositions.

Covers sampling of the built-in analytic families (complex amplitudes
throughout), tabulated fields from CSV, Lebesgue norms, the dyadic
level-set decomposition by half-measure thresholds, and the grouping of a
level set into sparse ball families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError, SparseSeparationError, SupportError
from .grid import GridSpec
from .util import bracket

__all__ = [
    "PotentialSpec",
    "PotentialField",
    "DyadicLayer",
    "SparseFamily",
    "sample_potential",
    "lq_norm",
    "weighted_sup_norm",
    "dyadic_decompose",
    "sparse_decompose",
    "load_tabulated",
    "save_tabulated",
]

KINDS = (
    "indicator_ball",
    "power_decay",
    "wigner_von_neumann",
    "knapp_oscillatory",
    "tabulated",
)

# Budget multiplier for the greedy sparse grouping; generous on purpose, the
# achieved family counts are reported rather than asserted against it.
_FAMILY_BUDGET_FACTOR = 16


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
    lower_threshold: float  # H_{i+1}
    mask: np.ndarray
    values: np.ndarray
    grid: GridSpec | None = None


@dataclass(frozen=True)
class SparseFamily:
    """Ball centers that are pairwise (radius*count)^gamma separated."""

    gamma: float
    radius: float
    centers: np.ndarray  # (n, d)

    @property
    def separation_required(self) -> float:
        return (self.radius * len(self.centers)) ** self.gamma

    def min_center_distance(self) -> float:
        c = self.centers
        if len(c) < 2:
            return np.inf
        diff = c[:, None, :] - c[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        return float(dist.min())


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
    if spec.kind == "tabulated":
        raise ValueError("tabulated potentials are built by load_tabulated")

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
        mesh = grid.coords(centered=True)
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
                lower_threshold=float(levels[idx + 1]),
                mask=mask,
                values=np.where(mask, field.values, 0.0),
                grid=field.grid,
            )
        )
    return layers


def _cell_cover(points: np.ndarray, weights: np.ndarray, radius: float) -> np.ndarray:
    """One ball center per occupied cell of side radius/sqrt(d), heaviest node wins.

    The cell diameter equals the ball radius, so every support node lies
    within radius of its cell's center; distinct cells keep distinct centers.
    Returned in decreasing weight order (stable on ties).
    """
    d = points.shape[1]
    side = radius / np.sqrt(d)
    bins = np.floor(points / side + 1e-9).astype(np.int64)
    _, inverse = np.unique(bins, axis=0, return_inverse=True)
    n_cells = inverse.max() + 1
    best = np.full(n_cells, -1, dtype=np.int64)
    for idx in np.argsort(-weights, kind="stable"):
        cell = inverse[idx]
        if best[cell] < 0:
            best[cell] = idx
    order = np.argsort(-weights[best], kind="stable")
    return points[best[order]]


def sparse_decompose(layer: DyadicLayer, gamma: float, K: int, grid=None) -> list[SparseFamily]:
    """Group a layer's support into sparse families of radius-R_i balls.

    The support is tiled by cells whose diameter equals the ball radius
    2^(i * gamma^K); each occupied cell contributes one center (its heaviest
    node).  Centers are then assigned first-fit to families in decreasing
    |V| order, a family accepting a center only if all pairwise separations
    stay above (radius * new_count)^gamma.  Raises SparseSeparationError
    when more than ceil(16 * K * 2^(i/K)) families would be needed.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not K >= 1:
        raise ValueError("K must be >= 1")
    if grid is None:
        grid = layer.grid
    if grid is None:
        raise ValueError("layer carries no grid; pass one for node coordinates")
    mask = layer.mask.ravel()
    if not mask.any():
        return []
    points = grid.points(centered=True)[mask]
    weights = np.abs(layer.values.ravel()[mask])
    radius = 2.0 ** (layer.index * gamma**K)
    centers = _cell_cover(points, weights, radius)

    budget = int(np.ceil(_FAMILY_BUDGET_FACTOR * K * 2.0 ** (layer.index / K)))
    families: list[list[np.ndarray]] = []
    min_dists: list[float] = []  # running min pairwise distance per family
    for c in centers:
        placed = False
        for fam_idx, fam in enumerate(families):
            new_count = len(fam) + 1
            need = (radius * new_count) ** gamma
            dists = np.sqrt(((np.asarray(fam) - c) ** 2).sum(-1))
            new_min = min(min_dists[fam_idx], float(dists.min()))
            if new_min >= need:
                fam.append(c)
                min_dists[fam_idx] = new_min
                placed = True
                break
        if not placed:
            if len(families) >= budget:
                raise SparseSeparationError(
                    f"layer {layer.index}: separation needs more than {budget} families "
                    f"({len(families)} in use, {len(centers)} centers, radius {radius})",
                    families_needed=len(families) + 1,
                    budget=budget,
                )
            families.append([c])
            min_dists.append(np.inf)

    return [
        SparseFamily(gamma=gamma, radius=radius, centers=np.asarray(fam)) for fam in families
    ]


def save_tabulated(field: PotentialField, path) -> None:
    """Write nonzero nodes as CSV rows (coordinates..., re, im)."""
    pts = field.grid.points(centered=True)
    vals = field.values.ravel()
    keep = vals != 0
    data = np.column_stack([pts[keep], vals[keep].real, vals[keep].imag])
    with open(path, "w") as fh:
        for row in data:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_tabulated(path, grid: GridSpec) -> PotentialField:
    """Read CSV rows (coordinates..., re, im) onto the nearest grid nodes.

    Rows must land within half a node spacing of a grid node; unlisted nodes
    stay zero.
    """
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    if data.size == 0:
        return PotentialField(grid, np.zeros(grid.shape, dtype=complex), 0.0)
    if data.shape[1] != grid.d + 2:
        raise ValueError(
            f"expected {grid.d + 2} columns (coords..., re, im), got {data.shape[1]}"
        )
    coords = data[:, : grid.d]
    vals = data[:, grid.d] + 1j * data[:, grid.d + 1]
    dx = grid.dx
    # Map torus representatives back to raw [0, L) and then to node indices.
    raw = np.mod(coords, grid.L)
    idx_f = raw / dx
    idx = np.rint(idx_f).astype(int) % grid.N
    off = np.abs(idx_f - np.rint(idx_f))
    if np.any(off > 1e-6):
        bad = np.argmax(off.max(axis=1))
        raise ValueError(f"row {bad} does not lie on a grid node (offset {off.max():.3g} dx)")
    values = np.zeros(grid.shape, dtype=complex)
    values[tuple(idx.T)] = vals
    radii = np.sqrt((np.minimum(raw, grid.L - raw) ** 2).sum(-1))
    support_radius = float(radii[np.abs(vals) > 0].max()) if np.any(np.abs(vals) > 0) else 0.0
    return PotentialField(grid, values, support_radius)
