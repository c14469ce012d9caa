"""Sphere quadrature nets, Fourier extension matrices, and sandwich operators.

A net discretizes the sphere of radius lambda in frequency space at spacing
1/R.  The extension matrix maps net coefficients to the plane-wave sum
sum_xi a(xi) e^{2 pi i x.xi} w_xi; sandwiching a potential between an
extension and a co-extension gives the dense matrix whose singular values
drive every restriction-type bound in the package.

SandwichEnsemble assembles every sandwich the package reports: with_omega
a randomized one, deterministic the stored M(1), on cells of any side,
grouped by node count.  On an antipodal net with real V it works in a real
pair basis, where each sandwich is a real symmetric matrix of the same
norm, and lifts M back to the node basis when asked.  Otherwise its rows
sit half a step off the nodes, where each row's mirror is its conjugate,
and a real-weight Gram takes one row per mirror pair.  It and the
node-level sandwich, the reference it agrees with, gather phase rows a
block at a time from per-axis tables; the reference sums them in one
complex product for every V.  potential_ref records the assembly: "pair"
or "complex" from the ensemble, "node" from sandwich.
angular_weight conjugates a d=2 sandwich by the angular multiplier of the
Schatten-norm estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .potential import PotentialField
from .randomize import OmegaField, axis_cells

__all__ = [
    "SphereNet",
    "SandwichOperator",
    "SandwichEnsemble",
    "angular_weight",
    "build_net",
    "extension_matrix",
    "sandwich",
    "singular_values",
    "weak_schatten",
]

# Node budget factor for the d=3 Fibonacci net: with n = ceil(F (lam R)^2)
# points the nearest-neighbor distance on the radius-lam sphere sits near
# lam * 3.1 / sqrt(n) ~ 1/R, inside the [spacing/2, 2 spacing] window.
_FIB_FACTOR = 9.6

_MIN_NODES = 8

# Rows per block of a Gram sum: bounds the rows gathered at once (2048 x 202
# complex half-net rows of the pair form are 6.6 MB at R = 64).
_GRAM_ROWS = 2048

# Rows per sub-block of a gather: its product over the axes stays in cache.
_SUB_ROWS = 64


@dataclass(frozen=True)
class SphereNet:
    """Quadrature nodes and weights on the frequency sphere |xi| = lam."""

    d: int
    lam: float
    R: float
    nodes: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    @property
    def spacing(self) -> float:
        """Target node spacing 1/R."""
        return 1.0 / self.R

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def surface_measure(self) -> float:
        """Measure of the continuum sphere the weights should reproduce."""
        if self.d == 2:
            return 2.0 * np.pi * self.lam
        return 4.0 * np.pi * self.lam**2


@dataclass
class SandwichOperator:
    """Dense co-extension / potential / extension product; a pair-form matrix is lifted when read."""

    _matrix: np.ndarray | None
    potential_ref: dict = dc_field(default_factory=dict)  # provenance of the sandwiched field
    # A real symmetric matrix unitarily similar to matrix (the pair form), or None.
    real_form: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _node_matrix(self.real_form)
        return self._matrix


def build_net(lam: float, R: float, d: int) -> SphereNet:
    """Discretize the radius-lam frequency sphere at spacing 1/R.

    d=2 uses n = 2 ceil(pi lam R) equispaced angles, an even count, with
    uniform weights summing to the exact circumference; the second half of
    the nodes are the exact negations of the first, so every d=2 net is
    antipodal bit for bit and a real V takes SandwichEnsemble's pair form.
    d=3 uses an offset Fibonacci lattice with equal-area weights summing
    to the exact sphere area.
    """
    if d == 2:
        n = 2 * int(np.ceil(np.pi * lam * R))
        if n < _MIN_NODES:
            raise ValueError(
                f"net would have {n} nodes; lam*R too small for a usable sphere net"
            )
        theta = 2.0 * np.pi * np.arange(n // 2) / n
        half = lam * np.column_stack([np.cos(theta), np.sin(theta)])
        # Exact antipodes xi_{k + n/2} = -xi_k: SandwichEnsemble's pair form needs them.
        nodes = np.concatenate([half, -half])
        weights = np.full(n, 2.0 * np.pi * lam / n)
        return SphereNet(d, lam, R, nodes, weights)
    if d == 3:
        n = int(np.ceil(_FIB_FACTOR * (lam * R) ** 2))
        if n < _MIN_NODES:
            raise ValueError(
                f"net would have {n} nodes; lam*R too small for a usable sphere net"
            )
        i = np.arange(n)
        z = 1.0 - (2.0 * i + 1.0) / n  # midpoint heights: equal-area bands
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        nodes = lam * np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        weights = np.full(n, 4.0 * np.pi * lam**2 / n)
        return SphereNet(d, lam, R, nodes, weights)
    raise ValueError(f"sphere nets exist for d in (2, 3), got d={d}")


def extension_matrix(net: SphereNet, points: np.ndarray) -> np.ndarray:
    """Matrix of e^{2 pi i x.xi} w_xi over (point, node) pairs.

    Rows follow `points` (shape (m, d)); applying to net coefficients
    evaluates the weighted plane-wave sum at each point, and the conjugate
    transpose realizes the co-extension up to the caller's volume weights.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != net.d:
        raise ValueError(f"points have dimension {pts.shape[1]}, net has {net.d}")
    phase = np.exp(2j * np.pi * (pts @ net.nodes.T))
    return phase * net.weights[None, :]


class _Rows(NamedTuple):
    """Phase rows e^{2 pi i x.xi}, never stored: row k is prod over axes a of tables[a][index[a][k]]."""
    tables: list  # per axis, a (values in use, nodes) complex table
    index: tuple  # per axis, each row's entry in its table


def _gram(d, rows, rows_in=None, mirror=None):
    """Weighted Gram sum_k d_k conj(rows[k])^T rows_in[k]; rows_in defaults to rows.

    Rows of zero weight are skipped.  Given mirror (row mirror[k] is the
    conjugate of row k; -1 where it has none), d is real on one row set and
    _mirror_gram takes one row per mirror pair.  Otherwise one complex
    product, for any weights: the rows are gathered a block at a time into
    reused arrays and their products summed, so the working set beyond the
    tables is those arrays and the Gram, at any row count.
    """
    if mirror is not None:
        return _mirror_gram(d, rows, mirror)
    sel = np.flatnonzero(d)
    bufs = [np.empty((min(_GRAM_ROWS, sel.size), r.tables[0].shape[1]), dtype=complex)
            for r in ([rows] if rows_in is None else [rows, rows_in])]
    m = np.zeros((bufs[0].shape[1], bufs[-1].shape[1]), dtype=complex)
    for blk in _blocks(sel):
        x = _gather(rows, blk, bufs[0][: blk.size])
        y = x if rows_in is None else _gather(rows_in, blk, bufs[1][: blk.size])
        m += (x.conj().T * d[blk]) @ y
    return m


def _mirror_gram(d, rows, mirror):
    """The Hermitian Gram of real weights d over rows paired with their conjugates by mirror.

    A pair of rows a + ib and a - ib with weights w and w' adds
    s (a^T a + b^T b) + i t (a^T b - b^T a), s = w + w', t = w - w'; a row
    with no mirror is a pair with w' = 0.  One row of each pair is
    gathered, _GRAM_ROWS / 2 pairs of one sign of s at a time, straight into
    the stacked real rows c a and c b, c = sqrt|s| (1 where s = 0), and
    (t / c) a where t != 0.  Re M is, per sign, one real syrk over the
    stacked rows (n columns, not the 2n of interleaved (Re, Im) rows);
    X = sum t a^T b is one GEMM of the (t / c) a rows against their c b
    rows, and Im M = X - X^T.  So M is Hermitian bit for bit.
    """
    n = rows.tables[0].shape[1]
    other = np.where(mirror >= 0, d[mirror], 0.0)
    s, t = d + other, d - other
    fed = ((mirror < 0) | (mirror > np.arange(d.size))) & ((d != 0) | (other != 0))
    sels = []
    for sign in (1.0, -1.0, 0.0):
        sel = np.flatnonzero(fed & (np.sign(s) == sign))
        sels.append((sign, sel[np.argsort(t[sel] == 0, kind="stable")]))  # rows with t != 0 first
    size = min(max(1, _GRAM_ROWS // 2), max(sel.size for _, sel in sels))
    y, xa = np.empty((2 * size, n)), np.empty((size, n))
    re, x, g = np.zeros((n, n)), np.zeros((n, n)), np.empty((n, n))
    for sign, sel in sels:
        for blk in _blocks(sel, size):
            b, k = blk.size, np.count_nonzero(t[blk])
            c = np.sqrt(np.abs(s[blk])) if sign else np.ones(b)
            _gather_split(rows, blk, y[: 2 * b], c, xa[:k], t[blk[:k]] / c[:k])
            if sign:
                np.matmul(y[: 2 * b].T, y[: 2 * b], out=g)
                (np.add if sign > 0 else np.subtract)(re, g, out=re)
            if k:
                np.matmul(xa[:k].T, y[b : b + k], out=g)
                x += g
    m = np.empty((n, n), dtype=complex)
    m.real = re
    np.subtract(x, x.T, out=m.imag)
    return m


def _real_gram(d, rows):
    """The real Gram sum_k d_k x_k^T x_k of rows viewed as interleaved (Re, Im) columns.

    d is real.  Per sign, each block of sqrt|d| rows is gathered, scaled,
    into one reused array; numpy sends its x.T @ x to its symmetric rank-k
    update, which mirrors one triangle.  The block Grams of a sign are
    summed into one array (through one reused buffer), which is then added
    to the total times the sign, so the result is symmetric bit for bit.
    """
    x = np.empty((min(_GRAM_ROWS, np.count_nonzero(d)), rows.tables[0].shape[1]), dtype=complex)
    n = 2 * x.shape[1]
    total, g, buf = np.zeros((n, n)), np.empty((n, n)), None
    for sign in (1.0, -1.0):
        sel = np.flatnonzero(sign * d > 0)
        for i, blk in enumerate(_blocks(sel)):
            if i and buf is None:
                buf = np.empty_like(g)
            block = _gather(rows, blk, x[: blk.size], np.sqrt(sign * d[blk]))
            np.matmul(block.view(float).T, block.view(float), out=buf if i else g)
            if i:
                g += buf
        if sel.size:
            total += sign * g
    return total


def _blocks(index, size=None):
    """Consecutive slices of at most size (default _GRAM_ROWS) entries of index."""
    size = size or _GRAM_ROWS
    return (index[lo : lo + size] for lo in range(0, index.size, size))


def _gather(rows, blk, out, scale=None):
    """Rows blk of a row set, each times scale if given, into out.

    Filled _SUB_ROWS rows at a time through one reused buffer, so a sub-block's product
    over the axes and its scaling stay in cache.  Each entry is its axis factors multiplied
    in axis order, then scaled: the same bits for any block or sub-block size.
    """
    tables, idx = rows.tables, [ix[blk] for ix in rows.index]
    buf = np.empty((min(_SUB_ROWS, blk.size), out.shape[1]), dtype=complex)
    for lo in range(0, blk.size, _SUB_ROWS):
        sub = _form(tables, idx, lo, out[lo : lo + _SUB_ROWS], buf)
        if scale is not None:  # on the float view: Re and Im times s, as the complex product
            sub.view(float)[...] *= scale[lo : lo + _SUB_ROWS, None]
    return out


def _gather_split(rows, blk, stack, scale, xa, xscale):
    """Rows blk as stacked real rows [scale Re; scale Im] in stack, and xscale Re of the first ones in xa.

    Each _SUB_ROWS rows are formed in one reused buffer, as _gather forms
    them, and split from it while in cache.
    """
    tables, idx = rows.tables, [ix[blk] for ix in rows.index]
    bufs = np.empty((2, min(_SUB_ROWS, blk.size), stack.shape[1]), dtype=complex)
    top, bottom = stack[: blk.size], stack[blk.size :]
    for lo in range(0, blk.size, _SUB_ROWS):
        hi = min(lo + _SUB_ROWS, blk.size)
        sub = _form(tables, idx, lo, bufs[0][: hi - lo], bufs[1])
        np.multiply(sub.real, scale[lo:hi, None], out=top[lo:hi])
        np.multiply(sub.imag, scale[lo:hi, None], out=bottom[lo:hi])
        if lo < xa.shape[0]:
            k = min(hi, xa.shape[0]) - lo
            np.multiply(sub.real[:k], xscale[lo : lo + k, None], out=xa[lo : lo + k])


def _form(tables, idx, lo, sub, buf):
    """Rows lo, lo + 1, ... of the gathered indices idx into sub: axis factors multiplied in axis order."""
    hi = lo + sub.shape[0]
    # mode="clip" writes straight into sub; "raise" buffers a copy.  _in_range checked
    # every index at build, so no clip maps an index to the wrong row.
    np.take(tables[0], idx[0][lo:hi], axis=0, out=sub, mode="clip")
    for table, ix in zip(tables[1:], idx[1:]):
        sub *= np.take(table, ix[lo:hi], axis=0, out=buf[: sub.shape[0]], mode="clip")
    return sub


def _in_range(*row_sets):
    """IndexError unless every per-axis index of each row set addresses a row of its table.

    One min and max per axis, at build: _form's np.take(mode="clip") would
    map an index past either end to the end row without an error.
    """
    for rows in row_sets:
        for axis, (table, ix) in enumerate(zip(rows.tables, rows.index)):
            if ix.size and not 0 <= ix.min() <= ix.max() < table.shape[0]:
                raise IndexError(
                    f"row indices on axis {axis} span [{ix.min()}, {ix.max()}], "
                    f"outside a table of {table.shape[0]} rows"
                )


def _lattice(axis, multi, *node_sets):
    """Row sets over each node set at the lattice points with per-axis indices multi into axis.

    Each axis keeps a table over the axis values in use only; the row sets share one index.
    """
    used = [np.unique(idx, return_inverse=True) for idx in multi]
    index = tuple(inverse for _, inverse in used)
    return [
        _Rows([np.exp(2j * np.pi * np.outer(axis[u], xi)) for (u, _), xi in zip(used, nodes.T)], index)
        for nodes in node_sets
    ]


def sandwich(net_out: SphereNet, net_in: SphereNet, field: PotentialField) -> SandwichOperator:
    """Assemble the co-extension/potential/extension matrix on support nodes.

    Entry (mu, nu) is sum_x conj(e(x.mu)) V(x) e(x.nu) cellvol sqrt(w_mu w_nu)
    with x running over the grid nodes where V is nonzero, in torus-centered
    coordinates so wrapped supports stay contiguous.  Its rows are gathered
    from per-axis tables, as SandwichEnsemble's are, but summed in one
    complex product for every V: the reference shares no real Gram with the
    ensemble's pair and mirror forms.  An empty support gives the zero matrix.
    """
    gs = field.grid
    vals = field.values.ravel()
    support = np.flatnonzero(vals)
    nets = [net_out.nodes] if net_in is net_out else [net_out.nodes, net_in.nodes]
    rows = _lattice(gs.axis_centered, np.unravel_index(support, gs.shape), *nets)
    _in_range(*rows)
    m = _gram(vals[support] * gs.cellvol, *rows)
    m *= np.sqrt(net_out.weights)[:, None]
    m *= np.sqrt(net_in.weights)[None, :]
    return SandwichOperator(m, {"assembly": "node", "support_nodes": int(support.size)})


class SandwichEnsemble:
    """Randomized sandwiches over many realizations of one (V, net) pair.

    Rows are the points that carry V: one per cell (of axis_cells) on
    which V is one nonzero constant and that the seam at L/2 does not cut
    (a uniform cell), and each nonzero node of every other cell (a mixed
    cell).  A uniform cell's nodes enter through one phase row times a
    separable in-cell geometric sum sigma, a Hadamard factor of the cell
    sum set by the cell's node counts per axis; uniform cells form one
    group per count tuple.  Phase rows are products of per-axis plane-wave
    tables gathered by lattice index.

    The deterministic sandwich M(1), omega = 1 on every cell, is assembled
    once.  A realization adds the weighted Gram of the rows whose weight
    (omega - 1) V is nonzero, M(omega) = M(1) + sum (omega_j - 1) V_j
    conj(e_j)^T e_j, so sign weights touch only the cells they flip.  The
    result equals the node-level sandwich of the randomized potential to
    rounding error.

    Two assemblies, fixed at build by exact structure with no tolerance:

    * pair: one net, antipodal (xi_{k + n/2} = -xi_k bit for bit) with
      equal weights, and V with imaginary part exactly zero.  In the pair
      basis (e_k + e_{k+n/2}) / sqrt 2, -i (e_k - e_{k+n/2}) / sqrt 2 every
      real-weighted M is a real symmetric n x n matrix T with the same
      norm.  Rows are e^{2 pi i x.xi} over the first half-net, at the cell
      centre for a uniform cell, where sigma is real and even in kappa;
      viewed as float they are the interleaved (cos, sin) rows, and T
      mixes their real Gram per 2 x 2 pair block with sigma(xi_nu - xi_mu)
      and sigma(xi_nu + xi_mu) (_mix).  The operator carries T, scaled, as
      real_form, and lifts M from it in O(n^2) on first access.
    * complex: anything else.  Rows over the whole net(s), anchored half a
      step off the nodes: at y = (m + 1/2) dx per axis for node m, and at
      the cell centre (m0 + c/2) dx for a uniform cell of c nodes from m0,
      where sigma is the real, even sum of the pair form.  Anchors are
      integers times dx / 2.  Nodes and cells map onto themselves under
      m -> -1 - m, which negates y exactly, so a row's mirror is its exact
      conjugate; at build each row is paired with its mirror in the same
      row set and count group, if there is one.  With real V on one net,
      a Gram takes one row per pair (_gram's mirror); complex V and two
      nets take the complex product.  Each M is then the sum times the
      half-step phase e^{-i pi dx sum_a kappa_a}, with the cell volume and
      net weights, one per-entry factor applied once; on one net it is
      Hermitian bit for bit, and so is M for real V.

    The ensemble keeps no rows: per axis, a table over the cells (or the
    nodes) in use, and each row's index into it (and its mirror, in the
    complex form); a sigma per group and M(1) (T(1) in the pair form), and
    the phase.  The build classifies cells a slab at a time; the build and
    each realization gather at most one block of _GRAM_ROWS rows at a time
    and hold a few Grams beyond what is kept (n x n).
    """

    def __init__(self, net_out: SphereNet, net_in: SphereNet, field: PotentialField, h: float):
        self.net_out = net_out
        self.net_in = net_in
        self.field = field
        self.h = float(h)
        gs = field.grid
        real = not field.values.imag.any()
        self._pair = net_in is net_out and _antipodal(net_out) and real
        values = field.values.real if real else field.values
        cell = axis_cells(self.h, gs)
        # The cells that hold nodes along an axis: first node and node count.
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        counts = np.diff(starts, append=gs.N)
        uniform, self._n_mixed, nodes = _classify(values, starts, counts)

        upos = np.nonzero(uniform)
        tuples, group = np.unique(counts[np.stack(upos, -1)], axis=0, return_inverse=True)
        group = group.ravel()
        corners = tuple(starts[p] for p in upos)
        self._uniform_cells = tuple(cell[c] for c in corners)
        self._uniform_vals = values[corners]
        self._mixed_cell_of_row = tuple(cell[a] for a in nodes)
        self._mixed_vals = values[nodes]

        # Row sets (one per net, or the half-net in the pair form) of the uniform and mixed rows.
        self._mirrors = (None, None)
        if self._pair:
            axis = gs.axis_centered
            half = net_out.nodes[: net_out.n_nodes // 2]
            self._uniform = _lattice(axis[starts] + gs.dx * (counts - 1) / 2, upos, half)
            self._mixed = _lattice(axis, nodes, half)
            sigmas = [_pair_mix(half, gs.dx, t) for t in tuples]
        else:
            # Anchors on the half-step axis (k - (N - 1)) dx / 2: k = 2 m + N for node m
            # (centred), 2 m0 + c + N - 1 for a cell of c nodes from m0; the mirror of k is 2N - 2 - k.
            n_ax = gs.N
            centred = np.arange(n_ax) - n_ax * (np.arange(n_ax) >= n_ax // 2)
            half_axis = (np.arange(2 * n_ax - 1) - (n_ax - 1)) * (gs.dx / 2)
            cell_at = 2 * centred[starts] + counts + n_ax - 1
            u_at = tuple(cell_at[p] for p in upos)
            p_at = tuple(2 * centred[a] + n_ax for a in nodes)
            nets = [net_out.nodes] if net_in is net_out else [net_out.nodes, net_in.nodes]
            self._uniform = _lattice(half_axis, u_at, *nets)
            self._mixed = _lattice(half_axis, p_at, *nets)
            if net_in is net_out and real:
                self._mirrors = (_mirrors(u_at, half_axis.size, group), _mirrors(p_at, half_axis.size))
            kappa = net_in.nodes[None, :, :] - net_out.nodes[:, None, :]
            sigmas = [_centre_sum(kappa, gs.dx, t) for t in tuples]
            self._phase = _half_step_phase(kappa, gs.dx)
            del kappa
            self._phase *= gs.cellvol * np.outer(np.sqrt(net_out.weights), np.sqrt(net_in.weights))
        _in_range(*self._uniform, *self._mixed)
        # Per count tuple, a mask of its rows (a Gram skips rows of zero weight) and sigma.
        self._groups = [(group == g, sigma) for g, sigma in enumerate(sigmas)]
        self._m1 = self._assemble(self._uniform_vals, self._mixed_vals)

    def _assemble(self, u_w, p_w):
        """Each group's Gram times its sigma, then the mixed-node Gram: M, or T in the pair form.

        Summed in that order, so no sum is alive beside the larger group Grams' blocks.
        """
        m = None
        for mask, sigma in self._groups:
            w = np.where(mask, u_w, 0)
            if self._pair:
                g = _mix(_real_gram(w, *self._uniform), *sigma)
            else:
                g = _gram(w, *self._uniform, mirror=self._mirrors[0])
                g *= sigma
            m = g if m is None else np.add(m, g, out=m)
            del g
        if self._pair:
            g = _real_gram(p_w, *self._mixed)
        else:
            g = _gram(p_w, *self._mixed, mirror=self._mirrors[1])
        return g if m is None else np.add(m, g, out=m)

    def with_omega(self, omega: OmegaField) -> SandwichOperator:
        """Sandwich of the potential randomized by omega.

        potential_ref records the assembly, the uniform and mixed cell
        counts, cell_groups (the number of count tuples of uniform cells),
        gram_rows, the number of rows whose weight changed from omega = 1,
        and in the complex form mirror_pairs, the mirror pairs among them
        (pairs with a changed row) that fed the Gram as one.
        """
        if omega.grid != self.field.grid:
            raise ValueError("omega drawn for a different grid than the potential")
        if abs(omega.spec.h - self.h) > 1e-12:
            raise ValueError("omega cell size differs from the ensemble's")
        shift = omega.cells - 1.0
        uniform_w = shift[self._uniform_cells] * self._uniform_vals
        mixed_w = shift[self._mixed_cell_of_row] * self._mixed_vals
        m = self._assemble(uniform_w, mixed_w)
        m += self._m1
        ref = {"gram_rows": int(np.count_nonzero(uniform_w) + np.count_nonzero(mixed_w))}
        if not self._pair:
            fed = zip((uniform_w, mixed_w), self._mirrors)
            ref["mirror_pairs"] = sum(_fed_pairs(w, mirror) for w, mirror in fed if mirror is not None)
        return self._operator(m, **ref, realization_index=omega.spec.realization_index)

    def deterministic(self) -> SandwichOperator:
        """The deterministic sandwich M(1), the one stored at build: nothing is drawn."""
        return self._operator(self._m1.copy())

    def _operator(self, m, **ref) -> SandwichOperator:
        """m scaled by the cell volume and the net weights, with the cell counts in potential_ref.

        In the pair form m is T; the real form is 2 T scaled (the pair rows
        are the half-net rows times sqrt 2), and matrix is M lifted from it.
        In the complex form the scaled half-step phase takes m to M.
        """
        counts = {"uniform_cells": int(self._uniform_vals.size), "mixed_cells": int(self._n_mixed)}
        counts["cell_groups"] = len(self._groups)
        if self._pair:
            m *= 2.0 * self.field.grid.cellvol * self.net_out.weights[0]
            return SandwichOperator(None, {"assembly": "pair", **counts, **ref}, m)
        m *= self._phase
        return SandwichOperator(m, {"assembly": "complex", **counts, **ref})


def _classify(values, starts, counts):
    """Uniform cells (a mask), the mixed-cell count and the mixed cells' nonzero nodes.

    Cells split each axis at starts.  A uniform one holds one nonzero V, bit
    for bit, on one side of the seam at L/2.  Each slab of cells along axis
    0 is reduced by reduceat, so no N^d array is formed.  Mixed nodes come
    in row-major cell order, row-major within a cell.
    """
    k, d, half = starts.size, values.ndim, values.shape[0] // 2
    whole = (starts >= half) | (starts + counts <= half)
    whole_rest = np.all(np.meshgrid(*[whole] * (d - 1), indexing="ij"), axis=0)
    node_cell = np.repeat(np.arange(k), counts)
    corners, spread = np.ix_(*[starts] * (d - 1)), np.ix_(*[node_cell] * (d - 1))
    uniform = np.zeros((k,) * d, dtype=bool)
    n_mixed, nodes = 0, [(np.zeros(0, dtype=int),) * d]
    for p, (lo, c) in enumerate(zip(starts, counts)):
        slab = values[lo : lo + c]
        at = np.nonzero(slab)
        if not at[0].size:  # a slab off the support holds no uniform or mixed cell
            continue
        corner = slab[0][corners]
        same = (slab == corner[spread]).all(axis=0)
        for ax in range(d - 1):
            same = np.logical_and.reduceat(same, starts, axis=ax)
        uniform[p] = same & (corner != 0) & whole[p] & whole_rest
        at_cell = np.ravel_multi_index(tuple(node_cell[a] for a in at[1:]), (k,) * (d - 1))
        keep = np.flatnonzero(~uniform[p].ravel()[at_cell])
        keep = keep[np.argsort(at_cell[keep], kind="stable")]
        n_mixed += np.count_nonzero(np.bincount(at_cell[keep]))
        nodes.append((at[0][keep] + lo, *(a[keep] for a in at[1:])))
    return uniform, n_mixed, tuple(np.concatenate(a) for a in zip(*nodes))


def _antipodal(net):
    """Whether xi_{k + n/2} = -xi_k and all weights are equal, bit for bit."""
    n, w = net.n_nodes, net.weights
    paired = n % 2 == 0 and np.array_equal(net.nodes[n // 2 :], -net.nodes[: n // 2])
    return paired and bool(np.all(w == w[0]))


def _cell_ratio(half, r):
    """sin(r half) / sin(half), the limit r cos(r half) / cos(half) where sin(half) vanishes."""
    s = np.sin(half)
    tiny = np.abs(s) < 1e-12
    return np.where(tiny, r * np.cos(half * r), np.sin(half * r)) / np.where(tiny, np.cos(half), s)


def _centre_sum(kappa, dx, counts):
    """In-cell phase sum sigma from the cell centre, real and even in kappa (n, n', d).

    Over axes a, with r = counts[a] nodes, the sum of e^{2 i half (j - (r - 1) / 2)},
    j < r, is sin(r half) / sin(half), half = pi dx kappa_a.  Where
    sin(half) vanishes, half = k pi, the ratio takes its limit
    r cos(r half) / cos(half) = r (-1)^{k (r - 1)}; at kappa_a = 0 it is
    exactly r.  It is taken at |kappa_a|, so exactly negated kappa gives
    the same bits.
    """
    s = np.ones(kappa.shape[:-1])
    for ax, r in enumerate(counts):
        s *= _cell_ratio(np.pi * dx * np.abs(kappa[..., ax]), r)
    return s


def _half_step_phase(kappa, dx):
    """e^{-i pi dx sum_a kappa_a}: takes sums over rows anchored at (m + 1/2) dx to the nodes m dx.

    Taken at |theta| with the sign put back, so exactly negated kappa gives
    exactly conjugate entries: Hermitian bit for bit on one net.
    """
    total = kappa[..., 0].copy()
    for ax in range(1, kappa.shape[-1]):
        total += kappa[..., ax]
    theta = np.pi * dx * total
    size = np.abs(theta)
    return np.cos(size) - 1j * (np.sign(theta) * np.sin(size))


def _mirrors(index, span, group=None):
    """Per row, the row at its mirror anchor (each per-axis index k at span - 1 - k, same group), or -1.

    index holds each row's per-axis anchor index in range(span); rows are
    distinct.  A row that is its own mirror gets -1.
    """
    size = index[0].size
    if group is not None:
        index, mirror = index + (group,), tuple(span - 1 - k for k in index) + (group,)
        dims = (span,) * (len(index) - 1) + (int(group.max(initial=0)) + 1,)
    else:
        mirror, dims = tuple(span - 1 - k for k in index), (span,) * len(index)
    if not size:
        return np.zeros(0, dtype=int)
    key, want = np.ravel_multi_index(index, dims), np.ravel_multi_index(mirror, dims)
    order = np.argsort(key)
    pos = np.minimum(np.searchsorted(key[order], want), size - 1)
    partner = np.where(key[order[pos]] == want, order[pos], -1)
    partner[partner == np.arange(size)] = -1
    return partner


def _fed_pairs(w, mirror):
    """The mirror pairs with a nonzero weight: each pair fed a Gram as one."""
    k = np.flatnonzero(mirror > np.arange(mirror.size))
    return int(np.count_nonzero((w[k] != 0) | (w[mirror[k]] != 0)))


def _pair_mix(half, dx, counts):
    """Pair-block mixing a = (s_minus + s_plus) / 2, b = (s_minus - s_plus) / 2 on the half-net.

    s_minus and s_plus are the in-cell sum from the cell centre (_centre_sum)
    at kappa = xi_nu - xi_mu and xi_nu + xi_mu.  It is taken at |kappa_a|,
    and a sum commutes, so a and b are symmetric bit for bit.
    """
    minus = _centre_sum(half[None, :, :] - half[:, None, :], dx, counts)
    plus = _centre_sum(half[None, :, :] + half[:, None, :], dx, counts)
    return (minus + plus) / 2, (minus - plus) / 2


def _mix(g, a, b):
    """T from the real Gram g of interleaved (cos, sin) half-net rows, per 2 x 2 pair block.

    T_cc = a cc + b ss, T_ss = a ss + b cc, T_cs = a cs - b sc and
    T_sc = a sc - b cs.  g, a and b are symmetric and sc is cs transposed,
    so T is symmetric bit for bit.
    """
    cc, cs, sc, ss = g[0::2, 0::2], g[0::2, 1::2], g[1::2, 0::2], g[1::2, 1::2]
    t = np.empty_like(g)
    t[0::2, 0::2] = a * cc + b * ss
    t[1::2, 1::2] = a * ss + b * cc
    t[0::2, 1::2] = a * cs - b * sc
    t[1::2, 0::2] = a * sc - b * cs
    return t


def _node_matrix(s):
    """M = U s U^H in the node basis, from the real form s over interleaved pair coordinates.

    U maps the pair basis (e_k + e_{k+m}) / sqrt 2, -i (e_k - e_{k+m}) / sqrt 2
    to the node basis.  With m = n / 2 and the blocks cc, cs, sc, ss of s, M[k, l] = P + i Q
    and M[k + m, l + m] = P - i Q for P = (cc + ss) / 2, Q = (cs - sc) / 2;
    M[k, l + m] = F - i G and M[k + m, l] = F + i G for F = (cc - ss) / 2,
    G = (cs + sc) / 2.  s symmetric makes M Hermitian bit for bit.
    """
    m = s.shape[0] // 2
    cc, cs, sc, ss = s[0::2, 0::2], s[0::2, 1::2], s[1::2, 0::2], s[1::2, 1::2]
    out = np.empty(s.shape, dtype=complex)
    re, im = out.real, out.imag
    re[:m, :m] = re[m:, m:] = (cc + ss) / 2
    im[:m, :m] = (cs - sc) / 2
    im[m:, m:] = -im[:m, :m]
    re[:m, m:] = re[m:, :m] = (cc - ss) / 2
    im[m:, :m] = (cs + sc) / 2
    im[:m, m:] = -im[m:, :m]
    return out


def angular_weight(matrix: np.ndarray, lam: float, nu: float) -> np.ndarray:
    """Conjugate a d=2 sandwich matrix by <sphere Laplacian>^(nu/4) in angular modes.

    The angular Fourier modes k of the radius-lam circle carry the two-sided
    multiplier (2 + (k/lam)^2)^(nu/4); nu = 0 returns the matrix unchanged
    up to rounding.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    n = matrix.shape[0]
    modes = np.fft.fftfreq(n, d=1.0 / n)  # integer angular modes
    mult = (2.0 + (modes / lam) ** 2) ** (nu / 4.0)
    m1 = np.fft.ifft(mult[:, None] * np.fft.fft(matrix, axis=0), axis=0)
    return np.fft.fft(mult[None, :] * np.fft.ifft(m1, axis=1), axis=1)


def singular_values(op) -> np.ndarray:
    """Descending singular values of a sandwich (or bare) matrix.

    A sandwich that carries a real_form T, unitarily similar to the
    Hermitian M (M = U T U^H in the pair basis U of _node_matrix), gives
    the descending |eigenvalues| of T from the real eigvalsh: the singular
    values of a Hermitian matrix are its |eigenvalues|, and M is never
    lifted.  Any other sandwich, and any bare matrix, takes the SVD of its
    matrix.
    """
    if isinstance(op, SandwichOperator) and op.real_form is not None:
        return np.sort(np.abs(np.linalg.eigvalsh(op.real_form)))[::-1]
    matrix = op.matrix if isinstance(op, SandwichOperator) else np.asarray(op)
    return np.linalg.svd(matrix, compute_uv=False)


def weak_schatten(svals, p: float) -> float:
    """sup_k s_k k^(1/p) with 1-based ranks and s sorted descending."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    s = np.sort(np.asarray(svals, dtype=float))[::-1]
    if s.size == 0:
        return 0.0
    k = np.arange(1, s.size + 1, dtype=float)
    return float((s * k ** (1.0 / p)).max())
