"""Independent reference paths the benchmark checks the program against.

Tolerances are fixed here, before any run, from what each path promises:

* NORM_RTOL: `util.spectral_norm` stops its power iteration once two
  successive estimates differ by 1e-10 relative; within its 500-step cap
  that leaves a remaining error of a few 1e-9 (the seed commit measures at
  most 4e-9 against the LAPACK SVD at R = 16, 32 and 64).
* ENTRY_TOL: a sandwich entry is a sum over n support nodes of terms bounded
  by `entry_bound`; rounding in any summation order stays below
  n * eps * bound, which is 5e-11 * bound at the largest n used (2e5).
  The same tolerance holds a row of M x against its node-level sum, over
  that sum's own rounding scale.
* RESIDUAL_RTOL: a backward-stable dense eigensolve leaves residuals near
  n * eps * ||H|| (1e-13 ||H|| at n = 512); 1e-10 allows a thousandfold.
* SMIN_TOL: 1 is a singular value of I - BS(z) exactly at an eigenvalue.
* WELL_RTOL: the lowest level of a sampled real well against the continuum
  root of the well widened by half a cell per side, as in the package's own
  CLI test at the same node spacing (dx = 1/16).
"""

from __future__ import annotations

import numpy as np

NORM_RTOL = 1e-8
ENTRY_TOL = 1e-10
RESIDUAL_RTOL = 1e-10
SMIN_TOL = 1e-6
WELL_RTOL = 2e-3


def exact_norm(matrix) -> float:
    """Largest singular value from the LAPACK SVD."""
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _support_nodes(field):
    """Centred axis coordinates, per-axis indices of the support nodes, and their values.

    Recomputed from the grid geometry: node j of an axis sits at j*dx,
    shifted by -L when j*dx >= L/2.
    """
    gs = field.grid
    axis = np.arange(gs.N) * (gs.L / gs.N)
    axis = np.where(axis < gs.L / 2, axis, axis - gs.L)
    vals = field.values.ravel()
    keep = np.flatnonzero(vals)
    return axis, np.unravel_index(keep, (gs.N,) * gs.d), vals[keep]


def centered_support(field):
    """Support-node coordinates on the torus-centred grid, and their values."""
    axis, idx, vals = _support_nodes(field)
    return np.stack([axis[i] for i in idx], axis=-1), vals


def sample_entries(matrix, rng, count: int):
    """`count` random entries (mu, nu, value) of a matrix, to check later."""
    m = np.asarray(matrix)
    mu = rng.integers(0, m.shape[0], count)
    nu = rng.integers(0, m.shape[1], count)
    return mu, nu, m[mu, nu]


def entry_deviation(entries, randomized, net) -> float:
    """Worst sampled entry of a sandwich against its node-level sum.

    Entry (mu, nu) is cellvol sqrt(w_mu w_nu) sum_x W(x) e^{2 pi i x.(nu - mu)}
    over the support of W.  Returns max |deviation| / entry_bound.
    """
    mu, nu, got = entries
    pts, vals = centered_support(randomized)
    kappa = net.nodes[nu] - net.nodes[mu]
    cellvol = randomized.grid.cellvol
    direct = vals @ np.exp(2j * np.pi * (pts @ kappa.T))
    direct *= cellvol * np.sqrt(net.weights[mu] * net.weights[nu])
    bound = cellvol * net.weights.max() * np.abs(vals).sum()
    return float(np.abs(got - direct).max() / bound)


def at_support(field, other):
    """Values of `other` at the support nodes of `field`, in `centered_support` order."""
    return other.values.ravel()[np.flatnonzero(field.values.ravel())]


def random_vector(n: int, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def matvec_deviations(field, randomized, net, xs, products, chunk: int = 4096):
    """Worst row of each realization's M x against its node-level value.

    `randomized` (k, s) holds each realization's W = V omega at the s
    support nodes of `field`, in `centered_support` order; `xs` and
    `products` (k, n) hold random vectors x and the program's M x.  Row mu
    of M x is cellvol sqrt(w_mu) sum_x conj(e(x.mu)) W(x) sum_nu e(x.nu)
    sqrt(w_nu) x_nu over the support, so every row and every column of M
    enters.  One pass over the support serves every realization.  Returns
    max_mu |deviation| over the rounding scale cellvol sqrt(max w)
    sum_x |W(x) inner(x)|, one value per realization.
    """
    axis, idx, _ = _support_nodes(field)
    # e(x.nu) is a product over axes, and each axis has only N coordinates.
    axis_phase = [np.exp(2j * np.pi * np.outer(axis, net.nodes[:, a])) for a in range(len(idx))]
    randomized = np.atleast_2d(randomized)
    sw = np.sqrt(net.weights)
    y = np.atleast_2d(xs) * sw
    acc = np.zeros(y.shape, dtype=complex)
    scale = np.zeros(y.shape[0])
    for lo in range(0, idx[0].size, chunk):
        phase = axis_phase[0][idx[0][lo : lo + chunk]]
        for a in range(1, len(idx)):
            phase *= axis_phase[a][idx[a][lo : lo + chunk]]
        terms = randomized[:, lo : lo + chunk] * (y @ phase.T)
        acc += terms @ phase.conj()
        scale += np.abs(terms).sum(axis=1)
    cellvol = field.grid.cellvol
    direct = cellvol * sw * acc
    scale *= cellvol * sw.max()
    return np.abs(np.atleast_2d(products) - direct).max(axis=1) / scale


def continuum_ground_state(a: float, v0: float) -> float:
    """Lowest even bound state of -d^2/dx^2 - v0 1_[-a, a] on the line."""
    from scipy.optimize import brentq  # imported here to keep it out of setup_s

    def f(e):
        k = np.sqrt(v0 + e)
        return k * np.tan(a * k) - np.sqrt(-e)

    hi = -1e-12
    pole = (np.pi / 2) ** 2 / a**2 - v0
    if pole < 0:  # the lowest root sits before the first tangent pole
        hi = pole - 1e-9
    return brentq(f, -v0 + 1e-12, hi)
