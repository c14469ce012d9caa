"""Dense eigensolution of -Delta - V, eigenvalue filtering, and sum functionals.

The grid Hamiltonian is a circulant Laplacian minus a diagonal potential.
Filtering separates genuine discrete eigenvalues from the finite-box shadow
of the essential spectrum [0, inf); the surviving points feed the weighted
eigenvalue sums.

Every eigensolve is numpy.linalg's LAPACK, on the same OpenBLAS as every
other product in the package; this module loads no scipy.  The two
reflection blocks of a split solve are formed, solved and certified at
once, in two threads, each on one OpenBLAS thread at every size; below 1024
rows every other BLAS call on a Hamiltonian runs on one thread too, so
split spectra, and every spectrum under 1024 rows, do not depend on the
thread count a process starts with.
"""

from __future__ import annotations

import cmath
import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, apply_multiplier
from .potential import PotentialField
from .util import one_blas_thread

__all__ = [
    "SpectralPoint",
    "SpectrumFilter",
    "check_dense_size",
    "hamiltonian_matrix",
    "eigenvalues_dense",
    "filter_discrete",
    "delta_dist",
    "eigenvalue_sum",
]

_DENSE_BUDGET = 4096
_CLUSTER_REL_TOL = 1e-7
_REFLECTION_ROWS = 64
_THREADED_ROWS = 1024  # from this many rows, H keeps the default BLAS thread count


@dataclass(frozen=True)
class SpectralPoint:
    """One clustered eigenvalue with certificate data."""

    z: complex
    multiplicity: int
    residual: float

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")

    @property
    def lam(self) -> float:
        """Re sqrt(z), principal branch."""
        return cmath.sqrt(self.z).real

    @property
    def eps(self) -> float:
        """Im sqrt(z), principal branch."""
        return cmath.sqrt(self.z).imag


@dataclass(frozen=True)
class SpectrumFilter:
    """Window on sqrt|z|, distance-to-[0,inf) floor, and optional sector cut."""

    band: tuple[float, float]
    essential_margin: float
    kappa: float | None = None

    def __post_init__(self):
        if len(self.band) != 2 or not 0 <= self.band[0] <= self.band[1]:
            raise ValueError(f"band must be [lo, hi] with 0 <= lo <= hi, got {self.band}")
        if not self.essential_margin > 0:
            raise ValueError("essential_margin must be positive")

    @classmethod
    def default_margin(cls, grid: GridSpec) -> float:
        """One free-Laplacian level spacing at the bottom of the spectrum."""
        return 10.0 * (2.0 * np.pi / grid.L) ** 2

    @classmethod
    def from_scales(
        cls,
        R0: float,
        h: float,
        essential_margin: float,
        kappa: float | None = None,
    ) -> SpectrumFilter:
        """Window 1/R0 <= sqrt|z| <= 1/h from the sparse and cell scales."""
        if not (R0 > 0 and h > 0):
            raise ValueError(f"R0 and h must be positive, got R0 = {R0}, h = {h}")
        return cls((1.0 / R0, 1.0 / h), essential_margin, kappa)


def delta_dist(z: complex) -> float:
    """Distance from z to the half line [0, inf)."""
    z = complex(z)
    return abs(z.imag) if z.real >= 0 else abs(z)


def check_dense_size(n: int) -> None:
    """ValueError when a dense n x n Hamiltonian or eigensolve exceeds the budget."""
    if n > _DENSE_BUDGET:
        raise ValueError(f"dense solves are budgeted at {_DENSE_BUDGET} nodes, got {n}")


def hamiltonian_matrix(grid: GridSpec, potential: PotentialField) -> np.ndarray:
    """Dense position-basis matrix of -Delta - V on the grid.

    The Laplacian block is the circulant with the DFT-diagonal symbol
    |2 pi xi|^2.  Its kernel is the real part of the inverse DFT of the
    symbol, averaged with its k -> -k reflection on each axis; the symbol
    is even, so this is exact and makes H == H^T bit for bit.  When the
    imaginary part of V is exactly zero, H is float64 and so exactly real
    symmetric; otherwise it is complex symmetric.  The result is
    self-checked against spectral application on random vectors before
    being returned.
    """
    n = grid.node_count
    check_dense_size(n)
    vals = potential.values
    if vals.shape != grid.shape:
        raise ValueError(f"potential shape {vals.shape} does not match grid {grid.shape}")
    if not np.imag(vals).any():
        vals = np.real(vals)

    kernel = np.fft.ifftn(grid.lap_symbol).real
    for ax in range(grid.d):
        kernel = 0.5 * (kernel + np.roll(np.flip(kernel, ax), 1, ax))
    # Multi-axis circulant: the kernel at the per-axis differences of row and
    # column multi-indices, axis a's N x N differences broadcast on axes a, d + a.
    d, N = grid.d, grid.N
    diff = (np.arange(N)[:, None] - np.arange(N)) % N
    gather = tuple(
        diff.reshape((1,) * a + (N,) + (1,) * (d - 1) + (N,) + (1,) * (d - 1 - a))
        for a in range(d)
    )
    h = kernel[gather].reshape(n, n).astype(np.result_type(vals, float), copy=False)
    h[np.diag_indices(n)] -= vals.ravel()

    rng = np.random.default_rng(0xA11CE)
    for _ in range(2):
        v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        # Real and imaginary parts apart, so a real H is never cast to complex.
        with _blas_threads(n):
            direct = (h @ v.real.ravel() + 1j * (h @ v.imag.ravel())).reshape(grid.shape)
        spectral = apply_multiplier(grid, grid.lap_symbol, v) - vals * v
        err = np.linalg.norm(direct - spectral) / np.linalg.norm(spectral)
        if err > 1e-10:
            raise RuntimeError(f"circulant assembly disagrees with DFT application: {err:.2e}")
    return h


def _torus_reflection(n: int, d: int) -> np.ndarray | None:
    """Point reflection m -> -m (mod N) of the torus (N,)^d with N^d = n.

    None unless N is a power of two >= 4, the grids a GridSpec admits.
    """
    side = round(n ** (1.0 / d))
    if side < 4 or side & (side - 1) or side**d != n:
        return None
    shape = (side,) * d
    multi = np.unravel_index(np.arange(n), shape)
    return np.ravel_multi_index(tuple(-m % side for m in multi), shape)


def _commuting_reflection(h: np.ndarray) -> np.ndarray | None:
    """The first torus reflection J, d = 1, 2, 3, with J H J == H bit for bit.

    The diagonal is compared first, then _REFLECTION_ROWS rows at a time,
    so no n x n temporary is formed and a non-symmetric H fails early.
    """
    n = h.shape[0]
    diag = h.diagonal()
    for d in (1, 2, 3):
        j = _torus_reflection(n, d)
        if j is None or not np.array_equal(diag[j], diag):
            continue
        if all(
            np.array_equal(h[np.ix_(j[lo:lo + _REFLECTION_ROWS], j)], h[lo:lo + _REFLECTION_ROWS])
            for lo in range(0, n, _REFLECTION_ROWS)
        ):
            return j
    return None


def _blas_threads(n: int):
    """One BLAS thread for an n-row H below _THREADED_ROWS, else the count as it stands."""
    return one_blas_thread() if n < _THREADED_ROWS else contextlib.nullcontext()


def _solve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors: `eigh` when h == h^H bit for bit, else `eig`."""
    if np.array_equal(h, h.conj().T):
        return np.linalg.eigh(h)
    return np.linalg.eig(h)


def _lift_residuals(
    h: np.ndarray, cols: np.ndarray, jcols: np.ndarray, parity: int, w: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """||(H - w_a) v_a|| / ||v_a|| for the lifted eigenvectors v = P u of one reflection block.

    cols are the block's representatives and jcols their reflections.
    Column a of P is (e_cols[a] + parity e_jcols[a]) / sqrt(2), or e_f alone
    at a fixed point f (even block only).  So H v = (H P) u, and column a of
    H P is (H[:, r] + parity H[:, Jr]) / sqrt(2) or H[:, f]: every row of H
    takes part, and no n x n matrix is formed.  Rows come _REFLECTION_ROWS
    at a time; row i of v is row at[i] of u times scale[i], which is 0 on
    the fixed points of the odd block.
    """
    n, m = h.shape[0], cols.size
    fixed = cols == jcols
    half = np.sqrt(0.5)
    weights = u * np.where(fixed, 0.5, half)[:, None]  # a fixed column is summed twice
    at = np.zeros(n, dtype=np.intp)
    at[cols] = at[jcols] = np.arange(m)
    scale = np.zeros(n)
    scale[cols] = np.where(fixed, 1.0, half)
    scale[jcols[~fixed]] = parity * half
    combine = np.add if parity > 0 else np.subtract
    res2, norm2 = np.zeros(m), np.zeros(m)
    for lo in range(0, n, _REFLECTION_ROWS):
        rows = slice(lo, lo + _REFLECTION_ROWS)
        v = u[at[rows]] * scale[rows, None]
        r = combine(h[rows, cols], h[rows, jcols]) @ weights - v * w
        res2 += np.einsum("ij,ij->j", r.conj(), r).real
        norm2 += np.einsum("ij,ij->j", v.conj(), v).real
    return np.sqrt(res2 / norm2)


def _solve_block(h: np.ndarray, cols: np.ndarray, jcols: np.ndarray, parity: int):
    """(w, residuals) of the even (parity 1) or odd (-1) block of h on representatives cols."""
    c = np.where(cols == jcols, np.sqrt(0.5), 1.0)
    block = h[np.ix_(cols, cols)]
    (np.add if parity > 0 else np.subtract)(block, h[np.ix_(cols, jcols)], out=block)
    block *= np.outer(c, c)
    w, u = _solve(block)
    del block  # freed before the residuals
    return w, _lift_residuals(h, cols, jcols, parity, w, u)


def _solve_split(h: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of h and their residuals, from its blocks even and odd under the reflection j.

    The odd block is formed, solved and certified in a helper thread while
    the even one is in this one, both on one BLAS thread.  Each thread
    takes its residuals against the full h by _lift_residuals, so no
    eigenvector is lifted into an n x n matrix.
    """
    k = np.arange(h.shape[0])
    reps = np.flatnonzero(k <= j)  # fixed points and pair representatives
    pairs = np.flatnonzero(k < j)
    solved, failed = [], []

    def solve_odd():
        # Never enters one_blas_thread: the caller holds its lock while it joins.
        try:
            solved.append(_solve_block(h, pairs, j[pairs], -1))
        except BaseException as exc:
            failed.append(exc)

    # LAPACK releases the GIL, and the thread count is process-wide, so each
    # block gets the bits of a serial one-thread solve.
    with one_blas_thread():
        helper = threading.Thread(target=solve_odd, name="evbounds-odd-block")
        helper.start()
        try:
            w_even, res_even = _solve_block(h, reps, j[reps], 1)
        finally:
            helper.join()
    if failed:
        raise failed[0]
    w_odd, res_odd = solved[0]
    return np.concatenate([w_even, w_odd]), np.concatenate([res_even, res_odd])


def eigenvalues_dense(matrix: np.ndarray) -> list[SpectralPoint]:
    """All eigenvalues of a square matrix, clustered into SpectralPoints.

    The driver follows from exact structure, with no tolerance.
    - Reflection split.  For d = 1, 2, 3 in turn, if n = N^d with N a
      power of two >= 4, let J be the point reflection m -> -m (mod N) of
      the torus (N,)^d.  The first J with J H J == H bit for bit splits
      the solve in two.  With R the representatives {k <= Jk}, P the pair
      representatives {k < Jk} and c_k = sqrt(1/2) on fixed points, 1 on
      pairs, the even block is (H[R,R] + H[R,JR]) * (c c^T) and the odd
      block is H[P,P] - H[P,JP], of sizes (n +- 2^d)/2.  Both are
      exactly symmetric when H is, and exactly Hermitian when H is.
      Their eigenvectors u are lifted to v[r] = v[Jr] = u/sqrt(2) (even)
      or v[p] = -v[Jp] = u/sqrt(2) (odd), with v[f] = u on fixed points.
      Any such J is an exact symmetry of H, so the split is never wrong;
      with none, H is solved whole.
    - Driver.  A matrix (H or a block) equal bit for bit to its conjugate
      transpose goes to the Hermitian solver `numpy.linalg.eigh` (LAPACK
      ?syevd / ?heevd), whose eigenvalues are exactly real, and every
      other matrix to the general solver `numpy.linalg.eig` (?geev).
      scipy.linalg's would run on a second OpenBLAS, whose threads wait
      for the cores that numpy's still spin on after each product.
    - Threads.  The two blocks of a split are formed, solved and
      certified at once, the odd one in a helper thread, each on one BLAS
      thread at every block size, so each has the bits of a serial
      one-thread solve.  Below 1024 rows every other BLAS call on H (the
      whole-H solve and its residual product) runs on one BLAS thread
      too: ?geev's QR sweeps are sequential, so a second thread gained
      nothing at 256 and 512 rows, and a BLAS worker left spinning after
      a two-thread call takes the core the helper needs.  Split spectra,
      and all spectra under 1024 rows, therefore do not depend on the
      thread count a process starts with.  From 1024 rows an unsplit
      solve and its residual keep the default count.
    Residuals are ||(H - z)v|| / ||v|| for the right eigenvectors v,
    always against the full position-basis H, so they certify the split.
    A whole-H solve takes them from the dense product H V.  A split takes
    them as H v = (H P) u for the lift P of each block: every row of H,
    _REFLECTION_ROWS rows at a time, with no n x n eigenvector matrix.
    Multiplicities come from single-linkage clustering: eigenvalues within
    1e-7 max|z| of each other, with max|z| the spectral radius of the
    computed eigenvalues, are linked, and each connected group is one point.
    The spectral radius equals ||H|| for normal H, is never larger, and
    came within a relative 2e-4 of it on the dissipative wells tried; it
    costs nothing beyond the eigenvalues.  Points come in lexicographic
    (Re, Im) order of their first member, so reruns agree.
    """
    h = np.asarray(matrix)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    check_dense_size(h.shape[0])

    j = _commuting_reflection(h)
    if j is not None:
        return _cluster(*_solve_split(h, j))
    with _blas_threads(h.shape[0]):
        w, vr = _solve(h)
        residuals = np.linalg.norm(h @ vr - vr * w[None, :], axis=0) / np.linalg.norm(vr, axis=0)
    return _cluster(w, residuals)


def _cluster(w: np.ndarray, residuals: np.ndarray) -> list[SpectralPoint]:
    """Eigenvalues w with their residuals, clustered into points as eigenvalues_dense says."""
    n = w.size
    tol = _CLUSTER_REL_TOL * max(np.abs(w).max(initial=0.0), np.finfo(float).tiny)
    order = np.lexsort((w.imag, w.real))
    w, residuals = w[order], residuals[order]
    # Single linkage, each group labelled by its first member; linked eigenvalues lie
    # at most tol apart in Re, so only one with an earlier one that near can link.
    labels = np.arange(n)
    start = np.searchsorted(w.real, w.real - tol)
    for i in np.flatnonzero(start < np.arange(n)):
        link = labels[start[i]:i + 1][np.abs(w[start[i]:i + 1] - w[i]) <= tol]
        if link.size > 1:
            labels[np.isin(labels, link)] = link.min()
    firsts = np.flatnonzero(labels == np.arange(n))  # each cluster's first member
    sizes = np.bincount(labels)[firsts]
    members = np.argsort(labels, kind="stable")  # cluster by cluster, each in index order
    bounds = np.cumsum(sizes) - sizes
    z = w[firsts] + 0j  # a one-member mean bit for bit: -0.0 becomes 0.0
    for k in np.flatnonzero(sizes > 1):
        z[k] = w[members[bounds[k]:bounds[k] + sizes[k]]].mean()
    worst = np.maximum.reduceat(residuals[members], bounds)
    return list(map(SpectralPoint, z.tolist(), sizes.tolist(), worst.tolist()))


def filter_discrete(points, filt: SpectrumFilter) -> list[SpectralPoint]:
    """Keep points in the sqrt|z| band, off the half line, and in the sector."""
    lo, hi = filt.band
    kept = []
    for pt in points:
        z = complex(pt.z)
        if delta_dist(z) < filt.essential_margin:
            continue
        root = np.sqrt(abs(z))
        if not lo <= root <= hi:
            continue
        if filt.kappa is not None and abs(z.imag) < filt.kappa * z.real:
            continue
        kept.append(pt)
    return kept


def eigenvalue_sum(points, p: float, sigma: float, eps: float) -> float:
    """Sum of delta(z) |z|^e over points, e = -1/2 + ((2 p sigma - 1 + eps)+)/2.

    Multiplicities weight each term; points on the half line contribute
    nothing and are skipped even where |z|^e would be singular.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    exponent = -0.5 + 0.5 * max(2.0 * p * sigma - 1.0 + eps, 0.0)
    total = 0.0
    for pt in points:
        dist = delta_dist(pt.z)
        if dist == 0.0:
            continue
        total += pt.multiplicity * dist * abs(complex(pt.z)) ** exponent
    return total
