"""Birman-Schwinger operators on the grid and spectral-radius estimation.

The operator |V|^(1/2) (-Laplacian - z)^(-1) V^(1/2) is assembled densely on
the support nodes of V, with V^(1/2) := V / |V|^(1/2).  On the discrete
space the correspondence is algebraically exact: z is an eigenvalue of
-Laplacian - V away from the free spectrum iff 1 is an eigenvalue of the
assembled matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError
from .grid import FrequencySymbol, GridSpec, resolvent_symbol
from .potential import PotentialField
from .util import spectral_norm

__all__ = [
    "BsOperator",
    "SmoothedSymbol",
    "assemble_bs",
    "smoothed_symbol",
    "band_cutoff",
    "gelfand_spr",
]


@dataclass
class BsOperator:
    """Dense Birman-Schwinger matrix restricted to the support nodes."""

    grid: GridSpec
    potential: PotentialField
    z: complex
    matrix: np.ndarray
    support_indices: np.ndarray  # flat node indices, row/column order

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        return spectral_norm(self.matrix)


@dataclass(frozen=True)
class SmoothedSymbol:
    """Square-root regularization of the resolvent symbol at energy |z|."""

    z: complex
    delta: float
    values: np.ndarray


def assemble_bs(grid: GridSpec, potential: PotentialField, z: complex) -> BsOperator:
    """Assemble the Birman-Schwinger matrix at spectral parameter z.

    Column k is |V|^(1/2) R(z) (V^(1/2) e_k) for the k-th support node,
    evaluated with one batched multiplier application; the resolvent symbol
    rejects z sitting exactly on a discrete Laplacian level.
    """
    vals = potential.values.ravel()
    support = np.flatnonzero(vals)
    if support.size == 0:
        raise EmptySupportError("potential vanishes identically; no support to restrict to")
    sym = resolvent_symbol(grid, z)
    root_abs = np.sqrt(np.abs(vals[support]))
    half = vals[support] / root_abs  # V^(1/2) = V / |V|^(1/2)

    n = support.size
    stack = np.zeros((n, grid.node_count), dtype=complex)
    stack[np.arange(n), support] = half
    stack = stack.reshape((n,) + grid.shape)
    axes = tuple(range(1, grid.d + 1))
    out = np.fft.ifftn(sym.values[None, ...] * np.fft.fftn(stack, axes=axes), axes=axes)
    out = out.reshape(n, grid.node_count)
    # Rows: multiply by |V|^(1/2) and restrict to the support.
    matrix = (out[:, support] * root_abs[None, :]).T.copy()
    return BsOperator(grid, potential, z, matrix, support)


def smoothed_symbol(grid: GridSpec, z: complex, delta: float) -> SmoothedSymbol:
    """Canonical representative (||2 pi xi|^2 - |z|| + delta)^(-1/2).

    Callers sandwiching a potential of support radius R conventionally take
    delta = 1/(2R); the width is a free parameter here.
    """
    if not delta > 0:
        raise ValueError(f"smoothing width must be positive, got {delta}")
    vals = 1.0 / np.sqrt(np.abs(grid.lap_symbol - abs(z)) + delta)
    return SmoothedSymbol(z, float(delta), vals)


def band_cutoff(grid: GridSpec, lo: float, hi: float) -> FrequencySymbol:
    """Sharp frequency-band indicator lo <= |2 pi xi| <= hi."""
    if lo < 0 or not hi > lo:
        raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    mag = np.sqrt(grid.lap_symbol)
    return FrequencySymbol(((mag >= lo) & (mag <= hi)).astype(float))


def _as_matvec(op, dim):
    if callable(op) and not isinstance(op, np.ndarray):
        if dim is None:
            raise ValueError("callable operators need an explicit dim")
        return op, int(dim), None
    a = np.asarray(op)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return (lambda v: a @ v), a.shape[0], a


def gelfand_spr(op, n_max: int = 32, tol: float = 1e-6, dim: int | None = None,
                n_probes: int = 4, seed: int = 7) -> float:
    """Spectral radius via Gelfand's formula inf_n ||op^n||^(1/n).

    Parameters
    ----------
    op : square ndarray or callable v -> op @ v
        The operator; callables must come with `dim`.
    n_max : int
        Power budget for the norm-growth iteration.
    tol : float
        Relative stabilization target for the iterative estimate.

    A dense matrix of dimension up to 512 goes straight to a dense
    eigensolve, exact to eigensolver accuracy.  Otherwise the n-th root of
    the norm of op^n is tracked through the norm growth of a few random
    probe vectors (log-accumulated, so powers neither overflow nor
    underflow), and the estimate is flagged with a warning when it has not
    stabilized to `tol`.
    """
    matvec, n, dense = _as_matvec(op, dim)
    if n == 0:
        return 0.0
    if dense is not None and n <= 512:
        return float(np.abs(np.linalg.eigvals(dense)).max())
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n, n_probes)) + 1j * rng.standard_normal((n, n_probes))
    probes /= np.linalg.norm(probes, axis=0, keepdims=True)

    lognorm = np.zeros(n_probes)
    roots = []
    for step in range(1, n_max + 1):
        nxt = np.column_stack([matvec(probes[:, j]) for j in range(probes.shape[1])])
        norms = np.linalg.norm(nxt, axis=0)
        keep = norms > 0.0
        if not keep.any():
            # op^step annihilates every probe: nilpotent on the sampled space.
            roots.append(0.0)
            break
        nxt, norms, lognorm = nxt[:, keep], norms[keep], lognorm[keep]
        lognorm = lognorm + np.log(norms)
        probes = nxt / norms
        roots.append(float(np.exp(lognorm.max() / step)))

    iterative = min(roots or [0.0])
    converged = len(roots) >= 3 and (
        abs(roots[-1] - roots[-2]) <= tol * max(1.0, abs(roots[-1]))
        and abs(roots[-2] - roots[-3]) <= tol * max(1.0, abs(roots[-2]))
    )
    if iterative == 0.0:
        converged = True

    if not converged:
        warnings.warn(
            f"spectral radius estimate did not stabilize to {tol} within {n_max} powers",
            stacklevel=2,
        )
    return iterative
