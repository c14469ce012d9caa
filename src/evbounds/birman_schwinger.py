"""Birman-Schwinger operators on the grid and their spectral radius.

The operator |V|^(1/2) (-Laplacian - z)^(-1) V^(1/2) is assembled densely on
the support nodes of V, with V^(1/2) := V / |V|^(1/2).  On the discrete
space the correspondence is algebraically exact: z is an eigenvalue of
-Laplacian - V away from the free spectrum iff 1 is an eigenvalue of the
assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError
from .grid import GridSpec, apply_multiplier_stack, resolvent_symbol
from .potential import PotentialField
from .util import spectral_norm

__all__ = [
    "BsOperator",
    "assemble_bs",
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
    out = apply_multiplier_stack(grid, sym, stack).reshape(n, grid.node_count)
    # Rows: multiply by |V|^(1/2) and restrict to the support.
    matrix = (out[:, support] * root_abs[None, :]).T.copy()
    return BsOperator(grid, potential, z, matrix, support)


def gelfand_spr(matrix) -> float:
    """Spectral radius max |lambda| of a square matrix, by a dense eigensolve.

    An empty matrix has radius 0.0; any other shape than (n, n) is a
    ValueError.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(a)).max())
