"""Birman-Schwinger operators on the grid and their spectral radius.

The operator |V|^(1/2) (-Laplacian - z)^(-1) V^(1/2) is assembled densely on
the support nodes of V, with V^(1/2) := V / |V|^(1/2), from one inverse FFT
of the resolvent symbol gathered at support-node differences.  On the
discrete space the correspondence is algebraically exact: z is an
eigenvalue of -Laplacian - V away from the free spectrum iff 1 is an
eigenvalue of the assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError
from .grid import GridSpec, resolvent_symbol
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

    matrix: np.ndarray
    support_indices: np.ndarray  # flat node indices, row/column order

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        return spectral_norm(self.matrix)


def assemble_bs(grid: GridSpec, potential: PotentialField, z: complex) -> BsOperator:
    """Assemble the Birman-Schwinger matrix at spectral parameter z.

    The resolvent kernel g is the inverse DFT of the resolvent symbol, and
    R(z)[m, m'] = g[(m - m') mod N], the difference taken on each axis.  So
    K[i, j] = |V|^(1/2)[i] g[(m_i - m_j) mod N] V^(1/2)[j] over the
    support nodes m_i: one inverse FFT, then a gather.  The resolvent
    symbol rejects z sitting exactly on a discrete Laplacian level.
    """
    vals = potential.values.ravel()
    support = np.flatnonzero(vals)
    if support.size == 0:
        raise EmptySupportError("potential vanishes identically; no support to restrict to")
    kernel = np.fft.ifftn(resolvent_symbol(grid, z))
    gather = tuple((m[:, None] - m) % grid.N for m in np.unravel_index(support, grid.shape))
    root_abs = np.sqrt(np.abs(vals[support]))
    half = vals[support] / root_abs  # V^(1/2) = V / |V|^(1/2)
    return BsOperator(root_abs[:, None] * kernel[gather] * half, support)


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
