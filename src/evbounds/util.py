"""Small shared helpers: the Japanese bracket, binomial intervals and the operator norm."""

from __future__ import annotations

import numpy as np


def bracket(t):
    """Regularized magnitude <t> := 2 + |t|, elementwise on arrays."""
    return 2.0 + np.abs(t)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion.

    Preferred over the Wald interval because it stays inside [0, 1] and
    behaves at zero counts, which tail studies hit routinely.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = 1.959963984540054  # 95% two-sided normal quantile
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # The exact interval touches p at zero and full counts; keep p inside
    # despite rounding so lower <= p <= upper holds verbatim.
    return (min(max(0.0, center - half), p), max(min(1.0, center + half), p))


def spectral_norm(matrix) -> float:
    """Largest singular value ||A||_2 from one LAPACK call (values only).

    The path follows from exact structure, with no tolerance: a square
    matrix equal bit for bit to its conjugate transpose gives max |lambda|
    from the Hermitian eigensolver `np.linalg.eigvalsh`, any other matrix
    its largest singular value from the SVD.  Both are exact to working
    precision, with no iteration budget or fallback; an empty matrix has
    norm 0.0.
    """
    a = np.asarray(matrix)
    if a.size == 0:
        return 0.0
    if np.array_equal(a, a.conj().T):
        return float(np.abs(np.linalg.eigvalsh(a)).max())
    return float(np.linalg.svd(a, compute_uv=False)[0])
