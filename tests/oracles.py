"""Independent reference implementations the test suite checks the library against.

Everything here is deliberately written from scratch against the underlying
mathematics (transcendental equations, explicit DFT matrices, closed-form
special functions) and shares no code with the package; equispaced_circle_net
only wraps its nodes in the package's SphereNet container.  Expected values
frozen below were computed once from these routines at high precision.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0
from scipy.stats import norm

from evbounds.extension import SphereNet

# Ground state of -u'' - 2*1_[-1,1] u = E u on the line.
SQUARE_WELL_E0_A1_V2 = -1.2077956677267891
# 1 + 4 * 4**0.05, the two-point eigenvalue-sum value at exponent 0.05.
EVSUM_TWO_POINT = 5.2870938501451725
# 2*(1 - Phi(2)): two-sided standard normal tail mass beyond 2.
NORMAL_TWO_SIDED_2 = 0.04550026389635842


def square_well_levels(a: float, v0: float) -> list[float]:
    """Bound-state energies of -u'' - v0*1_[-a,a] u = E u, both parities.

    Even states solve k tan(ka) = kappa, odd states -k cot(ka) = kappa,
    with k^2 + kappa^2 = v0; E = -kappa^2.  Roots are bracketed per
    branch of the tangent/cotangent and polished with brentq.
    """
    if a <= 0 or v0 <= 0:
        raise ValueError("need a > 0 and v0 > 0")
    kmax = np.sqrt(v0)
    levels = []

    def kappa(k):
        return np.sqrt(max(v0 - k * k, 0.0))

    f_even = lambda k: k * np.tan(k * a) - kappa(k)
    f_odd = lambda k: -k / np.tan(k * a) - kappa(k)
    branches = int(np.floor(kmax * a / np.pi)) + 2
    for j in range(branches):
        lo = max(1e-12, j * np.pi / a + 1e-9)
        hi = min((j + 0.5) * np.pi / a - 1e-9, kmax - 1e-12)
        if lo < hi and f_even(lo) * f_even(hi) < 0:
            k = brentq(f_even, lo, hi, xtol=1e-14)
            levels.append(-(v0 - k * k))
        lo = max(1e-12, (j + 0.5) * np.pi / a + 1e-9)
        hi = min((j + 1) * np.pi / a - 1e-9, kmax - 1e-12)
        if lo < hi and f_odd(lo) * f_odd(hi) < 0:
            k = brentq(f_odd, lo, hi, xtol=1e-14)
            levels.append(-(v0 - k * k))
    return sorted(levels)


def dft_matrix(N: int, L: float) -> np.ndarray:
    """Forward discrete Fourier matrix with the integral normalization.

    Row m, column k: exp(-2 pi i m k / N) * (L/N), so applying it to node
    samples approximates integral f(x) e^(-2 pi i x xi_m) dx on the torus.
    """
    idx = np.arange(N)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / N) * (L / N)


def dense_resolvent_1d(N: int, L: float, z: complex) -> np.ndarray:
    """(-Laplacian - z)^(-1) as an explicit N x N matrix, d=1.

    Assembled by explicit DFT conjugation of the diagonal symbol
    1/(|2 pi xi|^2 - z), never via fft routines.
    """
    F = dft_matrix(N, L)
    xi = np.fft.fftfreq(N, d=L / N)
    diag = 1.0 / ((2 * np.pi * xi) ** 2 - z)
    return np.linalg.inv(F) @ (diag[:, None] * F)


def dense_laplacian(N: int, L: float, d: int) -> np.ndarray:
    """-Laplacian as an explicit dense matrix on the d-dim periodic grid."""
    F = dft_matrix(N, L)
    Finv = np.linalg.inv(F)
    xi = np.fft.fftfreq(N, d=L / N)
    eye = np.eye(N)
    mats = []
    for ax in range(d):
        one_d = Finv @ (((2 * np.pi * xi) ** 2)[:, None] * F)
        full = np.array([[1.0]])
        for k in range(d):
            full = np.kron(full, one_d if k == ax else eye)
        mats.append(full)
    return sum(mats)


def gram_svals(matrix: np.ndarray) -> np.ndarray:
    """Singular values via the eigenvalues of the conjugate-transpose Gram."""
    gram = matrix.conj().T @ matrix
    ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return np.sqrt(np.clip(ev, 0.0, None))[::-1]


def equispaced_circle_net(lam: float, R: float) -> SphereNet:
    """ceil(2 pi lam R) equispaced nodes on the radius-lam circle, with uniform weights.

    The count is odd at most radii (51 at lam R = 8), and an even net built
    here is in general not antipodal bit for bit (cos(theta + pi) need not
    be -cos(theta) exactly), so it reaches the mirror-paired complex
    assembly that build_net's antipodal nets skip.
    """
    n = int(np.ceil(2.0 * np.pi * lam * R))
    theta = 2.0 * np.pi * np.arange(n) / n
    nodes = lam * np.column_stack([np.cos(theta), np.sin(theta)])
    return SphereNet(2, lam, R, nodes, np.full(n, 2.0 * np.pi * lam / n))


def circle_extension_of_one(lam: float, x: np.ndarray) -> complex | np.ndarray:
    """(E_lam 1)(x) in d=2: closed form 2 pi lam J0(2 pi lam |x|)."""
    r = np.linalg.norm(np.atleast_2d(x), axis=-1)
    return 2 * np.pi * lam * j0(2 * np.pi * lam * r)


def dyadic_thresholds(values: np.ndarray, cellvol: float, n_levels: int) -> list[float]:
    """H_i = inf{t > 0 : measure(|V| > t) <= 2^(i-1)} by brute-force scan.

    Candidate infima are the distinct |V| values themselves (measure is
    piecewise constant between them), scanned in increasing order.
    """
    mags = np.abs(np.asarray(values).ravel())
    distinct = np.unique(mags)
    support_measure = np.count_nonzero(mags) * cellvol
    out = []
    for i in range(1, n_levels + 1):
        budget = 2.0 ** (i - 1)
        if support_measure <= budget:
            # measure(|V| > t) <= budget already for every t > 0
            out.append(0.0)
            continue
        hi = float(distinct[-1])
        for t in distinct:
            if np.count_nonzero(mags > t) * cellvol <= budget:
                hi = float(t)
                break
        out.append(hi)
    return out


def normal_tail_two_sided(t: float) -> float:
    """P(|Z| > t) for standard normal Z."""
    return float(2 * (1 - norm.cdf(t)))


def companion_matrix(coeffs: list[complex]) -> np.ndarray:
    """Companion matrix of z^n + c_{n-1} z^(n-1) + ... + c_0."""
    n = len(coeffs)
    m = np.zeros((n, n), dtype=complex)
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = -np.asarray(coeffs, dtype=complex)
    return m
