"""Small shared helpers: the Japanese bracket, binomial intervals, the operator norm
and numpy's OpenBLAS on one thread."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

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

    The path follows from exact structure, with no tolerance:

    * a square matrix equal bit for bit to its conjugate transpose gives
      max |lambda| from the Hermitian eigensolver `np.linalg.eigvalsh`;
      real input goes there as it is;
    * a complex one of even size n = 2m that is also exactly in pair
      shape, M = [[A, B], [conj B, conj A]], goes there as its real form
      (_pair_form), a real symmetric matrix with the same eigenvalues;
    * any other matrix gives its largest singular value from the SVD.

    Each is exact to working precision, with no iteration budget or
    fallback; an empty matrix has norm 0.0.
    """
    a = np.asarray(matrix)
    if a.size == 0:
        return 0.0
    if np.array_equal(a, a.conj().T):
        return float(np.abs(np.linalg.eigvalsh(_pair_form(a))).max())
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _pair_form(a):
    """T = U^H a U for a Hermitian a in exact pair shape, else a itself.

    U is the pair basis (e_k + e_{k+m}) / sqrt 2, -i (e_k - e_{k+m}) / sqrt 2,
    k < m = n / 2.  With A = a[:m, :m], B = a[:m, m:], a[m:, m:] = conj A
    and a[m:, :m] = conj B bit for bit, T = [[Re A + Re B, X], [X^T, Re A - Re B]]
    with X = Im A - Im B: real, and symmetric bit for bit since A is
    Hermitian and B symmetric (a is Hermitian and a[m:, :m] = B^H = conj B).
    It undoes extension._node_matrix, whose real form orders the same
    coordinates interleaved rather than in two blocks.  Real input, odd n
    and any bit off the pair shape return a unchanged, before any arithmetic.
    """
    n = a.shape[0]
    if not np.iscomplexobj(a) or n % 2:
        return a
    m = n // 2
    top_a, top_b = a[:m, :m], a[:m, m:]
    if not (np.array_equal(a[m:, m:], top_a.conj()) and np.array_equal(a[m:, :m], top_b.conj())):
        return a
    t = np.empty((n, n))
    np.add(top_a.real, top_b.real, out=t[:m, :m])
    np.subtract(top_a.real, top_b.real, out=t[m:, m:])
    np.subtract(top_a.imag, top_b.imag, out=t[:m, m:])
    t[m:, :m] = t[:m, m:].T
    return t


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, if it has openblas_set_num_threads_local (0.3.27+)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = sorted(f for f in os.listdir(libs) if "openblas" in f) if os.path.isdir(libs) else []
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        if hasattr(lib, "openblas_set_num_threads_local"):
            lib.openblas_set_num_threads_local.argtypes = [ctypes.c_int]
            lib.openblas_set_num_threads_local.restype = ctypes.c_int
            return lib
    return None


# The OpenBLAS thread count is process-wide: one save/restore at a time.  Re-entrant,
# so a block that already holds one thread may call code that asks for it again.
_BLAS_THREADS = threading.RLock()


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block; a no-op on any other BLAS.

    Re-entrant: a nested block keeps one thread, and the outermost block
    puts back the count it found.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    with _BLAS_THREADS:
        prev = lib.openblas_set_num_threads_local(1)
        try:
            yield
        finally:
            lib.openblas_set_num_threads_local(prev)


def one_blas_thread_setting() -> dict | str:
    """What one_blas_thread sets: {"library": "openblas", "threads": 1}, or "unknown" (a no-op)."""
    return "unknown" if _openblas() is None else {"library": "openblas", "threads": 1}
