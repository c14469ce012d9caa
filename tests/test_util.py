from __future__ import annotations

import threading

import numpy as np
import pytest

from evbounds import util
from evbounds.util import one_blas_thread, spectral_norm, wilson_interval


@pytest.mark.parametrize("gap", [1e-2, 1e-3])
def test_spectral_norm_is_exact_on_a_narrow_top_gap(gap):
    # a narrow gap sigma_1 - sigma_2 slows a power iteration on A*A, whose
    # |d sigma| <= tol rule then stops short of the top singular value
    rng = np.random.default_rng(3)
    n = 60
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.9, 0.1, n - 2)])
    a = (u * s) @ v.conj().T
    want = np.linalg.svd(a, compute_uv=False)[0]
    assert spectral_norm(a) == pytest.approx(want, rel=1e-12)


def test_spectral_norm_of_empty_matrix_is_zero():
    assert spectral_norm(np.zeros((0, 4))) == 0.0


def _structured(kind):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    if kind == "complex_hermitian":
        return z + z.conj().T
    if kind == "real_symmetric":
        return z.real + z.real.T
    if kind == "non_hermitian":
        return z
    if kind == "rectangular":
        return z[:, :25]
    if kind == "empty":
        return np.zeros((0, 0))
    if kind == "one_ulp_off_hermitian":
        a = z + z.conj().T
        a[3, 5] = np.nextafter(a[3, 5].real, np.inf) + 1j * a[3, 5].imag
        return a
    raise ValueError(kind)


@pytest.mark.parametrize(
    "kind,path",
    [
        ("complex_hermitian", "eigvalsh"),
        ("real_symmetric", "eigvalsh"),
        ("non_hermitian", "svd"),
        ("rectangular", "svd"),
        ("empty", None),
        ("one_ulp_off_hermitian", "svd"),
    ],
)
def test_spectral_norm_path_follows_exact_structure(monkeypatch, kind, path):
    a = _structured(kind)
    want = np.linalg.svd(a, compute_uv=False)[0] if a.size else 0.0
    calls = []
    for name in ("eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def spy(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    got = spectral_norm(a)
    assert calls == ([path] if path else [])
    assert abs(got - want) <= 1e-14 * want


def _wilson_oracle(k, n, z):
    # the Wilson interval is the set of p with (k/n - p)^2 <= z^2 p (1 - p) / n:
    # the two roots of (1 + z^2/n) p^2 - (2 k/n + z^2/n) p + (k/n)^2 = 0
    ph = k / n
    a, b, c = 1.0 + z * z / n, -(2.0 * ph + z * z / n), ph * ph
    disc = np.sqrt(b * b - 4.0 * a * c)
    return (-b - disc) / (2.0 * a), (-b + disc) / (2.0 * a)


@pytest.mark.parametrize("k,n", [(0, 10), (3, 10), (5, 10), (10, 10), (17, 400)])
def test_wilson_interval_is_the_inverted_score_test(k, n):
    lo, hi = wilson_interval(k, n)
    want_lo, want_hi = _wilson_oracle(k, n, 1.959963984540054)
    assert lo == pytest.approx(max(want_lo, 0.0), abs=1e-12)
    assert hi == pytest.approx(min(want_hi, 1.0), abs=1e-12)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_narrows_with_trials():
    widths = [np.subtract(*wilson_interval(n // 4, n)[::-1]) for n in (20, 80, 320)]
    assert widths[0] > widths[1] > widths[2] > 0


@pytest.mark.parametrize("k,n", [(0, 0), (-1, 10), (11, 10)])
def test_wilson_interval_rejects_bad_counts(k, n):
    with pytest.raises(ValueError):
        wilson_interval(k, n)


def _blas_threads(lib):
    """numpy's OpenBLAS thread count, read by setting it and putting it back."""
    count = lib.openblas_set_num_threads_local(1)
    lib.openblas_set_num_threads_local(count)
    return count


def test_nested_one_blas_thread_neither_deadlocks_nor_loses_the_count():
    lib = util._openblas()
    if lib is None:
        pytest.skip("numpy does not bundle an OpenBLAS with openblas_set_num_threads_local")
    before, seen = _blas_threads(lib), []

    def nest():
        with one_blas_thread():
            seen.append(_blas_threads(lib))
            with one_blas_thread():
                seen.append(_blas_threads(lib))
            seen.append(_blas_threads(lib))

    worker = threading.Thread(target=nest, daemon=True)  # a deadlock fails the join, not the run
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "nested one_blas_thread deadlocked"
    assert seen == [1, 1, 1]
    assert _blas_threads(lib) == before


def test_one_blas_thread_setting_names_the_library_it_sets():
    want = "unknown" if util._openblas() is None else {"library": "openblas", "threads": 1}
    assert util.one_blas_thread_setting() == want
