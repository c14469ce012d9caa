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


def _pair_shaped(m, seed=11):
    """A random complex Hermitian [[A, B], [conj B, conj A]] of size 2m: A Hermitian, B symmetric."""
    rng = np.random.default_rng(seed)
    z, w = rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m))
    a, b = z + z.conj().T, w + w.T
    return np.block([[a, b], [b.conj(), a.conj()]])


def _one_ulp_off(a, k, l):
    """a with entry (k, l) one ulp up in its real part and (l, k) its conjugate again."""
    a[k, l] = np.nextafter(a[k, l].real, np.inf) + 1j * a[k, l].imag
    a[l, k] = a[k, l].conj()
    return a


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
    if kind == "pair_shaped":
        return _pair_shaped(20)
    if kind == "real_pair_shaped":
        return _pair_shaped(20).real.copy()
    if kind == "odd_pair_shaped":
        return _pair_shaped(20)[:-1, :-1]
    if kind == "one_ulp_off_pair_lower_right":
        return _one_ulp_off(_pair_shaped(20), 23, 25)
    if kind == "one_ulp_off_pair_lower_left":
        return _one_ulp_off(_pair_shaped(20), 22, 6)
    if kind == "non_hermitian_pair_shaped":
        z, w = z[:20, :20], z[20:, :20]
        return np.block([[z, w], [w.conj(), z.conj()]])
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
        ("pair_shaped", "eigvalsh"),
        ("real_pair_shaped", "eigvalsh"),
        ("odd_pair_shaped", "eigvalsh"),
        ("one_ulp_off_pair_lower_right", "eigvalsh"),
        ("one_ulp_off_pair_lower_left", "eigvalsh"),
        ("non_hermitian_pair_shaped", "svd"),
    ],
)
def test_spectral_norm_path_follows_exact_structure(monkeypatch, kind, path):
    """The solver, and the dtype eigvalsh receives: real only for real or exactly pair-shaped input.

    Every other matrix gets the bits of its solver run on the matrix itself.
    """
    a = _structured(kind)
    want = np.linalg.svd(a, compute_uv=False)[0] if a.size else 0.0
    own = {"eigvalsh": lambda: np.abs(np.linalg.eigvalsh(a)).max(), "svd": lambda: want, None: lambda: 0.0}
    own_bits = float(own[path]())
    calls = []
    for name in ("eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def spy(m, *args, _solver=solver, _name=name, **kwargs):
            calls.append((_name, m.dtype))
            return _solver(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    got = spectral_norm(a)
    real_form = kind == "pair_shaped"
    assert calls == ([(path, np.float64 if real_form else a.dtype)] if path else [])
    if real_form:
        assert abs(got - want) <= 1e-13 * want
    else:
        assert got == own_bits and abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_pair_form_of_a_pair_shaped_hermitian_matrix_is_real_symmetric_and_isospectral(m):
    a = _pair_shaped(m)
    assert np.array_equal(a, a.conj().T)
    t = util._pair_form(a)
    assert t.dtype == np.float64 and t.shape == a.shape
    assert np.array_equal(t, t.T)
    scale = np.linalg.svd(a, compute_uv=False)[0]
    np.testing.assert_allclose(np.linalg.eigvalsh(t), np.linalg.eigvalsh(a), rtol=0, atol=1e-13 * scale)


def test_real_input_returns_before_any_pair_comparison(monkeypatch):
    a = _pair_shaped(10).real.copy()
    compared = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *x, **k: compared.append(1) or array_equal(*x, **k))
    assert util._pair_form(a) is a
    assert compared == []


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
