from __future__ import annotations

import numpy as np
import pytest

from evbounds.util import spectral_norm


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
