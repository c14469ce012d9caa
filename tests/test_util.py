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
