from __future__ import annotations

import numpy as np
import pytest

from evbounds import (
    GridSpec,
    apply_multiplier,
    resolvent_symbol,
)
from evbounds.errors import SingularSymbolError

import oracles


def test_dual_lattice_frequencies():
    """d=1, L=2pi, N=8: frequencies are m/L for m in {-4,...,3}, DFT order."""
    g = GridSpec(d=1, L=2 * np.pi, N=8)
    want = np.array([0, 1, 2, 3, -4, -3, -2, -1]) / (2 * np.pi)
    np.testing.assert_allclose(g.freq_axis, want, rtol=0, atol=1e-15)


def test_laplacian_symbol_zero_mode():
    for d in (1, 2, 3):
        g = GridSpec(d=d, L=3.0, N=8)
        sym = g.lap_symbol
        assert sym.ravel()[0] == 0.0
        assert np.all(sym >= 0.0)


def test_identity_multiplier():
    g = GridSpec(d=1, L=8.0, N=32)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.shape)
    out = apply_multiplier(g, np.ones(g.shape), f)
    np.testing.assert_allclose(out, f, atol=1e-13)


@pytest.mark.parametrize("m", [(1,), (3,), (1, 2), (0, 5)])
def test_plane_wave_is_laplacian_eigenfunction(m):
    d = len(m)
    g = GridSpec(d=d, L=4.0, N=16)
    mesh = np.meshgrid(*([g.axis_raw] * d), indexing="ij")
    phase = sum(mi / g.L * x for mi, x in zip(m, mesh))
    wave = np.exp(2j * np.pi * phase)
    out = apply_multiplier(g, g.lap_symbol, wave)
    eig = sum((2 * np.pi * mi / g.L) ** 2 for mi in m)
    np.testing.assert_allclose(out, eig * wave, atol=1e-10 * max(eig, 1.0))


def test_resolvent_matches_dense_inverse_oracle():
    N, L, z = 32, 8.0, complex(-2.0, 0.5)
    g = GridSpec(d=1, L=L, N=N)
    dense = oracles.dense_resolvent_1d(N, L, z)
    rng = np.random.default_rng(21)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    lib = apply_multiplier(g, resolvent_symbol(g, z), v)
    assert np.linalg.norm(dense @ v - lib) / np.linalg.norm(lib) < 1e-8


def test_resolvent_symbol_negative_energy():
    """z=-1: values are real positive, bounded by 1, maximal at xi=0."""
    g = GridSpec(d=2, L=6.0, N=16)
    sym = resolvent_symbol(g, -1.0)
    assert np.all(sym.real > 0) and np.max(np.abs(sym.imag)) == 0.0
    assert np.max(sym.real) == pytest.approx(1.0)
    assert sym.ravel()[0] == pytest.approx(1.0)


def test_resolvent_symbol_peaks_at_nearest_frequency():
    z = complex(1.0, 0.1) ** 2
    g = GridSpec(d=1, L=8.0, N=64)
    sym = np.abs(resolvent_symbol(g, z))
    lap = g.lap_symbol
    assert np.argmax(sym) == np.argmin(np.abs(lap - z.real))


def test_resolvent_symbol_rejects_laplacian_level():
    g = GridSpec(d=1, L=8.0, N=64)
    # 4 pi^2 = |2 pi m / L|^2 at m = 8
    with pytest.raises(SingularSymbolError):
        resolvent_symbol(g, 4 * np.pi**2)


def test_resolvent_inverts_shifted_laplacian():
    z = complex(-1.3, 0.4)
    g = GridSpec(d=2, L=4.0, N=16)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    shifted = apply_multiplier(g, g.lap_symbol, f) - z * f
    back = apply_multiplier(g, resolvent_symbol(g, z), shifted)
    assert np.max(np.abs(back - f)) < 1e-10


def test_apply_multiplier_linearity():
    g = GridSpec(d=1, L=8.0, N=32)
    sym = resolvent_symbol(g, -0.7)
    rng = np.random.default_rng(13)
    f, h = rng.standard_normal((2,) + g.shape)
    a, b = 2.0, -1.5j
    lhs = apply_multiplier(g, sym, a * f + b * h)
    rhs = a * apply_multiplier(g, sym, f) + b * apply_multiplier(g, sym, h)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_multiplier_shape_mismatch():
    g = GridSpec(d=1, L=8.0, N=32)
    with pytest.raises(ValueError):
        apply_multiplier(g, g.lap_symbol, np.zeros(16))


@pytest.mark.parametrize("bad", [dict(d=4, L=1.0, N=8), dict(d=1, L=0.0, N=8), dict(d=1, L=1.0, N=24)])
def test_grid_spec_validation(bad):
    with pytest.raises(ValueError):
        GridSpec(**bad)


def test_grid_arrays_are_cached_and_read_only():
    g = GridSpec(d=2, L=8.0, N=16)
    for arr in (g.lap_symbol, g.radii(), g.axis_raw, g.axis_centered, g.freq_axis):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert g.lap_symbol is g.lap_symbol and g.radii() is g.radii()


def test_cached_arrays_do_not_enter_equality_or_hash():
    g, fresh = GridSpec(d=1, L=8.0, N=32), GridSpec(d=1, L=8.0, N=32)
    g.lap_symbol, g.radii()
    assert g == fresh and hash(g) == hash(fresh)
    assert repr(g) == "GridSpec(d=1, L=8.0, N=32)"


def test_centered_coordinates_cover_half_open_box():
    g = GridSpec(d=1, L=8.0, N=8)
    pts = g.axis_centered
    assert pts.min() == -4.0 and pts.max() == 3.0
    assert set(np.diff(np.sort(pts))) == {1.0}


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16), (3, 8)])
def test_phase_multiplier_shifts_by_whole_cells(d, N):
    # under the e^{-2 pi i x.xi} convention the multiplier e^{-2 pi i xi.a}
    # translates by a; for a = s dx along axis 0 that is a roll by s nodes
    g = GridSpec(d=d, L=8.0, N=N)
    rng = np.random.default_rng(d)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    s = 3
    xi0 = np.meshgrid(*([g.freq_axis] * d), indexing="ij")[0]
    phase = np.exp(-2j * np.pi * xi0 * s * g.dx)
    np.testing.assert_allclose(apply_multiplier(g, phase, f), np.roll(f, s, axis=0), atol=1e-12)
    # a unimodular multiplier is unitary on the node values (discrete Parseval)
    assert np.linalg.norm(apply_multiplier(g, phase, f)) == pytest.approx(np.linalg.norm(f), rel=1e-13)


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16), (3, 8)])
def test_lap_symbol_is_exactly_even(d, N):
    # hamiltonian_matrix symmetrizes its kernel with the k -> -k reflection
    # np.roll(np.flip(k, ax), 1, ax); that is exact only if the symbol is even
    lap = GridSpec(d=d, L=8.0, N=N).lap_symbol
    for ax in range(d):
        assert np.array_equal(np.roll(np.flip(lap, ax), 1, ax), lap)


def test_radii_are_torus_distances():
    g = GridSpec(d=2, L=6.0, N=8)
    mesh = np.meshgrid(g.axis_raw, g.axis_raw, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    images = [np.array([a, b]) * g.L for a in (-1, 0, 1) for b in (-1, 0, 1)]
    want = np.min([np.linalg.norm(pts + img, axis=1) for img in images], axis=0)
    np.testing.assert_allclose(g.radii().ravel(), want, rtol=0, atol=1e-14)


def test_resolvent_symbol_is_conjugate_symmetric_in_z():
    g = GridSpec(d=2, L=8.0, N=16)
    z = 1.3 + 0.4j
    assert np.array_equal(resolvent_symbol(g, np.conj(z)), np.conj(resolvent_symbol(g, z)))
