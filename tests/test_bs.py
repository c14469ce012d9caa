from __future__ import annotations

import numpy as np
import pytest

from evbounds import GridSpec
from evbounds.birman_schwinger import (
    assemble_bs,
    gelfand_spr,
)
from evbounds.errors import EmptySupportError, SingularSymbolError
from evbounds.potential import PotentialSpec, sample_potential
from evbounds.spectra import eigenvalues_dense, hamiltonian_matrix

import oracles


def _field(gs, amplitude, R=1.0):
    return sample_potential(PotentialSpec(kind="indicator_ball", amplitude=amplitude, R=R), gs)


def _smin(matrix):
    return float(np.linalg.svd(np.eye(matrix.shape[0]) - matrix, compute_uv=False)[-1])


def test_empty_support_rejected():
    gs = GridSpec(d=1, L=8.0, N=32)
    with pytest.raises(EmptySupportError):
        assemble_bs(gs, _field(gs, 0.0), z=-1.0)


def test_z_on_free_level_rejected():
    gs = GridSpec(d=1, L=8.0, N=32)
    with pytest.raises(SingularSymbolError):
        assemble_bs(gs, _field(gs, 1.0), z=0.0)


def test_dimension_is_support_count():
    gs = GridSpec(d=2, L=8.0, N=16)
    field = _field(gs, 1.0 + 1.0j)
    bs = assemble_bs(gs, field, z=-1.0)
    assert bs.dim == np.count_nonzero(field.values)


@pytest.mark.parametrize(
    "gs,z",
    [
        (GridSpec(d=1, L=8.0, N=64), -0.7 + 0.3j),
        (GridSpec(d=2, L=8.0, N=16), -1.0 + 0.5j),
        (GridSpec(d=3, L=4.0, N=8), -1.2 + 0.4j),
    ],
    ids=["1d", "2d", "3d"],
)
def test_bs_columns_are_one_batched_multiplier(gs, z):
    # column k is ifftn(symbol * fftn(V^(1/2) e_k)) on the support, times |V|^(1/2)
    field = _field(gs, 1.5 + 0.5j)
    bs = assemble_bs(gs, field, z)
    vals = field.values.ravel()
    sup = bs.support_indices
    root = np.sqrt(np.abs(vals[sup]))
    stack = np.zeros((sup.size, gs.node_count), dtype=complex)
    stack[np.arange(sup.size), sup] = vals[sup] / root
    stack = stack.reshape((sup.size,) + gs.shape)
    axes = tuple(range(1, gs.d + 1))
    sym = 1.0 / (gs.lap_symbol - z)
    out = np.fft.ifftn(sym[None, ...] * np.fft.fftn(stack, axes=axes), axes=axes)
    want = (out.reshape(sup.size, gs.node_count)[:, sup] * root[None, :]).T
    np.testing.assert_allclose(bs.matrix, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_negative_potential_real_spectrum():
    """V real negative at z=-1: similar to self-adjoint, spectrum real."""
    gs = GridSpec(d=1, L=8.0, N=64)
    bs = assemble_bs(gs, _field(gs, -2.0), z=-1.0)
    eig = np.linalg.eigvals(bs.matrix)
    assert np.max(np.abs(eig.imag)) < 1e-8


def test_bs_matches_dense_resolvent_oracle():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = _field(gs, 1.5 + 0.5j)
    z = -0.7 + 0.3j
    bs = assemble_bs(gs, field, z)
    r = oracles.dense_resolvent_1d(gs.N, gs.L, z)
    vals = field.values.ravel()
    sup = bs.support_indices
    root = np.sqrt(np.abs(vals[sup]))
    want = root[:, None] * r[np.ix_(sup, sup)] * (vals[sup] / root)[None, :]
    np.testing.assert_allclose(bs.matrix, want, atol=1e-12)


def test_well_ground_state_solves_bs():
    """At a discrete eigenvalue, 1 sits in the spectrum of BS(z)."""
    gs = GridSpec(d=1, L=16.0, N=128)
    field = _field(gs, 2.0)
    pts = eigenvalues_dense(hamiltonian_matrix(gs, field))
    ground = min(pts, key=lambda p: p.z.real)
    assert ground.z.real < -0.5  # a genuine bound state for the depth-2 well
    bs = assemble_bs(gs, field, ground.z)
    assert _smin(bs.matrix) < 1e-6
    assert gelfand_spr(bs.matrix) >= 1.0 - 1e-4


@pytest.mark.parametrize(
    "d,L,N,amp",
    [(1, 16.0, 64, 2.0 + 1.0j), (2, 8.0, 16, 1.5 + 1.5j), (3, 4.0, 8, 1.5 + 1.5j)],
)
def test_equivalence_both_directions(d, L, N, amp):
    """Eigenvalues solve BS; well-separated probes do not."""
    gs = GridSpec(d=d, L=L, N=N)
    field = _field(gs, amp)
    pts = eigenvalues_dense(hamiltonian_matrix(gs, field))
    zs = np.array([p.z for p in pts])
    checked = 0
    for p in pts:
        if abs(p.z.imag) <= 1e-6:
            continue
        bs = assemble_bs(gs, field, p.z)
        norm = bs.norm()
        assert _smin(bs.matrix) < 1e-6 * norm
        assert gelfand_spr(bs.matrix) <= norm + 1e-9 * norm
        checked += 1
    assert checked > 0
    # probes far from every eigenvalue: large smin certifies non-membership
    rng = np.random.default_rng(3)
    probed = 0
    while probed < 20:
        z = complex(rng.uniform(-4, -0.2), rng.uniform(-1, 1))
        bs = assemble_bs(gs, field, z)
        if _smin(bs.matrix) > 0.1:
            assert np.min(np.abs(zs - z)) > 1e-6
            probed += 1


def test_gelfand_nilpotent():
    assert gelfand_spr(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def test_gelfand_diagonal():
    assert gelfand_spr(np.diag([3.0, 1.0])) == pytest.approx(3.0)


def test_gelfand_random_matrix_vs_eigensolve():
    rng = np.random.default_rng(10)
    for _ in range(5):
        a = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        want = np.abs(np.linalg.eigvals(a)).max()
        assert gelfand_spr(a) == pytest.approx(want, rel=1e-6)


def test_gelfand_spr_bounded_by_norm():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((40, 40))
        assert gelfand_spr(a) <= np.linalg.norm(a, 2) + 1e-12


def test_gelfand_rejects_nonsquare():
    with pytest.raises(ValueError):
        gelfand_spr(np.ones((3, 2)))
    with pytest.raises(ValueError):
        gelfand_spr(np.ones(4))


def test_gelfand_empty_matrix_has_radius_zero():
    assert gelfand_spr(np.zeros((0, 0))) == 0.0
