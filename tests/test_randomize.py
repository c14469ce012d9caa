from __future__ import annotations

import numpy as np
import pytest

from evbounds import GridSpec
from evbounds.errors import SupportError
from evbounds.potential import PotentialSpec, sample_potential
from evbounds.randomize import (
    OmegaField,
    OmegaSpec,
    anderson_randomize,
    cell_values,
    draw_omega,
    tail_table,
)
from evbounds.potential import lq_norm

import oracles


def _spec(dist="bernoulli", h=1.0, seed=7, index=0):
    return OmegaSpec(h=h, distribution=dist, master_seed=seed, realization_index=index)


def test_bernoulli_values_are_signs():
    vals = cell_values(_spec(), 10_000)
    assert set(np.unique(vals)) == {-1.0, 1.0}


def test_same_spec_reproduces():
    gs = GridSpec(d=2, L=8.0, N=32)
    a = draw_omega(_spec(seed=123), gs)
    b = draw_omega(_spec(seed=123), gs)
    np.testing.assert_array_equal(a.cells, b.cells)


def test_realizations_differ():
    vals0 = cell_values(_spec(index=0), 1000)
    vals1 = cell_values(_spec(index=1), 1000)
    assert np.any(vals0 != vals1)


def test_gaussian_moments():
    vals = cell_values(_spec(dist="gaussian"), 100_000)
    assert 0.97 <= np.var(vals) <= 1.03
    assert abs(np.mean(vals)) <= 5.0 / np.sqrt(vals.size)


def test_gaussian_draws_are_pinned():
    """Gaussian weights are ndtri of the top 53 raw Philox bits, bit for bit."""
    from scipy.special import ndtri

    vals = cell_values(OmegaSpec(1.0, "gaussian", 7, 3), 8)
    pinned = [
        -0.044811945217110724, 0.5951714761734049, -1.6423954417775588,
        -0.47855709875016383, 0.4697929630937766, -0.8584648893158611,
        0.03152468734045036, -0.4847998709547846,
    ]
    assert [repr(float(v)) for v in vals] == [repr(v) for v in pinned]
    raw = np.random.Philox(key=np.array([7, 3], dtype=np.uint64)).random_raw(8)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    assert vals.tobytes() == ndtri(u).tobytes()


def test_cell_larger_than_box_rejected():
    with pytest.raises(SupportError):
        draw_omega(_spec(h=16.0), GridSpec(d=1, L=8.0, N=32))


@pytest.mark.parametrize("bad", [
    dict(h=0.0, distribution="bernoulli", master_seed=1),
    dict(h=1.0, distribution="poisson", master_seed=1),
    dict(h=1.0, distribution="bernoulli", master_seed=1, realization_index=-1),
    dict(h=1.0, distribution="bernoulli", master_seed=-1),
    dict(h=1.0, distribution="bernoulli", master_seed=2**64),
])
def test_omega_spec_validation(bad):
    with pytest.raises(ValueError):
        OmegaSpec(**bad)


def test_constant_plus_one_is_identity():
    gs = GridSpec(d=1, L=8.0, N=64)
    field = sample_potential(PotentialSpec(kind="power_decay", s=1.0), gs)
    omega = OmegaField.constant(_spec(), gs)
    out = anderson_randomize(field, omega)
    np.testing.assert_array_equal(out.values, field.values)


def test_constant_minus_one_flips_sign():
    gs = GridSpec(d=1, L=8.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=2.0), gs)
    out = anderson_randomize(field, OmegaField(_spec(), gs, -np.ones(8)))
    np.testing.assert_array_equal(out.values, -field.values)


@pytest.mark.parametrize("d", [1, 2])
def test_sign_randomization_preserves_magnitudes(d):
    gs = GridSpec(d=d, L=8.0, N=32)
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", R=2.0, amplitude=1.0 + 1.0j), gs
    )
    out = anderson_randomize(field, draw_omega(_spec(seed=42), gs))
    np.testing.assert_array_equal(np.abs(out.values), np.abs(field.values))


def test_sign_randomization_preserves_lq_norms():
    gs = GridSpec(d=2, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="power_decay", s=2.0), gs)
    out = anderson_randomize(field, draw_omega(_spec(seed=11), gs))
    for q in (1.0, 2.0):
        assert lq_norm(out, q) == lq_norm(field, q)


def test_grid_mismatch_rejected():
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", R=1.0), GridSpec(d=1, L=8.0, N=32)
    )
    omega = draw_omega(_spec(), GridSpec(d=1, L=16.0, N=32))
    with pytest.raises(SupportError):
        anderson_randomize(field, omega)


def test_cells_partition_nodes():
    """Each grid node picks up exactly one cell weight; cells stay small."""
    gs = GridSpec(d=2, L=8.0, N=32)
    spec = _spec(h=1.5)
    omega = draw_omega(spec, gs)
    nc = omega.cells.shape[0]
    labels = OmegaField(spec, gs, np.arange(nc**2, dtype=float).reshape(nc, nc))
    node_labels = labels.at_nodes()
    assert node_labels.shape == gs.shape
    counts = np.bincount(node_labels.astype(int).ravel(), minlength=nc**2)
    assert counts.sum() == gs.node_count  # every node in exactly one cell
    cap = int(np.ceil(spec.h * gs.N / gs.L)) ** gs.d
    assert counts.max() <= cap


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("dx", [0.1, 0.15, 0.3])
def test_whole_step_cells_hold_nodes_k_div_r(dx, r):
    """With h = r dx, node k sits in cell k // r on each axis, even on a decimal dx."""
    N = 64
    gs = GridSpec(d=2, L=N * dx, N=N)
    spec = _spec(h=r * dx)
    nc = draw_omega(spec, gs).cells.shape[0]
    assert nc == N // r
    labels = OmegaField(spec, gs, np.arange(nc**2, dtype=float).reshape(nc, nc))
    k = np.arange(N) // r
    np.testing.assert_array_equal(labels.at_nodes(), k[:, None] * nc + k[None, :])


def test_boundary_nodes_open_the_next_cell_at_half_steps():
    """h = 3.5 dx with dx = 0.3: nodes 7, 14, ... sit on cell boundaries."""
    gs = GridSpec(d=1, L=19.2, N=64)
    spec = _spec(h=3.5 * 0.3)
    nc = draw_omega(spec, gs).cells.shape[0]
    labels = OmegaField(spec, gs, np.arange(nc, dtype=float))
    np.testing.assert_array_equal(labels.at_nodes(), 2 * np.arange(gs.N) // 7)


def test_cell_count_covers_box():
    gs = GridSpec(d=1, L=8.0, N=32)
    assert draw_omega(_spec(h=1.0), gs).cells.shape == (8,)
    assert draw_omega(_spec(h=3.0), gs).cells.shape == (3,)  # last cell partial


def test_tail_table_degenerate_sample():
    entries = tail_table(np.ones(200), [0.5, 2.0])
    assert entries[0].fraction == 1.0
    assert entries[1].fraction == 0.0
    for e in entries:
        assert 0.0 <= e.lower <= e.fraction <= e.upper <= 1.0


def test_tail_table_normal_two_sided():
    rng = np.random.default_rng(2026)
    samples = np.abs(rng.standard_normal(2000))
    (entry,) = tail_table(samples, [2.0])
    assert entry.lower <= oracles.normal_tail_two_sided(2.0) <= entry.upper
    assert entry.lower <= oracles.NORMAL_TWO_SIDED_2 <= entry.upper


def test_tail_table_needs_samples():
    with pytest.raises(ValueError):
        tail_table(np.ones(50), [1.0])


def test_gaussian_tail_matches_law():
    # drawn weights should show the right two-sided mass beyond 2
    vals = np.abs(cell_values(_spec(dist="gaussian", seed=5), 5000))
    (entry,) = tail_table(vals, [2.0])
    assert entry.lower <= oracles.NORMAL_TWO_SIDED_2 <= entry.upper


def test_omega_and_ensemble_leave_the_laplacian_symbol_unbuilt():
    from evbounds.extension import SandwichEnsemble, build_net

    gs = GridSpec(d=2, L=8.0, N=32)  # dx = 1/4, so unit cells hold 4 x 4 nodes
    omega = draw_omega(_spec(), gs)
    assert omega.grid is gs
    assert np.array_equal(omega.at_nodes()[::4, ::4], omega.cells)
    ones = OmegaField.constant(_spec(), gs)
    assert ones.grid is gs and np.all(ones.at_nodes() == 1.0)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=2.0), gs)
    net = build_net(lam=1.0, R=2.0, d=2)
    SandwichEnsemble(net, net, field, h=1.0).with_omega(omega)
    assert "lap_symbol" not in gs.__dict__ and "freq_axis" not in gs.__dict__
    # Built on first use, then kept on the spec.
    assert gs.lap_symbol is gs.lap_symbol and "lap_symbol" in gs.__dict__
