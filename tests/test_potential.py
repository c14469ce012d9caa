from __future__ import annotations

import numpy as np
import pytest

from evbounds import GridSpec
from evbounds.errors import SparseSeparationError
from evbounds.potential import (
    KINDS,
    DyadicLayer,
    PotentialSpec,
    dyadic_decompose,
    load_tabulated,
    lq_norm,
    sample_potential,
    save_tabulated,
    sparse_decompose,
    weighted_sup_norm,
)

import oracles


def test_indicator_values():
    """indicator_ball a=1 R=1: value 1 at x=0, value 0 at x=4."""
    gs = GridSpec(d=1, L=8.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=1.0), gs)
    x = gs.points(centered=True).ravel()
    assert field.values[np.argmin(np.abs(x))] == 1.0
    assert field.values[np.argmin(np.abs(x - 4.0))] == 0.0
    assert field.values[np.argmin(np.abs(x - 1.0))] == 1.0  # boundary node included


def test_power_decay_value():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="power_decay", s=1.0), gs)
    x = gs.points(centered=True).ravel()
    k = np.argmin(np.abs(x - 2.0))
    assert field.values[k] == pytest.approx(1.0 / 4.0)  # <2> = 2 + |2| = 4


def test_wigner_decay_envelope():
    """|V(x)|*|x| stays bounded over |x| in [10, 100]."""
    gs = GridSpec(d=1, L=256.0, N=2048)
    field = sample_potential(PotentialSpec(kind="wigner_von_neumann"), gs)
    x = gs.points(centered=True).ravel()
    sel = (np.abs(x) >= 10.0) & (np.abs(x) <= 100.0)
    assert np.max(np.abs(field.values[sel]) * np.abs(x[sel])) < 10.0


def test_box_too_small_for_support():
    with pytest.raises(ValueError):
        sample_potential(PotentialSpec(kind="indicator_ball", R=3.0), GridSpec(d=1, L=8.0, N=32))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PotentialSpec(kind="nope")


def test_knapp_eps_is_checked_by_the_spec():
    with pytest.raises(ValueError, match="eps"):
        PotentialSpec(kind="knapp_oscillatory", oscillation={"eps": 2.0})


def test_lq_norm_zero_field():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=1.0, amplitude=0.0), gs)
    assert lq_norm(field, 2.0) == 0.0


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("a", [1.0, 2.5])
def test_lq_norm_indicator(q, a):
    # a * (2R)^(1/q), allowing two boundary cells of quadrature slack
    gs = GridSpec(d=1, L=16.0, N=256)
    R = 1.5
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=R, amplitude=a), gs)
    got = lq_norm(field, q)
    exact = a * (2 * R) ** (1 / q)
    slack = a * (2 * gs.dx) ** (1 / q)
    assert abs(got - exact) <= slack


def test_lq_norm_power_decay_quadrature_oracle():
    from scipy.integrate import quad

    gs = GridSpec(d=1, L=64.0, N=1024)
    field = sample_potential(PotentialSpec(kind="power_decay", s=2.0), gs)
    got = lq_norm(field, 1.0)
    want = 2 * quad(lambda x: (2 + x) ** -2.0, 0, gs.L / 2)[0]
    assert got == pytest.approx(want, rel=1e-2)


def test_lq_norm_rejects_small_q():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=1.0), gs)
    with pytest.raises(ValueError):
        lq_norm(field, 0.5)


def test_lq_norm_monotone_under_domination():
    gs = GridSpec(d=1, L=16.0, N=128)
    small = sample_potential(PotentialSpec(kind="indicator_ball", R=1.0), gs)
    big = sample_potential(PotentialSpec(kind="indicator_ball", R=2.0, amplitude=1.5), gs)
    assert np.all(np.abs(small.values) <= np.abs(big.values))
    for q in (1.0, 2.0, 3.0):
        assert lq_norm(small, q) <= lq_norm(big, q)


def test_weighted_sup_norm_indicator():
    gs = GridSpec(d=2, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=1.0, amplitude=2.0), gs)
    # max over the support of 2 * <|x|>^0.8; the farthest support node sits at |x| = 1
    assert weighted_sup_norm(field, 0.8) == pytest.approx(2.0 * 3.0**0.8)


def test_dyadic_thresholds_match_scan_oracle():
    """Two-level field {4 on measure 1, 1 on measure 3}: H_i from the sort-and-scan."""
    gs = GridSpec(d=1, L=8.0, N=32)  # cellvol 1/4
    vals = np.zeros(32, dtype=complex)
    vals[:4] = 4.0  # measure 1
    vals[4:16] = 1.0  # measure 3
    from evbounds.potential import PotentialField

    field = PotentialField(grid=gs, values=vals, support_radius=4.0)
    layers = dyadic_decompose(field)
    want = oracles.dyadic_thresholds(vals, gs.cellvol, len(layers) - 1)
    got = [layer.threshold for layer in layers[1:]]
    np.testing.assert_allclose(got, want)
    # the two level sets come back as the nontrivial masks
    nontrivial = [np.flatnonzero(l.mask.ravel()) for l in layers if l.mask.any()]
    assert len(nontrivial) == 2
    np.testing.assert_array_equal(nontrivial[0], np.arange(4))
    np.testing.assert_array_equal(nontrivial[1], np.arange(4, 16))


def test_dyadic_indicator_single_family():
    gs = GridSpec(d=1, L=8.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=1.0), gs)
    layers = dyadic_decompose(field)
    assert sum(1 for l in layers if l.mask.any()) == 1


@pytest.mark.parametrize("kind", ["indicator_ball", "power_decay", "wigner_von_neumann"])
def test_dyadic_reconstruction_exact(kind):
    gs = GridSpec(d=1, L=32.0, N=256)
    field = sample_potential(PotentialSpec(kind=kind, R=2.0), gs)
    layers = dyadic_decompose(field)
    total = sum(l.values for l in layers)
    np.testing.assert_array_equal(total, field.values)


def test_dyadic_zero_field_empty():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=0.0), gs)
    assert dyadic_decompose(field) == []


def test_dyadic_masks_respect_threshold_window():
    gs = GridSpec(d=1, L=64.0, N=512)
    field = sample_potential(PotentialSpec(kind="power_decay", s=1.0), gs)
    for layer in dyadic_decompose(field):
        mags = np.abs(layer.values[layer.mask])
        if mags.size == 0:
            continue
        assert np.all(mags <= layer.threshold + 1e-15)
        assert np.all(mags >= layer.lower_threshold - 1e-15)
        measure = np.count_nonzero(np.abs(field.values) > layer.threshold) * field.grid.cellvol
        assert measure <= 2.0 ** (layer.index - 1) + 1e-12


def _point_layer(gs, flat_indices, value=1.0, index=0):
    vals = np.zeros(gs.node_count, dtype=complex)
    vals[flat_indices] = value
    mask = vals != 0
    return DyadicLayer(
        index=index,
        threshold=abs(value),
        lower_threshold=0.0,
        mask=mask.reshape(gs.shape),
        values=vals.reshape(gs.shape),
        grid=gs,
    )


def test_sparse_two_distant_points_one_family():
    gs = GridSpec(d=1, L=256.0, N=512)
    x = gs.points(centered=True).ravel()
    idx = [int(np.argmin(np.abs(x + 50.0))), int(np.argmin(np.abs(x - 50.0)))]
    layer = _point_layer(gs, idx)
    fams = sparse_decompose(layer, gamma=0.5, K=1)
    assert len(fams) == 1
    assert fams[0].centers.shape[0] == 2
    # separation 100 >= (radius * 2)^0.5 with radius 1
    assert np.abs(fams[0].centers[0] - fams[0].centers[1]).max() >= (1.0 * 2) ** 0.5


def test_sparse_adjacent_cells_need_two_families():
    """Four adjacent unit cells at gamma=1 cannot share one family.

    Exhaustive check over every assignment of the 4 centers to one family
    confirms the separation (radius*count)^1 fails, so the greedy split
    must produce at least two families.
    """
    gs = GridSpec(d=1, L=64.0, N=64)
    x = gs.points(centered=True).ravel()
    idx = [int(np.argmin(np.abs(x - t))) for t in (0.0, 1.0, 2.0, 3.0)]
    layer = _point_layer(gs, idx)
    fams = sparse_decompose(layer, gamma=1.0, K=1)
    assert len(fams) >= 2
    pts = x[idx]
    # brute force: any single family holding all four violates separation
    dists = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(4, 1)]
    assert dists.min() < (1.0 * 4) ** 1.0
    for fam in fams:
        c = fam.centers
        n = c.shape[0]
        if n < 2:
            continue
        pair = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(-1))
        off = pair[np.triu_indices(n, 1)]
        assert off.min() >= (fam.radius * n) ** fam.gamma - 1e-12


def test_sparse_empty_layer():
    gs = GridSpec(d=1, L=8.0, N=32)
    layer = _point_layer(gs, [])
    assert sparse_decompose(layer, gamma=0.5, K=1) == []


def test_sparse_families_cover_support():
    gs = GridSpec(d=2, L=32.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=2.0), gs)
    layer = next(l for l in dyadic_decompose(field) if l.mask.any())
    fams = sparse_decompose(layer, gamma=0.25, K=2)
    pts = gs.points(centered=True)[layer.mask.ravel()]
    centers = np.concatenate([f.centers for f in fams])
    radius = fams[0].radius
    dist = np.sqrt(((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)).min(axis=1)
    assert np.all(dist <= radius + 1e-12)


def test_sparse_invalid_args():
    gs = GridSpec(d=1, L=8.0, N=32)
    layer = _point_layer(gs, [0])
    with pytest.raises(ValueError):
        sparse_decompose(layer, gamma=0.0, K=1)
    with pytest.raises(ValueError):
        sparse_decompose(layer, gamma=0.5, K=0)


def test_sparse_budget_violation_reports():
    # crowd enough adjacent centers that gamma=1 separation exhausts the budget
    gs = GridSpec(d=1, L=512.0, N=512)
    layer = _point_layer(gs, list(range(160, 400)))
    with pytest.raises(SparseSeparationError):
        sparse_decompose(layer, gamma=1.0, K=1)


def test_tabulated_roundtrip(tmp_path):
    gs = GridSpec(d=2, L=8.0, N=16)
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", R=1.0, amplitude=1.0 + 2.0j), gs
    )
    path = tmp_path / "field.csv"
    save_tabulated(field, path)
    back = load_tabulated(path, gs)
    np.testing.assert_allclose(back.values, field.values, atol=1e-12)


def test_kind_listing_stable():
    assert set(KINDS) == {
        "indicator_ball",
        "power_decay",
        "wigner_von_neumann",
        "knapp_oscillatory",
        "tabulated",
    }
