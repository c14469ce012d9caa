from __future__ import annotations

import numpy as np
import pytest

from evbounds import GridSpec
from evbounds.potential import (
    KINDS,
    PotentialSpec,
    dyadic_decompose,
    lq_norm,
    sample_potential,
    weighted_sup_norm,
)

import oracles


def test_indicator_values():
    """indicator_ball a=1 R=1: value 1 at x=0, value 0 at x=4."""
    gs = GridSpec(d=1, L=8.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=1.0), gs)
    x = gs.axis_centered
    assert field.values[np.argmin(np.abs(x))] == 1.0
    assert field.values[np.argmin(np.abs(x - 4.0))] == 0.0
    assert field.values[np.argmin(np.abs(x - 1.0))] == 1.0  # boundary node included


def test_power_decay_value():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="power_decay", s=1.0), gs)
    x = gs.axis_centered
    k = np.argmin(np.abs(x - 2.0))
    assert field.values[k] == pytest.approx(1.0 / 4.0)  # <2> = 2 + |2| = 4


def test_wigner_decay_envelope():
    """|V(x)|*|x| stays bounded over |x| in [10, 100]."""
    gs = GridSpec(d=1, L=256.0, N=2048)
    field = sample_potential(PotentialSpec(kind="wigner_von_neumann"), gs)
    x = gs.axis_centered
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


def test_dyadic_thresholds_stop_after_64_doublings():
    """No budget 2^(i-1), i <= 64, covers one cell of side 2.5e6: H_0..H_64, then 0."""
    gs = GridSpec(d=3, L=1e7, N=4)
    assert gs.cellvol > 2.0**63
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(gs.shape) + 1j * rng.standard_normal(gs.shape)
    vals[rng.random(gs.shape) < 0.25] = 0.0
    from evbounds.potential import PotentialField

    field = PotentialField(grid=gs, values=vals, support_radius=1e7)
    layers = dyadic_decompose(field)
    assert len(layers) == 65
    assert [layer.threshold for layer in layers[1:]] == oracles.dyadic_thresholds(
        vals, gs.cellvol, 64
    )
    np.testing.assert_array_equal(sum(layer.values for layer in layers), vals)


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
    layers = dyadic_decompose(field)
    lower = [layer.threshold for layer in layers[1:]] + [0.0]
    for layer, low in zip(layers, lower):
        mags = np.abs(layer.values[layer.mask])
        if mags.size == 0:
            continue
        assert np.all(mags <= layer.threshold + 1e-15)
        assert np.all(mags >= low - 1e-15)
        measure = np.count_nonzero(np.abs(field.values) > layer.threshold) * field.grid.cellvol
        assert measure <= 2.0 ** (layer.index - 1) + 1e-12


def test_kind_listing_stable():
    assert set(KINDS) == {
        "indicator_ball",
        "power_decay",
        "wigner_von_neumann",
        "knapp_oscillatory",
    }
