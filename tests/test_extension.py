from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from evbounds import GridSpec, extension
from evbounds.errors import SupportError
from evbounds.extension import (
    SandwichEnsemble,
    _gram,
    _real_gram,
    _Rows,
    angular_weight,
    build_net,
    extension_matrix,
    sandwich,
    singular_values,
    weak_schatten,
)
from evbounds.potential import PotentialField, PotentialSpec, sample_potential
from evbounds.randomize import OmegaField, OmegaSpec, anderson_randomize, draw_omega
from evbounds.util import spectral_norm

import oracles


def _field(gs, amplitude=1.0, R=1.0):
    return sample_potential(PotentialSpec(kind="indicator_ball", amplitude=amplitude, R=R), gs)


def _omega_spec(h=1.0, seed=9, index=0):
    return OmegaSpec(h=h, distribution="bernoulli", master_seed=seed, realization_index=index)


def test_circle_net_node_count_and_weights():
    net = build_net(lam=1.0, R=8.0, d=2)
    assert net.n_nodes == 51  # ceil(16 pi)
    np.testing.assert_allclose(net.weights, 2 * np.pi / 51)


@pytest.mark.parametrize("lam,R", [(1.0, 8.0), (2.5, 4.0), (1.0, 32.0)])
def test_circle_weights_sum_to_circumference(lam, R):
    net = build_net(lam, R, d=2)
    assert net.weights.sum() == pytest.approx(2 * np.pi * lam, rel=1e-12)


def test_sphere_weights_sum_to_area():
    net = build_net(lam=1.0, R=8.0, d=3)
    assert net.weights.sum() == pytest.approx(4 * np.pi, rel=1e-2)


@pytest.mark.parametrize("d,lam", [(2, 1.0), (2, 2.5), (3, 1.0), (3, 0.5)])
def test_nodes_sit_on_sphere(d, lam):
    net = build_net(lam, 8.0, d)
    radii = np.linalg.norm(net.nodes, axis=1)
    np.testing.assert_allclose(radii, lam, rtol=1e-12)


def test_sphere_nearest_neighbor_window():
    net = build_net(lam=1.0, R=8.0, d=3)
    diff = net.nodes[:, None, :] - net.nodes[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    nn = dist.min(axis=1)
    assert nn.min() >= 1.0 / 16.0
    assert nn.max() <= 1.0 / 4.0


def test_circle_nearest_neighbor_window():
    net = build_net(lam=1.0, R=16.0, d=2)
    diff = net.nodes[:, None, :] - net.nodes[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    nn = dist.min(axis=1)
    assert np.all(nn >= net.spacing / 2)
    assert np.all(nn <= 2 * net.spacing)


@pytest.mark.parametrize("d,R", [(2, 1.0), (3, 0.5)])
def test_tiny_net_rejected(d, R):
    with pytest.raises(ValueError):
        build_net(lam=1.0, R=R, d=d)


def test_net_dimension_validation():
    with pytest.raises(ValueError):
        build_net(lam=1.0, R=8.0, d=1)


def test_extension_of_one_at_origin():
    net = build_net(lam=1.0, R=8.0, d=2)
    row = extension_matrix(net, np.zeros((1, 2)))
    assert (row @ np.ones(net.n_nodes)).real[0] == pytest.approx(2 * np.pi, rel=1e-12)
    assert abs((row @ np.ones(net.n_nodes)).imag[0]) < 1e-12


def test_extension_of_one_matches_bessel():
    lam, R = 1.0, 8.0
    net = build_net(lam, R, d=2)
    radii = np.linspace(0.0, R / 2, 40)
    pts = np.column_stack([radii, np.zeros_like(radii)])
    got = extension_matrix(net, pts) @ np.ones(net.n_nodes)
    want = oracles.circle_extension_of_one(lam, pts)
    scale = 2 * np.pi * lam
    assert np.max(np.abs(got - want)) < 0.01 * scale
    strong = np.abs(want) > 0.1 * scale
    assert np.max(np.abs(got[strong] - want[strong]) / np.abs(want[strong])) < 0.01


def test_extension_of_delta_mass_is_plane_wave():
    net = build_net(lam=1.0, R=8.0, d=2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(5, 2))
    m = extension_matrix(net, pts)
    k = 7
    onehot = np.zeros(net.n_nodes)
    onehot[k] = 1.0
    want = np.exp(2j * np.pi * (pts @ net.nodes[k])) * net.weights[k]
    np.testing.assert_allclose(m @ onehot, want, atol=1e-14)


def test_extension_rejects_mismatched_points():
    net = build_net(lam=1.0, R=8.0, d=2)
    with pytest.raises(ValueError):
        extension_matrix(net, np.zeros((3, 3)))


def test_sandwich_zero_potential_is_zero_matrix():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    op = sandwich(net, net, _field(gs, amplitude=0.0))
    assert op.matrix.shape == (net.n_nodes, net.n_nodes)
    assert np.all(op.matrix == 0)


@pytest.mark.parametrize(
    "d,L,N,spec,lam_in",
    [
        (2, 8.0, 32, PotentialSpec(kind="indicator_ball", amplitude=1.0 - 2.0j, R=2.0), None),
        (2, 16.0, 32, PotentialSpec(kind="knapp_oscillatory", oscillation={"eps": 0.5}), 1.5),
        (2, 6.0, 16, PotentialSpec(kind="wigner_von_neumann", amplitude=0.5 + 1.0j), None),
        (2, 6.0, 16, PotentialSpec(kind="wigner_von_neumann", amplitude=-1.5), None),
        (3, 4.0, 8, PotentialSpec(kind="indicator_ball", amplitude=-1.5, R=1.0), None),
        (3, 3.0, 8, PotentialSpec(kind="power_decay", amplitude=1.0 + 1.0j, s=2.0), None),
        (3, 16.0, 16, PotentialSpec(kind="knapp_oscillatory", oscillation={"eps": 0.5}), None),
    ],
    ids=["d2_ball", "d2_knapp_two_nets", "d2_smooth", "d2_smooth_real", "d3_ball", "d3_smooth",
         "d3_knapp"],
)
def test_sandwich_matches_extension_matrix_sum(d, L, N, spec, lam_in):
    """sandwich against (E* V cellvol) E from extension_matrix's own exp, net weights split."""
    gs = GridSpec(d=d, L=L, N=N)
    field = sample_potential(spec, gs)
    R = 2.0 if d == 2 else 1.0
    net_out = build_net(lam=1.0, R=R, d=d)
    net_in = net_out if lam_in is None else build_net(lam=lam_in, R=R, d=d)
    pts = np.stack([m.ravel() for m in gs.coords()], axis=-1)
    e_out = extension_matrix(net_out, pts) / np.sqrt(net_out.weights)
    e_in = extension_matrix(net_in, pts) / np.sqrt(net_in.weights)
    want = (e_out.conj().T * (field.values.ravel() * gs.cellvol)) @ e_in
    got = sandwich(net_out, net_in, field).matrix
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize(
    "L,tiled,amplitude,assembly",
    [
        (8.0, True, 1.0 + 0.5j, "complex"),
        (7.0, False, 1.0 + 0.5j, "complex"),
        (8.0, True, 1.5, "pair"),
    ],
    ids=["tiled", "untiled", "tiled-real"],
)
def test_identity_realization_matches_deterministic(L, tiled, amplitude, assembly):
    """M(1) three ways: node-level, omega = 1, and the stored deterministic(), bit for bit."""
    gs = GridSpec(d=2, L=L, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, amplitude=amplitude, R=L / 4)
    spec = _omega_spec(h=1.0)
    plain = sandwich(net, net, field)
    ens = SandwichEnsemble(net, net, field, spec.h)
    ones = ens.with_omega(OmegaField.constant(spec, gs))
    assert ones.potential_ref["assembly"] == assembly
    # untiled cells of 4 or 5 nodes per axis: the factored assembly, in four count groups
    assert ones.potential_ref["cell_groups"] == (1 if tiled else 4)
    scale = np.abs(plain.matrix).max()
    np.testing.assert_allclose(ones.matrix, plain.matrix, atol=1e-12 * scale)
    det = ens.deterministic()
    assert det.potential_ref["assembly"] == assembly
    np.testing.assert_array_equal(det.matrix, ones.matrix)
    assert spectral_norm(det.matrix) == spectral_norm(ones.matrix)
    np.testing.assert_array_equal(singular_values(det), singular_values(ones))
    assert (det.real_form is None) == (assembly != "pair")
    if assembly == "pair":
        np.testing.assert_array_equal(det.real_form, ones.real_form)


def _pair_case():
    """The R = 4 net (26 nodes, even) over a radius-4 indicator on L = 16, dx = 0.25."""
    gs = GridSpec(d=2, L=16.0, N=64)
    return gs, build_net(lam=1.0, R=4.0, d=2), _field(gs, R=4.0)


@pytest.mark.parametrize("h", [1.0, 0.5])
@pytest.mark.parametrize("distribution", ["bernoulli", "gaussian"])
def test_pair_form_matches_node_level_route(distribution, h):
    """Even net, real V: M against the node-level sandwich, the real form's norm against M's SVD."""
    gs, net, field = _pair_case()
    assert net.n_nodes == 26
    ens = SandwichEnsemble(net, net, field, h)
    for idx in range(3):
        omega = draw_omega(OmegaSpec(h, distribution, 29, idx), gs)
        op = ens.with_omega(omega)
        assert op.potential_ref["assembly"] == "pair"
        slow = sandwich(net, net, anderson_randomize(field, omega)).matrix
        np.testing.assert_allclose(op.matrix, slow, rtol=0, atol=1e-12 * np.abs(slow).max())
        np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)
        assert op.real_form.dtype == np.float64 and op.real_form.shape == (26, 26)
        np.testing.assert_array_equal(op.real_form, op.real_form.T)
        top = np.linalg.svd(op.matrix, compute_uv=False)[0]
        assert spectral_norm(op.real_form) == pytest.approx(top, rel=1e-13, abs=0)


@pytest.mark.parametrize("case", ["complex_v", "two_nets", "odd_n", "d3"])
def test_pair_form_needs_one_real_antipodal_net(case):
    """Complex V, two nets, an odd net and a d = 3 net take the complex assembly."""
    d, R, amplitude = 2, 4.0, 1.0
    if case == "complex_v":
        amplitude = 1.0 + 0.5j
    if case == "odd_n":
        R = 8.0
    if case == "d3":
        d, R = 3, 4.0
    gs = GridSpec(d=d, L=8.0, N=16 if d == 3 else 32)
    net = build_net(lam=1.0, R=R, d=d)
    net_in = build_net(lam=1.0, R=R, d=d) if case == "two_nets" else net
    field = _field(gs, amplitude=amplitude, R=2.0)
    ens = SandwichEnsemble(net, net_in, field, h=1.0)
    omega = draw_omega(_omega_spec(h=1.0), gs)
    op = ens.with_omega(omega)
    assert op.potential_ref["assembly"] == "complex" and op.real_form is None
    assert ens.deterministic().potential_ref["assembly"] == "complex"
    slow = sandwich(net, net_in, anderson_randomize(field, omega)).matrix
    np.testing.assert_allclose(op.matrix, slow, rtol=0, atol=1e-12 * np.abs(slow).max())


@pytest.mark.parametrize("case", ["pair", "complex", "node_level"])
@pytest.mark.parametrize("end", [-1, 1], ids=["below", "above"])
def test_an_index_outside_its_table_fails_the_build(monkeypatch, case, end):
    """One corrupted row index raises at build instead of being clipped to an end row."""
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0 if case == "pair" else 8.0, d=2)
    real = extension._lattice

    def corrupt(axis, multi, *node_sets):
        rows = real(axis, multi, *node_sets)
        ix = rows[0].index[1]
        ix[ix.size // 2] = -1 if end < 0 else rows[0].tables[1].shape[0]
        return rows

    monkeypatch.setattr(extension, "_lattice", corrupt)
    with pytest.raises(IndexError, match="on axis 1 span"):
        if case == "node_level":
            sandwich(net, net, _field(gs, R=2.0))
        else:
            SandwichEnsemble(net, net, _field(gs, R=2.0), h=1.0)


def test_node_level_sandwich_records_its_assembly():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    assert sandwich(net, net, _field(gs, R=2.0)).potential_ref["assembly"] == "node"


def _circle_nodes(lam, R):
    n = int(np.ceil(2.0 * np.pi * lam * R))
    theta = 2.0 * np.pi * np.arange(n) / n
    return lam * np.column_stack([np.cos(theta), np.sin(theta)])


@pytest.mark.parametrize("lam,R", [(1.0, 4.0), (1.0, 32.0), (1.5, 4.0)])
def test_even_circle_net_is_exactly_antipodal(lam, R):
    """The second half of an even net negates the first; the first half is the equispaced circle."""
    nodes = build_net(lam, R, d=2).nodes
    n = nodes.shape[0]
    assert n % 2 == 0
    np.testing.assert_array_equal(nodes[n // 2 :], -nodes[: n // 2])
    np.testing.assert_array_equal(nodes[: n // 2], _circle_nodes(lam, R)[: n // 2])
    np.testing.assert_allclose(nodes, _circle_nodes(lam, R), rtol=0, atol=1e-14 * lam)


@pytest.mark.parametrize("lam,R", [(1.0, 8.0), (1.0, 16.0), (1.0, 64.0)])
def test_odd_circle_net_is_the_equispaced_circle(lam, R):
    nodes = build_net(lam, R, d=2).nodes
    assert nodes.shape[0] % 2 == 1
    np.testing.assert_array_equal(nodes, _circle_nodes(lam, R))


def test_fibonacci_net_is_not_paired():
    """d = 3 keeps the offset Fibonacci lattice bit for bit, even n included."""
    net = build_net(lam=1.0, R=4.0, d=3)
    n = net.n_nodes
    assert n == 154
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    want = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    np.testing.assert_array_equal(net.nodes, want)


def test_hermitian_for_real_potential():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    m = sandwich(net, net, _field(gs, amplitude=2.0, R=2.0)).matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12 * np.abs(m).max()


@pytest.mark.parametrize(
    "L,N,h",
    [
        pytest.param(8.0, 32, 1.0, id="1.0"),
        pytest.param(8.0, 32, 0.7, id="0.7"),
        # dx = 0.3 is no binary fraction: k * dx / h misses whole cell indices.
        pytest.param(19.2, 64, 0.6, id="19.2-64-0.6"),
        pytest.param(19.2, 64, 0.3, id="19.2-64-0.3"),
    ],
)
def test_randomized_sandwich_matches_node_level_route(L, N, h):
    """Factored cell assembly agrees with randomize-then-sandwich."""
    gs = GridSpec(d=2, L=L, N=N)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, amplitude=1.5, R=2.0)
    omega = draw_omega(_omega_spec(h=h, seed=21), gs)
    fast = SandwichEnsemble(net, net, field, h).with_omega(omega)
    slow = sandwich(net, net, anderson_randomize(field, omega))
    scale = np.abs(slow.matrix).max()
    np.testing.assert_allclose(fast.matrix, slow.matrix, atol=1e-10 * scale)


def test_ensemble_reuses_across_realizations():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, amplitude=1.0, R=2.0)
    ens = SandwichEnsemble(net, net, field, h=1.0)
    for idx in range(3):
        omega = draw_omega(_omega_spec(h=1.0, seed=4, index=idx), gs)
        fast = ens.with_omega(omega)
        slow = sandwich(net, net, anderson_randomize(field, omega))
        np.testing.assert_allclose(
            fast.matrix, slow.matrix, atol=1e-10 * np.abs(slow.matrix).max()
        )
        assert fast.potential_ref["realization_index"] == idx


@pytest.mark.parametrize(
    "distribution,amplitude", [("gaussian", 1.0 + 0.5j), ("bernoulli", -2.0)]
)
def test_ensemble_matches_node_level_route_to_rounding(distribution, amplitude):
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, amplitude=amplitude, R=2.0)
    ens = SandwichEnsemble(net, net, field, h=1.0)
    for idx in range(3):
        omega = draw_omega(
            OmegaSpec(h=1.0, distribution=distribution, master_seed=13, realization_index=idx), gs
        )
        fast = ens.with_omega(omega).matrix
        slow = sandwich(net, net, anderson_randomize(field, omega)).matrix
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * np.abs(slow).max())


def test_ensemble_with_two_nets_matches_node_level_route():
    gs = GridSpec(d=2, L=8.0, N=32)
    net_out = build_net(lam=1.0, R=4.0, d=2)
    net_in = build_net(lam=1.5, R=4.0, d=2)
    field = _field(gs, amplitude=1.0, R=2.0)
    omega = draw_omega(_omega_spec(h=1.0, seed=3), gs)
    fast = SandwichEnsemble(net_out, net_in, field, h=1.0).with_omega(omega).matrix
    slow = sandwich(net_out, net_in, anderson_randomize(field, omega)).matrix
    assert fast.shape == (net_out.n_nodes, net_in.n_nodes)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * np.abs(slow).max())


@pytest.mark.parametrize(
    "amplitude,lam_in", [(1.5, None), (1.0 + 0.5j, None), (-2.0, 1.5)], ids=["real", "complex", "two_nets"]
)
def test_ensemble_in_blocks_of_five_rows_matches_node_level_route(monkeypatch, amplitude, lam_in):
    """Every row set, the phase-row gathers included, runs over many blocks of 5 rows."""
    gs = GridSpec(d=2, L=8.0, N=32)
    net_out = build_net(lam=1.0, R=4.0, d=2)
    net_in = net_out if lam_in is None else build_net(lam=lam_in, R=4.0, d=2)
    field = _field(gs, amplitude=amplitude, R=2.0)
    omega = draw_omega(OmegaSpec(h=1.0, distribution="gaussian", master_seed=17), gs)
    slow = [sandwich(net_out, net_in, f).matrix for f in (field, anderson_randomize(field, omega))]
    monkeypatch.setattr(extension, "_GRAM_ROWS", 5)
    ens = SandwichEnsemble(net_out, net_in, field, h=1.0)
    assert ens._uniform[0].index[0].size > 5 and ens._mixed[0].index[0].size > 5
    for fast, want in zip((ens.deterministic().matrix, ens.with_omega(omega).matrix), slow):
        np.testing.assert_allclose(fast, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize(
    "lam,R,dx,L",
    [(2.0, 16.0, 0.25, 64.0), (1.0, 32.0, 0.5, 128.0), (2.0, 4.1, 0.25, 16.0)],
    ids=["lam2-R16", "lam1-R32-dx0.5", "lam2-R4.1-L16"],
)
def test_cell_sum_at_whole_turns_matches_node_level_route(lam, R, dx, L):
    """Nets with nodes kappa = k / dx apart put pi dx kappa on k pi, where sin vanishes.

    With r = 4 or 2 nodes per cell and k odd, the in-cell sum there is r,
    not -r: the sandwich must still match the node-level one.
    """
    gs = GridSpec(d=2, L=L, N=int(round(L / dx)))
    net = build_net(lam=lam, R=R, d=2)
    kappa = net.nodes[:, None, 0] - net.nodes[None, :, 0]
    assert np.isclose(np.abs(kappa), 1.0 / dx).any()
    field = _field(gs, R=L / 4)
    omega = draw_omega(_omega_spec(h=1.0, seed=6), gs)
    ens = SandwichEnsemble(net, net, field, h=1.0)
    pairs = [(ens.deterministic(), field), (ens.with_omega(omega), anderson_randomize(field, omega))]
    for fast, f in pairs:
        slow = sandwich(net, net, f).matrix
        assert np.abs(fast.matrix - slow).max() <= 1e-12 * np.abs(slow).max()


def _transient_peak(fn):
    """Peak bytes traced during fn() beyond what its result keeps, and the result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, current - start, out


def _kept_bound(gs, field, op, width):
    """What an ensemble may keep: per-axis tables, 64 bytes a row, and its sigmas and M(1).

    Two row sets (uniform and mixed) of d tables each, over at most the axis
    nodes inside the support (a cell in use starts at one of them); the
    index, cell, value and group mask of a row take under 64 bytes; each
    count group keeps a sigma, the size of M(1) at most.  op is a draw
    with every row's weight changed, so gram_rows counts the rows.
    """
    extent = np.count_nonzero(np.abs(gs.axis_centered) <= field.support_radius)
    tables = 2 * gs.d * extent * width * 16
    m1 = (2 * width) ** 2 * 8 if op.real_form is not None else width**2 * 16
    return tables + 64 * op.potential_ref["gram_rows"] + (op.potential_ref["cell_groups"] + 1) * m1


def _draw_bound(bound, block, width, omega):
    """A realization's bound: the build's, the gather's sub-block of rows and omega's shifted cell values."""
    return bound + min(block, extension._SUB_ROWS) * width * 16 + omega.cells.nbytes


@pytest.mark.parametrize("h", [1.0, 0.75], ids=["tiled", "untiled"])
def test_ensemble_works_in_one_block_of_rows(monkeypatch, h):
    """An ensemble keeps tables, not rows; a build or a realization holds one block of rows and a few Grams.

    omega = -1 everywhere selects every row.  Keeping the rows would exceed
    the kept bound; a full copy of the selected rows, or of V (the grid is
    twice the box a campaign takes at this net), would exceed the bound.
    """
    block = 64
    monkeypatch.setattr(extension, "_GRAM_ROWS", block)
    R = 16.0
    gs = GridSpec(d=2, L=8 * R, N=int(8 * R / 0.25))
    field = _field(gs, R=R)
    net = build_net(lam=1.0, R=R, d=2)
    n = net.n_nodes
    bound = block * n * 16 + 4 * (2 * n) ** 2 * 8
    assert field.values.nbytes > bound
    build_peak, kept, ens = _transient_peak(lambda: SandwichEnsemble(net, net, field, h=h))
    assert build_peak < bound
    spec = _omega_spec(h=h)
    flipped = OmegaField(spec, gs, -OmegaField.constant(spec, gs).cells)
    draw_peak, _, op = _transient_peak(lambda: ens.with_omega(flipped))
    assert op.potential_ref["assembly"] == "complex"
    # Two n x n complex sums (M and a group's Gram) beside the four Grams, and op's M.
    assert draw_peak + op.matrix.nbytes < _draw_bound(bound, block, n, flipped) + 2 * n**2 * 16
    rows = op.potential_ref["gram_rows"] * n * 16
    assert rows > _draw_bound(bound, block, n, flipped)
    assert kept < _kept_bound(gs, field, op, n) < rows


def test_pair_form_works_in_one_block_of_half_rows(monkeypatch):
    """On an even net the tables span the half-net and a realization holds n x n real Grams.

    n = 104 at R = 16.5.  The complex form's tables, rows and 2n x 2n Grams
    would exceed the bounds, so losing the pair form fails here, and so
    would keeping the rows or copying V.  A build also forms each axis
    table's phase and its complex temporary, at most N x n/2 x 24 bytes; a
    realization holds six n x n real Grams (two per-sign Grams, their
    difference, a mixed T, its temporaries and the sum of T).
    """
    block = 64
    monkeypatch.setattr(extension, "_GRAM_ROWS", block)
    gs = GridSpec(d=2, L=128.0, N=512)
    field = _field(gs, R=16.0)
    net = build_net(lam=1.0, R=16.5, d=2)
    n = net.n_nodes
    assert n == 104
    bound = block * (n // 2) * 16 + 4 * n**2 * 8
    table = gs.N * (n // 2) * 24
    assert field.values.nbytes > bound + table
    build_peak, kept, ens = _transient_peak(lambda: SandwichEnsemble(net, net, field, h=1.0))
    assert build_peak < bound + table
    assert {t.shape[1] for rows in (ens._uniform, ens._mixed) for t in rows[0].tables} == {n // 2}
    spec = _omega_spec(h=1.0)
    flipped = OmegaField(spec, gs, -OmegaField.constant(spec, gs).cells)
    draw_peak, _, op = _transient_peak(lambda: ens.with_omega(flipped))
    assert op.potential_ref["assembly"] == "pair"
    draw_bound = _draw_bound(bound, block, n // 2, flipped) + 2 * n**2 * 8
    assert draw_peak < draw_bound < 4 * (2 * n) ** 2 * 8
    rows = op.potential_ref["gram_rows"] * (n // 2) * 16
    assert kept < _kept_bound(gs, field, op, n // 2) < rows


def test_single_cell_straddling_the_seam_matches_node_level_route():
    """At h = L the one cell holds both torus offsets, so V constant on it is no uniform cell."""
    gs = GridSpec(d=2, L=4.0, N=16)
    field = PotentialField(gs, np.ones(gs.shape, dtype=complex), support_radius=gs.L)
    net = build_net(lam=1.0, R=4.0, d=2)
    omega = draw_omega(OmegaSpec(h=gs.L, distribution="gaussian", master_seed=5), gs)
    fast = SandwichEnsemble(net, net, field, h=gs.L).with_omega(omega).matrix
    slow = sandwich(net, net, anderson_randomize(field, omega)).matrix
    assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()


@pytest.mark.parametrize("amplitude", [1.5, 1.0 + 0.5j], ids=["real", "complex"])
@pytest.mark.parametrize(
    "d,L,N,h,groups",
    [
        pytest.param(2, 19.2, 64, 0.9, 4, id="dx0.3-h0.9"),
        pytest.param(2, 19.2, 64, 1.0, 4, id="dx0.3-h1.0"),
        pytest.param(2, 19.2, 64, 1.2, 1, id="dx0.3-h1.2"),
        pytest.param(2, 16.0, 64, 0.75, 4, id="dx0.25-h0.75"),
        # 2 or 3 nodes per axis, and the last cell holds 1
        pytest.param(2, 19.2, 64, 0.7, 9, id="partial-last-cell"),
        pytest.param(3, 4.8, 16, 0.9, 8, id="d3-dx0.3-h0.9"),
        # the one cell spans the seam, so no cell is uniform
        pytest.param(2, 4.0, 16, 4.0, 0, id="one-cell"),
    ],
)
def test_any_cell_size_matches_node_level_sandwich(d, L, N, h, groups, amplitude):
    """Cells that need not tile the box: M(1) and sign and Gaussian draws against the node level."""
    gs = GridSpec(d=d, L=L, N=N)
    net = build_net(lam=1.0, R=4.0 if d == 2 else 2.0, d=d)
    field = _field(gs, amplitude=amplitude, R=L / 4)
    ens = SandwichEnsemble(net, net, field, h)
    pairs = [(ens.deterministic(), field)]
    for distribution in ("bernoulli", "gaussian"):
        for idx in range(2):
            omega = draw_omega(OmegaSpec(h, distribution, 31, idx), gs)
            pairs.append((ens.with_omega(omega), anderson_randomize(field, omega)))
    assembly = "pair" if d == 2 and amplitude == 1.5 else "complex"
    for fast, f in pairs:
        assert fast.potential_ref["assembly"] == assembly
        assert fast.potential_ref["cell_groups"] == groups
        slow = sandwich(net, net, f).matrix
        assert np.abs(fast.matrix - slow).max() <= 1e-12 * np.abs(slow).max()


@pytest.mark.parametrize("L,groups", [(76.8, 9), (64.0, 1)], ids=["dx0.3", "dx0.25"])
def test_uniform_cells_group_by_node_counts(L, groups):
    """Unit cells hold 3 or 4 nodes per axis at dx = 0.3 and the last cell 2: 3^2 count tuples.

    At dx = 0.25 they tile the box in one group.
    """
    gs = GridSpec(d=2, L=L, N=256)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, R=L / 4)
    det = SandwichEnsemble(net, net, field, h=1.0).deterministic()
    assert det.potential_ref["cell_groups"] == groups
    assert {type(v) for v in det.potential_ref.values()} == {str, int}
    slow = sandwich(net, net, field).matrix
    assert np.abs(det.matrix - slow).max() <= 1e-12 * np.abs(slow).max()


@pytest.mark.parametrize("amplitude", [1.5, 1.0 + 0.5j], ids=["real", "complex"])
def test_ensemble_never_calls_the_node_level_sandwich(monkeypatch, amplitude):
    """On cells that do not tile the box the ensemble still builds, draws and gives M(1) itself."""

    def node_level(*args, **kwargs):
        raise AssertionError("the ensemble called the node-level sandwich")

    gs = GridSpec(d=2, L=19.2, N=64)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, amplitude=amplitude, R=4.8)
    monkeypatch.setattr(extension, "sandwich", node_level)
    ens = SandwichEnsemble(net, net, field, h=1.0)
    draw = ens.with_omega(draw_omega(_omega_spec(h=1.0), gs))
    det = ens.deterministic()
    for op in (draw, det):
        assert op.potential_ref["assembly"] in ("pair", "complex")
        assert op.potential_ref["cell_groups"] == 4


def test_ensemble_rejects_cells_wider_than_the_box():
    gs = GridSpec(d=2, L=4.0, N=16)
    net = build_net(lam=1.0, R=4.0, d=2)
    with pytest.raises(SupportError):
        SandwichEnsemble(net, net, _field(gs), h=4.5)


def test_ensemble_is_hermitian_for_real_potential_and_signs():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    ens = SandwichEnsemble(net, net, _field(gs, amplitude=1.5, R=2.0), h=1.0)
    for idx in range(3):
        m = ens.with_omega(draw_omega(_omega_spec(h=1.0, seed=8, index=idx), gs)).matrix
        assert np.abs(m - m.conj().T).max() <= 1e-14 * np.abs(m).max()


def test_ensemble_gram_rows_count_changed_weights():
    """omega = 1 feeds no row; omega = -1 feeds every uniform corner and nonzero mixed node."""
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, amplitude=1.0, R=2.0)
    spec = _omega_spec(h=1.0)
    ens = SandwichEnsemble(net, net, field, h=1.0)
    ones = ens.with_omega(OmegaField.constant(spec, gs))
    assert ones.potential_ref["gram_rows"] == 0
    flipped = ens.with_omega(OmegaField(spec, gs, -np.ones((8, 8)))).potential_ref
    per_cell = 4**2  # h / dx = 4 nodes per axis
    support = np.count_nonzero(field.values)
    assert flipped["mixed_cells"] > 0
    uniform = flipped["uniform_cells"]
    assert flipped["gram_rows"] == uniform + support - per_cell * uniform


def _knapp(gs, real):
    """The Knapp slab of eps = 0.5, or its real part: V = cos(2 pi x_0), with no mirror symmetry."""
    field = sample_potential(PotentialSpec(kind="knapp_oscillatory", oscillation={"eps": 0.5}), gs)
    values = field.values.real.astype(complex) if real else field.values
    return PotentialField(gs, values, field.support_radius)


_MIRROR_CASES = {
    # d, L, N, net R, h, field (from gs)
    "R8-n51-tiled": (2, 16.0, 64, 8.0, 1.0, lambda gs: _field(gs, R=4.0)),
    "R16-n101-tiled": (2, 16.0, 64, 16.0, 1.0, lambda gs: _field(gs, R=4.0)),
    "d3-fibonacci": (3, 8.0, 32, 2.0, 1.0, lambda gs: _field(gs, R=2.0)),
    "dx0.3-h0.9": (2, 19.2, 64, 8.0, 0.9, lambda gs: _field(gs, amplitude=1.5, R=4.8)),
    "dx0.3-h1.2": (2, 19.2, 64, 8.0, 1.2, lambda gs: _field(gs, amplitude=1.5, R=4.8)),
    "knapp-real": (2, 16.0, 64, 8.0, 1.0, lambda gs: _knapp(gs, real=True)),
    "knapp-complex": (2, 16.0, 64, 8.0, 1.0, lambda gs: _knapp(gs, real=False)),
}


@pytest.mark.parametrize("case", list(_MIRROR_CASES))
def test_half_step_mirror_assembly_matches_node_level_sandwich(case):
    """Odd and d = 3 nets, tiled and untiled cells: M(1) and sign and Gaussian draws.

    Rows sit half a step off the nodes.  Real V pairs each row with its
    mirror, and M is Hermitian bit for bit; the complex Knapp slab takes the
    complex product over the same rows.
    """
    d, L, N, R, h, make = _MIRROR_CASES[case]
    gs = GridSpec(d=d, L=L, N=N)
    net = build_net(lam=1.0, R=R, d=d)
    assert d == 3 or net.n_nodes % 2 == 1
    field = make(gs)
    real = not field.values.imag.any()
    ens = SandwichEnsemble(net, net, field, h)
    pairs = [(ens.deterministic(), field)]
    for distribution in ("bernoulli", "gaussian"):
        for idx in range(2):
            omega = draw_omega(OmegaSpec(h, distribution, 41, idx), gs)
            pairs.append((ens.with_omega(omega), anderson_randomize(field, omega)))
    for fast, f in pairs:
        assert fast.potential_ref["assembly"] == "complex"
        slow = sandwich(net, net, f).matrix
        assert np.abs(fast.matrix - slow).max() <= 1e-12 * np.abs(slow).max()
        if real:
            np.testing.assert_array_equal(fast.matrix, fast.matrix.conj().T)
    fed = [op.potential_ref["mirror_pairs"] for op, _ in pairs[1:]]
    assert (min(fed) > 0) == real and (max(fed) > 0) == real


def test_uniform_cells_that_mirror_onto_mixed_cells_stay_unpaired():
    """A uniform cell whose mirror cell is mixed has no mirror row; the assembly still matches."""
    gs = GridSpec(d=2, L=16.0, N=64)
    values = np.zeros(gs.shape, dtype=complex)
    values[:8, :8] = 1.0  # centred nodes [0, 8)^2: four uniform cells
    values[-8:, -8:] = 1.0  # their mirror [-8, 0)^2, two of its cells made mixed below
    values[-1, -1] = 2.0
    values[-5, -8] = 0.5
    values[20:24, :4] = 3.0  # a uniform cell whose uniform mirror holds another value
    values[-24:-20, -4:] = -1.0
    field = PotentialField(gs, values, support_radius=8.0)
    net = build_net(lam=1.0, R=8.0, d=2)
    ens = SandwichEnsemble(net, net, field, h=1.0)
    uniform_mirror, mixed_mirror = ens._mirrors
    assert uniform_mirror.size == 4 + 2 + 2 and np.count_nonzero(uniform_mirror < 0) == 2
    # the two mixed cells' nodes mirror onto uniform cells: unpaired as well
    assert mixed_mirror.size == 2 * 16 and (mixed_mirror < 0).all()
    for idx in range(3):
        omega = draw_omega(OmegaSpec(1.0, "gaussian", 43, idx), gs)
        fast = ens.with_omega(omega)
        slow = sandwich(net, net, anderson_randomize(field, omega)).matrix
        assert np.abs(fast.matrix - slow).max() <= 1e-12 * np.abs(slow).max()
        np.testing.assert_array_equal(fast.matrix, fast.matrix.conj().T)


def test_draw_on_an_odd_net_takes_the_hermitian_eigensolver(monkeypatch):
    """Real V on an odd net: spectral_norm of a draw's matrix calls eigvalsh and never the SVD."""
    gs = GridSpec(d=2, L=16.0, N=64)
    net = build_net(lam=1.0, R=8.0, d=2)
    ens = SandwichEnsemble(net, net, _field(gs, R=4.0), h=1.0)
    calls = []
    eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append("eigvalsh") or eigvalsh(*a, **k))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
    for idx in range(3):
        op = ens.with_omega(draw_omega(_omega_spec(h=1.0, seed=12, index=idx), gs))
        assert op.potential_ref["assembly"] == "complex" and op.real_form is None
        spectral_norm(op.matrix)
    assert calls == ["eigvalsh"] * 3


def test_ensemble_mirror_pairs_count_pairs_fed_as_one():
    """The gram_rows grid and field on the odd R = 8 net: no pair at omega = 1, every pair at -1.

    Cells are 4 x 4 blocks of raw indices (h / dx = 4); the mirror m -> -1 - m
    of centred indices takes raw index i to N - 1 - i, so block j to block
    N / 4 - 1 - j.  A pair is two uniform cells, or two nonzero nodes of
    mixed cells, that are each other's mirrors.
    """
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=8.0, d=2)
    field = _field(gs, amplitude=1.0, R=2.0)
    spec = _omega_spec(h=1.0)
    ens = SandwichEnsemble(net, net, field, h=1.0)
    ones = ens.with_omega(OmegaField.constant(spec, gs)).potential_ref
    assert ones["assembly"] == "complex" and ones["mirror_pairs"] == 0
    flipped = ens.with_omega(OmegaField(spec, gs, -np.ones((8, 8)))).potential_ref
    v = field.values.real
    blocks = v.reshape(8, 4, 8, 4).transpose(0, 2, 1, 3).reshape(8, 8, 16)
    uniform = (blocks == blocks[..., :1]).all(axis=-1) & (blocks[..., 0] != 0)
    mixed = (v != 0) & ~np.repeat(np.repeat(uniform, 4, axis=0), 4, axis=1)
    expected = np.count_nonzero(uniform & uniform[::-1, ::-1]) // 2
    expected += np.count_nonzero(mixed & mixed[::-1, ::-1]) // 2
    assert 0 < expected < flipped["gram_rows"] / 2
    assert flipped["mirror_pairs"] == expected


def _rows(k, n=7, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))


@pytest.mark.parametrize(
    "weights",
    [
        np.array([1.5, -0.5, 0.0, 2.0, -3.0, 0.25]),
        np.array([1.0 + 2.0j, -0.5j, 0.0, 3.0, -1.0 + 0.1j, 0.5]),
        np.zeros(6),
    ],
    ids=["mixed_sign", "complex", "all_zero"],
)
def test_gram_matches_dense_product(weights):
    _check_gram(weights)


@pytest.mark.parametrize("block", [1, 2, 4, 5], ids=lambda b: f"block{b}")
@pytest.mark.parametrize(
    "weights",
    [
        np.array([1.5, -0.5, 0.0, 2.0, -3.0, 0.25]),
        np.array([1.0 + 2.0j, -0.5j, 0.0, 3.0, -1.0 + 0.1j, 0.5]),
        np.zeros(6),
    ],
    ids=["mixed_sign", "complex", "all_zero"],
)
def test_gram_in_blocks_matches_dense_product(monkeypatch, weights, block):
    """Blocks of 1, 2, 4 and 5 rows over 6: smaller than the set, dividing it and not."""
    monkeypatch.setattr(extension, "_GRAM_ROWS", block)
    _check_gram(weights)


def _row_set(rows):
    """rows as a row set of one axis whose table is rows itself."""
    return _Rows([rows], (np.arange(rows.shape[0]),))


def _check_gram(weights):
    rows, other = _rows(weights.size), _rows(weights.size, n=5, seed=1)
    got = [_gram(weights, _row_set(rows)), _gram(weights, _row_set(rows), _row_set(other))]
    for right, got in zip((rows, other), got):
        want = (rows.conj().T * weights) @ right
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("block", [1, 2, 5, 2048], ids=lambda b: f"block{b}")
def test_mirrored_gram_matches_dense_product(monkeypatch, block):
    """Five mirror pairs, three unpaired rows, shuffled: Hermitian bit for bit, and the dense Gram.

    The pairs' weights (w, w') cover s = w + w' and t = w - w' of either
    sign, s = 0, t = 0, one weight zero and both zero.
    """
    monkeypatch.setattr(extension, "_GRAM_ROWS", block)
    half, lone = _rows(5, seed=3), _rows(3, seed=4)
    pair_w = [(1.5, -0.5), (2.0, 2.0), (0.7, -0.7), (0.0, 0.0), (0.0, -1.2)]
    rows = np.concatenate([half, half.conj(), lone])
    weights = np.concatenate([[w for w, _ in pair_w], [w for _, w in pair_w], [-3.0, 0.0, 0.25]])
    mirror = np.concatenate([np.arange(5, 10), np.arange(5), [-1, -1, -1]])
    order = np.random.default_rng(5).permutation(13)
    where = np.argsort(order)  # the new position of each old row
    rows, weights = rows[order], weights[order]
    mirror = np.where(mirror[order] >= 0, where[mirror[order]], -1)
    got = _gram(weights, _row_set(rows), mirror=mirror)
    np.testing.assert_array_equal(got, got.conj().T)
    want = (rows.conj().T * weights) @ rows
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def _real_gram_by_sign(weights, rows):
    """_real_gram's order written out: per sign, fresh blocks' Grams summed, then added times the sign."""
    table = _stored(rows).tables[0]
    total = np.zeros((2 * table.shape[1],) * 2)
    for sign in (1.0, -1.0):
        sel = np.flatnonzero(sign * weights > 0)
        if not sel.size:
            continue
        g = None
        for blk in extension._blocks(sel):
            x = table[blk].view(float) * np.sqrt(sign * weights[blk])[:, None]
            g = x.T @ x if g is None else g + x.T @ x
        total += sign * g
    return total


@pytest.mark.parametrize("block", [1, 2, 5, 2048], ids=lambda b: f"block{b}")
@pytest.mark.parametrize(
    "weights",
    [
        np.array([1.5, -0.5, 0.0, 2.0, -3.0, 0.25, -0.75, 1.0, 0.0, -2.5, 0.5]),
        -np.array([1.5, 0.5, 0.0, 2.0, 3.0, 0.25, 0.75, 1.0, 0.0, 2.5, 0.5]),
        np.zeros(11),
    ],
    ids=["mixed_sign", "all_negative", "all_zero"],
)
def test_real_gram_is_symmetric_and_sums_each_sign_in_order(monkeypatch, weights, block):
    """11 rows of 2 axes: symmetric bit for bit, the dense real Gram, and the per-sign sum's bits."""
    monkeypatch.setattr(extension, "_GRAM_ROWS", block)
    rng = np.random.default_rng(11)
    index = (rng.integers(0, 4, 11), rng.integers(0, 3, 11))
    rows = _Rows([_rows(4, seed=12), _rows(3, seed=13)], index)
    got = _real_gram(weights, rows)
    np.testing.assert_array_equal(got, got.T)
    x = _stored(rows).tables[0].view(float)
    want = x.T * weights @ x
    assert got.shape == want.shape == (14, 14)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))
    np.testing.assert_array_equal(got, _real_gram_by_sign(weights, rows))


def _gram_of_fresh_blocks(weights, rows, rows_in=None):
    """_gram's complex branch gathering every block into a new array: its reference."""
    right_rows = rows if rows_in is None else rows_in
    m = np.zeros((rows.tables[0].shape[1], right_rows.tables[0].shape[1]), dtype=complex)
    for blk in extension._blocks(np.flatnonzero(weights)):
        left = extension._gather(rows, blk, np.empty((blk.size, m.shape[0]), dtype=complex))
        right = left if rows_in is None else extension._gather(
            rows_in, blk, np.empty((blk.size, m.shape[1]), dtype=complex))
        m += (left.conj().T * weights[blk]) @ right
    return m


@pytest.mark.parametrize("block", [1, 5, 2048], ids=lambda b: f"block{b}")
def test_complex_gram_reuses_block_arrays_with_the_same_bits(monkeypatch, block):
    """Complex weights on one row set, real or complex on two: 23 rows of 2 axes."""
    monkeypatch.setattr(extension, "_GRAM_ROWS", block)
    rng = np.random.default_rng(7)
    index = (rng.integers(0, 6, 23), rng.integers(0, 4, 23))
    rows, rows_in = (_Rows([_rows(6, n, seed), _rows(4, n, seed + 1)], index)
                     for n, seed in ((7, 2), (5, 4)))
    real = rng.standard_normal(23) * (rng.random(23) < 0.8)
    complex_ = real + 1j * rng.standard_normal(23) * (real != 0)
    for weights, right in ((complex_, None), (real, rows_in), (complex_, rows_in)):
        want = _gram_of_fresh_blocks(weights, rows, right)
        np.testing.assert_array_equal(_gram(weights, rows, right), want)


def test_gram_of_empty_row_set_is_zero():
    got = _gram(np.zeros(0), _row_set(np.zeros((0, 7), dtype=complex)))
    assert got.shape == (7, 7)
    assert np.all(got == 0)


def _stored(rows):
    """A row set's rows formed at once, axis factors multiplied in axis order, as a one-axis row set."""
    table = rows.tables[0][rows.index[0]]
    for t, ix in zip(rows.tables[1:], rows.index[1:]):
        table = table * t[ix]
    return _row_set(table)


_GATHER_CASES = {
    # d, L, N, net R, net_in lam, amplitude, h, assembly
    "pair": (2, 16.0, 64, 4.0, None, 1.5, 1.0, "pair"),
    "complex": (2, 16.0, 64, 4.0, None, 1.0 + 0.5j, 1.0, "complex"),
    "two_nets": (2, 16.0, 64, 4.0, 1.5, -2.0, 1.0, "complex"),
    "d3": (3, 4.8, 16, 2.0, None, 1.5, 0.9, "complex"),
    "untiled_dx0.3": (2, 19.2, 64, 4.0, None, 1.5, 1.0, "pair"),
}


@pytest.mark.parametrize("sub", [1, 3], ids=lambda s: f"sub{s}")
@pytest.mark.parametrize("block", [1, 5, 2048], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("case", list(_GATHER_CASES))
def test_gathered_rows_give_the_bits_of_stored_rows(monkeypatch, case, block, sub):
    """M(1) and sign and Gaussian draws from gathered rows equal those from rows formed at once.

    Every block and sub-block size gives the same bits, since each gathered
    entry is its axis factors multiplied in axis order, then scaled.
    """
    d, L, N, R, lam_in, amplitude, h, assembly = _GATHER_CASES[case]
    monkeypatch.setattr(extension, "_GRAM_ROWS", block)
    monkeypatch.setattr(extension, "_SUB_ROWS", sub)
    gs = GridSpec(d=d, L=L, N=N)
    net = build_net(lam=1.0, R=R, d=d)
    net_in = net if lam_in is None else build_net(lam=lam_in, R=R, d=d)
    ens = SandwichEnsemble(net, net_in, _field(gs, amplitude=amplitude, R=L / 4), h)
    stored = copy.copy(ens)
    stored._uniform = [_stored(rows) for rows in ens._uniform]
    stored._mixed = [_stored(rows) for rows in ens._mixed]
    stored._m1 = stored._assemble(ens._uniform_vals, ens._mixed_vals)
    np.testing.assert_array_equal(stored._m1, ens._m1)
    for distribution in ("bernoulli", "gaussian"):
        omega = draw_omega(OmegaSpec(h, distribution, 3, 1), gs)
        got, want = ens.with_omega(omega), stored.with_omega(omega)
        assert got.potential_ref["assembly"] == assembly and got.potential_ref["gram_rows"] > 5
        np.testing.assert_array_equal(got.matrix, want.matrix)
        if assembly == "pair":
            np.testing.assert_array_equal(got.real_form, want.real_form)


def test_pair_form_lifts_the_node_matrix_when_first_read(monkeypatch):
    """A draw forms real_form only; matrix is lifted on its first read, once, with the same bits."""
    gs, net, field = _pair_case()
    ens = SandwichEnsemble(net, net, field, 1.0)
    lifts = []
    lift = extension._node_matrix
    monkeypatch.setattr(extension, "_node_matrix", lambda s: lifts.append(1) or lift(s))
    op = ens.with_omega(draw_omega(_omega_spec(), gs))
    spectral_norm(op.real_form)
    assert lifts == []
    m = op.matrix
    assert op.matrix is m and lifts == [1]
    np.testing.assert_array_equal(m, lift(op.real_form))
    np.testing.assert_array_equal(m, m.conj().T)


def test_ensemble_rejects_mismatched_omega():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    ens = SandwichEnsemble(net, net, _field(gs), h=1.0)
    with pytest.raises(ValueError):
        ens.with_omega(draw_omega(_omega_spec(h=2.0), gs))
    with pytest.raises(ValueError):
        ens.with_omega(draw_omega(_omega_spec(h=1.0), GridSpec(d=2, L=16.0, N=32)))


def test_singular_values_diagonal():
    np.testing.assert_allclose(
        singular_values(np.diag([1.0, 0.5, 0.25])), [1.0, 0.5, 0.25]
    )


def test_singular_values_unitary():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    q, _ = np.linalg.qr(a)
    np.testing.assert_allclose(singular_values(q), np.ones(20), rtol=1e-12)


def test_singular_values_gram_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    got = singular_values(a)
    want = oracles.gram_svals(a)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_weak_schatten_harmonic():
    s = 1.0 / np.arange(1, 101)
    assert weak_schatten(s, 1.0) == pytest.approx(1.0)


def test_weak_below_strong():
    rng = np.random.default_rng(4)
    s = np.sort(rng.uniform(0, 1, 30))[::-1]
    for p in (1.0, 2.0, 3.0):
        assert weak_schatten(s, p) <= (s**p).sum() ** (1.0 / p) + 1e-12


def test_weak_schatten_arithmetic():
    # sup_k s_k k^(1/p) over the ranks of the sorted values, whatever the input order
    s = [1.0, 3.0, 2.0]
    assert weak_schatten(s, 1.0) == pytest.approx(4.0)
    assert weak_schatten(s, 2.0) == pytest.approx(3.0)
    assert weak_schatten([], 1.0) == 0.0


def test_schatten_rejects_small_p():
    with pytest.raises(ValueError):
        weak_schatten([1.0], 0.5)


def test_operator_norm_is_top_singular_value():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    op = sandwich(net, net, _field(gs, amplitude=1.0 + 1.0j, R=2.0))
    assert spectral_norm(op.matrix) == pytest.approx(singular_values(op)[0], rel=1e-10)


def test_phase_rotation_leaves_singular_values():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    base = _field(gs, amplitude=1.0 + 2.0j, R=2.0)
    from evbounds.potential import PotentialField

    rotated = PotentialField(gs, base.values * np.exp(0.7j), base.support_radius)
    conjug = PotentialField(gs, base.values.conj(), base.support_radius)
    s0 = singular_values(sandwich(net, net, base))
    np.testing.assert_allclose(
        singular_values(sandwich(net, net, rotated)), s0, rtol=1e-10, atol=1e-12
    )
    np.testing.assert_allclose(
        singular_values(sandwich(net, net, conjug)), s0, rtol=1e-10, atol=1e-12
    )


def test_angular_weight_zero_order_is_plain_sandwich():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    field = _field(gs, amplitude=1.0 + 1.0j, R=2.0)
    plain = sandwich(net, net, field)
    weighted = angular_weight(plain.matrix, net.lam, nu=0.0)
    np.testing.assert_allclose(weighted, plain.matrix, atol=1e-12 * np.abs(plain.matrix).max())


def test_angular_weight_zero_potential():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    out = angular_weight(sandwich(net, net, _field(gs, amplitude=0.0)).matrix, net.lam, nu=1.0)
    assert np.all(out == 0)


def test_angular_weight_matches_direct_conjugation():
    """Angular multiplier (2+(k/lam)^2)^(nu/4) applied as a dense conjugation."""
    gs = GridSpec(d=2, L=8.0, N=32)
    lam, nu = 1.0, 1.0
    net = build_net(lam, 4.0, d=2)
    field = _field(gs, amplitude=1.0, R=2.0)
    plain = sandwich(net, net, field).matrix
    n = net.n_nodes
    fmat = np.fft.fft(np.eye(n), axis=0)
    mult = (2.0 + (np.fft.fftfreq(n, d=1.0 / n) / lam) ** 2) ** (nu / 4.0)
    w = np.linalg.inv(fmat) @ np.diag(mult) @ fmat
    want = w @ plain @ w
    got = angular_weight(plain, lam, nu=nu)
    np.testing.assert_allclose(got, want, atol=1e-10 * np.abs(want).max())
    assert got is not plain
    assert np.abs(got - plain).max() > 1e-3 * np.abs(plain).max()  # weight acted


def test_angular_weight_rejects_negative_order():
    gs = GridSpec(d=2, L=8.0, N=32)
    net = build_net(lam=1.0, R=4.0, d=2)
    with pytest.raises(ValueError):
        angular_weight(sandwich(net, net, _field(gs)).matrix, net.lam, nu=-0.5)
