"""End-to-end gate: the nine headline checks, one printed verdict line each.

Each test computes its verdict, prints a single bracketed PASS/FAIL line
straight to the terminal (bypassing capture), and then asserts.  The well
sweep and the extension-norm campaign are session fixtures because two
checks each share their data.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import oracles
from evbounds import GridSpec
from evbounds.birman_schwinger import assemble_bs, gelfand_spr
from evbounds.extension import build_net, extension_matrix, sandwich, singular_values
from evbounds.harness import (
    check_aad_1d,
    concentration_tail,
    deterministic_ext_norm,
    evsum_sweep,
    ext_norm_samples,
    fit_scaling,
    schatten_campaign,
    stein_tomas_spread,
)
from evbounds.potential import PotentialField, PotentialSpec, dyadic_decompose, sample_potential
from evbounds.randomize import OmegaSpec
from evbounds.spectra import (
    SpectrumFilter,
    eigenvalues_dense,
    filter_discrete,
    hamiltonian_matrix,
)

WELL_GRID = GridSpec(d=1, L=32.0, N=512)
THETAS = (0.0, np.pi / 4, np.pi / 2)
CAMPAIGN_TEMPLATE = OmegaSpec(h=1.0, distribution="bernoulli", master_seed=2026)
CAMPAIGN_SPEC = PotentialSpec(kind="indicator_ball", amplitude=1.0, R=8.0)


def _announce(capfd, num, label, ok):
    with capfd.disabled():
        print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}", flush=True)


@pytest.fixture(scope="session")
def well_sweep():
    """25 complex square wells, solved densely and filtered to discrete states.

    The kappa=1 sector is part of discrete-state identification here: a
    dissipative well shifts the whole lattice band down in Im by roughly
    amp * 2R / L, which swamps any fixed delta margin, while genuine well
    states sit at arguments >= pi/4 for every phase in the sweep.
    """
    filt = SpectrumFilter(
        band=(0.0, np.inf),
        essential_margin=2 * (2 * np.pi / WELL_GRID.L) ** 2,
        kappa=1.0,
    )
    sweep = []
    for k, a in enumerate(np.linspace(0.5, 8.0, 25)):
        amp = a * np.exp(1j * THETAS[k % 3])
        field = sample_potential(
            PotentialSpec(kind="indicator_ball", amplitude=amp, R=1.0), WELL_GRID
        )
        points = eigenvalues_dense(hamiltonian_matrix(WELL_GRID, field))
        sweep.append(
            {
                "theta": THETAS[k % 3],
                "field": field,
                "all_z": np.array([p.z for p in points]),
                "kept": filter_discrete(points, filt),
            }
        )
    return sweep


@pytest.fixture(scope="session")
def campaign():
    """Randomized extension-norm draws: 200 per R, 2000 at R=32 for the tail.

    The draws run on two worker processes where there are two CPUs; the
    norms are the same bits for any worker count.
    """
    workers = min(2, os.cpu_count() or 1)
    norms = {
        R: ext_norm_samples(CAMPAIGN_SPEC, CAMPAIGN_TEMPLATE, 1.0, R, range(200), workers=workers)
        for R in (8.0, 16.0, 64.0)
    }
    norms[32.0] = ext_norm_samples(
        CAMPAIGN_SPEC, CAMPAIGN_TEMPLATE, 1.0, 32.0, range(2000), workers=workers
    )
    dets = {R: deterministic_ext_norm(CAMPAIGN_SPEC, 1.0, R) for R in (8.0, 16.0, 32.0, 64.0)}
    return norms, dets


def test_criterion_1_aad_wells(well_sweep, capfd):
    reports = [check_aad_1d(w["kept"], w["field"]) for w in well_sweep]
    margins = [r.margin for r in reports]
    n_kept = sum(len(w["kept"]) for w in well_sweep)
    real_wells_found = all(
        len(w["kept"]) >= 1 for w in well_sweep if w["theta"] == 0.0
    )
    ok = max(margins) <= 1.05 and n_kept >= 20 and real_wells_found
    _announce(capfd, 1, "one-dimensional well bound", ok)
    assert max(margins) <= 1.05, f"worst margin {max(margins):.4f}"
    assert real_wells_found and n_kept >= 20, f"only {n_kept} discrete states found"


def test_criterion_2_birman_schwinger_equivalence(well_sweep, capfd):
    worst_eig = 0.0
    for w in well_sweep:
        for p in w["kept"]:
            bs = assemble_bs(WELL_GRID, w["field"], p.z)
            smin = np.linalg.svd(np.eye(bs.dim) - bs.matrix, compute_uv=False)[-1]
            worst_eig = max(worst_eig, smin / bs.norm())

    probe_smins = []
    for k in range(20):
        w = well_sweep[k % len(well_sweep)]
        bound = check_aad_1d(w["kept"], w["field"]).rhs_raw
        radius = max(2.0 * bound**2, 4.0)
        z = radius * np.exp(1j * (0.7 + k * (2 * np.pi - 1.4) / 19))
        assert np.min(np.abs(w["all_z"] - z)) > 0.5  # probe construction sanity
        bs = assemble_bs(WELL_GRID, w["field"], z)
        probe_smins.append(np.linalg.svd(np.eye(bs.dim) - bs.matrix, compute_uv=False)[-1])

    ok = worst_eig < 1e-6 and min(probe_smins) > 0.05
    _announce(capfd, 2, "resolvent equivalence at eigenvalues", ok)
    assert worst_eig < 1e-6, f"worst relative smin at an eigenvalue: {worst_eig:.2e}"
    assert min(probe_smins) > 0.05, f"weakest probe separation: {min(probe_smins):.4f}"


def test_criterion_3_spectral_radius_oracle(capfd):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        want = np.abs(np.linalg.eigvals(a)).max()
        got = gelfand_spr(a)
        worst = max(worst, abs(got - want) / want)
    # Independent of any eigensolver: S diag(lam) S^-1 has radius max |lam| by construction.
    worst_built = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = np.abs(lam).max()
        got = gelfand_spr((s * lam) @ np.linalg.inv(s))
        worst_built = max(worst_built, abs(got - want) / want)
    ok = worst <= 1e-6 and worst_built <= 1e-6
    _announce(capfd, 3, "spectral radius vs dense solver and known spectra", ok)
    assert worst <= 1e-6, f"worst relative deviation {worst:.2e}"
    assert worst_built <= 1e-6, f"worst relative deviation from max |lam| {worst_built:.2e}"


def test_criterion_4_scaling_split(campaign, capfd):
    norms, dets = campaign
    rs = [8.0, 16.0, 32.0, 64.0]
    means = [norms[R][:200].mean() for R in rs]
    exp_rand, _, r2_rand = fit_scaling(rs, means)
    exp_det, _, r2_det = fit_scaling(rs, [dets[R] for R in rs])
    ok = (
        0.35 <= exp_rand <= 0.85
        and 0.85 <= exp_det <= 1.15
        and exp_det - exp_rand >= 0.25
    )
    _announce(capfd, 4, "random vs deterministic norm growth", ok)
    assert 0.35 <= exp_rand <= 0.85, f"random exponent {exp_rand:.4f} (r2={r2_rand:.4f})"
    assert 0.85 <= exp_det <= 1.15, f"deterministic exponent {exp_det:.4f} (r2={r2_det:.4f})"
    assert exp_det - exp_rand >= 0.25, f"separation {exp_det - exp_rand:.4f}"


def test_criterion_5_concentration_tail(campaign, capfd):
    norms, _ = campaign
    study = concentration_tail(norms[32.0])
    fracs = [e.fraction for e in study.entries]
    ok = study.monotone and study.c > 0
    _announce(capfd, 5, "norm concentration around the mean", ok)
    assert study.monotone, f"fractions not monotone: {fracs}"
    assert study.c > 0, f"fitted tail rate {study.c:.4f} with fractions {fracs}"


def test_criterion_6_weighted_singular_value_decay(capfd):
    unit_ball = PotentialSpec(kind="indicator_ball")
    workers = min(2, os.cpu_count() or 1)
    res = schatten_campaign(
        unit_ball, 1.0, [16.0, 32.0], 1.0, CAMPAIGN_TEMPLATE, n_samples=100, workers=workers
    )
    r16, r32 = res[16.0]["ratio"], res[32.0]["ratio"]
    tails = [res[R]["median_tail_ratio"] for R in (16.0, 32.0)]
    ok = (
        np.isfinite(r16)
        and np.isfinite(r32)
        and abs(r32 - r16) / r16 <= 0.5
        and max(tails) <= 1e-2
    )
    _announce(capfd, 6, "weighted decay stability under doubling", ok)
    assert abs(r32 - r16) / r16 <= 0.5, f"ratio moved {r16:.4f} -> {r32:.4f}"
    assert max(tails) <= 1e-2, f"beyond-bandwidth tail ratios {tails}"


def test_criterion_7_restriction_norm_spread(capfd):
    out = stein_tomas_spread(1.0, (8.0, 16.0, 32.0))
    ok = out["max_rel_spread"] <= 0.25
    _announce(capfd, 7, "restriction-norm scale invariance", ok)
    assert out["max_rel_spread"] <= 0.25, f"ratios {out['ratios']}"


def test_criterion_8_eigenvalue_sum_amplitude_fit(capfd):
    study = evsum_sweep(
        (1.0, 2.0, 4.0, 8.0),
        PotentialSpec(kind="indicator_ball", amplitude=1.0j, R=1.0),
        GridSpec(d=2, L=8.0, N=32),
        eps=0.1,
        R0=4.0,
        h=0.25,
        filt=SpectrumFilter.from_scales(4.0, 0.25, 1e-12, kappa=0.1),
    )
    ok = study.c2 > 1.0 and study.r_squared >= 0.9
    _announce(capfd, 8, "eigenvalue-sum amplitude scaling", ok)
    assert study.c2 > 1.0, f"fitted power {study.c2:.4f}"
    assert study.r_squared >= 0.9, f"fit quality {study.r_squared:.4f}"


def _oracle_subchecks():
    """The named independent oracles, each replayed against the main path."""
    checks = {}

    gs = GridSpec(d=1, L=16.0, N=256)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=2.0, R=1.0), gs)
    lowest = min(
        p.z.real for p in eigenvalues_dense(hamiltonian_matrix(gs, field))
    )
    rel = abs(lowest - oracles.SQUARE_WELL_E0_A1_V2) / abs(oracles.SQUARE_WELL_E0_A1_V2)
    checks["square_well_transcendental"] = rel < 1e-4

    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1.5 + 0.5j, R=1.0), gs)
    z = -0.7 + 0.3j
    bs = assemble_bs(gs, field, z)
    r = oracles.dense_resolvent_1d(gs.N, gs.L, z)
    vals = field.values.ravel()
    sup = bs.support_indices
    root = np.sqrt(np.abs(vals[sup]))
    want = root[:, None] * r[np.ix_(sup, sup)] * (vals[sup] / root)[None, :]
    checks["dense_resolvent_inverse"] = bool(np.max(np.abs(bs.matrix - want)) < 1e-10)

    gs = GridSpec(d=2, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1.0, R=2.0), gs)
    net = build_net(1.0, 2.0, 2)
    mat = sandwich(net, net, field).matrix
    got = singular_values(mat)
    checks["gram_svd"] = bool(
        np.max(np.abs(got - oracles.gram_svals(mat)) / (got[0] + 1e-30)) < 1e-8
    )

    net = build_net(1.0, 8.0, 2)
    radii = np.linspace(0.0, 4.0, 40)
    pts = np.column_stack([radii, np.zeros_like(radii)])
    got = extension_matrix(net, pts) @ np.ones(net.n_nodes)
    want = oracles.circle_extension_of_one(1.0, pts)
    checks["bessel_quadrature"] = bool(np.max(np.abs(got - want)) < 0.01 * 2 * np.pi)

    gs = GridSpec(d=1, L=8.0, N=32)
    vals = np.zeros(32, dtype=complex)
    vals[:4] = 4.0
    vals[4:16] = 1.0
    field = PotentialField(grid=gs, values=vals, support_radius=4.0)
    layers = dyadic_decompose(field)
    want = oracles.dyadic_thresholds(vals, gs.cellvol, len(layers) - 1)
    got = [layer.threshold for layer in layers[1:]]
    checks["sort_and_scan_thresholds"] = bool(np.allclose(got, want))

    return checks


def test_criterion_9_exact_value_suite(capfd):
    checks = _oracle_subchecks()
    failing = sorted(name for name, ok in checks.items() if not ok)
    ok = not failing
    label = "independent oracle agreement"
    if failing:
        label += f" ({', '.join(failing)})"
    _announce(capfd, 9, label, ok)
    assert ok, (
        f"oracle sub-checks failing at stated tolerance: {failing}; the square-well "
        "comparison at this resolution is dominated by the half-cell widening of "
        "the sampled sharp edge (relative error at the percent level, see the "
        "matching unit test for the widened-well control)"
    )
