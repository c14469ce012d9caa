from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evbounds import GridSpec, util
from evbounds.errors import SupportError
from evbounds.extension import SandwichEnsemble, build_net, sandwich, singular_values
from evbounds.harness import (
    FITTED_CONSTANTS,
    BoundReport,
    campaign_norms,
    check_aad_1d,
    check_evsum,
    check_extnorm,
    check_klt_det,
    check_schatten_decay,
    check_sector,
    check_tail,
    check_thm1,
    check_thm3,
    concentration_tail,
    config_sandwiches,
    evsum_sweep,
    ext_norm_samples,
    deterministic_ext_norm,
    fit_scaling,
    schatten_campaign,
    schatten_exponent,
    stein_tomas_spread,
)
from evbounds.potential import PotentialSpec, lq_norm, sample_potential, weighted_sup_norm
from evbounds.randomize import OmegaSpec, draw_omega
from evbounds.spectra import (
    SpectralPoint,
    SpectrumFilter,
    eigenvalues_dense,
    filter_discrete,
    hamiltonian_matrix,
)
from evbounds.util import spectral_norm


def _pt(z, mult=1):
    return SpectralPoint(z=complex(z), multiplicity=mult, residual=0.0)


def _discrete_points(gs, amplitude, margin=0.5, R=1.0, kappa=None):
    # kappa=1 drops band states blurred upward by a dissipative well; the
    # delta margin alone cannot separate them once amp * 2R / L ~ margin.
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=amplitude, R=R), gs)
    pts = eigenvalues_dense(hamiltonian_matrix(gs, field))
    filt = SpectrumFilter(band=(0.0, np.inf), essential_margin=margin, kappa=kappa)
    return filter_discrete(pts, filt), field


def _omega(h=1.0, seed=2026, index=0):
    return OmegaSpec(h=h, distribution="bernoulli", master_seed=seed, realization_index=index)


def test_aad_vacuous_pass():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=0.0), gs)
    report = check_aad_1d([], field)
    assert report.vacuous and report.passed
    assert report.lhs == 0.0


def test_aad_real_well():
    gs = GridSpec(d=1, L=16.0, N=128)
    points, field = _discrete_points(gs, 2.0)
    report = check_aad_1d(points, field)
    assert report.rhs_raw == pytest.approx(2.0, abs=0.2)  # half of the L1 norm
    # sqrt of the continuum well depth, up to the sharp-edge sampling bias
    assert report.lhs == pytest.approx(1.099, abs=0.05)
    assert report.margin < 1.0 and report.passed


def test_aad_imaginary_well():
    gs = GridSpec(d=1, L=16.0, N=128)
    points, field = _discrete_points(gs, 4.0j, kappa=1.0)
    report = check_aad_1d(points, field)
    assert not report.vacuous
    assert report.lhs <= 4.0 * 1.01
    assert 0.0 < report.margin <= 1.0


def test_aad_needs_one_dimension():
    gs = GridSpec(d=2, L=8.0, N=16)
    field = sample_potential(PotentialSpec(kind="indicator_ball"), gs)
    with pytest.raises(ValueError):
        check_aad_1d([], field)


def test_klt_coincides_with_aad_at_q_one():
    gs = GridSpec(d=1, L=16.0, N=128)
    points, field = _discrete_points(gs, 2.0 + 1.0j)
    aad = check_aad_1d(points, field)
    klt = check_klt_det(points, field, q=1.0)
    assert klt.lhs == pytest.approx(aad.lhs, rel=1e-12)
    assert klt.margin == pytest.approx(aad.margin, rel=1e-12)


def test_klt_vacuous():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=0.0), gs)
    assert check_klt_det([], field, q=1.0).passed


def test_klt_two_dimensional_margin():
    gs = GridSpec(d=2, L=8.0, N=32)
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", amplitude=1.0 + 1.0j, R=1.0), gs
    )
    pts = eigenvalues_dense(hamiltonian_matrix(gs, field))
    filt = SpectrumFilter(
        band=(0.0, np.inf),
        essential_margin=SpectrumFilter.default_margin(gs),
        kappa=1.0,
    )
    report = check_klt_det(filter_discrete(pts, filt), field, q=1.5)
    assert report.fitted_constant == 0.126
    assert report.passed


@pytest.mark.parametrize("q", [0.4, 1.6])
def test_klt_rejects_q_outside_window(q):
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball"), gs)
    with pytest.raises(ValueError):
        check_klt_det([], field, q=q)


def test_sector_no_points_in_sector():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball"), gs)
    report = check_sector([_pt(1.0 + 0.1j)], field, q=1.0, kappa=1.0)
    assert report.lhs == 0.0 and report.passed and not report.vacuous


def test_sector_large_kappa_keeps_left_half_plane():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball"), gs)
    pts = [_pt(-1.0), _pt(1.0 + 100.0j)]
    report = check_sector(pts, field, q=1.0, kappa=1e6)
    # only z = -1 survives the sector: lhs = |z|^{q - d/2} = 1
    assert report.lhs == pytest.approx(1.0)
    assert report.params["n_sector"] == 1


def test_sector_imaginary_well_report():
    gs = GridSpec(d=1, L=16.0, N=128)
    points, field = _discrete_points(gs, 4.0j, kappa=1.0)
    report = check_sector(points, field, q=1.0, kappa=1.0)
    assert report.fitted_constant == 0.217
    assert report.passed and report.lhs > 0


def test_sector_validation():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball"), gs)
    with pytest.raises(ValueError):
        check_sector([], field, q=1.0, kappa=0.0)
    with pytest.raises(ValueError):
        check_sector([], field, q=0.4, kappa=1.0)


def test_thm1_bracket_formula():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=2.0), gs)
    pt = _pt((2.0 + 0.05j) ** 2)
    report = check_thm1([pt], field, _omega(h=0.5), q=1.0, R=2.0, M=5.0)
    want = 2.0 / ((2.0 + 1.0) ** 0.5 * np.log(2.0 + 4.0) ** 3.5)
    assert report.lhs == pytest.approx(want, rel=1e-10)
    assert report.fitted_constant == 5.0  # M plays the role of the constant
    assert report.seed["master_seed"] == 2026


def test_thm1_excludes_wide_eps():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=2.0), gs)
    report = check_thm1([_pt((2.0 + 0.5j) ** 2)], field, _omega(h=0.5), q=1.0, R=2.0, M=5.0)
    assert report.vacuous and report.passed


def test_thm1_support_violation():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=3.0), gs)
    with pytest.raises(SupportError):
        check_thm1([], field, _omega(h=0.5), q=1.0, R=2.0, M=5.0)
    with pytest.raises(ValueError):
        check_thm1([], field, _omega(h=4.0), q=1.0, R=3.5, M=5.0)


def test_thm1_q_validation():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball"), gs)
    with pytest.raises(ValueError):
        check_thm1([], field, _omega(h=0.5), q=2.5, R=2.0, M=5.0)


def test_thm3_bracket_formula():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=2.0), gs)
    pt = _pt((2.0 + 0.0j) ** 2)
    report = check_thm3([pt], field, _omega(h=0.5), q=1.0, M=5.0)
    want = 2.0 / ((2.0 + 1.0) ** 0.5 * np.log(2.0 + 1.0) ** 2)
    assert report.lhs == pytest.approx(want, rel=1e-10)


def test_thm3_rejects_endpoint_q():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball"), gs)
    with pytest.raises(ValueError):
        check_thm3([], field, _omega(h=0.5), q=2.0, M=5.0)


def test_mc_zero_potential():
    spec = PotentialSpec(kind="indicator_ball", amplitude=0.0)
    assert deterministic_ext_norm(spec, lam=1.0, R=8.0, dx=0.5) == 0.0
    draws = ext_norm_samples(spec, _omega(), lam=1.0, R=8.0, indices=range(2), dx=0.5)
    np.testing.assert_array_equal(draws, 0.0)
    report = check_extnorm(draws, 8.0, h=1.0, v_inf=0.0)
    assert report.lhs == 0.0 and report.passed


def test_ext_norm_samples_reproducible():
    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0)
    a = ext_norm_samples(spec, _omega(), lam=1.0, R=8.0, indices=range(3), dx=0.5)
    b = ext_norm_samples(spec, _omega(), lam=1.0, R=8.0, indices=range(3), dx=0.5)
    np.testing.assert_array_equal(a, b)
    assert np.all(a > 0)


def test_randomization_shrinks_the_norm():
    # sign cancellation: every randomized draw sits below the all-plus norm
    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0)
    det = deterministic_ext_norm(spec, lam=1.0, R=8.0, dx=0.5)
    draws = ext_norm_samples(spec, _omega(), lam=1.0, R=8.0, indices=range(5), dx=0.5)
    assert np.all(draws < det)


@pytest.mark.parametrize(
    "R,n,d", [(8.0, 5, 2), (16.0, 5, 2), (32.0, 5, 2), (16.0, 2, 2), (2.0, 5, 3)],
    ids=["R8_pair_form", "R16_pair_form", "R32_pair_form", "fewer_draws_than_workers",
         "d3_mirror_pairs"],
)
def test_campaign_norms_are_the_same_bits_for_every_worker_count(monkeypatch, R, n, d):
    """Whichever worker of k draws a position, its norm lands there.

    Every d = 2 net is antipodal, so its draws take the pair form; the
    39-node d = 3 net at R = 2 takes the mirror-paired complex form.
    """
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(3, cpus))
    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0, R=8.0)
    indices = list(range(n))[::-1]
    want_norms, want_det = campaign_norms(spec, _omega(), 1.0, R, indices, d, reference=True)
    for workers in (2, 3):
        norms, det = campaign_norms(
            spec, _omega(), 1.0, R, indices, d, reference=True, workers=workers
        )
        assert norms.tobytes() == want_norms.tobytes() and det == want_det
        samples = ext_norm_samples(spec, _omega(), 1.0, R, indices, d, workers=workers)
        assert samples.tobytes() == norms.tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_stalled_worker_leaves_its_draws_to_the_others(monkeypatch):
    """Worker 1 stalls on its first draw until this process has drawn every other position.

    With a fixed split this process would draw only 0, 2, 4 and then wait
    out the stall; claiming draws one at a time, it takes them all.
    """
    import select

    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))
    spec, n = PotentialSpec(kind="indicator_ball", amplitude=1.0, R=8.0), 6
    want = ext_norm_samples(spec, _omega(), 1.0, 8.0, range(n), dx=0.5)
    parent, drawn = os.getpid(), []
    done_r, done_w = os.pipe()
    real = SandwichEnsemble.with_omega

    def with_omega(self, omega):
        i = omega.spec.realization_index
        if os.getpid() == parent:
            drawn.append(i)
            if i == n - 1:
                os.write(done_w, b"\0")
        elif i == 1:
            select.select([done_r], [], [], 10.0)
        return real(self, omega)

    monkeypatch.setattr(SandwichEnsemble, "with_omega", with_omega)
    try:
        norms = ext_norm_samples(spec, _omega(), 1.0, 8.0, range(n), dx=0.5, workers=2)
    finally:
        os.close(done_r)
        os.close(done_w)
    assert drawn == [0, 2, 3, 4, 5]
    assert norms.tobytes() == want.tobytes()


@pytest.mark.parametrize("caller", ["campaign_norms", "schatten_campaign", "config_sandwiches"])
@pytest.mark.parametrize("over", [-1, 1], ids=["zero", "above_cpu_count"])
def test_draws_refuse_a_worker_count_outside_one_to_the_cpus(monkeypatch, over, caller):
    """The worker-count check sits in the one draw routine, before any ensemble is built."""
    import evbounds.harness as harness

    def refuse(*args, **kwargs):
        raise AssertionError("built or forked")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(harness, "SandwichEnsemble", refuse)
    spec = PotentialSpec(kind="indicator_ball")
    workers = 1 + over if over < 0 else (os.cpu_count() or 1) + over
    with pytest.raises(ValueError, match=r"workers must lie in \[1, "):
        if caller == "campaign_norms":
            campaign_norms(spec, _omega(), 1.0, 8.0, range(4), workers=workers)
        elif caller == "schatten_campaign":
            schatten_campaign(spec, 1.0, [8.0], 1.0, _omega(), 2, workers=workers)
        else:
            field = sample_potential(spec, GridSpec(d=2, L=8.0, N=32))
            config_sandwiches(field, 1.0, 2.0, _omega(), range(2), workers=workers)


def test_config_sandwiches_rows_are_the_realizations_singular_values(monkeypatch):
    """Row i holds the singular values of realization indices[i], the same bits for every k."""
    from evbounds.util import one_blas_thread

    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(3, cpus))
    gs = GridSpec(d=2, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1.0 + 0.5j, R=4.0), gs)
    indices = [4, 0, 3]
    net = build_net(1.0, 4.0, 2)
    with one_blas_thread():
        ensemble = SandwichEnsemble(net, net, field, 1.0)
        want = [singular_values(ensemble.with_omega(draw_omega(_omega(index=i), gs))) for i in indices]
    for workers in (1, 2, 3):
        rows = config_sandwiches(field, 1.0, 4.0, _omega(), indices, workers=workers)
        assert rows.shape == (3, net.n_nodes)
        assert rows.tobytes() == np.array(want).tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_schatten_campaign_needs_a_draw():
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        schatten_campaign(PotentialSpec(kind="indicator_ball"), 1.0, [8.0], 1.0, _omega(), 0)


def test_campaign_norms_run_on_one_blas_thread(monkeypatch):
    """The build, every draw and the reference see one BLAS thread; the count is put back after."""
    import evbounds.harness as harness
    from evbounds import util

    lib = util._openblas()
    if lib is None:
        pytest.skip("numpy does not bundle an OpenBLAS with openblas_set_num_threads_local")

    def threads():
        count = lib.openblas_set_num_threads_local(1)
        lib.openblas_set_num_threads_local(count)
        return count

    before, seen = threads(), []
    real_build, real_norm = harness.SandwichEnsemble, harness.spectral_norm
    def build(*args):
        seen.append(threads())
        return real_build(*args)

    def norm(a):
        seen.append(threads())
        return real_norm(a)

    monkeypatch.setattr(harness, "SandwichEnsemble", build)
    monkeypatch.setattr(harness, "spectral_norm", norm)
    # V = -|V| is not the |V| ensemble: the reference builds its own.
    spec = PotentialSpec(kind="indicator_ball", amplitude=-1.0)
    campaign_norms(spec, _omega(), 1.0, 8.0, range(2), reference=True)
    assert seen == [1] * 5 and threads() == before


def _node_level_det(spec, lam, R, dx, d=2):
    """Norm of the node-level sandwich of |V| on the campaign grid L = 4R."""
    gs = GridSpec(d=d, L=4 * R, N=int(round(4 * R / dx)))
    field = sample_potential(dataclasses.replace(spec, R=R), gs)
    field.values = np.abs(field.values).astype(complex)
    net = build_net(lam, R, d)
    ens = SandwichEnsemble(net, net, field, h=min(1.0, gs.L))
    return spectral_norm(sandwich(net, net, field).matrix), ens


@pytest.mark.parametrize(
    "spec,lam,R,dx,path",
    [
        (PotentialSpec(kind="indicator_ball"), 1.0, 8.0, 0.25, "uniform"),
        (PotentialSpec(kind="indicator_ball"), 1.0, 8.0, 0.5, "uniform"),
        (PotentialSpec(kind="indicator_ball", amplitude=1.0 + 1.0j), 1.0, 4.0, 0.25, "uniform"),
        (PotentialSpec(kind="power_decay", amplitude=-0.5 + 2.0j, s=1.5), 1.0, 4.0, 0.25, "mixed"),
        # unit cells hold 2 or 3 nodes per axis: the factored assembly in count groups
        (PotentialSpec(kind="indicator_ball"), 1.0, 3.0, 0.375, "uniform"),
        # L = 4R = 0.8 is one cell of side 0.8, not a unit cell
        (PotentialSpec(kind="indicator_ball"), 8.0, 0.2, 0.05, "mixed"),
    ],
    ids=["ball_dx0.25", "ball_dx0.5", "complex_amplitude", "smooth", "untiled_dx0.375",
         "box_below_one_cell"],
)
def test_deterministic_ext_norm_matches_node_level_sandwich(spec, lam, R, dx, path):
    want, ens = _node_level_det(spec, lam, R, dx)
    # the case exercises the assembly path it names
    ref = ens.deterministic().potential_ref
    assert ref["assembly"] in ("pair", "complex")
    assert (ref["uniform_cells"] > 0) == (path == "uniform")
    got = deterministic_ext_norm(spec, lam=lam, R=R, dx=dx)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "spec,lam,R,dx,h,builds",
    [
        (PotentialSpec(kind="indicator_ball"), 1.0, 8.0, 0.5, 1.0, 1),
        (PotentialSpec(kind="indicator_ball"), 1.0, 8.0, 0.5, 2.0, 2),
        (PotentialSpec(kind="indicator_ball", amplitude=1.0 + 1.0j), 1.0, 4.0, 0.25, 1.0, 2),
        (PotentialSpec(kind="power_decay", amplitude=-0.5, s=1.5), 1.0, 4.0, 0.25, 1.0, 2),
        (PotentialSpec(kind="indicator_ball"), 1.0, 3.0, 0.375, 1.0, 1),
        (PotentialSpec(kind="indicator_ball"), 8.0, 0.2, 0.05, 0.8, 1),
    ],
    ids=["ball", "h2", "complex_amplitude", "negative", "untiled_dx0.375", "box_below_one_cell"],
)
def test_campaign_norms_are_the_two_samplers_bits(monkeypatch, spec, lam, R, dx, h, builds):
    """The draws' ensemble gives the |V| reference only where it is that ensemble."""
    import evbounds.harness as harness

    omega = _omega(h=h)
    want_norms = ext_norm_samples(spec, omega, lam, R, range(3), dx=dx)
    want_det = deterministic_ext_norm(spec, lam, R, dx=dx)
    built = []
    real = harness.SandwichEnsemble
    monkeypatch.setattr(harness, "SandwichEnsemble", lambda *args: built.append(1) or real(*args))
    norms, det = campaign_norms(spec, omega, lam, R, range(3), dx=dx, reference=True)
    assert len(built) == builds
    assert norms.tobytes() == want_norms.tobytes() and det == want_det
    assert campaign_norms(spec, omega, lam, R, range(3), dx=dx)[1] is None
    built.clear()
    norms, det = campaign_norms(spec, omega, lam, R, [], dx=dx, reference=True)
    assert len(built) == 1 and norms.size == 0 and det == want_det


@pytest.mark.parametrize(
    "R,h,d,dtype",
    [(4.0, 1.0, 2, np.float64), (4.0, 0.5, 2, np.float64), (8.0, 1.0, 2, np.float64),
     (2.0, 1.0, 3, np.complex128)],
    ids=["even", "even_own_reference", "R8", "d3"],
)
def test_campaign_norms_take_the_real_form_on_even_nets(monkeypatch, R, h, d, dtype):
    """Each draw and the reference come from a real eigvalsh on d = 2 nets, not on d = 3.

    The d = 2 nets (26 nodes at R = 4, 52 at R = 8) are antipodal; the
    d = 3 Fibonacci net (39 nodes at R = 2) is not.
    """
    import evbounds.harness as harness

    seen = []
    real = harness.spectral_norm
    monkeypatch.setattr(harness, "spectral_norm", lambda a: seen.append(a.dtype) or real(a))
    spec = PotentialSpec(kind="indicator_ball")
    campaign_norms(spec, _omega(h=h), 1.0, R, range(3), d, reference=True)
    assert seen == [dtype] * 4


def test_campaign_norms_never_lift_the_pair_form(monkeypatch):
    """The draws and the reference read real_form: no node matrix is formed for them."""
    import evbounds.extension as extension

    def lift(s):
        raise AssertionError("campaign_norms lifted a node matrix")

    monkeypatch.setattr(extension, "_node_matrix", lift)
    spec = PotentialSpec(kind="indicator_ball")
    norms, det = campaign_norms(spec, _omega(h=1.0), 1.0, 4.0, range(3), reference=True)
    assert norms.size == 3 and det > 0


@pytest.mark.parametrize(
    "entry",
    [None, complex(-0.0, 0.0), complex(1.0, -0.0), -1.0, 1.0 + 1.0j],
    ids=["abs", "negative_zero_real", "negative_zero_imag", "negative", "complex"],
)
def test_holds_reference_reads_the_bits_of_abs_v(entry):
    """The sign-bit test agrees with comparing the bytes of |V| cast to complex with V."""
    from types import SimpleNamespace

    from evbounds.harness import _holds_reference
    from evbounds.potential import PotentialField

    gs = GridSpec(d=2, L=8.0, N=32)
    values = np.abs(sample_potential(PotentialSpec(kind="indicator_ball", R=2.0), gs).values).astype(complex)
    if entry is not None:
        values[1, 2] = entry
    ensemble = SimpleNamespace(field=PotentialField(gs, values, 2.0), h=1.0)
    want = np.abs(values).astype(complex).tobytes() == values.tobytes()
    assert want == (entry is None)
    assert _holds_reference(ensemble) == want
    assert not _holds_reference(SimpleNamespace(field=ensemble.field, h=2.0))


def test_check_extnorm_formula():
    norms = np.array([2.0, 3.0, 4.0] * 40)
    report = check_extnorm(norms, 8.0, h=1.0, v_inf=1.0)
    want_rhs = 8.0**0.5 * 3.0 * np.log(10.0) ** 2.5
    assert report.lhs == 3.0
    assert report.rhs_raw == pytest.approx(want_rhs, rel=1e-12)
    assert report.margin == pytest.approx(3.0 / (0.164 * want_rhs), rel=1e-12)
    assert report.params == {"d": 2, "R": 8.0, "h": 1.0, "v_inf": 1.0, "n": 120}
    assert not report.vacuous


def test_fit_scaling_square_law():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    exponent, intercept, r2 = fit_scaling(x, x**2)
    assert exponent == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_constant():
    exponent, _, r2 = fit_scaling([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert exponent == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_fit_scaling_log_inflated_slope():
    # log-log slope of x^{1/2} ln(2+x)^{5/2} sits inside the range of the
    # log-derivative 1/2 + (5/2) x / ((2+x) ln(2+x)) over [8, 64]
    x = np.array([8.0, 16.0, 32.0, 64.0])
    y = x**0.5 * np.log(2.0 + x) ** 2.5
    exponent, _, r2 = fit_scaling(x, y)
    dlo = 0.5 + 2.5 * 64.0 / (66.0 * np.log(66.0))
    dhi = 0.5 + 2.5 * 8.0 / (10.0 * np.log(10.0))
    assert dlo <= exponent <= dhi
    assert r2 > 0.99


def test_fit_scaling_validation():
    with pytest.raises(ValueError):
        fit_scaling([1.0, 2.0], [1.0, 4.0])
    with pytest.raises(ValueError):
        fit_scaling([1.0, 2.0, 3.0], [1.0, -4.0, 9.0])
    with pytest.raises(ValueError):
        fit_scaling([1.0, 2.0, 3.0], [1.0, 4.0])


def test_schatten_zero_operator_passes():
    report = check_schatten_decay(
        np.zeros(5), nu=1.0, d=2, params={"lam": 1.0, "R": 8.0, "h": 1.0, "v_inf": 1.0}
    )
    assert report.lhs == 0.0 and report.passed


def test_schatten_harmonic_lhs():
    s = 1.0 / np.arange(1, 51)
    report = check_schatten_decay(
        s, nu=1.0, d=2, params={"lam": 1.0, "R": 8.0, "h": 1.0, "v_inf": 1.0}
    )
    assert report.lhs == pytest.approx(1.0)


def test_schatten_rhs_formula():
    report = check_schatten_decay(
        [0.5], nu=1.0, d=2, params={"lam": 1.0, "R": 8.0, "h": 1.0, "v_inf": 2.0}
    )
    lr, lh = 2.0 + 8.0, 2.0 + 1.0
    want = 8.0**1.5 * np.sqrt(np.log(lr)) * lh * (np.log(lr) + np.log(lh)) ** 2 * 2.0
    assert report.rhs_raw == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nu,p", [(1.0, 1.0), (0.5, 2.0), (0.25, 4.0)])
def test_schatten_exponent_is_d_minus_one_over_nu(nu, p):
    assert schatten_exponent(nu, 2) == p


def test_schatten_validation():
    params = {"lam": 1.0, "R": 8.0, "h": 1.0, "v_inf": 1.0}
    with pytest.raises(ValueError):
        check_schatten_decay([1.0], nu=1.0, d=3, params=params)
    with pytest.raises(ValueError):
        check_schatten_decay([1.0], nu=1.5, d=2, params=params)
    with pytest.raises(ValueError):
        check_schatten_decay([1.0], nu=0.0, d=2, params=params)


def test_evsum_empty_window():
    gs = GridSpec(d=2, L=8.0, N=16)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1.0j), gs)
    report = check_evsum([], field, eps=0.1, R0=4.0, h=0.25)
    assert report.vacuous and report.passed


def test_evsum_single_point_unit_mass():
    gs = GridSpec(d=2, L=8.0, N=16)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1.0j), gs)
    report = check_evsum([_pt(-1.0)], field, eps=0.1, R0=4.0, h=0.25)
    assert report.lhs == pytest.approx(1.0, rel=1e-12)
    assert report.rhs_raw == pytest.approx(weighted_sup_norm(field, 0.8), rel=1e-12)


def test_evsum_custom_constants_margin(monkeypatch):
    monkeypatch.setitem(FITTED_CONSTANTS, ("EVSUM", 2), (2.0, 1.5))
    gs = GridSpec(d=2, L=8.0, N=16)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1.0j), gs)
    report = check_evsum([_pt(-1.0)], field, eps=0.1, R0=4.0, h=0.25)
    assert report.margin == pytest.approx(1.0 / (2.0 * report.rhs_raw**1.5), rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.5, 0.7])
def test_evsum_eps_validation(eps):
    gs = GridSpec(d=2, L=8.0, N=16)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1.0j), gs)
    with pytest.raises(ValueError):
        check_evsum([], field, eps=eps, R0=4.0, h=0.25)


def test_concentration_tail_gaussian_like():
    rng = np.random.default_rng(8)
    norms = np.abs(rng.standard_normal(2000)) + 0.5
    study = concentration_tail(norms)
    assert study.monotone
    assert study.c > 0
    fracs = [e.fraction for e in study.entries]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_concentration_tail_thresholds_scale_the_sample_mean():
    norms = np.concatenate([np.full(150, 0.5), np.full(50, 2.5)])  # mean 1
    study = concentration_tail(norms, thresholds=(2.0, 4.0))
    assert study.entries[0].fraction == pytest.approx(0.25)
    assert study.entries[1].fraction == 0.0


def test_concentration_tail_single_threshold_no_fit():
    study = concentration_tail(np.ones(200), thresholds=(1.5,))
    assert np.isnan(study.c)


def test_check_tail_monotone_passes():
    rng = np.random.default_rng(9)
    study = concentration_tail(np.abs(rng.standard_normal(500)) + 0.5)
    report = check_tail(study)
    assert report.passed
    assert report.params["monotone"] is True


def test_check_tail_degenerate_vacuous():
    study = concentration_tail(np.ones(200))
    assert check_tail(study).vacuous


def test_stein_tomas_ratio_stability():
    out = stein_tomas_spread(lam=1.0, R_list=(8.0, 16.0), dx=0.5)
    assert set(out["ratios"]) == {8.0, 16.0}
    assert all(v > 0 for v in out["norms"].values())
    assert out["max_rel_spread"] < 0.25


def test_stein_tomas_norm_is_the_node_level_sandwich_norm():
    R, dx = 8.0, 0.5
    out = stein_tomas_spread(lam=1.0, R_list=(R,), dx=dx)
    gs = GridSpec(d=2, L=4 * R, N=int(4 * R / dx))
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=R), gs)
    net = build_net(1.0, R, 2)
    want = np.sqrt(spectral_norm(sandwich(net, net, field).matrix) / net.weights[0])
    assert out["norms"][R] == pytest.approx(want, rel=1e-12)


def test_schatten_campaign_shape():
    unit_ball = PotentialSpec(kind="indicator_ball")
    out = schatten_campaign(unit_ball, 1.0, [8.0], 1.0, _omega(), n_samples=5)
    entry = out[8.0]
    assert entry["median_lhs"] > 0
    assert entry["rhs_raw"] > 0
    assert entry["median_tail_ratio"] < 1.0
    assert entry["n_nodes"] == 52
    assert entry["max_lhs"] >= entry["median_lhs"]
    assert set(entry) == {
        "median_lhs", "rhs_raw", "ratio", "median_tail_ratio", "n_nodes", "max_lhs"
    }


# argv: src and demos directories.  Prints the calibration demo's SCHATTEN_DECAY ratio.
_SCHATTEN_FAMILY = """
import sys
sys.path[:0] = sys.argv[1:3]
from calibrate_constants import schatten_family
print(repr(schatten_family(2)))
"""


def test_calibration_schatten_family_does_not_depend_on_the_start_thread_count():
    if util._openblas() is None:
        pytest.skip("numpy does not bundle an OpenBLAS with openblas_set_num_threads_local")
    root = Path(__file__).resolve().parents[1]
    ratios = set()
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
        done = subprocess.run(
            [sys.executable, "-c", _SCHATTEN_FAMILY, str(root / "src"), str(root / "demos")],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        ratios.add(float(done.stdout))
    assert len(ratios) == 1


def test_schatten_campaign_takes_the_potential_amplitude():
    runs = [
        schatten_campaign(
            PotentialSpec(kind="indicator_ball", amplitude=a), 1.0, [8.0], 1.0, _omega(), 2
        )[8.0]
        for a in (1.0, 2.0)
    ]
    assert runs[1]["median_lhs"] == pytest.approx(2 * runs[0]["median_lhs"], rel=1e-12)
    assert runs[1]["rhs_raw"] == pytest.approx(2 * runs[0]["rhs_raw"], rel=1e-12)
    assert runs[1]["ratio"] == pytest.approx(runs[0]["ratio"], rel=1e-12)


@pytest.mark.parametrize("nu,d", [(1.0, 3), (5.0, 2), (0.0, 2)])
def test_schatten_campaign_checks_nu_and_d_before_building(monkeypatch, nu, d):
    """The angular weighting is the circle's: d = 3 nets and nu outside (0, d-1] are refused."""
    import evbounds.harness as harness

    def no_build(*args, **kwargs):
        raise AssertionError("the ensemble was built")

    monkeypatch.setattr(harness, "_campaign_ensemble", no_build)
    with pytest.raises(ValueError, match="nu must lie|d=2"):
        schatten_campaign(PotentialSpec(kind="indicator_ball"), 1.0, [8.0], nu, _omega(), 2, d=d)


@pytest.mark.parametrize(
    "L,N,R,lam", [(8.0, 32, 2.0, 1.0), (7.0, 32, 1.7, 1.0), (0.5, 16, 0.125, 10.0)]
)
def test_config_sandwiches_deterministic_is_the_node_level_sandwich(L, N, R, lam):
    """M(1) on unit cells, on a tiled grid, on a grid they do not tile, and on a box below 1."""
    gs = GridSpec(d=2, L=L, N=N)
    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0 + 0.5j, R=R)
    field = sample_potential(spec, gs)
    (got,) = config_sandwiches(field, lam, R)
    net = build_net(lam, R, 2)
    want = singular_values(sandwich(net, net, field))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want[0])


def test_evsum_sweep_fits_power_law():
    gs = GridSpec(d=1, L=8.0, N=64)
    base = PotentialSpec(kind="indicator_ball", amplitude=1.0j, R=1.0)
    filt = SpectrumFilter.from_scales(4.0, 0.125, 0.05)
    study = evsum_sweep((1.0, 2.0, 4.0), base, gs, eps=0.1, R0=4.0, h=0.125, filt=filt)
    assert len(study.reports) == 3
    assert np.isfinite(study.c2) and np.isfinite(study.r_squared)
    assert all(r.params["n_window"] > 0 for r in study.reports)


def test_evsum_sweep_randomized_path():
    gs = GridSpec(d=1, L=8.0, N=64)
    base = PotentialSpec(kind="indicator_ball", amplitude=1.0j, R=1.0)
    filt = SpectrumFilter.from_scales(4.0, 0.125, 0.05)
    study = evsum_sweep((1.0, 2.0), base, gs, eps=0.1, R0=4.0, h=0.125, filt=filt,
                        omega_spec=_omega(h=0.5))
    assert len(study.reports) == 2


def test_amplitude_monotonicity_imaginary_family():
    gs = GridSpec(d=1, L=16.0, N=128)
    lhs = []
    for amp in (2.0j, 4.0j):
        points, field = _discrete_points(gs, amp, kappa=1.0)
        lhs.append(check_aad_1d(points, field).lhs)
    assert lhs[1] >= lhs[0]


def test_report_invariants():
    for bad in ("NOPE", "SPECTRUM"):
        with pytest.raises(ValueError):
            BoundReport(
                bound_id=bad, lhs=1.0, rhs_raw=1.0, fitted_constant=1.0,
                margin=1.0, vacuous=False, params={},
            )
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=2.0), gs)
    report = check_aad_1d([_pt(-4.0)], field)
    assert report.margin == pytest.approx(
        report.lhs / (report.fitted_constant * report.rhs_raw), rel=1e-12
    )
    assert report.passed == (report.margin <= 1.0)
