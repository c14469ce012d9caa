from __future__ import annotations

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evbounds import GridSpec, spectra, util
from evbounds.birman_schwinger import assemble_bs
from evbounds.potential import PotentialField, PotentialSpec, sample_potential
from evbounds.randomize import OmegaSpec, anderson_randomize, draw_omega
from evbounds.spectra import (
    SpectralPoint,
    SpectrumFilter,
    check_dense_size,
    delta_dist,
    eigenvalue_sum,
    eigenvalues_dense,
    filter_discrete,
    hamiltonian_matrix,
)

import oracles


def _well(gs, amplitude=2.0):
    return sample_potential(PotentialSpec(kind="indicator_ball", amplitude=amplitude, R=1.0), gs)


def _free(gs):
    return PotentialField(gs, np.zeros(gs.shape), 0.0)


def _pt(z, mult=1):
    return SpectralPoint(z=complex(z), multiplicity=mult, residual=0.0)


def test_free_laplacian_levels():
    gs = GridSpec(d=1, L=8.0, N=32)
    h = hamiltonian_matrix(gs, _free(gs))
    got = np.sort(
        np.concatenate([[p.z.real] * p.multiplicity for p in eigenvalues_dense(h)])
    )
    ms = np.arange(-16, 16)
    want = np.sort((2 * np.pi * ms / gs.L) ** 2)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_real_potential_hermitian():
    gs = GridSpec(d=1, L=16.0, N=64)
    h = hamiltonian_matrix(gs, _well(gs))
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)


def _reflection(gs):
    """Flat indices of the point reflection m -> -m (mod N) of the grid."""
    multi = np.unravel_index(np.arange(gs.node_count), gs.shape)
    return np.ravel_multi_index(tuple(-m % gs.N for m in multi), gs.shape)


@pytest.mark.parametrize(
    "grid,amplitude,dtype",
    [
        (GridSpec(d=2, L=8.0, N=16), 2.0, np.float64),
        # a complex amplitude with zero imaginary part is a real well
        (GridSpec(d=2, L=8.0, N=16), 2.0 + 0.0j, np.float64),
        (GridSpec(d=1, L=16.0, N=64), 2.0 + 1.0j, np.complex128),
        (GridSpec(d=2, L=8.0, N=16), 1.0 + 2.0j, np.complex128),
        (GridSpec(d=1, L=16.0, N=64), 2.0, np.float64),
        (GridSpec(d=3, L=4.0, N=8), 2.0, np.float64),
        (GridSpec(d=3, L=4.0, N=8), 1.0 + 2.0j, np.complex128),
    ],
    ids=["real_2d", "zero_imag_2d", "dissipative_1d", "dissipative_2d", "real_1d",
         "real_3d", "dissipative_3d"],
)
def test_hamiltonian_is_exactly_symmetric(grid, amplitude, dtype):
    h = hamiltonian_matrix(grid, _well(grid, amplitude))
    assert h.dtype == dtype
    assert np.array_equal(h, h.T)
    # the radial well is even, so H commutes with the point reflection J
    # bit for bit: the property eigenvalues_dense splits on
    j = _reflection(grid)
    assert np.array_equal(h, h[np.ix_(j, j)])


@pytest.mark.parametrize(
    "grid,amplitude",
    [
        (GridSpec(d=2, L=8.0, N=32), 2.0),
        (GridSpec(d=2, L=8.0, N=32), 1.0 + 2.0j),
        (GridSpec(d=3, L=4.0, N=8), 2.0),
        (GridSpec(d=3, L=4.0, N=8), 1.0 + 2.0j),
    ],
    ids=["real_2d", "dissipative_2d", "real_3d", "dissipative_3d"],
)
def test_hamiltonian_peak_memory_stays_near_one_matrix(grid, amplitude):
    """No n x n index array or complex copy of a real H is formed on the way to H."""
    well = _well(grid, amplitude)
    tracemalloc.start()
    try:
        h = hamiltonian_matrix(grid, well)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * h.nbytes


def _spy_solvers(monkeypatch):
    """Record the shape of every matrix handed to numpy.linalg.eigh and eig."""
    shapes = []
    for name in ("eigh", "eig"):
        solver = getattr(np.linalg, name)

        def spy(a, *args, _solver=solver, **kwargs):
            shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return shapes


def _unsplit(monkeypatch, h):
    """The oracle: eigenvalues_dense with eigh or eig on the whole of H."""
    with monkeypatch.context() as m:
        m.setattr(spectra, "_commuting_reflection", lambda matrix: None)
        return eigenvalues_dense(h)


@pytest.mark.parametrize(
    "grid,amplitude",
    [
        # the spectrum_well benchmark's grid, a real and a dissipative well
        (GridSpec(d=1, L=32.0, N=512), 2.7),
        (GridSpec(d=1, L=32.0, N=512), 3.2 * np.exp(1j * np.deg2rad(60.0))),
        (GridSpec(d=2, L=8.0, N=16), 4.0),
        (GridSpec(d=2, L=8.0, N=16), 2.0 + 2.0j),
        (GridSpec(d=3, L=4.0, N=8), 3.0 + 1.0j),
    ],
    ids=["1d_real", "1d_dissipative", "2d_real", "2d_dissipative", "3d_dissipative"],
)
def test_reflection_split_matches_the_unsplit_solve(monkeypatch, grid, amplitude):
    h = hamiltonian_matrix(grid, _well(grid, amplitude))
    want = _unsplit(monkeypatch, h)
    shapes = _spy_solvers(monkeypatch)
    got = eigenvalues_dense(h)
    n, fixed = grid.node_count, 2**grid.d
    # the blocks are solved at once, so in no fixed order
    assert sorted(shapes) == [((n - fixed) // 2,) * 2, ((n + fixed) // 2,) * 2]

    scale = np.abs(h).sum(axis=0).max()  # ||H||_1
    assert len(got) == len(want)
    zs = np.array([q.z for q in want])
    matched = []
    for p in got:
        i = int(np.argmin(np.abs(zs - p.z)))
        matched.append(i)
        assert abs(p.z - want[i].z) <= 1e-13 * scale
        assert p.multiplicity == want[i].multiplicity
    assert len(set(matched)) == len(want)
    if np.isrealobj(h):
        filt = SpectrumFilter(band=(0.0, np.inf), essential_margin=2 * (2 * np.pi / grid.L) ** 2)
        kept, kept_oracle = filter_discrete(got, filt), filter_discrete(want, filt)
        assert kept and len(kept) == len(kept_oracle)
        for p, q in zip(kept, kept_oracle):
            assert abs(p.z - q.z) <= 1e-12 * abs(q.z)
    assert max(p.residual for p in got) <= 1e-10 * scale


def _knapp_well(gs):
    spec = PotentialSpec(kind="knapp_oscillatory", oscillation={"eps": 0.5})
    return hamiltonian_matrix(gs, sample_potential(spec, gs))


def _anderson_well(gs):
    omega = draw_omega(OmegaSpec(h=1.0, distribution="bernoulli", master_seed=3), gs)
    return hamiltonian_matrix(gs, anderson_randomize(_well(gs, 2.0 + 1.0j), omega))


def _nudged_well(gs):
    h = hamiltonian_matrix(gs, _well(gs))
    # H[J1, J2] equals H[1, 2] until the pair moves by one ulp
    h[1, 2] = h[2, 1] = np.nextafter(h[1, 2], np.inf)
    return h


@pytest.mark.parametrize(
    "grid,build",
    [
        (GridSpec(d=1, L=16.0, N=64), _knapp_well),
        (GridSpec(d=2, L=16.0, N=16), _knapp_well),
        (GridSpec(d=1, L=16.0, N=64), _anderson_well),
        (GridSpec(d=1, L=16.0, N=64), _nudged_well),
    ],
    ids=["knapp_1d", "knapp_2d", "anderson", "one_ulp_pair"],
)
def test_no_split_without_exact_reflection_symmetry(monkeypatch, grid, build):
    h = build(grid)
    j = _reflection(grid)
    assert not np.array_equal(h, h[np.ix_(j, j)])
    want = _unsplit(monkeypatch, h)
    shapes = _spy_solvers(monkeypatch)
    assert eigenvalues_dense(h) == want
    assert shapes == [h.shape]


@pytest.mark.parametrize(
    "grid,amplitude",
    [(GridSpec(d=1, L=16.0, N=128), 2.0), (GridSpec(d=1, L=16.0, N=128), 6.0),
     (GridSpec(d=2, L=8.0, N=16), 6.0)],
    ids=["1d_depth2", "1d_depth6", "2d_depth6"],
)
def test_real_wells_match_the_general_eig_oracle(monkeypatch, grid, amplitude):
    h = hamiltonian_matrix(grid, _well(grid, amplitude))
    got = eigenvalues_dense(h)
    eig, ran = np.linalg.eig, []

    def oracle(a):  # the oracle: eig on any H
        ran.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eigh", oracle)
    want = eigenvalues_dense(h)
    assert ran, "the general solver never ran"
    scale = np.abs(h).sum(axis=0).max()  # ||H||_1
    assert [p.multiplicity for p in got] == [p.multiplicity for p in want]
    # Both solvers are backward stable, so a point may move by a few
    # eps ||H||; that is 1e-12 relative only away from z = 0, where the
    # discrete points lie.
    for p, q in zip(got, want):
        assert p.z.imag == 0.0
        assert abs(p.z - q.z) <= 1e-14 * scale
    filt = SpectrumFilter(band=(0.0, np.inf), essential_margin=2 * (2 * np.pi / grid.L) ** 2)
    kept, kept_oracle = filter_discrete(got, filt), filter_discrete(want, filt)
    assert kept and len(kept) == len(kept_oracle)
    for p, q in zip(kept, kept_oracle):
        assert abs(p.z - q.z) <= 1e-12 * abs(q.z)
    assert max(p.residual for p in got) <= 1e-10 * scale


def test_one_ulp_off_hermitian_takes_the_general_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    gs = GridSpec(d=1, L=8.0, N=32)
    h = hamiltonian_matrix(gs, _well(gs))
    off = h.copy()
    off[0, 1] = np.nextafter(off[0, 1], np.inf)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(AssertionError, match="eigh called"):
        eigenvalues_dense(h)
    assert sum(p.multiplicity for p in eigenvalues_dense(off)) == gs.node_count


def _blas_threads(lib):
    """numpy's OpenBLAS thread count, read by setting it and putting it back."""
    count = lib.openblas_set_num_threads_local(1)
    lib.openblas_set_num_threads_local(count)
    return count


def _dense(grid, amplitude):
    return hamiltonian_matrix(grid, _well(grid, amplitude))


def _nonsymmetric(n):
    """An n-row matrix with no torus reflection symmetry, for the whole-H solve."""
    h = np.eye(n)
    h[0, 1] = 1.0
    return h


@pytest.mark.parametrize(
    "case,build,want",
    [
        ("whole", lambda: _nonsymmetric(255), [("eig", 255, "one")]),
        ("whole", lambda: _nonsymmetric(1024), [("eig", 1024, "default")]),
        ("whole", lambda: _nonsymmetric(255) + _nonsymmetric(255).T, [("eigh", 255, "one")]),
        ("whole", lambda: _nonsymmetric(1024) + _nonsymmetric(1024).T,
         [("eigh", 1024, "default")]),
        ("split", lambda: _dense(GridSpec(d=1, L=16.0, N=64), 2.0),
         [("eigh", 31, "one"), ("eigh", 33, "one")]),
        ("split", lambda: _dense(GridSpec(d=1, L=16.0, N=64), 2.0 + 1.0j),
         [("eig", 31, "one"), ("eig", 33, "one")]),
        # H at the size cut: its blocks still run on one thread each
        ("split", lambda: _dense(GridSpec(d=2, L=8.0, N=32), 12.0),
         [("eigh", 510, "one"), ("eigh", 514, "one")]),
    ],
    ids=["255-one", "1024-default", "eigh_255-one", "eigh_1024-default", "split_eigh-one",
         "split_eig-one", "split_eigh_1024-one"],
)
def test_general_solve_uses_one_blas_thread_below_1024_rows(monkeypatch, case, build, want):
    lib = util._openblas()
    if lib is None:
        pytest.skip("numpy does not bundle an OpenBLAS with openblas_set_num_threads_local")
    h = build()
    before = _blas_threads(lib)
    seen = []
    for name in ("eigh", "eig"):
        solver = getattr(np.linalg, name)

        def spy(a, _name=name, _solver=solver):
            seen.append((_name, a.shape[0], _blas_threads(lib)))
            if case == "whole":  # any eigenpairs will do; a 1024-row solve is slow
                return np.zeros(a.shape[0]), np.eye(a.shape[0])
            return _solver(a)

        monkeypatch.setattr(np.linalg, name, spy)
    eigenvalues_dense(h)
    counts = {"one": 1, "default": before}
    assert sorted(seen) == [(name, n, counts[threads]) for name, n, threads in want]
    assert _blas_threads(lib) == before


class _SerialThread:
    """Runs the target in the caller at join: the blocks one after the other."""

    def __init__(self, target, name=None):
        self._target = target

    def start(self):
        pass

    def join(self):
        self._target()


@pytest.mark.parametrize(
    "grid,amplitude",
    [
        (GridSpec(d=1, L=32.0, N=512), 2.7),
        (GridSpec(d=1, L=32.0, N=512), 3.2 * np.exp(1j * np.deg2rad(60.0))),
        (GridSpec(d=2, L=8.0, N=16), 2.0 + 2.0j),
    ],
    ids=["1d_real", "1d_dissipative", "2d_dissipative"],
)
def test_concurrent_blocks_keep_the_bits_of_a_serial_one_thread_solve(monkeypatch, grid, amplitude):
    h = _dense(grid, amplitude)
    with monkeypatch.context() as m:
        m.setattr(spectra.threading, "Thread", _SerialThread)
        with util.one_blas_thread():
            want = repr(eigenvalues_dense(h))
    assert repr(eigenvalues_dense(h)) == want
    assert repr(eigenvalues_dense(h)) == want


@pytest.mark.parametrize("block", ["odd", "even"])
@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_failing_block_solve_raises_in_the_caller(monkeypatch, block):
    gs = GridSpec(d=1, L=16.0, N=64)
    h = _dense(gs, 2.0 + 1.0j)
    failing = {"odd": 31, "even": 33}[block]
    eig, unhandled = np.linalg.eig, []

    def fail_one_block(a):
        if a.shape[0] == failing:
            raise np.linalg.LinAlgError(f"{block} block")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", fail_one_block)
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    threads = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match=f"{block} block"):
        eigenvalues_dense(h)
    assert threading.active_count() == threads
    assert unhandled == []


# argv: src directory.  Prints, for each well, the SHA-256 of the repr of its points.
_POINTS_DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from evbounds import GridSpec, PotentialSpec, sample_potential
from evbounds.spectra import eigenvalues_dense, hamiltonian_matrix
for d, N, L, depth in ((1, 512, 32.0, 2.7), (2, 32, 8.0, 12.0)):
    gs = GridSpec(d=d, L=L, N=N)
    well = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=depth, R=1.0), gs)
    print(hashlib.sha256(repr(eigenvalues_dense(hamiltonian_matrix(gs, well))).encode()).hexdigest())
"""


def test_spectra_do_not_depend_on_the_start_thread_count():
    if util._openblas() is None:
        pytest.skip("numpy does not bundle an OpenBLAS with openblas_set_num_threads_local")
    src = str(Path(spectra.__file__).resolve().parents[1])
    digests = {}
    for threads in (1, 2, 3):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
        done = subprocess.run([sys.executable, "-c", _POINTS_DIGEST, src], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests[threads] = done.stdout.split()
    assert len(digests[1]) == 2
    assert digests[2] == digests[1]
    assert digests[3] == digests[1]


def test_budget_guard():
    gs = GridSpec(d=1, L=8.0, N=8192)
    with pytest.raises(ValueError):
        hamiltonian_matrix(gs, _free(gs))


def test_dense_budget_admits_4096_nodes_and_no_more():
    # a 64 x 64 grid in 2-D or 16^3 in 3-D is the largest dense solve allowed
    check_dense_size(GridSpec(d=2, L=8.0, N=64).node_count)
    check_dense_size(GridSpec(d=3, L=8.0, N=16).node_count)
    with pytest.raises(ValueError, match="budgeted at 4096 nodes, got 4097"):
        check_dense_size(4097)


def test_potential_shape_guard():
    gs = GridSpec(d=1, L=8.0, N=32)
    with pytest.raises(ValueError):
        hamiltonian_matrix(gs, PotentialField(gs, np.zeros(16), 0.0))


def test_square_well_ground_state_matches_continuum_oracle():
    """Depth-2 well on [-1,1]: lowest level against the transcendental root.

    The indicator keeps the nodes at |x| = 1, so the sampled well is wider
    than the continuum one by about half a cell per side; at this resolution
    that bias is orders beyond the box-truncation term and the comparison
    reflects it.
    """
    gs = GridSpec(d=1, L=16.0, N=256)
    pts = eigenvalues_dense(hamiltonian_matrix(gs, _well(gs)))
    lowest = min(p.z.real for p in pts)
    want = oracles.SQUARE_WELL_E0_A1_V2
    rel = abs(lowest - want) / abs(want)
    assert rel < 1e-4, (
        f"lowest level {lowest:.6f} vs continuum {want:.6f}: rel error {rel:.3e} "
        "(half-cell sampling bias of the sharp well edge dominates here)"
    )


def test_eigenvalues_diag():
    pts = eigenvalues_dense(np.diag([1.0, 2.0j]))
    got = sorted((p.z for p in pts), key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(got, [2.0j, 1.0], atol=1e-12)


def test_jordan_block_multiplicity():
    (pt,) = eigenvalues_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert pt.multiplicity == 2
    assert pt.z == pytest.approx(1.0, abs=1e-7)


def test_clustering_links_pairs_split_by_lexsort():
    # 1 and 1+1e-8+1e-9j lie within 1e-7 ||H|| of each other, but the
    # middle eigenvalue's real part falls between theirs in (Re, Im) order
    pts = eigenvalues_dense(np.diag([1.0, 1.0 + 5e-9 + 0.3j, 1.0 + 1e-8 + 1e-9j]))
    assert [p.multiplicity for p in pts] == [2, 1]
    assert pts[0].z == pytest.approx(1.0, abs=1e-7)
    assert pts[1].z == pytest.approx(1.0 + 0.3j, abs=1e-7)


def _loop_cluster(w, residuals):
    """The per-eigenvalue clustering loop that spectra._cluster replaced: its reference."""
    n = w.size
    tol = 1e-7 * max(np.abs(w).max(initial=0.0), np.finfo(float).tiny)
    order = np.lexsort((w.imag, w.real))
    w, residuals = w[order], residuals[order]
    labels = np.arange(n)
    start = np.searchsorted(w.real, w.real - tol)
    for i in range(n):
        link = labels[start[i]:i + 1][np.abs(w[start[i]:i + 1] - w[i]) <= tol]
        if link.size > 1:
            labels[np.isin(labels, link)] = link.min()
    points = []
    for first in np.flatnonzero(labels == np.arange(n)):
        cluster = np.flatnonzero(labels == first)
        points.append(SpectralPoint(z=complex(w[cluster].mean()), multiplicity=len(cluster),
                                    residual=float(residuals[cluster].max())))
    return points


def _chain():
    """a links to b and b to c, a and c lie more than tol apart; and a lone -0.0 imaginary part."""
    tol = 1e-7 * 4.0
    w = np.array([2.0, 2.0 + 0.6 * tol, 2.0 + 1.2 * tol, complex(-3.0, -0.0), 4.0, 4.0 + 0.5 * tol])
    return w, np.random.default_rng(5).random(w.size)


def _dense_inputs(monkeypatch, grid, amplitude):
    """The eigenvalues and residuals eigenvalues_dense hands to _cluster for a well."""
    seen = []

    def capture(w, residuals):
        seen.append((w, residuals))
        return []

    monkeypatch.setattr(spectra, "_cluster", capture)
    eigenvalues_dense(hamiltonian_matrix(grid, _well(grid, amplitude)))
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("case", ["1d_real", "1d_dissipative", "2d_real", "chain"])
def test_cluster_matches_the_per_eigenvalue_loop(monkeypatch, case):
    if case == "chain":
        w, residuals = _chain()
    else:
        grid, amplitude = {
            "1d_real": (GridSpec(d=1, L=32.0, N=512), 2.7),
            "1d_dissipative": (GridSpec(d=1, L=32.0, N=512), 3.2 * np.exp(1j * np.deg2rad(60.0))),
            "2d_real": (GridSpec(d=2, L=8.0, N=32), 12.0),
        }[case]
        w, residuals = _dense_inputs(monkeypatch, grid, amplitude)
    got, want = spectra._cluster(w, residuals), _loop_cluster(w, residuals)
    assert got == want
    assert [repr(p) for p in got] == [repr(p) for p in want]  # the bits, signs of zero too
    if case in ("2d_real", "chain"):
        assert max(p.multiplicity for p in got) > 1
    if case == "chain":
        assert [p.multiplicity for p in got] == [1, 3, 2]


def test_companion_cube_roots():
    # z^3 - 1: companion of coefficients (-1, 0, 0)
    comp = oracles.companion_matrix([-1.0, 0.0, 0.0])
    got = sorted((p.z for p in eigenvalues_dense(comp)), key=lambda z: (z.real, z.imag))
    want = sorted(
        (np.exp(2j * np.pi * k / 3) for k in range(3)), key=lambda z: (z.real, z.imag)
    )
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        eigenvalues_dense(np.ones((2, 3)))


def test_oversized_eigensolve_rejected():
    with pytest.raises(ValueError):
        eigenvalues_dense(np.zeros((5000, 5000)))


def test_residual_certificates():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", amplitude=2.0 + 1.0j, R=1.0), gs
    )
    h = hamiltonian_matrix(gs, field)
    norm = np.linalg.norm(h, 2)
    for p in eigenvalues_dense(h):
        assert p.residual < 1e-8 * norm


def test_sqrt_parameterization_roundtrip():
    for z in (-1.0, 2.0 + 0.5j, -3.0 + 4.0j, 0.25j):
        p = _pt(z)
        assert (p.lam + 1j * p.eps) ** 2 == pytest.approx(z, abs=1e-12)


def test_filter_drops_half_line():
    filt = SpectrumFilter(band=(0.0, 10.0), essential_margin=0.01)
    assert filter_discrete([_pt(5.0)], filt) == []


def test_filter_keeps_negative_axis():
    for margin in (1e-6, 0.5, 1.0):
        filt = SpectrumFilter(band=(0.0, 10.0), essential_margin=margin)
        assert len(filter_discrete([_pt(-1.0)], filt)) == 1


def test_filter_sector():
    kept = filter_discrete(
        [_pt(1.0 + 1.0j)], SpectrumFilter(band=(0.0, 10.0), essential_margin=1e-6, kappa=2.0)
    )
    assert kept == []
    kept = filter_discrete(
        [_pt(1.0 + 1.0j)], SpectrumFilter(band=(0.0, 10.0), essential_margin=1e-6, kappa=0.5)
    )
    assert len(kept) == 1


def test_filter_band_window():
    filt = SpectrumFilter(band=(0.5, 2.0), essential_margin=1e-6)
    assert filter_discrete([_pt(-9.0)], filt) == []  # sqrt|z| = 3 above the band
    assert len(filter_discrete([_pt(-1.0)], filt)) == 1


def test_filter_validation():
    with pytest.raises(ValueError):
        SpectrumFilter(band=(-1.0, 2.0), essential_margin=0.1)
    with pytest.raises(ValueError):
        SpectrumFilter(band=(2.0, 1.0), essential_margin=0.1)
    with pytest.raises(ValueError):
        SpectrumFilter(band=(0.0, 1.0), essential_margin=0.0)


def test_filter_from_scales():
    filt = SpectrumFilter.from_scales(R0=4.0, h=0.25, essential_margin=1e-12, kappa=0.1)
    assert filt.band == (0.25, 4.0)
    assert filt.kappa == 0.1


def test_delta_dist_values():
    assert delta_dist(3.0 + 4.0j) == 4.0
    assert delta_dist(-3.0) == 3.0
    assert delta_dist(-3.0 + 4.0j) == 5.0


def test_delta_dist_lipschitz():
    rng = np.random.default_rng(5)
    zs = rng.uniform(-5, 5, (200, 2)) @ np.array([1.0, 1.0j])
    for z, w in zip(zs[::2], zs[1::2]):
        assert abs(delta_dist(z) - delta_dist(w)) <= abs(z - w) + 1e-12


def test_eigenvalue_sum_single_point():
    # 2 p sigma - 1 + eps <= 0: exponent collapses to -1/2, |−1| = 1
    assert eigenvalue_sum([_pt(-1.0)], p=1.0, sigma=0.4, eps=0.1) == pytest.approx(1.0)


def test_eigenvalue_sum_multiplicity():
    assert eigenvalue_sum([_pt(-1.0, mult=2)], p=1.0, sigma=0.4, eps=0.1) == pytest.approx(2.0)


def test_eigenvalue_sum_two_points():
    got = eigenvalue_sum([_pt(-1.0), _pt(-4.0)], p=1.0, sigma=1.0, eps=0.1)
    assert got == pytest.approx(oracles.EVSUM_TWO_POINT, rel=1e-12)


def test_eigenvalue_sum_empty():
    assert eigenvalue_sum([], p=1.0, sigma=1.0, eps=0.1) == 0.0


def test_eigenvalue_sum_validation():
    with pytest.raises(ValueError):
        eigenvalue_sum([_pt(-1.0)], p=0.5, sigma=1.0, eps=0.1)
    with pytest.raises(ValueError):
        eigenvalue_sum([_pt(-1.0)], p=1.0, sigma=0.0, eps=0.1)
    with pytest.raises(ValueError):
        eigenvalue_sum([_pt(-1.0)], p=1.0, sigma=1.0, eps=0.0)


def test_real_potential_spectrum_conjugation_closed():
    gs = GridSpec(d=1, L=16.0, N=64)
    pts = eigenvalues_dense(hamiltonian_matrix(gs, _well(gs)))
    zs = np.sort_complex(
        np.concatenate([[p.z] * p.multiplicity for p in pts])
    )
    np.testing.assert_allclose(zs, np.sort_complex(zs.conj()), atol=1e-8)


def test_transpose_spectrum_equality():
    gs = GridSpec(d=1, L=8.0, N=32)
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", amplitude=1.0 + 2.0j, R=1.0), gs
    )
    # H == H^T exactly, so a strictly upper-triangular perturbation keeps
    # the comparison between a non-symmetric matrix and its transpose
    rng = np.random.default_rng(11)
    h = hamiltonian_matrix(gs, field) + np.triu(rng.standard_normal((gs.N, gs.N)), 1)
    assert not np.array_equal(h, h.T)
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    a = sorted((p.z for p in eigenvalues_dense(h)), key=key)
    b = sorted((p.z for p in eigenvalues_dense(h.T)), key=key)
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_filtered_points_solve_bs():
    gs = GridSpec(d=1, L=16.0, N=64)
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", amplitude=2.0 + 1.0j, R=1.0), gs
    )
    pts = eigenvalues_dense(hamiltonian_matrix(gs, field))
    filt = SpectrumFilter(band=(0.0, 100.0), essential_margin=0.5)
    kept = filter_discrete(pts, filt)
    assert kept
    for p in kept:
        bs = assemble_bs(gs, field, p.z)
        smin = np.linalg.svd(np.eye(bs.dim) - bs.matrix, compute_uv=False)[-1]
        assert smin < 1e-6 * bs.norm()
