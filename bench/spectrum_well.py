"""spectrum_well: certified discrete spectra of one-dimensional square wells.

Each operation is the README pipeline for one well (N = 512, L = 32):
`sample_potential`, `hamiltonian_matrix`, `eigenvalues_dense`,
`filter_discrete`, then `assemble_bs` and the smallest singular value of
I - BS for every kept point.  The dense eigensolve dominates, including the
`spectral_norm(H)` that sets its clustering tolerance.  `randomize` and
`extension` are never called, so an assembly change should read no change
here while a norm change should.  Depths and phases come from the seed;
wells alternate between real and dissipative couplings, which differ in
cost, and each campaign pass draws new wells.
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace

import numpy as np

from evbounds import GridSpec, PotentialSpec, sample_potential
from evbounds.birman_schwinger import assemble_bs
from evbounds.spectra import (
    SpectrumFilter,
    eigenvalues_dense,
    filter_discrete,
    hamiltonian_matrix,
)

import reference as ref

# One real and one dissipative well per pass, so every pass costs alike;
# short passes keep the pass medians robust.
WELLS = 2
MIN_PASSES = {"campaign": 4, "resume": 4}
OPS = {"campaign": 1, "resume": 1}  # every call is one operation
DEPTHS = (1.5, 4.0)
# Dissipative phases stay within (0, 90] degrees, where every well keeps a
# discrete point in the kappa = 1 sector.
PHASES_DEG = (30.0, 90.0)
HOOKS = (("evbounds.util", "spectral_norm", "util.spectral_norm"),)


def _wells(seed: int, group: int) -> list:
    rng = np.random.default_rng([seed, group])
    depths = rng.uniform(*DEPTHS, WELLS)
    phases = np.where(np.arange(WELLS) % 2 == 1, rng.uniform(*PHASES_DEG, WELLS), 0.0)
    return [
        PotentialSpec(kind="indicator_ball", amplitude=a * np.exp(1j * np.deg2rad(p)), R=1.0)
        for a, p in zip(depths, phases)
    ]


def setup(seed: int, rec, scratch):
    gs = GridSpec(d=1, L=32.0, N=512)
    filt = SpectrumFilter(band=(0.0, np.inf), essential_margin=2 * (2 * np.pi / gs.L) ** 2, kappa=1.0)
    return SimpleNamespace(seed=seed, specs=[_wells(seed, 0)], gs=gs, filt=filt)


def warm_up(state):
    eigenvalues_dense(hamiltonian_matrix(state.gs, sample_potential(state.specs[0][0], state.gs)))


def run_pass(state, rec, index: int):
    """Campaign passes take the next WELLS wells; each resume reruns them."""
    group, rerun = divmod(index, 2)
    if group == len(state.specs):
        state.specs.append(_wells(state.seed, group))
    out = []
    gs = state.gs
    for spec in state.specs[group]:
        t = perf_counter()
        with rec.span("bench.op"):
            with rec.span("potential.sample_potential"):
                field = sample_potential(spec, gs)
            with rec.span("spectra.hamiltonian_matrix"):
                hmat = hamiltonian_matrix(gs, field)
            with rec.span("spectra.eigenvalues_dense"):
                points = eigenvalues_dense(hmat)
            with rec.span("spectra.filter_discrete"):
                kept = filter_discrete(points, state.filt)
            certs = []
            for pt in kept:
                with rec.span("birman_schwinger.assemble_bs"):
                    bs = assemble_bs(gs, field, pt.z)
                with rec.span("birman_schwinger.certify"):
                    smin = np.linalg.svd(np.eye(bs.dim) - bs.matrix, compute_uv=False)[-1]
                certs.append((bs.dim, float(smin)))
        seconds = perf_counter() - t
        # Summaries only, taken outside the timing: holding every spectrum
        # would make peak memory grow with the operations a run completes.
        res = SimpleNamespace(
            spec=spec,
            kept=kept,
            certs=certs,
            scale=float(np.abs(hmat).sum(axis=0).max()),  # ||H||_1
            n_points=len(points),
            max_residual=max(pt.residual for pt in points),
            max_multiplicity=max(pt.multiplicity for pt in points),
        )
        out.append((seconds, res))
    return ("resume" if rerun else "campaign"), out


def check(state, ops, cache):
    failed, notes = 0, []
    dx = state.gs.dx
    for _, res in ops:
        spec = res.spec
        why = []
        if not res.kept:
            why.append("no discrete point kept")
        worst_res = max((pt.residual for pt in res.kept), default=0.0)
        if worst_res > ref.RESIDUAL_RTOL * res.scale:
            why.append(f"residual {worst_res:.2e} > {ref.RESIDUAL_RTOL:g} ||H||_1")
        smax = max((s for _, s in res.certs), default=0.0)
        if smax > ref.SMIN_TOL:
            why.append(f"BS smin {smax:.2e} > {ref.SMIN_TOL:g}")
        amp = complex(spec.amplitude)
        if amp.imag == 0.0 and res.kept:
            want = ref.continuum_ground_state(spec.R + dx / 2, amp.real)
            lowest = min(complex(pt.z).real for pt in res.kept)
            err = ref.rel_err(lowest, want)
            if err > ref.WELL_RTOL:
                why.append(f"lowest level {lowest!r} off the widened-well root by {err:.2e}")
        if why:
            failed += 1
            notes.append(f"well amplitude {amp:.4g}: " + "; ".join(why))
    return failed, notes


def counts(state, ops, cache) -> dict:
    results = [res for _, res in ops]
    n_points = [r.n_points for r in results]
    kept = sum(len(r.kept) for r in results)
    certs = [c for r in results for c in r.certs]
    return {
        "spectra.points": float(np.median(n_points)),
        "spectra.kept_ratio": kept / sum(n_points),
        "spectra.max_residual": max(r.max_residual for r in results),
        "spectra.max_multiplicity": max(r.max_multiplicity for r in results),
        "birman_schwinger.bs_dim": float(np.median([dim for dim, _ in certs])),
        "birman_schwinger.smin_max": max(s for _, s in certs),
    }
