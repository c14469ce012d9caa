"""mc_r64: randomized sandwich norms at R = 64, one realization per operation.

Each operation is one step of the `ext_norm_samples` loop: `draw_omega`,
`SandwichEnsemble.with_omega`, `spectral_norm` (lambda = 1, h = 1,
bernoulli, L = 4R, dx = 0.25, so N = 1024 and 403 net nodes).  Sandwich
assembly is most of a realization and this is the largest working set of
the benchmark; the dense eigensolver does no work here.  The seed is the
master seed.  Realizations differ in cost (the power iteration needs 100 to
500 steps), so each campaign pass draws new indices.
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace

import numpy as np

from evbounds import (
    GridSpec,
    OmegaSpec,
    PotentialSpec,
    SandwichEnsemble,
    anderson_randomize,
    build_net,
    draw_omega,
    sample_potential,
)
from evbounds.util import spectral_norm

import reference as ref

R, LAM, H, DX, D = 64.0, 1.0, 1.0, 0.25, 2
# Short passes, many of them: a pass median then shrugs off a burst of
# contention from outside the process.
REALIZATIONS = 4
MIN_PASSES = {"campaign": 4, "resume": 4}
OPS = {"campaign": 1, "resume": 1}  # every call is one operation
ENTRIES = 16
HOOKS = ()  # every layer is called from here, so spans go around the calls


def setup(seed: int, rec, scratch):
    template = OmegaSpec(h=H, distribution="bernoulli", master_seed=seed)
    gs = GridSpec(d=D, L=4 * R, N=int(round(4 * R / DX)))
    with rec.span("potential.sample_potential"):
        field = sample_potential(PotentialSpec(kind="indicator_ball", R=R), gs)
    with rec.span("extension.build_net"):
        net = build_net(LAM, R, D)
    with rec.span("extension.ensemble_build"):
        ensemble = SandwichEnsemble(net, net, field, H)
    return SimpleNamespace(
        seed=seed, template=template, gs=gs, field=field, net=net, ensemble=ensemble, refs={}, prov=None
    )


def _omega(state, idx):
    return draw_omega(state.template.with_realization(idx), state.gs)


def warm_up(state):
    spectral_norm(state.ensemble.with_omega(_omega(state, 0)).matrix)


def run_pass(state, rec, index: int):
    """Campaign passes take the next REALIZATIONS indices; each resume reruns them."""
    group, rerun = divmod(index, 2)
    out = []
    for idx in range(group * REALIZATIONS, (group + 1) * REALIZATIONS):
        t = perf_counter()
        with rec.span("bench.op"):
            with rec.span("randomize.draw_omega"):
                omega = _omega(state, idx)
            with rec.span("extension.with_omega"):
                op = state.ensemble.with_omega(omega)
            with rec.span("util.spectral_norm"):
                norm = spectral_norm(op.matrix)
        out.append((perf_counter() - t, (idx, norm)))
        if idx not in state.refs:
            _keep_reference(state, idx, op)
    return ("resume" if rerun else "campaign"), out


def _keep_reference(state, idx, op):
    """Exact norm, sampled entries and one product M x of a realization's first assembly.

    Taken between operations, outside their timing, so that no assembled
    matrix outlives its operation: holding them would make peak memory grow
    with the number of operations a run completes.
    """
    rng = np.random.default_rng([state.seed, 64, idx])
    x = ref.random_vector(op.matrix.shape[1], rng)
    state.refs[idx] = (ref.exact_norm(op.matrix), ref.sample_entries(op.matrix, rng, ENTRIES), x, op.matrix @ x)
    state.prov = op.potential_ref


def check(state, ops, cache):
    """Each norm against the LAPACK SVD of its assembled matrix.

    That matrix is checked in turn against node-level sums over the
    `anderson_randomize`d field: every row through one product M x with a
    random x, and sampled entries one by one.  Rebuilding the whole
    node-level `sandwich` instead costs 8 s per realization at R = 64.
    """
    failed, notes = 0, []
    idxs = sorted(state.refs)
    entry_dev, at_support = [], []
    for idx in idxs:
        randomized = anderson_randomize(state.field, _omega(state, idx))
        entry_dev.append(ref.entry_deviation(state.refs[idx][1], randomized, state.net))
        at_support.append(ref.at_support(state.field, randomized))
    xs, products = ([state.refs[idx][k] for idx in idxs] for k in (2, 3))
    row_dev = ref.matvec_deviations(state.field, at_support, state.net, xs, products)
    exact = {}
    for idx, e_dev, r_dev in zip(idxs, entry_dev, row_dev):
        ok = e_dev <= ref.ENTRY_TOL and r_dev <= ref.ENTRY_TOL
        exact[idx] = state.refs[idx][0] if ok else float("nan")
        if not ok:
            notes.append(f"realization {idx}: entry deviation {e_dev:.2e}, M x deviation {r_dev:.2e} > {ref.ENTRY_TOL:g}")
    notes.append(f"worst sampled entry deviation: {max(entry_dev):.2e} of the entry bound")
    notes.append(f"worst M x row deviation: {max(row_dev):.2e} of its rounding scale")
    errs = [ref.rel_err(norm, exact[idx]) for _, (idx, norm) in ops]
    for (_, (idx, norm)), err in zip(ops, errs):
        if not err <= ref.NORM_RTOL:
            failed += 1
            notes.append(f"realization {idx}: norm {norm!r} off the exact norm by {err:.2e}")
    notes.append(f"worst norm error against the LAPACK SVD: {max(errs):.2e}")
    return failed, notes


def extension_counts(field, net, provenance, h: float) -> dict:
    """Work counts of one assembly, from its inputs and the operator's provenance."""
    d = field.grid.d
    per_cell = int(round(h / field.grid.dx)) ** d
    uniform, mixed = provenance["uniform_cells"], provenance["mixed_cells"]
    support = int(np.count_nonzero(field.values))
    n = net.n_nodes
    return {
        "extension.net_nodes": n,
        "extension.uniform_cells": uniform,
        "extension.mixed_cells": mixed,
        # Nonzero nodes in mixed cells over the r^d rows each mixed cell feeds
        # the product; a uniform cell holds r^d nonzero nodes.
        "extension.mixed_row_useful_ratio": (support - per_cell * uniform) / (per_cell * mixed),
        # Computed, not measured: 8 flops per complex multiply-add of the two
        # n x rows x n products (uniform-cell corners, mixed-cell nodes).
        "extension.assembly_gflop": 8.0 * n * n * (uniform + per_cell * mixed) / 1e9,
    }


def counts(state, ops, cache) -> dict:
    return extension_counts(state.field, state.net, state.prov, H)
