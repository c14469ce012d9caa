"""cli_campaign: `evbounds campaign` in-process, fresh and then resumed.

The config has the shape of demos/configs/scaling_campaign.json
(PROP_EXTNORM, R = 8/16/32, lambda = 1, h = 1, bernoulli) with the seed as
master seed, and runs with `--workers 2` as the README shows.  A cycle is
one campaign pass, the command run into an empty directory, and one resume
pass, the same command again with every row on disk, which recomputes
only the node-level deterministic reference and the summary.  This is the
only workload with threads, CSV writes and reads, and config hashing.

Every command is checked.  The operation of `op_ms_p50` and `ops_per_s` is
one realization of a fresh run: a campaign command's time over the 3 *
N_SAMPLES realizations it computes.  Resume commands count in `resume_s`
only, so a change to the fresh campaign (threads, assembly, norm) shows in
the operation metrics undiluted.

The campaign takes N_SAMPLES = 20 realizations per radius, not the demo's
100: with 2 worker threads over 2-thread BLAS a fresh run varies by 10-30%
from run to run, so campaign_s is a median of at least three fresh runs,
and the three cycles that takes (about 19 s) fit in a 20 s run.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
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
    cli,
    draw_omega,
    sample_potential,
    sandwich,
)

import reference as ref
from mc_r64 import extension_counts

R_LIST = (8.0, 16.0, 32.0)
N_SAMPLES = 20
WORKERS = 2
CYCLE = ("campaign", "resume")
MIN_PASSES = {"campaign": 3, "resume": 3}
# Operations one command completes, by pass kind: a fresh run computes every
# realization; a resume computes none.
OPS = {"campaign": len(R_LIST) * N_SAMPLES}
ENTRIES = 4
# Campaigns run on L = 4R at dx = 0.25 whatever the config's grid says.
DX = 0.25
HOOKS = (
    ("evbounds.cli", "load_config", "config.load_config"),
    ("evbounds.cli", "ext_norm_samples", "harness.ext_norm_samples"),
    ("evbounds.cli", "deterministic_ext_norm", "harness.deterministic_ext_norm"),
    ("evbounds.harness", "sample_potential", "potential.sample_potential"),
    ("evbounds.harness", "build_net", "extension.build_net"),
    ("evbounds.harness", "SandwichEnsemble", "extension.ensemble_build"),
    ("evbounds.harness", "draw_omega", "randomize.draw_omega"),
    ("evbounds.harness", "spectral_norm", "util.spectral_norm"),
    ("evbounds.harness", "sandwich", "extension.sandwich"),
    ("evbounds.extension", "SandwichEnsemble.with_omega", "extension.with_omega"),
)


def _config(seed: int, out_dir: Path, n_samples: int = N_SAMPLES) -> dict:
    return {
        "grid": {"d": 2, "L": 32.0, "N": 128},
        "potential": {"kind": "indicator_ball", "amplitude": [1.0, 0.0], "R": 8.0},
        "omega": {"h": 1.0, "distribution": "bernoulli", "master_seed": seed},
        "experiment": {"name": "PROP_EXTNORM", "R_list": list(R_LIST), "n_samples": n_samples, "lam": 1.0},
        "out_dir": str(out_dir),
    }


def setup(seed: int, rec, scratch):
    return SimpleNamespace(seed=seed, scratch=scratch, config=None, out=None, cycle=-1)


def _snapshot(out: Path) -> dict:
    return {
        str(p.relative_to(out)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _write_config(seed: int, work: Path, n_samples: int = N_SAMPLES) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(_config(seed, work / "out", n_samples)), encoding="utf-8")
    return path


def _campaign(config: Path) -> int:
    return cli.main(["campaign", "--config", str(config), "--workers", str(WORKERS)])


def warm_up(state):
    """A small campaign of the same shape: every code path, a few samples."""
    work = Path(tempfile.mkdtemp(prefix="warm_up-", dir=state.scratch))
    with redirect_stdout(io.StringIO()):
        _campaign(_write_config(state.seed, work, n_samples=4))


def run_pass(state, rec, index: int):
    kind = CYCLE[index % len(CYCLE)]
    if kind == "campaign":
        work = Path(tempfile.mkdtemp(prefix="cli_campaign-", dir=state.scratch))
        state.config, state.out = _write_config(state.seed, work), work / "out"
        state.cycle += 1
    with redirect_stdout(io.StringIO()):
        t = perf_counter()
        with rec.span("cli.main"):
            code = _campaign(state.config)
        seconds = perf_counter() - t
    res = SimpleNamespace(kind=kind, cycle=state.cycle, code=code, files=_snapshot(state.out))
    return kind, [(seconds, res)]


def references(seed: int, cache) -> dict:
    """Exact norms of every realization and of the deterministic sandwich.

    Each realization is reassembled through the library and checked against
    node-level sums over its randomized field, every row through one product
    M x with a random x and a few entries one by one; its norm is then the
    LAPACK SVD.  The deterministic reference is the SVD of the node-level
    sandwich of |V|.  Computed once per run.
    """
    if "norms" in cache:
        return cache
    rng = np.random.default_rng([seed, 32])
    norms, det, notes, worst, worst_row = {}, {}, [], 0.0, 0.0
    for R in R_LIST:
        gs = GridSpec(d=2, L=4 * R, N=int(round(4 * R / DX)))
        field = sample_potential(PotentialSpec(kind="indicator_ball", R=R), gs)
        net = build_net(1.0, R, 2)
        ensemble = SandwichEnsemble(net, net, field, 1.0)
        devs, at_support, xs, products = [], [], [], []
        for i in range(N_SAMPLES):
            omega = draw_omega(OmegaSpec(1.0, "bernoulli", seed, i), gs)
            op = ensemble.with_omega(omega)
            norms[R, i] = ref.exact_norm(op.matrix)
            randomized = anderson_randomize(field, omega)
            devs.append(ref.entry_deviation(ref.sample_entries(op.matrix, rng, ENTRIES), randomized, net))
            at_support.append(ref.at_support(field, randomized))
            xs.append(ref.random_vector(net.n_nodes, rng))
            products.append(op.matrix @ xs[-1])
        rows = ref.matvec_deviations(field, at_support, net, xs, products)
        worst, worst_row = max(worst, max(devs)), max(worst_row, rows.max())
        for i, (dev, row) in enumerate(zip(devs, rows)):
            if dev > ref.ENTRY_TOL or row > ref.ENTRY_TOL:
                norms[R, i] = float("nan")
                notes.append(f"R={R:g} realization {i}: entry deviation {dev:.2e}, M x deviation {row:.2e}")
        field.values = np.abs(field.values).astype(complex)
        det[R] = ref.exact_norm(sandwich(net, net, field).matrix)
    notes.append(f"worst sampled entry deviation: {worst:.2e} of the entry bound")
    notes.append(f"worst M x row deviation: {worst_row:.2e} of its rounding scale")
    cache.update(norms=norms, det=det, notes=notes, counts=extension_counts(field, net, op.potential_ref, 1.0))
    return cache


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _campaign_errors(files: dict, refs: dict) -> tuple[list[str], float]:
    """The fresh campaign's norm files and summary against the references.

    Returns the errors and the worst relative norm error among the rows.
    """
    errs, worst = [], 0.0
    for R in R_LIST:
        name = next((k for k in files if k.endswith(f"/norms_R{R:g}.csv")), None)
        if name is None:
            errs.append(f"no norms file for R={R:g}")
            continue
        got = {int(r["realization_index"]): float(r["norm"]) for r in _rows(files[name][0])}
        if sorted(got) != list(range(N_SAMPLES)):
            errs.append(f"R={R:g}: rows for realizations {sorted(got)}")
        for i in sorted(got.keys() & range(N_SAMPLES)):
            err = ref.rel_err(got[i], refs["norms"][R, i])
            if err <= ref.NORM_RTOL:
                worst = max(worst, err)
            else:
                errs.append(f"R={R:g} realization {i}: norm off the exact norm by {err:.2e}")
    summary = next((k for k in files if k.startswith("summary_")), None)
    if summary is None:
        return errs + ["no summary file"], worst
    for row in _rows(files[summary][0]):
        if row["kind"] != "R":
            continue
        R = float(row["R"])
        err = ref.rel_err(float(row["deterministic"]), refs["det"][R])
        if not err <= ref.NORM_RTOL:
            errs.append(f"R={R:g}: deterministic norm off the exact norm by {err:.2e}")
        mean = np.mean([refs["norms"][R, i] for i in range(N_SAMPLES)])
        if not ref.rel_err(float(row["mean"]), mean) <= ref.NORM_RTOL:
            errs.append(f"R={R:g}: summary mean {row['mean']} off the exact mean {mean!r}")
    return errs, worst


def check(state, ops, cache):
    refs = references(state.seed, cache)
    failed, notes, worst = 0, list(refs["notes"]), 0.0
    fresh = {}
    for _, res in ops:
        errs = [] if res.code == 0 else [f"exit code {res.code}"]
        if res.kind == "campaign":
            fresh[res.cycle] = res.files
            found, w = _campaign_errors(res.files, refs)
            errs += found
            worst = max(worst, w)
        elif {k: v[0] for k, v in res.files.items()} != {k: v[0] for k, v in fresh[res.cycle].items()}:
            errs.append("rerun did not rewrite byte-identical files")
        if errs:
            failed += 1
            notes += errs[:5]
    notes.append(f"worst norm error against the LAPACK SVD: {worst:.2e}")
    return failed, notes


def counts(state, ops, cache) -> dict:
    """Extension counts at R = 32; files and bytes written by a fresh run and one rerun."""
    fresh, rerun = ops[0][1].files, ops[1][1].files
    rewritten = [k for k, v in rerun.items() if fresh.get(k, (None, None))[1] != v[1]]
    written = list(fresh.values()) + [rerun[k] for k in rewritten]
    out = dict(references(state.seed, cache)["counts"])
    out["cli.files_written"] = len(written)
    out["cli.bytes_written"] = sum(len(data) for data, _ in written)
    return out
