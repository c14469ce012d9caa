"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload mc_r64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory and from nowhere else.  Each workload is a closed loop
with one client.  After set-up, passes over the workload's inputs follow
until the timed calls have taken `--seconds` and the workload's minimum
pass counts are met.  A campaign pass runs the inputs from scratch; a
resume pass reruns them where a campaign already ran (the library
workloads keep nothing, so their reruns recompute).  Every call's output
is then checked against an independent reference.

`--trace 0` prints the end-to-end metrics.  `--trace 1` first makes the
same untraced measurement, then a traced one that records spans around
each layer call; it prints the per-layer metrics and the tracing overhead
of every end-to-end metric.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Details (the
environment, sample counts, check notes, spans) go to
`.bench_out/<workload>-seed<seed>-trace<t>.json` in the checkout.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import spans
import stats

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("mc_r64", "cli_campaign", "spectrum_well")
SETUP_REPEATS = 7

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "campaign_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}
HIGHER_IS_BETTER = {"ops_per_s"}

# per-layer metric -> (span name, statistic); "ms" is the median call in ms,
# "busy_s" the summed time of every call.
SPAN_METRICS = {
    "potential.sample_potential.ms": ("potential.sample_potential", "ms"),
    "extension.build_net.ms": ("extension.build_net", "ms"),
    "extension.ensemble_build.ms": ("extension.ensemble_build", "ms"),
    "randomize.draw_omega.ms_p50": ("randomize.draw_omega", "ms"),
    "extension.with_omega.ms_p50": ("extension.with_omega", "ms"),
    "extension.with_omega.busy_s": ("extension.with_omega", "busy_s"),
    "util.spectral_norm.ms_p50": ("util.spectral_norm", "ms"),
    "util.spectral_norm.busy_s": ("util.spectral_norm", "busy_s"),
    "harness.ext_norm_samples.busy_s": ("harness.ext_norm_samples", "busy_s"),
    "harness.deterministic_ext_norm.ms": ("harness.deterministic_ext_norm", "ms"),
    "extension.sandwich.ms": ("extension.sandwich", "ms"),
    "config.load_config.ms": ("config.load_config", "ms"),
    "cli.main.ms": ("cli.main", "ms"),
    "spectra.hamiltonian_matrix.ms": ("spectra.hamiltonian_matrix", "ms"),
    "spectra.eigenvalues_dense.ms_p50": ("spectra.eigenvalues_dense", "ms"),
    "spectra.filter_discrete.ms": ("spectra.filter_discrete", "ms"),
    "birman_schwinger.assemble_bs.ms": ("birman_schwinger.assemble_bs", "ms"),
    "birman_schwinger.certify.ms": ("birman_schwinger.certify", "ms"),
}

# Counts the workloads compute from inputs and outputs; a workload that
# bypasses the layer reports 0.
COUNT_METRICS = {
    "extension.net_nodes": "count",
    "extension.uniform_cells": "count",
    "extension.mixed_cells": "count",
    "extension.mixed_row_useful_ratio": "ratio",
    "extension.assembly_gflop": "GFLOP",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "spectra.points": "count",
    "spectra.kept_ratio": "ratio",
    "spectra.max_residual": "1",
    "spectra.max_multiplicity": "count",
    "birman_schwinger.bs_dim": "count",
    "birman_schwinger.smin_max": "1",
}

LAYERS = (
    "potential",
    "randomize",
    "extension",
    "util",
    "spectra",
    "birman_schwinger",
    "harness",
    "config",
    "cli",
)


def per_layer_units() -> dict:
    units = {name: ("ms" if stat == "ms" else "s") for name, (_, stat) in SPAN_METRICS.items()}
    units["harness.thread_overlap"] = "ratio"
    units.update(COUNT_METRICS)
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"trace_overhead.{name}": "ratio" for name in END_TO_END})
    return units


@dataclass
class Measurement:
    setup_s: list  # seconds of each set-up repeat, import included
    calls: int  # timed calls, each checked
    op_s: list  # seconds per operation of each call that completes operations
    op_n: list  # operations that call completed
    campaign_s: list  # summed call seconds of each campaign pass
    resume_s: list  # the same for each rerun pass
    peak_rss_mb: float
    failed: int
    notes: list


_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
)


def import_seconds(module: str) -> float:
    """Time to import a workload, and so the program, in a fresh interpreter."""
    cmd = [sys.executable, "-c", _IMPORT_PROBE.format(module=module), str(ROOT / "src"), str(BENCH)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def measure(wl, seed: int, seconds: int, rec, scratch: Path, cache: dict):
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous set-up go before building the next
        imported = import_seconds(wl.__name__)
        t = perf_counter()
        state = wl.setup(seed, rec, scratch)
        setups.append(imported + perf_counter() - t)
    # One untimed operation first: a long campaign pays first-touch costs
    # (fresh heap pages, BLAS threads starting) once, not per operation.
    kept = len(rec.spans)
    wl.warm_up(state)
    del rec.spans[kept:]
    # The clock runs only inside calls, so a workload may keep what it needs
    # for its checks between them.
    ops = []
    op_s, op_n = [], []
    passes = {"campaign": [], "resume": []}
    while True:
        kind, done = wl.run_pass(state, rec, sum(map(len, passes.values())))
        passes[kind].append(sum(s for s, _ in done))
        ops += done
        if kind in wl.OPS:
            op_s += [s / wl.OPS[kind] for s, _ in done]
            op_n += [wl.OPS[kind]] * len(done)
        enough = all(len(passes[k]) >= n for k, n in wl.MIN_PASSES.items())
        if enough and sum(s for s, _ in ops) >= seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, notes = wl.check(state, ops, cache)
    m = Measurement(setups, len(ops), op_s, op_n, passes["campaign"], passes["resume"], peak, failed, notes)
    return m, state, ops


def end_to_end(m: Measurement) -> dict:
    return {
        "setup_s": statistics.median(m.setup_s),
        "op_ms_p50": 1e3 * statistics.median(m.op_s),
        "ops_per_s": sum(m.op_n) / sum(s * n for s, n in zip(m.op_s, m.op_n)),
        "campaign_s": statistics.median(m.campaign_s),
        "resume_s": statistics.median(m.resume_s),
        "peak_rss_mb": m.peak_rss_mb,
    }


def sample_counts(m: Measurement) -> dict:
    return {
        "setup_s": len(m.setup_s),
        "op_ms_p50": len(m.op_s),
        "ops_per_s": sum(m.op_n),
        "campaign_s": len(m.campaign_s),
        "resume_s": len(m.resume_s),
        "peak_rss_mb": 1,
    }


def install_hooks(hooks, rec) -> list:
    """Wrap the names callers look up; returns what to put back."""
    undo = []
    for module, dotted, span in hooks:
        owner = importlib.import_module(module)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        setattr(owner, attr, rec.wrap(span, original))
        undo.append((owner, attr, original))
    return undo


def layer_metrics(recorded) -> dict:
    out = {}
    for name, (span, stat) in SPAN_METRICS.items():
        d = spans.durations(recorded, span)
        if stat == "busy_s":
            out[name] = float(sum(d))
        else:
            out[name] = 1e3 * statistics.median(d) if d else 0.0
    out["harness.thread_overlap"] = spans.concurrency(recorded, "harness.ext_norm_samples")
    selfs = spans.self_times(recorded)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for mod in (numpy, scipy):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        b = deps.get("blas", {})
        blas[mod.__name__] = {
            "name": b.get("name"),
            "version": b.get("version"),
            "config": b.get("openblas configuration"),
        }
    thread_vars = (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "GOTO_NUM_THREADS",
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in thread_vars},
    }


def _fmt_line(name: str, value, unit: str, n=None) -> str:
    tail = f"  (n={n})" if n is not None else ""
    return f"  {name:<40} {value:>16.6g} {unit}{tail}"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "evbounds" / "__init__.py").is_file():
        print(f"bench: no evbounds sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = importlib.import_module(args.workload)
    import evbounds

    if not Path(evbounds.__file__).resolve().is_relative_to(src):
        print(f"bench: evbounds imported from {evbounds.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    cache: dict = {}
    try:
        plain, state, ops = measure(wl, args.seed, args.seconds, spans.NullRecorder(), scratch, cache)
        runs = [plain]
        e2e = end_to_end(plain)
        if args.trace:
            state = ops = None  # the traced run's peak memory should not hold the untraced run's
            rec = spans.Recorder()
            undo = install_hooks(wl.HOOKS, rec)
            try:
                traced, state, ops = measure(wl, args.seed, args.seconds, rec, scratch, cache)
            finally:
                for owner, attr, original in reversed(undo):
                    setattr(owner, attr, original)
            runs.append(traced)
            e2e_traced = end_to_end(traced)
            units = per_layer_units()
            values = dict.fromkeys(units, 0.0)
            values.update(layer_metrics(rec.spans))
            values.update(wl.counts(state, ops, cache))
            for name in END_TO_END:
                ratio = e2e_traced[name] / e2e[name]
                # Positive is a cost of tracing: slower, bigger, or fewer ops per second.
                values[f"trace_overhead.{name}"] = (1.0 / ratio if name in HIGHER_IS_BETTER else ratio) - 1.0
            if set(values) != set(units):
                raise RuntimeError(f"unexpected per-layer metrics: {set(values) ^ set(units)}")
        else:
            units, values = END_TO_END, e2e
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(m.calls for m in runs)
    failed = sum(m.failed for m in runs)
    env = environment()
    n = sample_counts(plain)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("end-to-end (untraced)")
    for name, unit in END_TO_END.items():
        print(_fmt_line(name, e2e[name], unit, n[name]))
    print(_fmt_line("fail_ratio", failed / attempted, "ratio", attempted))
    if not stats.supported(len(plain.op_s), 50):
        print(f"  note: fewer than {stats.MIN_BEYOND} samples beyond the median of op_ms_p50")
    if args.trace:
        print("per-layer (traced)")
        for name, unit in units.items():
            print(_fmt_line(name, values[name], unit))
    for note in dict.fromkeys(note for m in runs for note in m.notes):  # the runs share reference notes
        print(f"check: {note}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "end_to_end": e2e,
        "samples": n,
        "runs": [asdict(m) for m in runs],
        "metrics": values,
    }
    if args.trace:
        detail["spans"] = [asdict(s) for s in rec.spans]
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, default=str) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
