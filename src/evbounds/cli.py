"""Command-line surface: spectrum, verify, campaign, svd, net-info.

Every command loads one JSON config, stamps all outputs with its content
hash, and writes UTF-8 CSV/JSON only.  Reruns of an unchanged config
produce byte-identical files, each written whole or not at all (_write).
PROP_EXTNORM and TAIL campaigns resume from whatever realization indices
are already on disk; SCHATTEN_DECAY and EVSUM campaigns recompute on every
run.  DRIVERS maps every experiment name to its verify and campaign
drivers; an experiment without one has no such command.  Every command
and driver takes the config and the worker count of --workers; those that
draw randomized sandwiches use it, and no output depends on it.

A bad config exits 2 with "config error: <field>: <message>" and does no
work.  Every config value is converted, and every constructor, precondition
and checker argument check it reaches is run, under config.checked before
any solve, ensemble, sampler or output directory; a key set to null counts
as absent.  The reads at the top of each driver are the one list of the
keys it needs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, checked, integer, load_config, number
from .errors import ConfigError
from .harness import (
    TAIL_THRESHOLDS,
    campaign_grid,
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
    deterministic_ext_norm,  # not called here: bench/cli_campaign.py HOOKS wraps it by name
    evsum_sweep,
    ext_norm_samples,
    fit_scaling,
    schatten_campaign,
    schatten_exponent,
)
from .extension import build_net
from .potential import sample_potential
from .randomize import MIN_SAMPLES, OmegaField, anderson_randomize, draw_omega
from .spectra import (
    SpectrumFilter,
    check_dense_size,
    eigenvalues_dense,
    filter_discrete,
    hamiltonian_matrix,
)
from .util import one_blas_thread, one_blas_thread_setting

__all__ = ["main"]


def _fmt(x) -> str:
    """Shortest round-trip decimal form, for byte-stable CSV."""
    return repr(float(x))


_REQUIRED = object()


def _get(cfg: RunConfig, key: str, kind=number, default=_REQUIRED):
    """kind(experiment.<key>) under config.checked; default when the key is absent or null."""
    value = cfg.experiment.get(key)
    if value is not None:
        return checked(f"experiment.{key}", kind, value)
    if default is _REQUIRED:
        raise ConfigError(f"experiment.{key}: required for experiment {cfg.experiment['name']}")
    return default


def _numbers(values) -> list[float]:
    """A non-empty JSON list of numbers, as floats."""
    if not isinstance(values, list) or not values:
        raise ValueError(f"expected a non-empty list of numbers, got {values!r}")
    return [number(v) for v in values]


def _tail_thresholds(values) -> list[float]:
    """At least two increasing positive finite numbers: check_tail compares the first and last."""
    ms = _numbers(values)
    if len(ms) < 2 or not all(0 < a < b < np.inf for a, b in zip(ms, ms[1:])):
        raise ValueError(f"expected 2 or more strictly increasing positive numbers, got {values!r}")
    return ms


def _floats(cfg: RunConfig, *keys) -> list[float]:
    return [_get(cfg, k) for k in keys]


def _lam(cfg: RunConfig) -> float:
    return _get(cfg, "lam", number, 1.0)


def _omega(cfg: RunConfig):
    if cfg.omega is None:
        raise ConfigError(f"omega: required for {cfg.experiment['name']}")
    return cfg.omega


def _radii(cfg: RunConfig, key: str, campaign: bool = True) -> list[float]:
    """experiment.R_list, or [experiment.R] (default potential.R) for key "R".

    Each radius is checked before any work: its 6 significant digits {R:g},
    which name its norms file, against every other radius's, its sphere net
    at experiment.lam and, for a campaign, its L = 4R grid at the config's
    dx and the omega's cells on that box.  Outside a campaign R_list
    defaults to [potential.R].
    """
    if key == "R_list":
        radii = _get(cfg, key, _numbers, _REQUIRED if campaign else [cfg.potential.R])
    else:
        radii = [_get(cfg, key, number, cfg.potential.R)]
    lam, d, dx = _lam(cfg), cfg.grid.d, cfg.grid.dx
    for i, R in enumerate(radii):
        twin = next((r for r in radii[:i] if f"{r:g}" == f"{R:g}"), None)
        if twin is not None:
            raise ConfigError(f"experiment.{key}: R = {twin!r} and R = {R!r} are both R = {R:g}")
        checked(f"experiment.{key}: R = {R:g}", build_net, lam, R, d)
        if campaign:
            grid = checked(f"experiment.{key}: R = {R:g} at dx = {dx:g}", campaign_grid, R, d, dx)
            checked(f"omega.h: R = {R:g}", OmegaField.constant, _omega(cfg), grid)
    return radii


def _n_samples(cfg: RunConfig, default: int, minimum: int = 1) -> int:
    """experiment.n_samples (default when absent), checked against minimum before any work."""
    n = _get(cfg, "n_samples", integer, default)
    if n < minimum:
        name = cfg.experiment["name"]
        raise ConfigError(f"experiment.n_samples: {name} needs at least {minimum}, got {n}")
    return n


def _cell_size(cfg: RunConfig) -> float:
    """experiment.h, by default the omega's cell size; required without an omega section."""
    return _get(cfg, "h", number, _REQUIRED if cfg.omega is None else cfg.omega.h)


def _spectrum_filter(cfg: RunConfig) -> SpectrumFilter:
    """Window from experiment.band, else from R0 and h, else all of [0, inf)."""
    margin = _get(cfg, "essential_margin", number, SpectrumFilter.default_margin(cfg.grid))
    kappa = _get(cfg, "kappa_filter", number, None)
    band = _get(cfg, "band", _numbers, None)
    if band is None and cfg.experiment.get("R0") is not None:
        scales = _get(cfg, "R0"), _cell_size(cfg)
        return checked("experiment", SpectrumFilter.from_scales, *scales, margin, kappa)
    return checked("experiment", SpectrumFilter, tuple(band or (0.0, np.inf)), margin, kappa)


def _sampled(cfg: RunConfig, spec=None):
    """(V, omega) on the config grid, both under config.checked.

    V samples spec, by default the config's potential; omega is the
    config's omega drawn, or None without one.
    """
    field = checked("potential", sample_potential, spec or cfg.potential, cfg.grid)
    if cfg.omega is None:
        return field, None
    return field, checked("omega", draw_omega, cfg.omega, cfg.grid)


def _ensure_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    """Write text to path as UTF-8, whole or not at all: into <name>.tmp, renamed over path."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_lines(path: Path, header: str, lines) -> str:
    """Write a UTF-8 CSV of a header and rows already formatted; returns the file name."""
    _write(path, "".join(line + "\n" for line in (header, *lines)))
    return path.name


def _write_manifest(out: Path, cfg: RunConfig, outputs: list[str], extra: dict | None = None):
    manifest = {
        "config_hash": cfg.config_hash(),
        "config": cfg.to_dict(),
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    path = out / f"manifest_{cfg.config_hash()}.json"
    _write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def cmd_spectrum(cfg: RunConfig, workers: int) -> int:
    kept = _spectral(cfg, lambda points, field: points)
    out = _ensure_dir(cfg)
    tag = cfg.config_hash()
    om = cfg.omega
    seed, ridx = (om.master_seed, om.realization_index) if om is not None else ("", "")
    csv_path = out / f"spectrum_{tag}.csv"
    rows = (
        f"{_fmt(pt.z.real)},{_fmt(pt.z.imag)},{pt.multiplicity},{_fmt(pt.residual)},{seed},{ridx}"
        for pt in kept
    )
    _write_lines(csv_path, "re_z,im_z,multiplicity,residual,seed,realization_index", rows)
    _write_manifest(out, cfg, [csv_path.name], {"n_filtered": len(kept)})
    print(f"wrote {csv_path} ({len(kept)} points)")
    return 0


# Verify drivers: each returns the BoundReport of its experiment.  The
# spectral ones are the lambdas in DRIVERS.


def _spectral(cfg: RunConfig, check, *args, deterministic: bool = False):
    """check(kept points, field, *args) after sample -> randomize -> eigensolve -> filter.

    The field is the randomized one, or with deterministic=True the sampled
    V.  The filter, the dense size and the sampled fields are checked before
    the solve, and so are check's own argument checks, run on its vacuous
    case: no points.
    """
    filt = _spectrum_filter(cfg)
    checked("grid", check_dense_size, cfg.grid.node_count)
    field_det, omega = _sampled(cfg)
    field = field_det if omega is None else anderson_randomize(field_det, omega)
    reported = field_det if deterministic else field
    checked("experiment", check, [], reported, *args)
    points = eigenvalues_dense(hamiltonian_matrix(cfg.grid, field))
    return check(filter_discrete(points, filt), reported, *args)


def _nu(cfg: RunConfig) -> float:
    """experiment.nu of SCHATTEN_DECAY, checked with grid.d before any work."""
    nu = _get(cfg, "nu")
    checked("grid.d" if cfg.grid.d != 2 else "experiment.nu", schatten_exponent, nu, cfg.grid.d)
    return nu


def _verify_extnorm(cfg: RunConfig, workers: int):
    # Every radius is checked; only the largest, the one reported, is computed.
    omega, R = _omega(cfg), max(_radii(cfg, "R_list"))
    n = _n_samples(cfg, 200, MIN_SAMPLES)
    d, dx = cfg.grid.d, cfg.grid.dx
    norms = ext_norm_samples(
        cfg.potential, omega, _lam(cfg), R, range(n), d=d, dx=dx, workers=workers
    )
    field = sample_potential(dataclasses.replace(cfg.potential, R=R), campaign_grid(R, d, dx))
    return check_extnorm(norms, R, omega.h, float(np.abs(field.values).max()), d=d)


def _verify_schatten(cfg: RunConfig, workers: int):
    nu, (R,), h = _nu(cfg), _radii(cfg, "R", campaign=False), _cell_size(cfg)
    indices = () if cfg.omega is None else [cfg.omega.realization_index]
    field, _ = _sampled(cfg, dataclasses.replace(cfg.potential, R=R))
    (svals,) = config_sandwiches(field, _lam(cfg), R, cfg.omega, indices, workers)
    params = {"lam": _lam(cfg), "R": R, "h": h, "v_inf": float(np.abs(field.values).max())}
    return check_schatten_decay(svals, nu, cfg.grid.d, params)


def _verify_tail(cfg: RunConfig, workers: int):
    omega, (R,) = _omega(cfg), _radii(cfg, "R")
    n = _n_samples(cfg, 200, MIN_SAMPLES)
    thresholds = _get(cfg, "thresholds", _tail_thresholds, TAIL_THRESHOLDS)
    norms = ext_norm_samples(
        cfg.potential, omega, _lam(cfg), R, range(n), d=cfg.grid.d, dx=cfg.grid.dx, workers=workers
    )
    return check_tail(concentration_tail(norms, thresholds=thresholds))


def cmd_verify(cfg: RunConfig, workers: int) -> int:
    report = _driver(cfg, "verify")(cfg, workers)
    out = _ensure_dir(cfg)
    tag = cfg.config_hash()
    payload = dataclasses.asdict(report)
    payload["passed"] = report.passed
    payload["config_hash"] = tag
    path = out / f"report_{tag}.json"
    _write(path, json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    status = "PASS" if report.passed else "FAIL"
    if report.vacuous:
        status += " (vacuous)"
    print(
        f"{report.bound_id}: {status}  lhs={report.lhs:.6g} "
        f"rhs={report.fitted_constant:.3g}*{report.rhs_raw:.6g} margin={report.margin:.4g}"
    )
    print(f"wrote {path}")
    return 0 if report.passed else 1


_NORMS_HEADER = "realization_index,norm"
_REFERENCE_HEADER = "row,deterministic"


def _read_norms(
    path: Path, header: str = _NORMS_HEADER, rows: int | None = None
) -> dict[int, float]:
    """Stored norms by index under header; {} when the file does not exist.

    A file _write_norms did not leave whole (wrong header, no final newline,
    a row that is not one index idx >= 0 spelled str(idx) and one finite
    value spelled _fmt(value), or an index seen twice) raises ConfigError
    naming it and the line, so a campaign never resumes from a cut or
    corrupted row.  With rows given, the file must hold exactly the
    indices below rows.
    """
    if not path.exists():
        return {}
    key, name = header.split(",")
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != header:
        raise ConfigError(f"{path}: header is not {header!r}")
    if lines[-1] != "":
        raise ConfigError(f"{path}: no final newline, the last row was cut")
    have: dict[int, float] = {}
    for lineno, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        try:
            if len(fields) != 2:
                raise ValueError(f"{len(fields)} fields")
            idx, val = int(fields[0]), float(fields[1])
            if idx < 0 or fields[0] != str(idx):
                raise ValueError(f"{key} {fields[0]!r} is not a plain nonnegative integer")
            if fields[1] != _fmt(val):
                raise ValueError(f"{name} {fields[1]!r} is not written as {_fmt(val)!r}")
        except ValueError as err:
            raise ConfigError(f"{path}, line {lineno}: malformed row {line!r} ({err})") from None
        if not np.isfinite(val):
            raise ConfigError(f"{path}, line {lineno}: {name} {val} is not finite")
        if idx in have:
            raise ConfigError(f"{path}, line {lineno}: {key} {idx} appears twice")
        if rows is not None and idx >= rows:
            raise ConfigError(f"{path}, line {lineno}: {key} {idx} is not below {rows}")
        have[idx] = val
    if rows is not None and len(have) < rows:
        absent = min(set(range(rows)) - have.keys())
        raise ConfigError(f"{path}, line {len(lines)}: no row for {key} {absent}")
    return have


def _write_norms(path: Path, norms: dict[int, float], header: str = _NORMS_HEADER):
    _write_lines(path, header, [f"{idx},{_fmt(norms[idx])}" for idx in sorted(norms)])


def _collect_norms(cfg: RunConfig, R: float, n: int, workers: int, reference: bool = False):
    """Norms of realizations 0..n-1 at one R and, with reference=True, the |V| reference there.

    Both are kept in campaign_<hash>/ under the output directory: the
    norms in norms_R<R>.csv, the reference deterministic_ext_norm in
    reference_R<R>.csv as its one row 0.  Both files are read before any
    work, and only what they lack is computed, in one campaign_norms call
    on workers processes, so a resume that finds everything builds no
    ensemble.  Returns the norms array and the reference, None without
    reference=True.
    """
    directory = _ensure_dir(cfg) / f"campaign_{cfg.config_hash()}"
    directory.mkdir(exist_ok=True)
    norms_path = directory / f"norms_R{R:g}.csv"
    reference_path = directory / f"reference_R{R:g}.csv"
    have = _read_norms(norms_path)
    stored = _read_norms(reference_path, _REFERENCE_HEADER, rows=1) if reference else {}
    missing = [i for i in range(n) if i not in have]
    wanted = reference and not stored
    if missing or wanted:
        vals, det = campaign_norms(
            cfg.potential, cfg.omega, _lam(cfg), R, missing,
            d=cfg.grid.d, dx=cfg.grid.dx, reference=wanted, workers=workers,
        )
        if missing:
            have.update(zip(missing, map(float, vals)))
            _write_norms(norms_path, have)
        if wanted:
            stored = {0: det}
            _write_norms(reference_path, stored, _REFERENCE_HEADER)
    return np.array([have[i] for i in range(n)]), stored.get(0)


# Campaign drivers: each writes its CSVs and manifest and returns the exit code.
# The manifests of campaigns that draw randomized sandwiches record the BLAS
# setting the draws ran on (harness._draw_norms), the same for every worker count.


def _campaign_tail(cfg: RunConfig, workers: int) -> int:
    _omega(cfg)
    (R,) = _radii(cfg, "R")
    n = _n_samples(cfg, 2000, MIN_SAMPLES)
    thresholds = _get(cfg, "thresholds", _tail_thresholds, TAIL_THRESHOLDS)
    study = concentration_tail(_collect_norms(cfg, R, n, workers)[0], thresholds=thresholds)
    out, tag = _ensure_dir(cfg), cfg.config_hash()
    name = _write_lines(
        out / f"tail_{tag}.csv",
        "threshold,fraction,wilson_lower,wilson_upper",
        (
            f"{_fmt(m)},{_fmt(e.fraction)},{_fmt(e.lower)},{_fmt(e.upper)}"
            for m, e in zip(study.thresholds, study.entries)
        ),
    )
    extra = {"c": _nan_none(study.c), "monotone": study.monotone}
    _write_manifest(out, cfg, [name], {**extra, "draw_blas": one_blas_thread_setting()})
    print(f"tail fractions {[e.fraction for e in study.entries]}, c={study.c:.4g}")
    return 0


def _campaign_extnorm(cfg: RunConfig, workers: int) -> int:
    _omega(cfg)
    r_list = _radii(cfg, "R_list")
    n = _n_samples(cfg, 200)
    rows = []
    # One block over every radius: the thread count is put back once, after the last fork.
    with one_blas_thread():
        for R in r_list:
            arr, det = _collect_norms(cfg, R, n, workers, reference=True)
            stderr = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            rows.append((R, float(arr.mean()), stderr, det))
    summary = [f"R,{_fmt(R)},{n},{_fmt(m)},{_fmt(se)},{_fmt(det)},," for R, m, se, det in rows]
    if len(rows) >= 3:
        xs = [r[0] for r in rows]
        for kind, col in (("random", 1), ("deterministic", 3)):
            slope, _, r2 = fit_scaling(xs, [r[col] for r in rows])
            summary.append(f"slope_{kind},,,,,,{_fmt(slope)},{_fmt(r2)}")
    out, tag = _ensure_dir(cfg), cfg.config_hash()
    outputs = [
        _write_lines(
            out / f"summary_{tag}.csv", "kind,R,n,mean,stderr,deterministic,exponent,r2", summary
        ),
        _write_lines(
            out / f"plot_{tag}.csv",
            "x,y,stderr",
            (f"{_fmt(R)},{_fmt(mean)},{_fmt(se)}" for R, mean, se, _ in rows),
        ),
    ]
    _write_manifest(out, cfg, outputs, {"draw_blas": one_blas_thread_setting()})
    print(f"wrote {out / outputs[0]}")
    return 0


def _campaign_schatten(cfg: RunConfig, workers: int) -> int:
    nu, omega, r_list = _nu(cfg), _omega(cfg), _radii(cfg, "R_list")
    n, lam, d, dx = _n_samples(cfg, 100), _lam(cfg), cfg.grid.d, cfg.grid.dx
    res = schatten_campaign(cfg.potential, lam, r_list, nu, omega, n, d=d, dx=dx, workers=workers)
    out = _ensure_dir(cfg)
    path = out / f"schatten_{cfg.config_hash()}.csv"
    _write_lines(
        path,
        "R,median_lhs,rhs_raw,ratio,n_nodes",
        (
            f"{_fmt(R)},{_fmt(res[R]['median_lhs'])},{_fmt(res[R]['rhs_raw'])},"
            f"{_fmt(res[R]['ratio'])},{res[R]['n_nodes']}"
            for R in r_list
        ),
    )
    _write_manifest(out, cfg, [path.name], {"draw_blas": one_blas_thread_setting()})
    print(f"wrote {path}")
    return 0


def _campaign_evsum(cfg: RunConfig, workers: int) -> int:
    amplitudes = _get(cfg, "amplitudes", _numbers)
    args = (*_floats(cfg, "eps", "R0"), _cell_size(cfg))
    filt = _spectrum_filter(cfg)
    checked("grid", check_dense_size, cfg.grid.node_count)
    checked("experiment", check_evsum, [], _sampled(cfg)[0], *args)
    study = evsum_sweep(amplitudes, cfg.potential, cfg.grid, *args, filt, omega_spec=cfg.omega)
    out = _ensure_dir(cfg)
    name = _write_lines(
        out / f"evsum_{cfg.config_hash()}.csv",
        "amplitude,lhs,rhs_raw",
        (f"{_fmt(a)},{_fmt(r.lhs)},{_fmt(r.rhs_raw)}" for a, r in zip(amplitudes, study.reports)),
    )
    extra = {"c1": _nan_none(study.c1), "c2": _nan_none(study.c2), "r2": _nan_none(study.r_squared)}
    _write_manifest(out, cfg, [name], extra)
    print(f"c1={study.c1:.4g} c2={study.c2:.4g} r2={study.r_squared:.4g}")
    return 0


def _nan_none(x: float):
    return None if np.isnan(x) else float(x)


# The one table of experiments, name -> (verify driver, campaign driver);
# config.EXPERIMENTS lists the same names.
DRIVERS = {
    "AAD1D": (lambda cfg, workers: _spectral(cfg, check_aad_1d), None),
    "KLT_DET": (lambda cfg, workers: _spectral(cfg, check_klt_det, *_floats(cfg, "q")), None),
    "SECTOR": (
        lambda cfg, workers: _spectral(cfg, check_sector, *_floats(cfg, "q", "kappa")), None
    ),
    "THM1": (
        lambda cfg, workers: _spectral(
            cfg, check_thm1, _omega(cfg), *_floats(cfg, "q", "R", "M"), deterministic=True
        ),
        None,
    ),
    "THM3": (
        lambda cfg, workers: _spectral(cfg, check_thm3, _omega(cfg), *_floats(cfg, "q", "M")),
        None,
    ),
    "PROP_EXTNORM": (_verify_extnorm, _campaign_extnorm),
    "SCHATTEN_DECAY": (_verify_schatten, _campaign_schatten),
    "TAIL": (_verify_tail, _campaign_tail),
    "EVSUM": (
        lambda cfg, workers: _spectral(
            cfg, check_evsum, *_floats(cfg, "eps", "R0"), _cell_size(cfg)
        ),
        _campaign_evsum,
    ),
    "SPECTRUM": (None, None),
}


def _driver(cfg: RunConfig, command: str):
    """The DRIVERS entry of the config's experiment for command "verify" or "campaign"."""
    name = cfg.experiment["name"]
    driver = DRIVERS[name][("verify", "campaign").index(command)]
    if driver is None:
        raise ConfigError(f"experiment.name: {name} has no {command} driver")
    return driver


def cmd_campaign(cfg: RunConfig, workers: int) -> int:
    return _driver(cfg, "campaign")(cfg, workers)


def cmd_svd(cfg: RunConfig, workers: int) -> int:
    tag = cfg.config_hash()
    (R,) = _radii(cfg, "R", campaign=False)
    if cfg.omega is None:
        indices, names = (), [f"svals_{tag}_det.csv"]
    else:
        indices = range(_n_samples(cfg, 1))
        names = [f"svals_{tag}_r{i:04d}.csv" for i in indices]
    field, _ = _sampled(cfg, dataclasses.replace(cfg.potential, R=R))
    rows = config_sandwiches(field, _lam(cfg), R, cfg.omega, indices, workers)
    out = _ensure_dir(cfg)
    for name, svals in zip(names, rows):
        _write_lines(out / name, "index,value", (f"{i},{_fmt(s)}" for i, s in enumerate(svals, 1)))
    _write_manifest(out, cfg, names, {"draw_blas": one_blas_thread_setting()})
    print(f"wrote {len(names)} singular-value files to {out}")
    return 0


def cmd_net_info(cfg: RunConfig, workers: int) -> int:
    lam, r_list = _lam(cfg), _radii(cfg, "R_list", campaign=False)
    from scipy.spatial import cKDTree

    out = _ensure_dir(cfg)
    lines = []
    for R in r_list:
        net = build_net(lam, R, cfg.grid.d)
        dists, _ = cKDTree(net.nodes).query(net.nodes, k=2)
        nn = dists[:, 1]
        lines.append(
            f"{_fmt(R)},{net.n_nodes},{_fmt(net.spacing)},{_fmt(net.weights.sum())},"
            f"{_fmt(net.surface_measure())},{_fmt(nn.min())},{_fmt(nn.max())}"
        )
        print(
            f"R={R:g}: {net.n_nodes} nodes, spacing {net.spacing:.4g}, "
            f"nn in [{nn.min():.4g}, {nn.max():.4g}]"
        )
    name = _write_lines(
        out / f"net_info_{cfg.config_hash()}.csv",
        "R,n_nodes,spacing,weight_sum,surface_measure,nn_min,nn_max",
        lines,
    )
    _write_manifest(out, cfg, [name])
    return 0


COMMANDS = {
    "spectrum": (cmd_spectrum, "solve one configuration and export the filtered spectrum"),
    "verify": (cmd_verify, "evaluate one bound and report pass/fail"),
    "campaign": (cmd_campaign, "run a Monte Carlo campaign with resumable realizations"),
    "svd": (cmd_svd, "export singular-value spectra of sandwich operators"),
    "net-info": (cmd_net_info, "report sphere-net node statistics"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evbounds",
        description="Spectra, bound checks, and Monte Carlo campaigns for random Schrodinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument(
            "--workers", type=int, default=1,
            help="processes drawing random sandwiches, at most the CPU count; outputs do not change",
        )
        p.add_argument("--out", default=None, help="override the config's output directory")
        p.add_argument("--seed", type=int, default=None, help="override omega.master_seed")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = checked("omega.master_seed", cfg.with_seed, args.seed)
        if args.out is not None:
            cfg = cfg.with_out_dir(args.out)
        cpus = os.cpu_count() or 1
        if not 1 <= args.workers <= cpus:
            raise ConfigError(f"workers: must lie in [1, {cpus}] (CPU count), got {args.workers}")
        return COMMANDS[args.command][0](cfg, args.workers)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
