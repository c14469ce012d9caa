"""Command-line surface: spectrum, verify, campaign, svd, net-info.

Every command loads one JSON config, stamps all outputs with its content
hash, and writes UTF-8 CSV/JSON only.  Reruns of an unchanged config
produce byte-identical files; campaigns resume from whatever realization
indices are already on disk.  DRIVERS maps every experiment name to its
verify and campaign drivers; an experiment without one has no such command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError
from .harness import (
    campaign_grid,
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
    deterministic_ext_norm,
    evsum_sweep,
    ext_norm_samples,
    fit_scaling,
    identity_ext_norm,
    schatten_campaign,
    schatten_exponent,
)
from .extension import build_net, singular_values
from .potential import sample_potential
from .randomize import MIN_SAMPLES, anderson_randomize, draw_omega
from .spectra import SpectrumFilter, eigenvalues_dense, filter_discrete, hamiltonian_matrix

__all__ = ["main"]

_TAIL_THRESHOLDS = (1.25, 1.5, 2.0)


def _fmt(x) -> str:
    """Shortest round-trip decimal form, for byte-stable CSV."""
    return repr(float(x))


def _need(exp: dict, key: str):
    if key not in exp:
        raise ConfigError(f"experiment.{key}: required for experiment {exp.get('name')}")
    return exp[key]


def _num(key: str, value, kind=float):
    """kind(value) for experiment.<key>; ConfigError naming the key when it is not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"experiment.{key}: expected a number, got {value!r}") from None


def _nums(key: str, values) -> list[float]:
    """The list experiment.<key> as floats; ConfigError naming the key otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"experiment.{key}: expected a list of numbers, got {values!r}")
    return [_num(key, v) for v in values]


def _lam(cfg: RunConfig) -> float:
    return _num("lam", cfg.experiment.get("lam", 1.0))


def _omega(cfg: RunConfig):
    if cfg.omega is None:
        raise ConfigError(f"omega: required for {cfg.experiment['name']}")
    return cfg.omega


def _radii(cfg: RunConfig, key: str) -> list[float]:
    """experiment.R_list, or [experiment.R] (default potential.R) for key "R".

    Every radius must give a campaign grid, L = 4R at the config's dx, that
    GridSpec accepts; this is checked before anything is computed or written.
    """
    exp = cfg.experiment
    radii = _need(exp, key) if key == "R_list" else [exp.get(key, cfg.potential.R)]
    radii = _nums(key, radii)
    dx = cfg.grid.dx
    for R in radii:
        try:
            campaign_grid(R, cfg.grid.d, dx)
        except ValueError as err:
            raise ConfigError(f"experiment.{key}: R = {R:g} at dx = {dx:g}: {err}") from None
    return radii


def _n_samples(cfg: RunConfig, default: int, minimum: int = 0) -> int:
    """experiment.n_samples (default when absent), checked against minimum before any work."""
    n = _num("n_samples", cfg.experiment.get("n_samples", default), int)
    if n < minimum:
        name = cfg.experiment["name"]
        raise ConfigError(f"experiment.n_samples: {name} needs at least {minimum}, got {n}")
    return n


def _cell_size(cfg: RunConfig) -> float:
    exp = cfg.experiment
    if "h" in exp:
        return _num("h", exp["h"])
    if cfg.omega is not None:
        return cfg.omega.h
    raise ConfigError("experiment.h: required when no omega section is present")


def _spectrum_filter(cfg: RunConfig) -> SpectrumFilter:
    exp = cfg.experiment
    margin = exp.get("essential_margin")
    if margin is None:
        margin = SpectrumFilter.default_margin(cfg.grid)
    margin = _num("essential_margin", margin)
    kappa = exp.get("kappa_filter")
    kappa = None if kappa is None else _num("kappa_filter", kappa)
    if exp.get("band") is not None:
        band = _nums("band", exp["band"])
        if len(band) != 2:
            raise ConfigError(f"experiment.band: expected [lo, hi], got {exp['band']!r}")
        return SpectrumFilter(tuple(band), margin, kappa)
    if "R0" in exp:
        return SpectrumFilter.from_scales(_num("R0", exp["R0"]), _cell_size(cfg), margin, kappa)
    return SpectrumFilter((0.0, np.inf), margin, kappa)


def _solved(cfg: RunConfig, deterministic: bool = False):
    """sample -> randomize -> hamiltonian -> eigensolve -> filter: (kept points, field).

    The field is the randomized one, or with deterministic=True the sampled V.
    The filter's keys are read before the eigensolve.
    """
    filt = _spectrum_filter(cfg)
    field_det = sample_potential(cfg.potential, cfg.grid)
    field = field_det
    if cfg.omega is not None and not cfg.identity_omega:
        field = anderson_randomize(field_det, draw_omega(cfg.omega, cfg.grid))
    points = eigenvalues_dense(hamiltonian_matrix(cfg.grid, field))
    return filter_discrete(points, filt), field_det if deterministic else field


def _ensure_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_lines(path: Path, header: str, lines) -> str:
    """Write a UTF-8 CSV of a header and rows already formatted; returns the file name."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_spectrum(cfg: RunConfig) -> int:
    kept, _ = _solved(cfg)
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


def _floats(cfg: RunConfig, *keys) -> list[float]:
    return [_num(k, _need(cfg.experiment, k)) for k in keys]


def _nu(cfg: RunConfig) -> float:
    """experiment.nu of SCHATTEN_DECAY, checked with grid.d before any work."""
    (nu,) = _floats(cfg, "nu")
    key = "grid.d" if cfg.grid.d != 2 else "experiment.nu"
    try:
        schatten_exponent(nu, cfg.grid.d)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None
    return nu


def _thresholds(cfg: RunConfig) -> list[float]:
    return _nums("thresholds", cfg.experiment.get("thresholds", _TAIL_THRESHOLDS))


def _spectral(cfg: RunConfig, check, *args, deterministic: bool = False):
    """check(kept points, field, *args); args are read from cfg before the solve."""
    return check(*_solved(cfg, deterministic), *args)


def _verify_extnorm(cfg: RunConfig):
    # Every radius is validated; only the largest, the one reported, is computed.
    omega, R = _omega(cfg), max(_radii(cfg, "R_list"))
    n = _n_samples(cfg, 200, 0 if cfg.identity_omega else MIN_SAMPLES)
    d, dx = cfg.grid.d, cfg.grid.dx
    if cfg.identity_omega:
        norms = [identity_ext_norm(cfg.potential, omega, _lam(cfg), R, d=d, dx=dx)]
    else:
        norms = ext_norm_samples(cfg.potential, omega, _lam(cfg), R, range(n), d=d, dx=dx)
    return check_extnorm(norms, R, omega.h, abs(cfg.potential.amplitude), d=d)


def _verify_schatten(cfg: RunConfig):
    nu = _nu(cfg)
    lam, R, h = _lam(cfg), _num("R", cfg.experiment.get("R", cfg.potential.R)), _cell_size(cfg)
    omegas = None if cfg.omega is None or cfg.identity_omega else [cfg.omega]
    field, ops = config_sandwiches(cfg.potential, cfg.grid, lam, R, omegas)
    svals = singular_values(next(ops))
    params = {"lam": lam, "R": R, "h": h, "v_inf": float(np.abs(field.values).max())}
    return check_schatten_decay(svals, nu, cfg.grid.d, params)


def _verify_tail(cfg: RunConfig):
    omega, (R,) = _omega(cfg), _radii(cfg, "R")
    n, thresholds = _n_samples(cfg, 200, MIN_SAMPLES), _thresholds(cfg)
    norms = ext_norm_samples(
        cfg.potential, omega, _lam(cfg), R, range(n), d=cfg.grid.d, dx=cfg.grid.dx
    )
    return check_tail(concentration_tail(norms, thresholds=thresholds))


def cmd_verify(cfg: RunConfig) -> int:
    report = _driver(cfg, "verify")(cfg)
    out = _ensure_dir(cfg)
    tag = cfg.config_hash()
    payload = dataclasses.asdict(report)
    payload["passed"] = report.passed
    payload["config_hash"] = tag
    path = out / f"report_{tag}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
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


def _read_norms(path: Path) -> dict[int, float]:
    """Stored norms by realization index; {} when the file does not exist.

    A file _write_norms did not leave whole (wrong header, no final newline,
    a row that is not one integer index and one finite norm, or an index
    seen twice) raises ConfigError naming it, so a campaign never resumes
    from a cut or corrupted row.
    """
    if not path.exists():
        return {}
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != _NORMS_HEADER:
        raise ConfigError(f"{path}: header is not {_NORMS_HEADER!r}")
    if lines[-1] != "":
        raise ConfigError(f"{path}: no final newline, the last row was cut")
    have: dict[int, float] = {}
    for lineno, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        try:
            if len(fields) != 2:
                raise ValueError(f"{len(fields)} fields")
            idx, val = int(fields[0]), float(fields[1])
        except ValueError as err:
            raise ConfigError(f"{path}, line {lineno}: malformed row {line!r} ({err})") from None
        if not np.isfinite(val):
            raise ConfigError(f"{path}, line {lineno}: norm {val} is not finite")
        if idx in have:
            raise ConfigError(f"{path}, line {lineno}: realization {idx} appears twice")
        have[idx] = val
    return have


def _write_norms(path: Path, norms: dict[int, float]):
    # Write beside the target and rename over it: a run killed mid-write
    # leaves the previous file whole, never a truncated row that
    # _read_norms would take for a valid float.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_NORMS_HEADER + "\n")
            for idx in sorted(norms):
                fh.write(f"{idx},{_fmt(norms[idx])}\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _collect_norms(cfg: RunConfig, R: float, n: int) -> np.ndarray:
    """Norms of realizations 0..n-1 at one R, computing in one pass only those not on disk.

    They are kept in campaign_<hash>/norms_R<R>.csv under the output directory.
    """
    path = _ensure_dir(cfg) / f"campaign_{cfg.config_hash()}" / f"norms_R{R:g}.csv"
    path.parent.mkdir(exist_ok=True)
    have = _read_norms(path)
    missing = [i for i in range(n) if i not in have]
    if missing:
        vals = ext_norm_samples(
            cfg.potential, cfg.omega, _lam(cfg), R, missing, d=cfg.grid.d, dx=cfg.grid.dx
        )
        have.update(zip(missing, map(float, vals)))
        _write_norms(path, have)
    return np.array([have[i] for i in range(n)])


# Campaign drivers: each writes its CSVs and manifest and returns the exit code.


def _campaign_tail(cfg: RunConfig) -> int:
    _omega(cfg)
    (R,) = _radii(cfg, "R")
    n, thresholds = _n_samples(cfg, 2000, MIN_SAMPLES), _thresholds(cfg)
    study = concentration_tail(_collect_norms(cfg, R, n), thresholds=thresholds)
    out, tag = _ensure_dir(cfg), cfg.config_hash()
    name = _write_lines(
        out / f"tail_{tag}.csv",
        "threshold,fraction,wilson_lower,wilson_upper",
        (
            f"{_fmt(m)},{_fmt(e.fraction)},{_fmt(e.lower)},{_fmt(e.upper)}"
            for m, e in zip(study.thresholds, study.entries)
        ),
    )
    _write_manifest(out, cfg, [name], {"c": _nan_none(study.c), "monotone": study.monotone})
    print(f"tail fractions {[e.fraction for e in study.entries]}, c={study.c:.4g}")
    return 0


def _campaign_extnorm(cfg: RunConfig) -> int:
    _omega(cfg)
    r_list = _radii(cfg, "R_list")
    n = _n_samples(cfg, 200)
    rows = []
    for R in r_list:
        arr = _collect_norms(cfg, R, n)
        det = deterministic_ext_norm(cfg.potential, _lam(cfg), R, d=cfg.grid.d, dx=cfg.grid.dx)
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
    _write_manifest(out, cfg, outputs)
    print(f"wrote {out / outputs[0]}")
    return 0


def _campaign_schatten(cfg: RunConfig) -> int:
    nu, omega, r_list = _nu(cfg), _omega(cfg), _radii(cfg, "R_list")
    n, lam, d, dx = _n_samples(cfg, 100), _lam(cfg), cfg.grid.d, cfg.grid.dx
    res = schatten_campaign(cfg.potential, lam, r_list, nu, omega, n, d=d, dx=dx)
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
    _write_manifest(out, cfg, [path.name])
    print(f"wrote {path}")
    return 0


def _campaign_evsum(cfg: RunConfig) -> int:
    amplitudes = _nums("amplitudes", _need(cfg.experiment, "amplitudes"))
    study = evsum_sweep(
        amplitudes,
        cfg.potential,
        cfg.grid,
        *_floats(cfg, "eps", "R0"),
        _cell_size(cfg),
        _spectrum_filter(cfg),
        omega_spec=None if cfg.identity_omega else cfg.omega,
    )
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
    "AAD1D": (lambda cfg: _spectral(cfg, check_aad_1d), None),
    "KLT_DET": (lambda cfg: _spectral(cfg, check_klt_det, *_floats(cfg, "q")), None),
    "SECTOR": (lambda cfg: _spectral(cfg, check_sector, *_floats(cfg, "q", "kappa")), None),
    "THM1": (
        lambda cfg: _spectral(
            cfg, check_thm1, _omega(cfg), *_floats(cfg, "q", "R", "M"), deterministic=True
        ),
        None,
    ),
    "THM3": (
        lambda cfg: _spectral(cfg, check_thm3, _omega(cfg), *_floats(cfg, "q", "M")), None
    ),
    "PROP_EXTNORM": (_verify_extnorm, _campaign_extnorm),
    "SCHATTEN_DECAY": (_verify_schatten, _campaign_schatten),
    "TAIL": (_verify_tail, _campaign_tail),
    "EVSUM": (
        lambda cfg: _spectral(cfg, check_evsum, *_floats(cfg, "eps", "R0"), _cell_size(cfg)),
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


def cmd_campaign(cfg: RunConfig) -> int:
    return _driver(cfg, "campaign")(cfg)


def cmd_svd(cfg: RunConfig) -> int:
    exp = cfg.experiment
    tag = cfg.config_hash()
    R = _num("R", exp.get("R", cfg.potential.R))
    if cfg.omega is None or cfg.identity_omega:
        omegas, names = None, [f"svals_{tag}_det.csv"]
    else:
        n = _n_samples(cfg, 1)
        omegas = [cfg.omega.with_realization(i) for i in range(n)]
        names = [f"svals_{tag}_r{i:04d}.csv" for i in range(n)]
    _, ops = config_sandwiches(cfg.potential, cfg.grid, _lam(cfg), R, omegas)
    out = _ensure_dir(cfg)
    for name, op in zip(names, ops):
        _write_lines(
            out / name,
            "index,value",
            (f"{i},{_fmt(s)}" for i, s in enumerate(singular_values(op), start=1)),
        )
    _write_manifest(out, cfg, names)
    print(f"wrote {len(names)} singular-value files to {out}")
    return 0


def cmd_net_info(cfg: RunConfig) -> int:
    from scipy.spatial import cKDTree

    lam = _lam(cfg)
    r_list = _nums("R_list", cfg.experiment.get("R_list", [cfg.potential.R]))
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
        p.add_argument("--workers", type=int, default=1, help="realizations run in sequence")
        p.add_argument("--out", default=None, help="override the config's output directory")
        p.add_argument("--seed", type=int, default=None, help="override omega.master_seed")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        if args.out is not None:
            cfg = cfg.with_out_dir(args.out)
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
        return COMMANDS[args.command][0](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
