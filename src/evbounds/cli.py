"""Command-line surface: spectrum, verify, campaign, svd, net-info.

Every command loads one JSON config, stamps all outputs with its content
hash, and writes UTF-8 CSV/JSON only.  Reruns of an unchanged config
produce byte-identical files; campaigns resume from whatever realization
indices are already on disk.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError
from .harness import (
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
    deterministic_ext_norm,
    evsum_sweep,
    ext_norm_samples,
    fit_scaling,
    mc_extension_norm,
    schatten_campaign,
)
from .extension import SandwichEnsemble, build_net, sandwich, singular_values
from .potential import sample_potential
from .randomize import anderson_randomize, draw_omega
from .spectra import SpectrumFilter, eigenvalues_dense, filter_discrete, hamiltonian_matrix

__all__ = ["main"]


def _fmt(x) -> str:
    """Shortest round-trip decimal form, for byte-stable CSV."""
    return repr(float(x))


def _need(exp: dict, key: str):
    if key not in exp:
        raise ConfigError(f"experiment.{key}: required for experiment {exp.get('name')}")
    return exp[key]


def _cell_size(cfg: RunConfig) -> float:
    exp = cfg.experiment
    if "h" in exp:
        return float(exp["h"])
    if cfg.omega is not None:
        return cfg.omega.h
    raise ConfigError("experiment.h: required when no omega section is present")


def _spectrum_filter(cfg: RunConfig) -> SpectrumFilter:
    exp = cfg.experiment
    margin = exp.get("essential_margin")
    if margin is None:
        margin = SpectrumFilter.default_margin(cfg.grid)
    kappa = exp.get("kappa_filter")
    if "band" in exp and exp["band"] is not None:
        lo, hi = exp["band"]
        return SpectrumFilter((float(lo), float(hi)), float(margin), kappa)
    if "R0" in exp:
        return SpectrumFilter.from_scales(float(exp["R0"]), _cell_size(cfg), float(margin), kappa)
    return SpectrumFilter((0.0, np.inf), float(margin), kappa)


def _solve_points(cfg: RunConfig):
    """sample -> randomize -> hamiltonian -> eigensolve -> filter."""
    field_det = sample_potential(cfg.potential, cfg.grid)
    field = field_det
    if cfg.omega is not None and not cfg.identity_omega:
        omega = draw_omega(cfg.omega, cfg.grid)
        field = anderson_randomize(field_det, omega)
    hmat = hamiltonian_matrix(cfg.grid, field)
    points = eigenvalues_dense(hmat)
    filt = _spectrum_filter(cfg)
    kept = filter_discrete(points, filt)
    return field_det, field, points, kept


def _ensure_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    _, _, _, kept = _solve_points(cfg)
    out = _ensure_dir(cfg)
    tag = cfg.config_hash()
    seed = cfg.omega.master_seed if cfg.omega is not None else ""
    ridx = cfg.omega.realization_index if cfg.omega is not None else ""
    csv_path = out / f"spectrum_{tag}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("re_z,im_z,multiplicity,residual,seed,realization_index\n")
        for pt in kept:
            z = complex(pt.z)
            fh.write(
                f"{_fmt(z.real)},{_fmt(z.imag)},{pt.multiplicity},{_fmt(pt.residual)},{seed},{ridx}\n"
            )
    _write_manifest(out, cfg, [csv_path.name], {"n_filtered": len(kept)})
    print(f"wrote {csv_path} ({len(kept)} points)")
    return 0


def _dispatch_verify(cfg: RunConfig):
    exp = cfg.experiment
    name = exp["name"]
    if name == "SPECTRUM":
        raise ConfigError("experiment.name: SPECTRUM is not a verifiable bound")

    if name in ("AAD1D", "KLT_DET", "SECTOR", "THM1", "THM3", "EVSUM"):
        field_det, field, _, kept = _solve_points(cfg)
        if name == "AAD1D":
            return check_aad_1d(kept, field)
        if name == "KLT_DET":
            return check_klt_det(kept, field, float(_need(exp, "q")))
        if name == "SECTOR":
            return check_sector(kept, field, float(_need(exp, "q")), float(_need(exp, "kappa")))
        if name == "THM1":
            if cfg.omega is None:
                raise ConfigError("omega: required for THM1")
            return check_thm1(
                kept,
                field_det,
                cfg.omega,
                float(_need(exp, "q")),
                float(_need(exp, "R")),
                float(_need(exp, "M")),
            )
        if name == "THM3":
            if cfg.omega is None:
                raise ConfigError("omega: required for THM3")
            return check_thm3(kept, field, cfg.omega, float(_need(exp, "q")), float(_need(exp, "M")))
        return check_evsum(
            kept, field, float(_need(exp, "eps")), float(_need(exp, "R0")), _cell_size(cfg)
        )

    lam = float(exp.get("lam", 1.0))
    if name == "PROP_EXTNORM":
        if cfg.omega is None:
            raise ConfigError("omega: required for PROP_EXTNORM")
        r_list = [float(r) for r in _need(exp, "R_list")]
        n = int(exp.get("n_samples", 200))
        results = mc_extension_norm(
            cfg.potential, cfg.omega, lam, r_list, n, d=cfg.grid.d, identity=cfg.identity_omega
        )
        top = results[max(results)]
        return check_extnorm(top, cfg.omega.h, abs(cfg.potential.amplitude), d=cfg.grid.d)
    if name == "SCHATTEN_DECAY":
        nu = float(_need(exp, "nu"))
        R = float(exp.get("R", cfg.potential.R))
        field = sample_potential(dataclasses.replace(cfg.potential, R=R), cfg.grid)
        net = build_net(lam, R, cfg.grid.d)
        if cfg.omega is not None and not cfg.identity_omega:
            omega = draw_omega(cfg.omega, cfg.grid)
            op = SandwichEnsemble(net, net, field, cfg.omega.h).with_omega(omega)
        else:
            op = sandwich(net, net, field)
        svals = singular_values(op)
        params = {
            "lam": lam,
            "R": R,
            "h": _cell_size(cfg),
            "v_inf": float(np.abs(field.values).max()),
        }
        return check_schatten_decay(svals, nu, cfg.grid.d, params)
    if name == "TAIL":
        if cfg.omega is None:
            raise ConfigError("omega: required for TAIL")
        R = float(exp.get("R", cfg.potential.R))
        n = int(exp.get("n_samples", 200))
        norms = ext_norm_samples(cfg.potential, cfg.omega, lam, R, range(n), d=cfg.grid.d)
        study = concentration_tail(norms, thresholds=exp.get("thresholds", (1.25, 1.5, 2.0)))
        return check_tail(study)
    raise ConfigError(f"experiment.name: no checker for {name}")


def cmd_verify(cfg: RunConfig) -> int:
    report = _dispatch_verify(cfg)
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


def _collect_norms(cfg, lam, R, n, workers, camp_dir) -> dict[int, float]:
    """Per-realization norms at one R, resuming from any file already present."""
    path = camp_dir / f"norms_R{R:g}.csv"
    have = _read_norms(path)
    missing = [i for i in range(n) if i not in have]
    if missing:
        if workers > 1:
            chunks = np.array_split(np.array(missing), workers)
            chunks = [c for c in chunks if c.size]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(
                    pool.map(
                        lambda idxs: ext_norm_samples(
                            cfg.potential, cfg.omega, lam, R, idxs, d=cfg.grid.d
                        ),
                        chunks,
                    )
                )
            for idxs, vals in zip(chunks, parts):
                for i, v in zip(idxs, vals):
                    have[int(i)] = float(v)
        else:
            vals = ext_norm_samples(cfg.potential, cfg.omega, lam, R, missing, d=cfg.grid.d)
            for i, v in zip(missing, vals):
                have[int(i)] = float(v)
        _write_norms(path, have)
    return {i: have[i] for i in range(n)}


def cmd_campaign(cfg: RunConfig, workers: int = 1) -> int:
    exp = cfg.experiment
    name = exp["name"]
    out = _ensure_dir(cfg)
    tag = cfg.config_hash()
    lam = float(exp.get("lam", 1.0))

    if name in ("PROP_EXTNORM", "TAIL"):
        if cfg.omega is None:
            raise ConfigError("omega: required for extension-norm campaigns")
        camp_dir = out / f"campaign_{tag}"
        camp_dir.mkdir(parents=True, exist_ok=True)
        outputs = []

        if name == "TAIL":
            R = float(exp.get("R", cfg.potential.R))
            n = int(exp.get("n_samples", 2000))
            norms = _collect_norms(cfg, lam, R, n, workers, camp_dir)
            study = concentration_tail(
                np.array([norms[i] for i in range(n)]),
                thresholds=exp.get("thresholds", (1.25, 1.5, 2.0)),
            )
            tail_path = out / f"tail_{tag}.csv"
            with open(tail_path, "w", encoding="utf-8") as fh:
                fh.write("threshold,fraction,wilson_lower,wilson_upper\n")
                for m, e in zip(study.thresholds, study.entries):
                    fh.write(f"{_fmt(m)},{_fmt(e.fraction)},{_fmt(e.lower)},{_fmt(e.upper)}\n")
            outputs.append(tail_path.name)
            _write_manifest(
                out,
                cfg,
                outputs,
                {"c": None if np.isnan(study.c) else study.c, "monotone": study.monotone},
            )
            print(f"tail fractions {[e.fraction for e in study.entries]}, c={study.c:.4g}")
            return 0

        r_list = [float(r) for r in _need(exp, "R_list")]
        n = int(exp.get("n_samples", 200))
        rows = []
        for R in r_list:
            norms = _collect_norms(cfg, lam, R, n, workers, camp_dir)
            arr = np.array([norms[i] for i in range(n)])
            det = deterministic_ext_norm(cfg.potential, lam, R, d=cfg.grid.d)
            stderr = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            rows.append((R, n, float(arr.mean()), stderr, det))
        summary_path = out / f"summary_{tag}.csv"
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write("kind,R,n,mean,stderr,deterministic,exponent,r2\n")
            for R, n_r, mean, stderr, det in rows:
                fh.write(f"R,{_fmt(R)},{n_r},{_fmt(mean)},{_fmt(stderr)},{_fmt(det)},,\n")
            if len(rows) >= 3:
                xs = [r[0] for r in rows]
                exp_rand, _, r2_rand = fit_scaling(xs, [r[2] for r in rows])
                exp_det, _, r2_det = fit_scaling(xs, [r[4] for r in rows])
                fh.write(f"slope_random,,,,,,{_fmt(exp_rand)},{_fmt(r2_rand)}\n")
                fh.write(f"slope_deterministic,,,,,,{_fmt(exp_det)},{_fmt(r2_det)}\n")
        plot_path = out / f"plot_{tag}.csv"
        with open(plot_path, "w", encoding="utf-8") as fh:
            fh.write("x,y,stderr\n")
            for R, _, mean, stderr, _ in rows:
                fh.write(f"{_fmt(R)},{_fmt(mean)},{_fmt(stderr)}\n")
        outputs += [summary_path.name, plot_path.name]
        _write_manifest(out, cfg, outputs)
        print(f"wrote {summary_path}")
        return 0

    if name == "SCHATTEN_DECAY":
        if cfg.omega is None:
            raise ConfigError("omega: required for SCHATTEN_DECAY campaigns")
        r_list = [float(r) for r in _need(exp, "R_list")]
        n = int(exp.get("n_samples", 100))
        nu = float(_need(exp, "nu"))
        res = schatten_campaign(lam, r_list, nu, cfg.omega, n, d=cfg.grid.d)
        path = out / f"schatten_{tag}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("R,median_lhs,rhs_raw,ratio,n_nodes\n")
            for R in r_list:
                row = res[float(R)]
                fh.write(
                    f"{_fmt(R)},{_fmt(row['median_lhs'])},{_fmt(row['rhs_raw'])},"
                    f"{_fmt(row['ratio'])},{row['n_nodes']}\n"
                )
        _write_manifest(out, cfg, [path.name])
        print(f"wrote {path}")
        return 0

    if name == "EVSUM":
        amplitudes = [float(a) for a in _need(exp, "amplitudes")]
        study = evsum_sweep(
            amplitudes,
            cfg.potential,
            cfg.grid,
            float(_need(exp, "eps")),
            float(_need(exp, "R0")),
            _cell_size(cfg),
            omega_spec=None if cfg.identity_omega else cfg.omega,
            essential_margin=exp.get("essential_margin"),
            kappa=exp.get("kappa_filter"),
        )
        path = out / f"evsum_{tag}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("amplitude,lhs,rhs_raw\n")
            for a, rep in zip(amplitudes, study.reports):
                fh.write(f"{_fmt(a)},{_fmt(rep.lhs)},{_fmt(rep.rhs_raw)}\n")
        _write_manifest(
            out,
            cfg,
            [path.name],
            {"c1": _nan_none(study.c1), "c2": _nan_none(study.c2), "r2": _nan_none(study.r_squared)},
        )
        print(f"c1={study.c1:.4g} c2={study.c2:.4g} r2={study.r_squared:.4g}")
        return 0

    raise ConfigError(f"experiment.name: no campaign driver for {name}")


def _nan_none(x: float):
    return None if np.isnan(x) else float(x)


def cmd_svd(cfg: RunConfig) -> int:
    exp = cfg.experiment
    out = _ensure_dir(cfg)
    tag = cfg.config_hash()
    lam = float(exp.get("lam", 1.0))
    R = float(exp.get("R", cfg.potential.R))
    field = sample_potential(dataclasses.replace(cfg.potential, R=R), cfg.grid)
    net = build_net(lam, R, cfg.grid.d)
    outputs = []
    if cfg.omega is None or cfg.identity_omega:
        svals = singular_values(sandwich(net, net, field))
        path = out / f"svals_{tag}_det.csv"
        _write_svals(path, svals)
        outputs.append(path.name)
    else:
        n = int(exp.get("n_samples", 1))
        ensemble = SandwichEnsemble(net, net, field, cfg.omega.h)
        for i in range(n):
            omega = draw_omega(cfg.omega.with_realization(i), cfg.grid)
            svals = singular_values(ensemble.with_omega(omega))
            path = out / f"svals_{tag}_r{i:04d}.csv"
            _write_svals(path, svals)
            outputs.append(path.name)
    _write_manifest(out, cfg, outputs)
    print(f"wrote {len(outputs)} singular-value files to {out}")
    return 0


def _write_svals(path: Path, svals: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,value\n")
        for i, s in enumerate(svals, start=1):
            fh.write(f"{i},{_fmt(s)}\n")


def cmd_net_info(cfg: RunConfig) -> int:
    from scipy.spatial import cKDTree

    exp = cfg.experiment
    lam = float(exp.get("lam", 1.0))
    r_list = [float(r) for r in exp.get("R_list", [cfg.potential.R])]
    out = _ensure_dir(cfg)
    tag = cfg.config_hash()
    path = out / f"net_info_{tag}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("R,n_nodes,spacing,weight_sum,surface_measure,nn_min,nn_max\n")
        for R in r_list:
            net = build_net(lam, R, cfg.grid.d)
            dists, _ = cKDTree(net.nodes).query(net.nodes, k=2)
            nn = dists[:, 1]
            fh.write(
                f"{_fmt(R)},{net.n_nodes},{_fmt(net.spacing)},{_fmt(net.weights.sum())},"
                f"{_fmt(net.surface_measure())},{_fmt(nn.min())},{_fmt(nn.max())}\n"
            )
            print(
                f"R={R:g}: {net.n_nodes} nodes, spacing {net.spacing:.4g}, "
                f"nn in [{nn.min():.4g}, {nn.max():.4g}]"
            )
    _write_manifest(out, cfg, [path.name])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evbounds",
        description="Spectra, bound checks, and Monte Carlo campaigns for random Schrodinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "solve one configuration and export the filtered spectrum"),
        ("verify", "evaluate one bound and report pass/fail"),
        ("campaign", "run a Monte Carlo campaign with resumable realizations"),
        ("svd", "export singular-value spectra of sandwich operators"),
        ("net-info", "report sphere-net node statistics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--workers", type=int, default=1, help="worker pool size")
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

        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "campaign":
            return cmd_campaign(cfg, workers=args.workers)
        if args.command == "svd":
            return cmd_svd(cfg)
        return cmd_net_info(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
