from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import evbounds.cli as cli
from evbounds.cli import main
from evbounds.config import RunConfig, load_config
from evbounds.errors import ConfigError

import oracles


def _base_dict(**overrides):
    data = {
        "grid": {"d": 1, "L": 16.0, "N": 256},
        "potential": {"kind": "indicator_ball", "amplitude": [2.0, 0.0], "R": 1.0},
        "omega": None,
        "experiment": {"name": "SPECTRUM", "essential_margin": 0.5},
        "out_dir": "runs",
    }
    data.update(overrides)
    return data


def _write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _run(tmp_path, data, command="spectrum", extra=(), name="cfg.json"):
    cfg_path = _write_cfg(tmp_path, data, name=name)
    out = tmp_path / "out"
    argv = [command, "--config", cfg_path, "--out", str(out), *extra]
    return main(argv), out


def test_roundtrip_is_lossless():
    data = _base_dict(
        omega={"h": 1.0, "distribution": "bernoulli", "master_seed": 2026,
               "realization_index": 3},
    )
    cfg = RunConfig.from_dict(data)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_hash_tracks_content():
    cfg = RunConfig.from_dict(_base_dict())
    bumped = RunConfig.from_dict(_base_dict(grid={"d": 1, "L": 16.0, "N": 512}))
    assert cfg.config_hash() != bumped.config_hash()
    assert len(cfg.config_hash()) == 12


def test_integral_floats_read_as_integers():
    omega = {"h": 1.0, "distribution": "bernoulli", "master_seed": 2026, "realization_index": 3}
    ints = RunConfig.from_dict(_base_dict(omega=omega))
    floats = RunConfig.from_dict(_base_dict(
        grid={"d": 1.0, "L": 16.0, "N": 256.0},
        omega={**omega, "master_seed": 2026.0, "realization_index": 3.0},
    ))
    assert floats == ints
    assert floats.config_hash() == ints.config_hash()
    assert type(floats.grid.N) is int and type(floats.omega.master_seed) is int


def test_canonical_form_is_minimal():
    text = RunConfig.from_dict(_base_dict()).canonical()
    assert ": " not in text and ", " not in text
    assert text.index('"experiment"') < text.index('"grid"') < text.index('"potential"')


def test_file_roundtrip(tmp_path):
    cfg = RunConfig.from_dict(_base_dict())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2), encoding="utf-8")
    assert load_config(path) == cfg


@pytest.fixture
def no_work(monkeypatch):
    """Solves, samplers and ensembles raise: a config error must come first."""
    import evbounds.harness as harness

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for module, name in ((cli, "eigenvalues_dense"), (harness, "eigenvalues_dense"),
                         (cli, "ext_norm_samples"), (harness, "SandwichEnsemble")):
        monkeypatch.setattr(module, name, refuse)


def _assert_config_error(tmp_path, capsys, code, out, field):
    assert code == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.rglob("campaign_*"))


@pytest.mark.parametrize(
    "command,mutate,field",
    [
        ("spectrum", lambda d: d.pop("grid"), "grid:"),
        ("spectrum", lambda d: d["grid"].pop("N"), "grid.N:"),
        ("spectrum", lambda d: d["potential"].update(kind="mystery"), "potential:"),
        ("spectrum", lambda d: d["potential"].update(amplitude=[1.0]), "potential.amplitude:"),
        ("spectrum", lambda d: d["experiment"].update(name="NOPE"), "experiment.name:"),
        ("spectrum", lambda d: d.update(omega={"h": 1.0, "distribution": "cauchy",
                                               "master_seed": 1}), "omega:"),
        ("spectrum", lambda d: d.update(out_dir=""), "out_dir:"),
        ("spectrum", lambda d: d["grid"].update(N=100), "grid:"),
        ("spectrum", lambda d: d["grid"].update(d="x"), "grid.d:"),
        ("spectrum", lambda d: d["potential"].update(amplitude=["a", 0]), "potential.amplitude:"),
        ("spectrum", lambda d: d["potential"].update(R="big"), "potential.R:"),
        ("spectrum", lambda d: d.update(omega={"h": 1.0, "distribution": "bernoulli",
                                               "master_seed": "s"}), "omega.master_seed:"),
        ("spectrum", lambda d: d["potential"].update(oscillation={"wavenumber": "k"}),
         "potential.oscillation.wavenumber:"),
        ("verify", lambda d: d.update(_campaign_dict(n_samples=1), identity_omega=True),
         "identity_omega:"),
        ("spectrum", lambda d: d.update(omgea={"h": 1.0, "distribution": "bernoulli",
                                               "master_seed": 1}), "omgea:"),
        ("spectrum", lambda d: d["potential"].update(amplitde=[3.0, 0.0]), "potential.amplitde:"),
        ("spectrum", lambda d: d.update(omega={"h": 1.0, "distribution": "bernoulli",
                                               "master_seed": 1, "realisation_index": 3}),
         "omega.realisation_index:"),
        ("spectrum", lambda d: d["grid"].update(dx=0.0625), "grid.dx:"),
    ],
    ids=["no_grid", "no_N", "kind", "amplitude_pair", "name", "distribution", "out_dir",
         "N_100", "d", "amplitude", "R", "master_seed", "oscillation", "identity_omega",
         "typo_omgea", "typo_amplitde", "typo_realisation_index", "typo_grid_dx"],
)
def test_validation_failures_name_the_field(tmp_path, capsys, no_work, command, mutate, field):
    data = _base_dict()
    mutate(data)
    with pytest.raises(ConfigError, match="^" + re.escape(field)):
        RunConfig.from_dict(data)
    code, out = _run(tmp_path, data, command=command)
    _assert_config_error(tmp_path, capsys, code, out, field)


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(binary)


def test_seed_and_out_overrides():
    cfg = RunConfig.from_dict(
        _base_dict(omega={"h": 1.0, "distribution": "bernoulli", "master_seed": 1})
    )
    assert cfg.with_seed(7).omega.master_seed == 7
    assert cfg.with_out_dir("elsewhere").out_dir == "elsewhere"
    plain = RunConfig.from_dict(_base_dict())
    assert plain.with_seed(7) is plain


def test_spectrum_zero_potential(tmp_path, capsys):
    data = _base_dict(potential={"kind": "indicator_ball", "amplitude": [0.0, 0.0]})
    code, out = _run(tmp_path, data)
    assert code == 0
    csvs = list(out.glob("spectrum_*.csv"))
    assert len(csvs) == 1
    lines = csvs[0].read_text(encoding="utf-8").splitlines()
    assert lines == ["re_z,im_z,multiplicity,residual,seed,realization_index"]
    manifest = json.loads(next(out.glob("manifest_*.json")).read_text(encoding="utf-8"))
    assert manifest["n_filtered"] == 0
    assert manifest["config_hash"] in csvs[0].name


def test_spectrum_well_contains_ground_state(tmp_path):
    code, out = _run(tmp_path, _base_dict())
    assert code == 0
    rows = next(out.glob("spectrum_*.csv")).read_text(encoding="utf-8").splitlines()[1:]
    res = [float(r.split(",")[0]) for r in rows]
    # the sampled indicator keeps the nodes at |x| = 1, so the discrete well
    # is wider by half a cell per side; solve the transcendental equation for
    # that widened well and the remaining error is pure dispersion
    want = oracles.square_well_levels(1.0 + 16.0 / 256 / 2, 2.0)[0]
    assert min(res) == pytest.approx(want, rel=2e-3)


def test_spectrum_rerun_is_byte_identical(tmp_path):
    data = _base_dict()
    _, out = _run(tmp_path, data)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    _run(tmp_path, data)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_verify_aad_on_well(tmp_path, capsys):
    data = _base_dict(experiment={"name": "AAD1D", "essential_margin": 0.5})
    code, out = _run(tmp_path, data, command="verify")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "AAD1D: PASS" in stdout
    report = json.loads(next(out.glob("report_*.json")).read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert not report["vacuous"]
    assert report["margin"] < 1.0


def test_verify_failing_bound_exits_one(tmp_path, capsys):
    # keep the blurred band states on purpose: they violate the 1-D bound
    data = _base_dict(
        potential={"kind": "indicator_ball", "amplitude": [0.0, 4.0]},
        experiment={"name": "AAD1D", "essential_margin": 0.01},
    )
    code, _ = _run(tmp_path, data, command="verify")
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_thm1_rerun_is_byte_identical(tmp_path, capsys):
    data = _base_dict(
        omega={"h": 0.5, "distribution": "bernoulli", "master_seed": 2026},
        experiment={"name": "THM1", "q": 1.0, "R": 2.0, "M": 5.0,
                    "essential_margin": 0.5},
    )
    code, out = _run(tmp_path, data, command="verify")
    assert code == 0
    assert "THM1" in capsys.readouterr().out
    report_path = next(out.glob("report_*.json"))
    first = report_path.read_bytes()
    _run(tmp_path, data, command="verify")
    assert report_path.read_bytes() == first


def test_verify_spectrum_not_verifiable(tmp_path, capsys):
    code, _ = _run(tmp_path, _base_dict(), command="verify")
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"experiment": {"name": "KLT_DET"}}, "experiment.q:"),
        ({"experiment": {"name": "SECTOR", "q": 1.0}}, "experiment.kappa:"),
        ({"experiment": {"name": "THM1", "q": 1.0, "R": 2.0, "M": 5.0}}, "omega:"),
        (
            {
                "experiment": {"name": "THM3", "q": 1.0},
                "omega": {"h": 0.5, "distribution": "bernoulli", "master_seed": 2026},
            },
            "experiment.M:",
        ),
        ({"experiment": {"name": "EVSUM", "eps": 0.1, "R0": 4.0}}, "experiment.h:"),
        (
            {
                "grid": {"d": 2, "L": 32.0, "N": 64},
                "potential": {"kind": "indicator_ball", "amplitude": [1.0, 0.0], "R": 4.0},
                "experiment": {"name": "SCHATTEN_DECAY", "nu": 0.5},
            },
            "experiment.h:",
        ),
    ],
    ids=["KLT_DET", "SECTOR", "THM1", "THM3", "EVSUM", "SCHATTEN_DECAY"],
)
def test_verify_missing_parameter(tmp_path, capsys, monkeypatch, overrides, field):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the experiment keys were read")

    monkeypatch.setattr(cli, "eigenvalues_dense", no_solve)
    monkeypatch.setattr(cli, "config_sandwiches", no_solve)
    data = _base_dict(**overrides)
    code, out = _run(tmp_path, data, command="verify")
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_no_partial_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{broken", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def _campaign_dict(n_samples=1, r_list=(8.0,)):
    return _base_dict(
        grid={"d": 2, "L": 32.0, "N": 128},
        potential={"kind": "indicator_ball", "amplitude": [1.0, 0.0], "R": 8.0},
        omega={"h": 1.0, "distribution": "bernoulli", "master_seed": 2026},
        experiment={"name": "PROP_EXTNORM", "R_list": list(r_list),
                    "n_samples": n_samples, "lam": 1.0},
    )


def test_campaign_single_row(tmp_path):
    code, out = _run(tmp_path, _campaign_dict(), command="campaign")
    assert code == 0
    lines = next(out.glob("summary_*.csv")).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "kind,R,n,mean,stderr,deterministic,exponent,r2"
    assert len(lines) == 2  # one R row, no slope rows below three radii
    row = lines[1].split(",")
    assert row[0] == "R" and float(row[3]) > 0 and float(row[4]) == 0.0
    assert (out / f"campaign_{json.loads(next(out.glob('manifest_*.json')).read_text())['config_hash']}").is_dir()


def test_campaign_resumes_from_disk(tmp_path):
    data = _campaign_dict()
    _, out = _run(tmp_path, data, command="campaign")
    norms_path = next(out.glob("campaign_*/norms_R8.csv"))
    norms_path.write_text("realization_index,norm\n0,99.0\n", encoding="utf-8")
    _run(tmp_path, data, command="campaign")
    # the stored realization is trusted verbatim, so the summary inherits it
    summary = next(out.glob("summary_*.csv")).read_text(encoding="utf-8")
    assert summary.splitlines()[1].split(",")[3] == "99.0"


def test_campaign_write_failure_keeps_previous_norms(tmp_path, monkeypatch):
    data = _campaign_dict(n_samples=3)
    _, out = _run(tmp_path, data, command="campaign")
    norms_path = next(out.glob("campaign_*/norms_R8.csv"))
    full = norms_path.read_text(encoding="utf-8")
    partial = "\n".join(full.splitlines()[:2]) + "\n"
    norms_path.write_text(partial, encoding="utf-8")

    # the resumed run dies on its third _fmt call, while it formats the rewrite of the norms file
    calls = []
    real_fmt = cli._fmt

    def dying_fmt(x):
        calls.append(x)
        if len(calls) == 3:
            raise RuntimeError("killed mid-write")
        return real_fmt(x)

    monkeypatch.setattr(cli, "_fmt", dying_fmt)
    with pytest.raises(RuntimeError):
        _run(tmp_path, data, command="campaign")
    assert norms_path.read_text(encoding="utf-8") == partial
    assert sorted(p.name for p in norms_path.parent.iterdir()) == ["norms_R8.csv", "reference_R8.csv"]

    monkeypatch.setattr(cli, "_fmt", real_fmt)
    _run(tmp_path, data, command="campaign")
    assert norms_path.read_text(encoding="utf-8") == full


def test_campaign_rerun_is_byte_identical(tmp_path):
    data = _campaign_dict(n_samples=3)
    _, out = _run(tmp_path, data, command="campaign")
    first = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    _run(tmp_path, data, command="campaign")
    second = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert first == second


def test_campaign_rejects_norms_file_cut_mid_row(tmp_path, capsys):
    data = _campaign_dict(n_samples=3)
    _, out = _run(tmp_path, data, command="campaign")
    norms_path = next(out.glob("campaign_*/norms_R8.csv"))
    full = norms_path.read_text(encoding="utf-8")
    cut = full[: full.rindex(".") + 3]  # the last row loses its final digits
    assert float(cut.splitlines()[-1].split(",")[1]) > 0  # still parses as a float
    norms_path.write_text(cut, encoding="utf-8")
    capsys.readouterr()
    code, _ = _run(tmp_path, data, command="campaign")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(norms_path) in err
    assert norms_path.read_text(encoding="utf-8") == cut


@pytest.mark.parametrize(
    "text",
    [
        "",
        "index,norm\n0,1.5\n",
        "realization_index,norm\n0,1.5\n1,2.",
        "realization_index,norm\n0,1.5,2.5\n",
        "realization_index,norm\n0\n",
        "realization_index,norm\n\n",
        "realization_index,norm\n0.5,1.5\n",
        "realization_index,norm\n0,abc\n",
        "realization_index,norm\n0,nan\n",
        "realization_index,norm\n0,inf\n",
        "realization_index,norm\n0,1.5\n0,1.5\n",
        "realization_index,norm\n-1,0.5\n",
        "realization_index,norm\n+3,2.0\n",
        "realization_index,norm\n 4,1.0\n",
        "realization_index,norm\n0, 1.5\n",
        "realization_index,norm\n0,1.5 \n",
        "realization_index,norm\n0,+1.5\n",
        "realization_index,norm\n0,1.50\n",
        "realization_index,norm\n0,1e0\n",
        "realization_index,norm\n0,1_0.5\n",
    ],
    ids=[
        "empty", "header", "no_final_newline", "three_fields", "one_field", "blank_row",
        "float_index", "bad_value", "nan", "inf", "repeated_index", "negative_index",
        "signed_index", "padded_index", "spaced_norm", "trailing_space_norm", "signed_norm",
        "padded_norm", "exponent_norm", "underscore_norm",
    ],
)
def test_read_norms_rejects_damaged_file(tmp_path, text):
    path = tmp_path / "norms_R8.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="norms_R8.csv"):
        cli._read_norms(path)


def test_read_norms_accepts_whole_file(tmp_path):
    path = tmp_path / "norms_R8.csv"
    assert cli._read_norms(path) == {}
    cli._write_norms(path, {2: 1.25, 0: 3.5})
    assert cli._read_norms(path) == {0: 3.5, 2: 1.25}
    ref = tmp_path / "reference_R8.csv"
    cli._write_norms(ref, {0: 27.5}, "row,deterministic")
    assert ref.read_text(encoding="utf-8") == "row,deterministic\n0,27.5\n"
    assert cli._read_norms(ref, "row,deterministic", rows=1) == {0: 27.5}


@pytest.mark.parametrize(
    "text,line",
    [
        ("row,deterministic\n", "line 2"),
        ("row,deterministic\n1,2.5\n", "line 2"),
        ("row,deterministic\n0,2.5\n1,2.5\n", "line 3"),
        ("realization_index,norm\n0,2.5\n", "header"),
    ],
    ids=["no_row", "row_1", "second_row", "norms_header"],
)
def test_read_reference_wants_exactly_row_0(tmp_path, text, line):
    path = tmp_path / "reference_R8.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"reference_R8.csv.*{line}"):
        cli._read_norms(path, "row,deterministic", rows=1)


def _admit_three_workers(monkeypatch):
    """Let --workers 3 pass the CPU-count check on any machine: the split is tested, not speed."""
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(3, cpus))


def _tree(work: Path, data: dict, command: str, workers: int, monkeypatch) -> dict[str, bytes]:
    """Every file a command run from work writes, by path under its relative out_dir.

    The config's out_dir is the same relative path in every run, so the
    config hash, and with it every file name and manifest, is too.
    """
    work.mkdir()
    (work / "cfg.json").write_text(json.dumps({**data, "out_dir": "out"}), encoding="utf-8")
    monkeypatch.chdir(work)
    assert main([command, "--config", "cfg.json", "--workers", str(workers)]) in (0, 1)
    return _files(work / "out")


@pytest.mark.parametrize(
    "n_samples,d,r_list",
    [(5, 2, (8.0, 16.0, 32.0)), (2, 2, (8.0, 16.0, 32.0)), (5, 3, (2.0,))],
    ids=["five_draws", "fewer_draws_than_workers", "d3_five_draws"],
)
def test_campaign_workers_agree(tmp_path, monkeypatch, n_samples, d, r_list):
    """The campaign files and the manifest are the same bytes for --workers 1, 2 and 3.

    Every d = 2 net is antipodal, so R = 8, 16 and 32 draw in the pair form;
    the 39-node d = 3 Fibonacci net at R = 2 draws in the mirror-paired
    complex form.  The manifest records the draws' BLAS setting, not k.
    """
    from evbounds.util import one_blas_thread_setting

    _admit_three_workers(monkeypatch)
    data = _campaign_dict(n_samples=n_samples, r_list=r_list)
    if d == 3:
        data["grid"] = {"d": 3, "L": 8.0, "N": 32}
    trees = [_tree(tmp_path / f"k{k}", data, "campaign", k, monkeypatch) for k in (1, 2, 3)]
    assert trees[1] == trees[0] and trees[2] == trees[0]
    names = sorted(name.split("_")[0] for name in trees[0] if "/" not in name)
    assert names == ["manifest", "plot", "summary"] and len(trees[0]) == 3 + 2 * len(r_list)
    manifest = json.loads(next(v for k, v in trees[0].items() if k.startswith("manifest_")))
    assert manifest["draw_blas"] == one_blas_thread_setting()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scaling_campaign_draws_every_radius_in_the_pair_form():
    """The demo campaign's radii all sit on antipodal d = 2 nets: a real V draws the real pair form."""
    from evbounds.extension import SandwichEnsemble, build_net
    from evbounds.harness import campaign_grid
    from evbounds.potential import sample_potential
    from evbounds.randomize import draw_omega

    cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs" / "scaling_campaign.json")
    d, dx = cfg.grid.d, cfg.grid.L / cfg.grid.N
    for R in cfg.experiment["R_list"]:
        gs = campaign_grid(R, d, dx)
        field = sample_potential(dataclasses.replace(cfg.potential, R=R), gs)
        net = build_net(cfg.experiment["lam"], R, d)
        op = SandwichEnsemble(net, net, field, cfg.omega.h).with_omega(draw_omega(cfg.omega, gs))
        assert op.potential_ref["assembly"] == "pair", R


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two workers need two CPUs")
def test_verify_report_is_the_same_for_every_worker_count(tmp_path, monkeypatch):
    data = _campaign_dict(n_samples=100, r_list=(8.0,))
    reports = [_tree(tmp_path / f"k{k}", data, "verify", k, monkeypatch) for k in (1, 2)]
    assert len(reports[0]) == 1 and reports[1] == reports[0]


# argv: src directory, then the command line.
_CLI_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from evbounds.cli import main
sys.exit(main(sys.argv[2:]))
"""


_SCHATTEN = {"name": "SCHATTEN_DECAY", "nu": 1.0, "lam": 1.0}
_SCHATTEN_GRID = {"d": 2, "L": 64.0, "N": 128}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two workers need two CPUs")
@pytest.mark.parametrize(
    "command,update,n_files",
    [
        ("campaign", {}, 9),
        ("campaign", {"grid": _SCHATTEN_GRID,
                      "experiment": {**_SCHATTEN, "n_samples": 4, "R_list": [16.0, 32.0]}}, 2),
        ("svd", {"grid": _SCHATTEN_GRID, "experiment": {**_SCHATTEN, "n_samples": 3, "R": 16.0}}, 4),
    ],
    ids=["extnorm_campaign", "schatten_campaign", "svd"],
)
def test_campaign_bits_do_not_depend_on_the_blas_thread_count(tmp_path, command, update, n_files):
    """Processes started with OPENBLAS_NUM_THREADS = 1, 2 and 3 write the bytes of one started by default.

    Every randomized sandwich is drawn on one BLAS thread set inside the
    process, whatever count it started with.
    """
    import subprocess
    import sys

    import evbounds
    from evbounds import util

    if util._openblas() is None:
        pytest.skip("numpy does not bundle an OpenBLAS with openblas_set_num_threads_local")
    src = Path(evbounds.__file__).resolve().parents[1]
    data = {**_campaign_dict(n_samples=5, r_list=(8.0, 16.0, 32.0)), **update, "out_dir": "out"}
    unset = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    trees = []
    for threads in ("default", "1", "2", "3"):
        env = {k: v for k, v in os.environ.items() if k not in unset}
        if threads != "default":
            env["OPENBLAS_NUM_THREADS"] = threads
        work = tmp_path / f"threads_{threads}"
        work.mkdir()
        (work / "cfg.json").write_text(json.dumps(data), encoding="utf-8")
        argv = [command, "--config", "cfg.json", "--workers", "2"]
        done = subprocess.run(
            [sys.executable, "-c", _CLI_CHILD, str(src), *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        trees.append(_files(work / "out"))
    assert len(trees[0]) == n_files and all(tree == trees[0] for tree in trees[1:])


class _CountingBlas:
    """A stand-in for numpy's OpenBLAS: records every thread count set, starting from 4."""

    def __init__(self):
        self.threads, self.calls = 4, []

    def openblas_set_num_threads_local(self, count):
        self.calls.append(count)
        prev, self.threads = self.threads, count
        return prev


@pytest.mark.parametrize("experiment", ["PROP_EXTNORM", "SCHATTEN_DECAY"])
def test_a_multi_radius_campaign_restores_the_blas_thread_count_once(tmp_path, monkeypatch, experiment):
    """Three radii at --workers 2 put back the start count once, after the last fork, not per radius.

    Each restore after a fork rebuilds OpenBLAS's thread pool, whose new
    worker spins before it sleeps; the radius loop holds one block instead.
    """
    from evbounds import util

    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))
    blas = _CountingBlas()
    monkeypatch.setattr(util, "_openblas", lambda: blas)
    if experiment == "PROP_EXTNORM":
        data = _campaign_dict(n_samples=2, r_list=(8.0, 16.0, 32.0))
    else:
        data = _schatten_dict(campaign=True)
        data["experiment"]["R_list"] = [4.0, 8.0, 16.0]
    assert _run(tmp_path, data, "campaign", ("--workers", "2"))[0] == 0
    assert [count for count in blas.calls if count != 1] == [4] and blas.threads == 4


@pytest.mark.parametrize("omega", [True, False], ids=["draws", "deterministic"])
def test_svd_files_come_from_the_real_form_and_keep_their_bytes_on_rerun(tmp_path, monkeypatch, omega):
    """A pair-form svd run takes no SVD, and a rerun writes the same bytes.

    test_schatten_outputs_are_the_same_for_every_worker_count checks the
    draws' files for --workers 1-3.
    """
    data = _schatten_dict()
    data["experiment"]["n_samples"] = 3
    if not omega:
        data["omega"] = None
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    first = _tree(tmp_path / "work", data, "svd", 1, monkeypatch)
    assert calls == [] and len(first) == (4 if omega else 2)
    assert main(["svd", "--config", "cfg.json"]) == 0
    assert _files(tmp_path / "work" / "out") == first


@pytest.mark.parametrize(
    "index,raised,experiment",
    [(1, RuntimeError, "PROP_EXTNORM"), (0, FloatingPointError, "PROP_EXTNORM"),
     (1, RuntimeError, "SCHATTEN_DECAY")],
    ids=["worker_1", "parent", "schatten_worker_1"],
)
def test_a_failed_draw_writes_nothing_and_leaves_no_worker(
    tmp_path, monkeypatch, capfd, index, raised, experiment
):
    """Realization 1 is worker 1's first draw at --workers 2, realization 0 this process's.

    A worker that raises prints its traceback and exits 1, and the command
    raises naming it; a draw that raises here stops the workers.  Either
    way no CSV is written and every worker has been reaped.
    """
    from evbounds.extension import SandwichEnsemble

    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))
    real = SandwichEnsemble.with_omega

    def with_omega(self, omega):
        if omega.spec.realization_index == index:
            raise FloatingPointError(f"injected failure at realization {index}")
        return real(self, omega)

    monkeypatch.setattr(SandwichEnsemble, "with_omega", with_omega)
    worker_failed = raised is RuntimeError
    message = "campaign worker 1 of 2 exited with status 1" if worker_failed else "injected"
    if experiment == "PROP_EXTNORM":
        data = _campaign_dict(n_samples=4)
    else:
        data = _schatten_dict(campaign=True)
        data["experiment"]["n_samples"] = 4
    with pytest.raises(raised, match=message):
        _run(tmp_path, data, "campaign", ("--workers", "2"))
    if worker_failed:
        assert "injected failure at realization 1" in capfd.readouterr().err
    assert not list((tmp_path / "out").rglob("*.csv"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["campaign", "svd", "verify"])
def test_schatten_outputs_are_the_same_for_every_worker_count(tmp_path, monkeypatch, command):
    """The SCHATTEN_DECAY campaign, svd and verify files are the same bytes for --workers 1, 2 and 3.

    The campaign and svd manifests record the draws' BLAS setting, not k.
    """
    from evbounds.util import one_blas_thread_setting

    _admit_three_workers(monkeypatch)
    data = _schatten_dict(campaign=command == "campaign")
    data["experiment"]["n_samples"] = 5
    trees = [_tree(tmp_path / f"k{k}", data, command, k, monkeypatch) for k in (1, 2, 3)]
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert len(trees[0]) == {"campaign": 2, "svd": 6, "verify": 1}[command]
    if command != "verify":
        manifest = json.loads(next(v for k, v in trees[0].items() if k.startswith("manifest_")))
        assert manifest["draw_blas"] == one_blas_thread_setting()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "potential,v_inf",
    [({"kind": "indicator_ball", "amplitude": [0.6, 0.8], "R": 8.0}, abs(0.6 + 0.8j)),
     ({"kind": "power_decay", "amplitude": [1.5, 0.0], "s": 2.0}, 1.5 / 2.0**2)],
    ids=["indicator", "power_decay"],
)
def test_extnorm_verify_takes_the_sup_norm_of_the_campaign_field(tmp_path, potential, v_inf):
    """||V||_inf is max |V| on the reported radius's campaign grid, not |amplitude|.

    For the indicator the two agree bit for bit; a power_decay field with
    s = 2 peaks at amplitude / <0>^2.
    """
    data = {**_campaign_dict(n_samples=100), "potential": potential}
    code, out = _run(tmp_path, data, command="verify")
    assert code in (0, 1)
    report = json.loads(next(out.glob("report_*.json")).read_text(encoding="utf-8"))
    assert report["params"]["v_inf"] == v_inf


def test_workers_above_the_cpu_count_is_a_config_error_before_any_fork(
    tmp_path, monkeypatch, capsys
):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    too_many = str((os.cpu_count() or 1) + 1)
    code, out = _run(tmp_path, _campaign_dict(n_samples=4), "campaign", ("--workers", too_many))
    assert code == 2
    assert "workers: must lie in [1, " in capsys.readouterr().err
    assert not out.exists()


def test_campaign_tail(tmp_path):
    data = _campaign_dict()
    data["experiment"] = {"name": "TAIL", "R": 8.0, "n_samples": 100, "lam": 1.0}
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    lines = next(out.glob("tail_*.csv")).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "threshold,fraction,wilson_lower,wilson_upper"
    assert len(lines) == 4
    fracs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    manifest = json.loads(next(out.glob("manifest_*.json")).read_text(encoding="utf-8"))
    assert "monotone" in manifest and "c" in manifest


def test_campaign_evsum(tmp_path):
    data = _base_dict(
        grid={"d": 1, "L": 8.0, "N": 64},
        potential={"kind": "indicator_ball", "amplitude": [0.0, 1.0], "R": 1.0},
        experiment={"name": "EVSUM", "amplitudes": [1.0, 2.0], "eps": 0.1,
                    "R0": 4.0, "h": 0.125, "essential_margin": 0.05,
                    "kappa_filter": 0.1},
    )
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    lines = next(out.glob("evsum_*.csv")).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "amplitude,lhs,rhs_raw"
    assert len(lines) == 3
    manifest = json.loads(next(out.glob("manifest_*.json")).read_text(encoding="utf-8"))
    assert manifest["c2"] is None  # two amplitudes cannot support a fit


def test_svd_deterministic(tmp_path):
    data = _base_dict(
        grid={"d": 2, "L": 8.0, "N": 32},
        potential={"kind": "indicator_ball", "amplitude": [1.0, 0.0], "R": 2.0},
        experiment={"name": "SCHATTEN_DECAY", "nu": 1.0, "lam": 1.0},
    )
    code, out = _run(tmp_path, data, command="svd")
    assert code == 0
    lines = next(out.glob("svals_*_det.csv")).read_text(encoding="utf-8").splitlines()
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(vals) == 14  # 2 ceil(2 pi) nodes on the radius-2 circle net
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_svd_randomized_realizations_differ(tmp_path):
    data = _base_dict(
        grid={"d": 2, "L": 8.0, "N": 32},
        potential={"kind": "indicator_ball", "amplitude": [1.0, 0.0], "R": 2.0},
        omega={"h": 1.0, "distribution": "bernoulli", "master_seed": 2026},
        experiment={"name": "SCHATTEN_DECAY", "nu": 1.0, "n_samples": 2},
    )
    code, out = _run(tmp_path, data, command="svd")
    assert code == 0
    files = sorted(out.glob("svals_*_r*.csv"))
    assert len(files) == 2
    assert files[0].read_bytes() != files[1].read_bytes()


def test_net_info(tmp_path, capsys):
    data = _base_dict(
        grid={"d": 2, "L": 8.0, "N": 32},
        experiment={"name": "SCHATTEN_DECAY", "nu": 1.0, "R_list": [4.0, 8.0]},
    )
    code, out = _run(tmp_path, data, command="net-info")
    assert code == 0
    lines = next(out.glob("net_info_*.csv")).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[1]) == 26  # ceil(2 pi * 4) equispaced nodes
    assert float(first[2]) == 0.25


def test_seed_flag_overrides_master_seed(tmp_path):
    data = _base_dict(
        omega={"h": 1.0, "distribution": "bernoulli", "master_seed": 2026},
    )
    cfg_path = _write_cfg(tmp_path, data)
    out = tmp_path / "out"
    code = main(["spectrum", "--config", cfg_path, "--out", str(out), "--seed", "7"])
    assert code == 0
    manifest = json.loads(next(out.glob("manifest_*.json")).read_text(encoding="utf-8"))
    assert manifest["config"]["omega"]["master_seed"] == 7


def test_workers_validation(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_dict())
    code = main(["spectrum", "--config", cfg_path, "--workers", "0"])
    assert code == 2
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,experiment,field",
    [
        ("campaign", {"name": "PROP_EXTNORM", "R_list": [8.0, 12.0], "n_samples": 2}, "R_list"),
        ("verify", {"name": "PROP_EXTNORM", "R_list": [12.0], "n_samples": 100}, "R_list"),
        ("campaign", {"name": "TAIL", "R": 12.0, "n_samples": 100}, "R"),
        ("verify", {"name": "TAIL", "R": 12.0, "n_samples": 100}, "R"),
    ],
)
def test_bad_campaign_radius_is_a_config_error(tmp_path, capsys, command, experiment, field):
    # L = 4R = 48 at dx = 0.25 gives N = 192, which is not a power of two
    data = _campaign_dict()
    data["experiment"] = experiment
    code, out = _run(tmp_path, data, command=command)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"experiment.{field}:" in err and "12" in err
    assert not list(tmp_path.rglob("campaign_*"))
    assert not out.exists()


@pytest.mark.parametrize(
    "r_list,pair",
    [([4.0, 4.0000001, 8.0], "R = 4.0 and R = 4.0000001"), ([8.0, 4.0, 8.0], "R = 8.0 and R = 8.0")],
    ids=["same_name", "exact"],
)
def test_radii_sharing_a_norms_file_are_a_config_error(tmp_path, capsys, no_work, r_list, pair):
    """Radii name their norms file R{R:g}: two that print alike would share one."""
    code, out = _run(tmp_path, _campaign_dict(n_samples=2, r_list=r_list), command="campaign")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: experiment.R_list:" in err and pair in err
    assert not list(tmp_path.rglob("campaign_*"))
    assert not out.exists()


def test_campaign_on_a_box_below_one_cell(tmp_path):
    """At R = 0.2 the L = 4R = 0.8 box holds no unit cell; the |V| reference takes one of side 0.8."""
    from evbounds.harness import deterministic_ext_norm
    from evbounds.potential import PotentialSpec

    data = _campaign_dict(n_samples=2, r_list=(0.2,))
    data["grid"] = {"d": 2, "L": 3.2, "N": 64}  # dx = 0.05
    data["omega"]["h"] = 0.1
    data["experiment"]["lam"] = 8.0
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    row = next(out.glob("summary_*.csv")).read_text(encoding="utf-8").splitlines()[1].split(",")
    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0)
    assert row[5] == repr(deterministic_ext_norm(spec, 8.0, 0.2, d=2, dx=0.05))


@pytest.mark.parametrize(
    "command,experiment",
    [
        ("verify", {"name": "PROP_EXTNORM", "R_list": [8.0], "n_samples": 5}),
        ("verify", {"name": "TAIL", "R": 8.0, "n_samples": 5}),
        ("campaign", {"name": "TAIL", "R": 8.0, "n_samples": 5}),
    ],
)
def test_too_few_samples_is_a_config_error(tmp_path, capsys, monkeypatch, command, experiment):
    def no_work(*args, **kwargs):
        raise AssertionError("norms computed before the sample count was checked")

    monkeypatch.setattr(cli, "ext_norm_samples", no_work)
    monkeypatch.setattr(cli, "deterministic_ext_norm", no_work)
    data = _campaign_dict()
    data["experiment"] = experiment
    code, out = _run(tmp_path, data, command=command)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "experiment.n_samples:" in err and "100" in err
    assert not list(tmp_path.rglob("campaign_*"))
    assert not out.exists()


def test_extnorm_verify_computes_only_the_reported_radius(tmp_path, monkeypatch):
    seen = []
    real = cli.ext_norm_samples

    def spy(potential_spec, omega_template, lam, R, *args, **kwargs):
        seen.append(R)
        return real(potential_spec, omega_template, lam, R, *args, **kwargs)

    monkeypatch.setattr(cli, "ext_norm_samples", spy)
    code, out = _run(tmp_path, _campaign_dict(n_samples=100, r_list=(4.0, 8.0)), command="verify")
    assert code in (0, 1)
    assert seen == [8.0]
    report = json.loads(next(out.glob("report_*.json")).read_text(encoding="utf-8"))
    assert report["params"]["R"] == 8.0
    assert report["params"]["n"] == 100


def test_extnorm_verify_builds_no_deterministic_reference(tmp_path, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("verify built the |V| reference it never reports")

    monkeypatch.setattr(cli, "deterministic_ext_norm", no_reference)
    monkeypatch.setattr("evbounds.harness.deterministic_ext_norm", no_reference)
    code, out = _run(tmp_path, _campaign_dict(n_samples=100), command="verify")
    assert code in (0, 1)
    assert list(out.glob("report_*.json"))


def test_campaign_takes_dx_from_grid(tmp_path):
    from evbounds.harness import deterministic_ext_norm, ext_norm_samples
    from evbounds.potential import PotentialSpec
    from evbounds.randomize import OmegaSpec

    data = _campaign_dict(n_samples=2)
    data["grid"] = {"d": 2, "L": 32.0, "N": 64}  # dx = 0.5
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    row = next(out.glob("summary_*.csv")).read_text(encoding="utf-8").splitlines()[1].split(",")
    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0, R=8.0)
    det = deterministic_ext_norm(spec, 1.0, 8.0, d=2, dx=0.5)
    assert row[5] == repr(det)
    assert det != deterministic_ext_norm(spec, 1.0, 8.0, d=2, dx=0.25)
    norms = ext_norm_samples(spec, OmegaSpec(1.0, "bernoulli", 2026), 1.0, 8.0, [0, 1], dx=0.5)
    assert cli._read_norms(next(out.glob("campaign_*/norms_R8.csv"))) == dict(enumerate(norms))


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _refuse(*args, **kwargs):
    raise AssertionError("a resume with every file on disk computed something")


def test_campaign_resume_builds_and_computes_nothing(tmp_path, monkeypatch):
    import evbounds.harness as harness

    data = _campaign_dict(n_samples=3, r_list=(4.0, 8.0, 16.0))
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    fresh = _files(out)
    assert sorted(p.name for p in next(out.glob("campaign_*")).iterdir()) == [
        "norms_R16.csv", "norms_R4.csv", "norms_R8.csv",
        "reference_R16.csv", "reference_R4.csv", "reference_R8.csv",
    ]
    monkeypatch.setattr(harness, "SandwichEnsemble", _refuse)
    monkeypatch.setattr(harness, "spectral_norm", _refuse)
    code, _ = _run(tmp_path, data, command="campaign")
    assert code == 0
    assert _files(out) == fresh


@pytest.mark.parametrize(
    "amplitude,h,builds",
    [([1.0, 0.0], 1.0, 1), ([0.6, 0.8], 1.0, 2), ([1.0, 0.0], 2.0, 2), ([-1.0, 0.0], 1.0, 2)],
    ids=["unit", "complex", "h_2", "negative"],
)
def test_fresh_campaign_builds_the_reference_once_where_it_can(
    tmp_path, monkeypatch, amplitude, h, builds
):
    """One ensemble per radius when the draws' ensemble is the |V| one, else two; same bits."""
    import evbounds.harness as harness
    from evbounds.harness import deterministic_ext_norm
    from evbounds.potential import PotentialSpec

    data = _campaign_dict(n_samples=2, r_list=(8.0, 16.0))
    data["potential"]["amplitude"] = amplitude
    data["omega"]["h"] = h
    built = []
    real = harness.SandwichEnsemble

    def spy(net_out, net_in, field, cell):
        built.append(field.grid.L)
        return real(net_out, net_in, field, cell)

    monkeypatch.setattr(harness, "SandwichEnsemble", spy)
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    assert built == [32.0] * builds + [64.0] * builds
    monkeypatch.setattr(harness, "SandwichEnsemble", real)
    rows = next(out.glob("summary_*.csv")).read_text(encoding="utf-8").splitlines()[1:]
    spec = PotentialSpec(kind="indicator_ball", amplitude=complex(*amplitude))
    for R, row in zip((8.0, 16.0), rows):
        assert row.split(",")[5] == repr(deterministic_ext_norm(spec, 1.0, R, d=2, dx=0.25))


def test_campaign_reference_where_net_nodes_are_whole_turns_apart(tmp_path):
    """At lam = 2, R = 16 two net nodes lie 4 = 1 / dx apart: the reference is still the node-level norm."""
    from evbounds.extension import build_net, sandwich
    from evbounds.harness import campaign_grid
    from evbounds.potential import PotentialSpec, sample_potential
    from evbounds.util import spectral_norm

    data = _campaign_dict(n_samples=1, r_list=(16.0,))
    data["experiment"]["lam"] = 2.0
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    det = float(next(out.glob("summary_*.csv")).read_text(encoding="utf-8").splitlines()[1].split(",")[5])
    field = sample_potential(PotentialSpec(kind="indicator_ball", R=16.0), campaign_grid(16.0, 2, 0.25))
    net = build_net(2.0, 16.0, 2)
    want = spectral_norm(sandwich(net, net, field).matrix)
    assert abs(det - want) <= 1e-12 * want


def test_campaign_without_reference_files_resumes_by_writing_them(tmp_path, monkeypatch):
    """A campaign directory holding only norms files, as older runs left them, resumes."""
    import evbounds.harness as harness

    data = _campaign_dict(n_samples=3, r_list=(4.0, 8.0))
    _, out = _run(tmp_path, data, command="campaign")
    fresh = _files(out)
    references = list(out.glob("campaign_*/reference_R*.csv"))
    assert len(references) == 2
    for path in references:
        path.unlink()
    monkeypatch.setattr(harness, "draw_omega", _refuse)
    code, _ = _run(tmp_path, data, command="campaign")
    assert code == 0
    assert _files(out) == fresh


@pytest.mark.parametrize(
    "damage,line",
    [
        (lambda text: text[: text.rindex(".") + 3], "no final newline"),
        (lambda text: text.replace("\n0,", "\n00,"), "line 2"),
        (lambda text: text[:-1] + " \n", "line 2"),
        (lambda text: text + text.splitlines()[1] + "\n", "line 3"),
    ],
    ids=["cut", "padded_index", "padded_value", "duplicated"],
)
def test_campaign_rejects_a_damaged_reference_file(tmp_path, capsys, monkeypatch, damage, line):
    import evbounds.harness as harness

    data = _campaign_dict(n_samples=2)
    _, out = _run(tmp_path, data, command="campaign")
    path = next(out.glob("campaign_*/reference_R8.csv"))
    text = damage(path.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(harness, "SandwichEnsemble", _refuse)
    capsys.readouterr()
    code, _ = _run(tmp_path, data, command="campaign")
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {path}" in err and line in err
    assert path.read_text(encoding="utf-8") == text


# argv: src directory, then the command line as JSON.  The ensemble class
# raises, so the command exits 0 only if it builds none.
_RESUME_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from evbounds import cli, harness

def refuse(*args, **kwargs):
    raise AssertionError("a resume built an ensemble")

harness.SandwichEnsemble = refuse
sys.exit(cli.main(json.loads(sys.argv[2])))
"""


def test_resume_in_a_fresh_interpreter_builds_no_ensemble(tmp_path):
    """What a resume skips is on disk, not in this process."""
    import subprocess
    import sys

    import evbounds

    data = _campaign_dict(n_samples=2, r_list=(4.0, 8.0))
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    fresh = _files(out)
    argv = ["campaign", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
    src = Path(evbounds.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _RESUME_CHILD, str(src), json.dumps(argv)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert _files(out) == fresh


def test_dispatch_table_covers_exactly_the_experiments():
    from evbounds.config import EXPERIMENTS
    from evbounds.harness import BoundReport

    assert len(set(EXPERIMENTS)) == len(EXPERIMENTS)
    assert set(cli.DRIVERS) == set(EXPERIMENTS)
    for name, (verify, _) in cli.DRIVERS.items():
        assert callable(verify) == (name != "SPECTRUM")
        if verify is not None:  # every verifiable name is a bound id
            BoundReport(name, 0.0, 1.0, 1.0, 0.0, False, {})


def test_readme_demo_configs_have_a_driver():
    runs = _readme_runs()
    configs = runs[0][1].parent
    assert {p.name for p in configs.glob("*.json")} == {path.name for _, path in runs}
    seen = set()
    for command, path in runs:
        name = load_config(path).experiment["name"]
        seen.add((command, name))
        if command == "spectrum":
            assert name in cli.DRIVERS
        else:
            assert cli.DRIVERS[name][("verify", "campaign").index(command)] is not None
    assert seen == {
        ("spectrum", "SPECTRUM"),
        ("verify", "AAD1D"),
        ("campaign", "PROP_EXTNORM"),
        ("campaign", "EVSUM"),
    }


def _readme_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    runs = re.findall(r"evbounds (\w+) +--config demos/configs/([\w.]+\.json)", readme)
    return [(command, root / "demos" / "configs" / fname) for command, fname in runs]


def _leaf_paths(node, path=()):
    """Key paths of every leaf of a JSON value: scalars, nulls and empty containers."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    if not items:
        yield path
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


class _Solver(Exception):
    """Raised by the patched solver entry points."""


def test_demo_config_mutations_end_in_a_config_error_or_the_solver(tmp_path, capsys, monkeypatch):
    def solver(*args, **kwargs):
        raise _Solver

    for name in ("eigenvalues_dense", "ext_norm_samples", "campaign_norms", "deterministic_ext_norm", "evsum_sweep",
                 "schatten_campaign", "config_sandwiches"):
        monkeypatch.setattr(cli, name, solver)
    faults, runs = [], 0
    for command, path in _readme_runs():
        data = json.loads(path.read_text(encoding="utf-8"))
        for keys in _leaf_paths(data):
            for value in ("x", [], None):
                mutated = json.loads(json.dumps(data))
                node = mutated
                for key in keys[:-1]:
                    node = node[key]
                node[keys[-1]] = value
                try:
                    _run(tmp_path, mutated, command=command)
                except _Solver:
                    pass
                except Exception as err:  # noqa: BLE001 - every other exception is a fault
                    faults.append(f"{path.name} {'.'.join(map(str, keys))} = {value!r}: {err!r}")
                runs += 1
    capsys.readouterr()
    assert runs > 100
    assert not faults, "\n".join(faults)


def _schatten_dict(nu=1.0, d=2, campaign=False):
    data = _campaign_dict()
    data["grid"] = {"d": d, "L": 32.0, "N": 64}
    data["experiment"] = {"name": "SCHATTEN_DECAY", "nu": nu, "n_samples": 2}
    data["experiment"].update({"R_list": [8.0]} if campaign else {"R": 8.0})
    return data


@pytest.mark.parametrize("command", ["verify", "campaign"])
@pytest.mark.parametrize(
    "nu,d,field", [(5.0, 2, "experiment.nu:"), (0.0, 2, "experiment.nu:"), (1.0, 3, "grid.d:")]
)
def test_schatten_parameters_are_checked_before_any_work(
    tmp_path, capsys, monkeypatch, command, nu, d, field
):
    import evbounds.harness as harness

    def no_work(*args, **kwargs):
        raise AssertionError("work started before nu and d were checked")

    monkeypatch.setattr(harness, "SandwichEnsemble", no_work)
    monkeypatch.setattr(harness, "singular_values", no_work)
    code, out = _run(tmp_path, _schatten_dict(nu, d, command == "campaign"), command=command)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not out.exists()


def _experiment(**experiment):
    return lambda d: d.update(experiment=experiment)


def _well(potential=None, grid=None, **experiment):
    """A 1-D well (L = 16, N = 256, radius 1) with the campaign's omega."""
    return lambda d: d.update(
        grid=grid or {"d": 1, "L": 16.0, "N": 256},
        potential=potential or {"kind": "indicator_ball", "amplitude": [2.0, 0.0], "R": 1.0},
        experiment=experiment,
    )


def _schatten(**experiment):
    return lambda d: d.update(grid={"d": 2, "L": 32.0, "N": 64},
                              experiment={"name": "SCHATTEN_DECAY", "nu": 1.0, **experiment})


_EVSUM = {"name": "EVSUM", "eps": 0.9, "R0": 4.0, "h": 0.125, "amplitudes": [1.0, 2.0]}


@pytest.mark.parametrize(
    "command,mutate,field",
    [
        ("verify", _experiment(name="KLT_DET", q="x"), "experiment.q:"),
        ("campaign", _experiment(name="PROP_EXTNORM", R_list="abc"), "experiment.R_list:"),
        ("campaign", _experiment(name="PROP_EXTNORM", R_list=[8.0], n_samples="x"),
         "experiment.n_samples:"),
        ("verify", _experiment(name="PROP_EXTNORM", R_list=[8.0], lam="x"), "experiment.lam:"),
        ("verify", _experiment(name="EVSUM", eps=0.1, R0=4.0, h="x"), "experiment.h:"),
        ("campaign", _experiment(name="TAIL", R=8.0, thresholds=["x"]), "experiment.thresholds:"),
        ("verify", lambda d: d.update(potential={"kind": "tabulated"},
                                      experiment={"name": "PROP_EXTNORM", "R_list": [8.0]}),
         "potential:"),
        # before any work: the field, the filter, the dense size and every sphere net
        ("spectrum", _well({"kind": "indicator_ball", "R": 5.0}, name="SPECTRUM"), "potential:"),
        ("spectrum", _well({"kind": "knapp_oscillatory", "oscillation": {"eps": 2}},
                           name="SPECTRUM"), "potential:"),
        ("spectrum", _well(grid={"d": 2, "L": 32.0, "N": 128}, name="SPECTRUM"), "grid:"),
        ("verify", _well(grid={"d": 2, "L": 32.0, "N": 128}, name="KLT_DET", q=1.0), "grid:"),
        ("spectrum", _well(name="SPECTRUM", band=[2.0, 1.0]), "experiment: band"),
        ("svd", _schatten(R=0.5), "experiment.R: R = 0.5"),
        ("net-info", _schatten(R_list=[0.5]), "experiment.R_list: R = 0.5"),
        ("campaign", _experiment(name="PROP_EXTNORM", R_list=[0.5]), "experiment.R_list: R = 0.5"),
        # the checker's own argument checks, on its vacuous case, before the solve
        ("verify", _well(name="KLT_DET", q=5.0), "experiment: q must"),
        ("verify", _well(name="SECTOR", q=1.0, kappa=0.0), "experiment: kappa must"),
        ("verify", _well(name="THM3", q=9.0, M=5.0), "experiment: q must"),
        ("verify", _well(name="THM1", q=1.0, R=0.25, M=5.0), "experiment: potential support"),
        ("verify", _well(**_EVSUM), "experiment: eps must"),
        ("campaign", _well(**_EVSUM), "experiment: eps must"),
        # zero scales: the filter window and the checker's window
        ("verify", _well(**{**_EVSUM, "eps": 0.1, "R0": 0}), "experiment: R0 and h must"),
        ("verify", _well(**{**_EVSUM, "eps": 0.1, "h": 0, "band": [0.0, 1.0]}),
         "experiment: R0 and h must"),
        # omega cells larger than the L = 4R campaign box
        ("campaign", lambda d: d["omega"].update(h=40.0), "omega.h: R = 8"),
        # empty lists
        ("verify", _experiment(name="PROP_EXTNORM", R_list=[], n_samples=100),
         "experiment.R_list:"),
        ("verify", _experiment(name="TAIL", R=8.0, n_samples=100, thresholds=[]),
         "experiment.thresholds:"),
        ("campaign", _experiment(name="PROP_EXTNORM", R_list=[], n_samples=2),
         "experiment.R_list:"),
        # no draws where at least one is needed
        ("campaign", _experiment(name="PROP_EXTNORM", R_list=[2.0, 4.0, 8.0], n_samples=0),
         "experiment.n_samples:"),
        ("campaign", _schatten(R_list=[8.0], n_samples=0), "experiment.n_samples:"),
        ("svd", _schatten(R=8.0, n_samples=0), "experiment.n_samples:"),
        # integer fields: no bool, string or fraction is truncated to an int
        ("campaign", lambda d: d["grid"].update(d=True), "grid.d:"),
        ("campaign", lambda d: d["grid"].update(N=128.9), "grid.N:"),
        ("campaign", lambda d: d["grid"].update(N="128"), "grid.N:"),
        ("campaign", lambda d: d["omega"].update(master_seed=1.5), "omega.master_seed:"),
        ("campaign", lambda d: d["omega"].update(realization_index=0.5),
         "omega.realization_index:"),
        ("campaign", _experiment(name="PROP_EXTNORM", R_list=[8.0], n_samples=20.7),
         "experiment.n_samples:"),
        # float fields: no bool or string is read as a number
        ("campaign", lambda d: d["grid"].update(L="32"), "grid.L:"),
        ("campaign", lambda d: d["omega"].update(h=True), "omega.h:"),
        ("campaign", _experiment(name="PROP_EXTNORM", R_list=["4", True, 16]),
         "experiment.R_list: expected a number, got '4'"),
        ("verify", _experiment(name="PROP_EXTNORM", R_list=[8.0], lam=True), "experiment.lam:"),
        ("campaign", lambda d: d["potential"].update(amplitude=[True, 0.0]),
         "potential.amplitude:"),
        ("spectrum", lambda d: d["potential"].update(kind="wigner_von_neumann",
                                                     oscillation={"wavenumber": "2"}),
         "potential.oscillation.wavenumber:"),
        ("campaign", lambda d: d["grid"].update(L=10**400), "grid.L:"),
    ],
    ids=["q", "R_list", "n_samples", "lam", "h", "thresholds", "tabulated",
         "support", "knapp_eps", "dense_spectrum", "dense_verify", "band", "svd_net",
         "net_info_net", "campaign_net", "KLT_DET_q", "SECTOR_kappa", "THM3_q", "THM1_R",
         "EVSUM_eps_verify", "EVSUM_eps_campaign", "EVSUM_R0_zero", "EVSUM_h_zero",
         "omega_cells_over_box", "empty_R_list_verify",
         "empty_thresholds", "empty_R_list_campaign", "no_draws_extnorm_campaign",
         "no_draws_schatten_campaign", "no_draws_svd", "bool_d", "fractional_N", "string_N",
         "fractional_master_seed", "fractional_realization_index", "fractional_n_samples",
         "string_L", "bool_h", "string_R_list_entry", "bool_lam", "bool_amplitude",
         "string_wavenumber", "huge_int_L"],
)
def test_bad_values_are_config_errors(tmp_path, capsys, no_work, command, mutate, field):
    data = _campaign_dict()
    mutate(data)
    code, out = _run(tmp_path, data, command=command)
    _assert_config_error(tmp_path, capsys, code, out, field)


def test_evsum_campaign_filters_as_verify_does(tmp_path):
    data = _base_dict(
        grid={"d": 1, "L": 8.0, "N": 64},
        potential={"kind": "indicator_ball", "amplitude": [0.0, 2.0], "R": 1.0},
        experiment={"name": "EVSUM", "amplitudes": [1.0, 2.0], "eps": 0.1, "R0": 4.0,
                    "h": 0.125, "essential_margin": 0.05, "kappa_filter": 0.1,
                    "band": [0.0, 1.0]},
    )
    _run(tmp_path, data, command="verify")
    code, out = _run(tmp_path, data, command="campaign")
    assert code == 0
    report = json.loads(next(out.glob("report_*.json")).read_text(encoding="utf-8"))
    row = next(out.glob("evsum_*.csv")).read_text(encoding="utf-8").splitlines()[1].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == report["lhs"]


@pytest.mark.parametrize("command", ["verify", "campaign"])
@pytest.mark.parametrize(
    "thresholds",
    [[1.2, 1.1, 1.05], [1.1], [0.0, 1.5], [-1.0, 2.0], [1.5, 1.5], [1.0, float("inf")]],
    ids=["descending", "single", "zero", "negative", "repeated", "infinite"],
)
def test_tail_thresholds_must_increase_from_zero(tmp_path, capsys, no_work, command, thresholds):
    # check_tail compares the first and the last threshold's fraction, so any
    # other list would fix the verdict before a single draw
    data = _campaign_dict()
    data["experiment"] = {"name": "TAIL", "R": 8.0, "n_samples": 100, "lam": 1.0,
                          "thresholds": thresholds}
    code, out = _run(tmp_path, data, command=command)
    _assert_config_error(tmp_path, capsys, code, out, "experiment.thresholds:")


@pytest.mark.parametrize("prefix", ["summary_", "manifest_"])
def test_campaign_killed_mid_write_keeps_the_previous_file(tmp_path, monkeypatch, prefix):
    data = _campaign_dict(n_samples=3)
    _, out = _run(tmp_path, data, command="campaign")
    path = next(out.glob(f"{prefix}*"))
    before = path.read_bytes()
    real_open = open

    class Dying:
        """A file that takes half of its first write and then dies."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise RuntimeError("killed mid-write")

    def dying_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return Dying(fh) if Path(file).name.startswith(prefix) else fh

    monkeypatch.setattr(cli, "open", dying_open, raising=False)
    with pytest.raises(RuntimeError, match="killed mid-write"):
        _run(tmp_path, data, command="campaign")
    assert path.read_bytes() == before
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize(
    "name,digest",
    [
        ("evsum_sweep", "3e57a5c3a1d7"),
        ("scaling_campaign", "36fc7759c462"),
        ("verify_well_bound", "51ce850b4269"),
        ("well_spectrum", "41360539742f"),
    ],
)
def test_demo_configs_keep_their_hashes(name, digest):
    # every output file is named by this hash, so a campaign directory written
    # before a change to the config reader must still be found after it
    path = Path(__file__).resolve().parents[1] / "demos" / "configs" / f"{name}.json"
    assert load_config(path).config_hash() == digest
