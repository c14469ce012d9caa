"""Which commands load scipy and numpy.ma.

scipy is imported where it is called: a Gaussian draw loads scipy.special.
Importing evbounds, a sign-draw campaign, a spectrum and a spectral verify
load no scipy module, since every eigensolve is numpy.linalg's, and the
spectral commands load no numpy.ma either.  Each case runs the command in
a fresh interpreter, since this process has scipy loaded long before.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import evbounds
from evbounds import cli

SRC = Path(evbounds.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# argv: src directory, then the command line as JSON.  The last line of
# standard output is a JSON object: the exit code, evbounds' location, the
# scipy modules loaded before and after the command, and whether numpy.ma
# is loaded after it.
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import evbounds
from evbounds import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

before = scipy_modules()
code = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"code": code, "file": evbounds.__file__, "before": before,
                  "after": scipy_modules(), "numpy_ma": "numpy.ma" in sys.modules}))
"""


def _run_fresh(argv: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), json.dumps(argv)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert Path(result["file"]).resolve() == Path(evbounds.__file__).resolve()
    assert result["before"] == [], "importing evbounds.cli loaded scipy"
    return result


def _campaign(tmp_path: Path, distribution: str) -> list[str]:
    data = {
        "grid": {"d": 2, "L": 32.0, "N": 128},
        "potential": {"kind": "indicator_ball", "amplitude": [1.0, 0.0], "R": 8.0},
        "omega": {"h": 1.0, "distribution": distribution, "master_seed": 2026},
        "experiment": {"name": "PROP_EXTNORM", "R_list": [2.0, 4.0], "n_samples": 2,
                       "lam": 1.0},
    }
    path = tmp_path / f"{distribution}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return ["campaign", "--config", str(path), "--out", str(tmp_path / "out")]


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_sign_campaign_never_loads_scipy(tmp_path):
    result = _run_fresh(_campaign(tmp_path, "bernoulli"))
    assert result["code"] == 0
    assert result["after"] == []
    assert any(p.name.startswith("summary_") for p in (tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "command,config",
    [("spectrum", "well_spectrum.json"), ("verify", "verify_well_bound.json")],
)
def test_spectral_commands_load_no_scipy_and_no_numpy_ma(tmp_path, command, config):
    argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "out")]
    result = _run_fresh(argv)
    assert result["code"] == 0
    assert result["after"] == []
    assert not result["numpy_ma"]


def test_spectrum_clustering_leaves_numpy_ma_unloaded():
    """eigenvalues_dense forms its points without np.unique, which loads numpy.ma."""
    child = """
import json, sys
sys.path.insert(0, sys.argv[1])
from evbounds import GridSpec, PotentialSpec, hamiltonian_matrix, sample_potential, spectra
gs = GridSpec(d=1, L=16.0, N=64)
h = hamiltonian_matrix(gs, sample_potential(PotentialSpec(kind="indicator_ball", amplitude=-2.0), gs))
points = spectra.eigenvalues_dense(h)
print(json.dumps({"points": len(points), "numpy_ma": "numpy.ma" in sys.modules,
                  "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""
    done = subprocess.run([sys.executable, "-c", child, str(SRC)], capture_output=True, text=True,
                          timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"points": 64, "numpy_ma": False, "scipy": []}


def test_gaussian_campaign_loads_scipy_special_and_matches_in_process(tmp_path):
    argv = _campaign(tmp_path, "gaussian")
    out = tmp_path / "out"
    result = _run_fresh(argv)
    assert result["code"] == 0
    assert "scipy.special" in result["after"]
    fresh = _files(out)
    assert fresh
    shutil.rmtree(out)  # the output directory is part of the config hash: reuse it
    assert cli.main(argv) == 0
    assert _files(out) == fresh
