"""Run configuration: JSON round-trip, validation, and content hashing.

A RunConfig pins everything a command needs: grid, potential, randomization
template, experiment parameters, and output directory.  Serialization is
canonical (sorted keys, no whitespace) so the sha256 content hash is stable
and every output file can name the exact config that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from .errors import ConfigError
from .grid import GridSpec
from .potential import KINDS, PotentialSpec
from .randomize import DISTRIBUTIONS, OmegaSpec

__all__ = ["RunConfig", "load_config"]

EXPERIMENTS = (
    "AAD1D",
    "KLT_DET",
    "SECTOR",
    "THM1",
    "THM3",
    "PROP_EXTNORM",
    "SCHATTEN_DECAY",
    "TAIL",
    "EVSUM",
    "SPECTRUM",
)


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _build(section: str, ctor, **kwargs):
    try:
        return ctor(**kwargs)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{section}: {err}") from err


@dataclass(frozen=True)
class RunConfig:
    """Validated, hashable description of one run."""

    grid: GridSpec
    potential: PotentialSpec
    omega: OmegaSpec | None
    experiment: dict
    out_dir: str = "runs"
    identity_omega: bool = False

    def to_dict(self) -> dict:
        pot = {
            "kind": self.potential.kind,
            "amplitude": [self.potential.amplitude.real, self.potential.amplitude.imag],
            "R": self.potential.R,
            "s": self.potential.s,
            "oscillation": self.potential.oscillation,
        }
        om = None
        if self.omega is not None:
            om = {
                "h": self.omega.h,
                "distribution": self.omega.distribution,
                "master_seed": self.omega.master_seed,
                "realization_index": self.omega.realization_index,
            }
        return {
            "grid": {"d": self.grid.d, "L": self.grid.L, "N": self.grid.N},
            "potential": pot,
            "omega": om,
            "experiment": self.experiment,
            "out_dir": self.out_dir,
            "identity_omega": self.identity_omega,
        }

    @classmethod
    def from_dict(cls, data: dict) -> RunConfig:
        _require(isinstance(data, dict), "config", "top level must be a JSON object")
        for key in ("grid", "potential", "experiment"):
            _require(key in data, key, "missing required section")

        gd = data["grid"]
        _require(isinstance(gd, dict), "grid", "must be an object")
        for key in ("d", "L", "N"):
            _require(key in gd, f"grid.{key}", "missing")
        grid = _build("grid", GridSpec, d=int(gd["d"]), L=float(gd["L"]), N=int(gd["N"]))

        pd = data["potential"]
        _require(isinstance(pd, dict), "potential", "must be an object")
        _require("kind" in pd, "potential.kind", "missing")
        _require(pd["kind"] in KINDS, "potential.kind", f"must be one of {KINDS}")
        _require(
            pd["kind"] != "tabulated",
            "potential.kind",
            "a tabulated field is read by load_tabulated; a config cannot carry the table",
        )
        amp = pd.get("amplitude", [1.0, 0.0])
        _require(
            isinstance(amp, (list, tuple)) and len(amp) == 2,
            "potential.amplitude",
            "must be a [re, im] pair",
        )
        potential = _build(
            "potential",
            PotentialSpec,
            kind=pd["kind"],
            amplitude=complex(float(amp[0]), float(amp[1])),
            R=float(pd.get("R", 1.0)),
            s=float(pd.get("s", 1.0)),
            oscillation=pd.get("oscillation"),
        )

        om = data.get("omega")
        omega = None
        if om is not None:
            _require(isinstance(om, dict), "omega", "must be an object or null")
            for key in ("h", "distribution", "master_seed"):
                _require(key in om, f"omega.{key}", "missing")
            _require(
                om["distribution"] in DISTRIBUTIONS,
                "omega.distribution",
                f"must be one of {DISTRIBUTIONS}",
            )
            omega = _build(
                "omega",
                OmegaSpec,
                h=float(om["h"]),
                distribution=om["distribution"],
                master_seed=int(om["master_seed"]),
                realization_index=int(om.get("realization_index", 0)),
            )

        exp = data["experiment"]
        _require(isinstance(exp, dict), "experiment", "must be an object")
        _require("name" in exp, "experiment.name", "missing")
        _require(
            exp["name"] in EXPERIMENTS,
            "experiment.name",
            f"must be one of {EXPERIMENTS}",
        )

        out_dir = data.get("out_dir", "runs")
        _require(isinstance(out_dir, str) and out_dir, "out_dir", "must be a nonempty string")
        identity = bool(data.get("identity_omega", False))
        return cls(
            grid=grid,
            potential=potential,
            omega=omega,
            experiment=dict(exp),
            out_dir=out_dir,
            identity_omega=identity,
        )

    def canonical(self) -> str:
        """Canonical JSON: sorted keys, minimal separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def with_seed(self, master_seed: int) -> RunConfig:
        if self.omega is None:
            return self
        return replace(self, omega=replace(self.omega, master_seed=master_seed))

    def with_out_dir(self, out_dir: str) -> RunConfig:
        return replace(self, out_dir=out_dir)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: invalid JSON in {path}: {err}") from err
    return RunConfig.from_dict(data)
