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
from .potential import PotentialSpec
from .randomize import OmegaSpec

__all__ = ["RunConfig", "checked", "integer", "load_config"]

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

# The keys of a config, at the top level and in each fixed section; any
# other is refused.  experiment keys depend on the experiment.
_SECTIONS = ("grid", "potential", "omega", "experiment", "out_dir")
_GRID_KEYS = ("d", "L", "N")
_POTENTIAL_KEYS = ("kind", "amplitude", "R", "s", "oscillation")
_OMEGA_KEYS = ("h", "distribution", "master_seed", "realization_index")


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _known_keys(data: dict, keys: tuple, section: str = ""):
    """Refuse the first key of data outside keys, named <section>.<key> (<key> at the top)."""
    prefix = f"{section}." if section else ""
    message = f"unknown key; the {section or 'config'} keys are {keys}"
    for key in data:
        _require(key in keys, prefix + key, message)


def checked(field: str, fn, *args):
    """fn(*args), with a ValueError or TypeError raised as ConfigError("<field>: <message>").

    The one rule of a config value: it is converted, and every constructor
    or precondition it reaches before work is called, through this helper.
    Work itself (solves, ensembles, samplers) never runs under it.
    """
    try:
        return fn(*args)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{field}: {err}") from err


def integer(value) -> int:
    """A JSON integer as an int: an int or an integral float.

    Bools, strings and fractional or non-finite floats raise instead of
    being truncated, so "N": 128.9 never runs as N = 128.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated, hashable description of one run."""

    grid: GridSpec
    potential: PotentialSpec
    omega: OmegaSpec | None
    experiment: dict
    out_dir: str = "runs"

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
        }

    @classmethod
    def from_dict(cls, data: dict) -> RunConfig:
        _require(isinstance(data, dict), "config", "top level must be a JSON object")
        _known_keys(data, _SECTIONS)
        for key in ("grid", "potential", "experiment"):
            _require(key in data, key, "missing required section")

        gd = data["grid"]
        _require(isinstance(gd, dict), "grid", "must be an object")
        _known_keys(gd, _GRID_KEYS, "grid")
        for key in _GRID_KEYS:
            _require(key in gd, f"grid.{key}", "missing")
        kinds = (integer, float, integer)
        d, L, N = (checked(f"grid.{k}", t, gd[k]) for k, t in zip("dLN", kinds))
        grid = checked("grid", GridSpec, d, L, N)

        pd = data["potential"]
        _require(isinstance(pd, dict), "potential", "must be an object")
        _known_keys(pd, _POTENTIAL_KEYS, "potential")
        _require("kind" in pd, "potential.kind", "missing")
        amp = pd.get("amplitude", [1.0, 0.0])
        _require(
            isinstance(amp, (list, tuple)) and len(amp) == 2,
            "potential.amplitude",
            "must be a [re, im] pair",
        )
        osc = pd.get("oscillation")
        _require(osc is None or isinstance(osc, dict), "potential.oscillation", "must be an object")
        for key, value in (osc or {}).items():
            checked(f"potential.oscillation.{key}", float, value)
        potential = checked(
            "potential",
            PotentialSpec,
            pd["kind"],
            complex(*(checked("potential.amplitude", float, a) for a in amp)),
            checked("potential.R", float, pd.get("R", 1.0)),
            checked("potential.s", float, pd.get("s", 1.0)),
            osc,
        )

        om = data.get("omega")
        omega = None
        if om is not None:
            _require(isinstance(om, dict), "omega", "must be an object or null")
            _known_keys(om, _OMEGA_KEYS, "omega")
            for key in ("h", "distribution", "master_seed"):
                _require(key in om, f"omega.{key}", "missing")
            omega = checked(
                "omega",
                OmegaSpec,
                checked("omega.h", float, om["h"]),
                om["distribution"],
                checked("omega.master_seed", integer, om["master_seed"]),
                checked("omega.realization_index", integer, om.get("realization_index", 0)),
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
        return cls(
            grid=grid,
            potential=potential,
            omega=omega,
            experiment=dict(exp),
            out_dir=out_dir,
        )

    def canonical(self) -> str:
        """Canonical JSON: sorted keys, minimal separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

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
            data = checked(f"config: invalid JSON in {path}", json.load, fh)
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    return RunConfig.from_dict(data)
