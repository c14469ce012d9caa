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

__all__ = ["RunConfig", "checked", "integer", "load_config", "number"]

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

# The keys of a config at the top level; any other is refused.  experiment
# keys depend on the experiment.
_SECTIONS = ("grid", "potential", "omega", "experiment", "out_dir")


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
    """fn(*args), its ValueError, TypeError or OverflowError raised as ConfigError("<field>: ...").

    The one rule of a config value: it is converted, and every constructor
    or precondition it reaches before work is called, through this helper.
    Work itself (solves, ensembles, samplers) never runs under it.  A
    ConfigError fn raises already names its field and passes through as is.
    """
    try:
        return fn(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as err:
        raise ConfigError(f"{field}: {err}") from err


def number(value) -> float:
    """A JSON number as a float, non-finite ones included; bools, strings and the rest raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def integer(value) -> int:
    """A JSON integer as an int: an int or an integral float.

    Bools, strings and fractional or non-finite floats raise instead of
    being truncated, so "N": 128.9 never runs as N = 128.
    """
    if not number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _amplitude(value) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("must be a [re, im] pair")
    return complex(*map(number, value))


def _oscillation(value):
    """The oscillation object as given, each of its values checked as a number."""
    if value is not None and not isinstance(value, dict):
        raise TypeError("must be an object")
    for key, entry in (value or {}).items():
        checked(f"potential.oscillation.{key}", number, entry)
    return value


# Each fixed section as rows (key, conversion, default) in the order of its
# spec's arguments; the keys are the only ones it takes, and a key whose
# default is _REQUIRED must be given.
_REQUIRED = object()
_FIELDS = {
    "grid": (("d", integer, _REQUIRED), ("L", number, _REQUIRED), ("N", integer, _REQUIRED)),
    "potential": (("kind", str, _REQUIRED), ("amplitude", _amplitude, [1.0, 0.0]),
                  ("R", number, 1.0), ("s", number, 1.0), ("oscillation", _oscillation, None)),
    "omega": (("h", number, _REQUIRED), ("distribution", str, _REQUIRED),
              ("master_seed", integer, _REQUIRED), ("realization_index", integer, 0)),
}


def _read_section(data: dict, name: str, spec):
    """spec(*values) of section name, each value converted by its row of _FIELDS."""
    section = data[name]
    _require(isinstance(section, dict), name, "must be an object")
    rows = _FIELDS[name]
    _known_keys(section, tuple(key for key, _, _ in rows), name)
    values = []
    for key, convert, default in rows:
        _require(key in section or default is not _REQUIRED, f"{name}.{key}", "missing")
        values.append(checked(f"{name}.{key}", convert, section.get(key, default)))
    return checked(name, spec, *values)


@dataclass(frozen=True)
class RunConfig:
    """Validated, hashable description of one run."""

    grid: GridSpec
    potential: PotentialSpec
    omega: OmegaSpec | None
    experiment: dict
    out_dir: str = "runs"

    def to_dict(self) -> dict:
        specs = (("grid", self.grid), ("potential", self.potential), ("omega", self.omega))
        out = {
            name: None if spec is None else {key: getattr(spec, key) for key, _, _ in _FIELDS[name]}
            for name, spec in specs
        }
        amplitude = self.potential.amplitude
        out["potential"]["amplitude"] = [amplitude.real, amplitude.imag]
        return {**out, "experiment": self.experiment, "out_dir": self.out_dir}

    @classmethod
    def from_dict(cls, data: dict) -> RunConfig:
        _require(isinstance(data, dict), "config", "top level must be a JSON object")
        _known_keys(data, _SECTIONS)
        for key in ("grid", "potential", "experiment"):
            _require(key in data, key, "missing required section")
        grid = _read_section(data, "grid", GridSpec)
        potential = _read_section(data, "potential", PotentialSpec)
        omega = None if data.get("omega") is None else _read_section(data, "omega", OmegaSpec)

        exp = data["experiment"]
        _require(isinstance(exp, dict), "experiment", "must be an object")
        _require("name" in exp, "experiment.name", "missing")
        _require(exp["name"] in EXPERIMENTS, "experiment.name", f"must be one of {EXPERIMENTS}")
        out_dir = data.get("out_dir", "runs")
        _require(isinstance(out_dir, str) and out_dir, "out_dir", "must be a nonempty string")
        return cls(grid, potential, omega, dict(exp), out_dir)

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
