"""JSON run-configuration shape and loading.

Strict by design: unknown keys anywhere in the file are rejected so a
misspelled parameter cannot silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .experiments import SweepSpec
from .model import SystemConfig


def _number_type(t):
    """The type of a JSON number: int or float, not bool."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _number(x):
    return _number_type(type(x))


# The JSON shape of a config. Every range rule lives in the dataclass that
# uses the value (SystemConfig, SweepSpec), so none is repeated here.
_TYPES = {
    "number": _number,
    # 2.0 counts as an integer; parse_config makes it an int
    "integer": lambda x: _number(x) and (isinstance(x, int) or x.is_integer()),
    "number list": lambda x: isinstance(x, list) and all(map(_number, x)),
    "string": lambda x: isinstance(x, str),
    "list": lambda x: isinstance(x, list),
    "object": lambda x: isinstance(x, dict),
}
# section: ({required key: type}, {optional key: type})
_SHAPE = {
    "config": (
        {"system": "object", "master_seed": "integer"},
        {"sweep": "object", "instance": "object"},
    ),
    "system": (
        {"K": "integer", "N": "integer", "P": "number", "noise_var": "number"},
        {
            "s": "number",
            "eval_mode": "string",
            "error_sampling": "string",
        },
    ),
    "sweep": (
        {"values": "number list", "trials": "integer", "schemes": "list"},
        {"s_values": "number list"},
    ),
    # checked as whole arrays by _instance_arrays
    "instance": ({"h_hat": "list", "eps": "list"}, {}),
}


def _check_section(name, section):
    """Raise ConfigError for an unknown key, a missing key or a value of
    the wrong JSON type in one section of a config."""
    required, optional = _SHAPE[name]
    for key, value in section.items():
        kind = required.get(key) or optional.get(key)
        if kind is None:
            raise ConfigError(f"invalid config: {key!r} was unexpected in {name}")
        if not _TYPES[kind](value):
            raise ConfigError(f"invalid config: {name}.{key} must be of type {kind}")
    for key in required:
        if key not in section:
            raise ConfigError(f"invalid config: {name} lacks the required {key!r}")


@dataclass
class RunConfig:
    """Parsed and validated run configuration; sweep is of parse_config's kind."""

    system: SystemConfig
    sweep: SweepSpec | None
    instance: tuple | None
    master_seed: int


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} is not valid JSON")


def load_config(path, kind="snr"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw, kind)


def parse_config(raw, kind="snr"):
    """A config's RunConfig, its sweep section built as a sweep of kind."""
    if not isinstance(raw, dict):
        raise ConfigError("invalid config: the top level must be an object")
    _check_section("config", raw)
    for name in ("system", "sweep", "instance"):
        if name in raw:
            _check_section(name, raw[name])
    if raw["master_seed"] < 0:
        raise ConfigError("invalid config: master_seed must be >= 0")

    fields = raw["system"]
    master_seed = int(raw["master_seed"])
    try:
        system = SystemConfig(**dict(fields, K=int(fields["K"]), N=int(fields["N"])))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    instance = None
    if "instance" in raw:
        instance = _instance_arrays(raw["instance"], system.K, system.N)

    sweep = raw.get("sweep")
    if sweep is not None:
        # the section's keys are SweepSpec's field names
        sweep = dict(sweep, kind=kind, trials=int(sweep["trials"]))
        try:
            sweep = SweepSpec(base=system, master_seed=master_seed, **sweep)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
    return RunConfig(system, sweep, instance, master_seed)


def _instance_arrays(instance, K, N):
    """(h_hat, eps) from the instance section: K rows of N [re, im] pairs,
    as a (K, N) complex array, and K radii >= 0; every number finite."""
    arrays = []
    for name, shape in (("h_hat", (K, N, 2)), ("eps", (K,))):
        raw = np.asarray(instance[name], dtype=object)
        # one check per distinct leaf type, not per number
        if raw.shape != shape or not all(map(_number_type, set(map(type, raw.flat)))):
            raise ConfigError(f"instance {name} must be numbers of shape {shape}")
        try:
            values = raw.astype(float)
        except OverflowError as exc:
            raise ConfigError(f"instance {name}: {exc}") from exc
        # numbers too large for a double parse as inf
        if not np.isfinite(values).all():
            raise ConfigError(f"instance {name} values must be finite")
        arrays.append(values)
    h_hat, eps = arrays
    if (eps < 0).any():
        raise ConfigError("instance eps must be >= 0")
    # viewing the pairs keeps their bits; re + 1j * im can flip a zero's sign
    return h_hat.view(complex).reshape(K, N), eps

