"""JSON run-configuration schema and loading.

Strict by design: unknown keys anywhere in the file are rejected so a
misspelled parameter cannot silently fall back to a default.
"""

from __future__ import annotations

import json

import jsonschema
import numpy as np

from .errors import ConfigError
from .experiments import SCHEMES, SweepSpec
from .model import ERROR_SAMPLING_MODES, EVAL_MODES, SystemConfig
from .optimizer import INIT_RULES, MODES, SolverOptions

_COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_CVECTOR = {"type": "array", "items": _COMPLEX_PAIR, "minItems": 1}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["system", "master_seed"],
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["K", "N", "P", "noise_var"],
            "properties": {
                "K": {"type": "integer", "minimum": 1},
                "N": {"type": "integer", "minimum": 1},
                "P": {"type": "number", "exclusiveMinimum": 0},
                "noise_var": {"type": "number", "minimum": 0},
                "channel_var": {"type": "number", "exclusiveMinimum": 0},
                "s": {"type": "number", "minimum": 0},
                "eval_mode": {"enum": list(EVAL_MODES)},
                "error_sampling": {"enum": list(ERROR_SAMPLING_MODES)},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": list(MODES)},
                "delta_stop": {"type": "number", "exclusiveMinimum": 0},
                "max_iters": {"type": "integer", "minimum": 1},
                "safeguard": {"type": "boolean"},
                "lambda_after_phase": {"type": "boolean"},
                "init_rule": {"enum": list(INIT_RULES)},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["values", "trials", "schemes"],
            "properties": {
                "values": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 1,
                },
                "trials": {"type": "integer", "minimum": 1},
                "schemes": {
                    "type": "array",
                    "items": {"enum": list(SCHEMES)},
                    "minItems": 1,
                },
                "s_values": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
            },
        },
        "instance": {
            "type": "object",
            "additionalProperties": False,
            "required": ["h_hat", "eps"],
            "properties": {
                "h_hat": {"type": "array", "items": _CVECTOR, "minItems": 1},
                "eps": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
            },
        },
        "master_seed": {"type": "integer", "minimum": 0},
    },
}


# built once; the constant SCHEMA is checked against its metaschema by a
# test rather than on every load
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


class RunConfig:
    """Parsed and validated run configuration."""

    def __init__(self, system, solver, sweep_dict, instance, master_seed):
        self.system = system
        self.solver = solver
        self.sweep_dict = sweep_dict
        self.instance = instance
        self.master_seed = master_seed

    def sweep_spec(self, kind):
        if self.sweep_dict is None:
            raise ConfigError("config has no 'sweep' section")
        values = self.sweep_dict["values"]
        if kind in ("n", "k"):
            values = [int(v) for v in values]
        return SweepSpec(
            kind=kind,
            values=values,
            trials=self.sweep_dict["trials"],
            schemes=list(self.sweep_dict["schemes"]),
            base=self.system,
            master_seed=self.master_seed,
            s_values=self.sweep_dict.get("s_values"),
            solver=self.solver,
        )


def parse_cvector(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} is not valid JSON")


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def parse_config(raw):
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"invalid config: {error.message}") from error

    try:
        system = SystemConfig(**raw["system"])
        solver = SolverOptions(**raw.get("solver", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    instance = None
    if "instance" in raw:
        h_hat = [parse_cvector(vec) for vec in raw["instance"]["h_hat"]]
        eps = list(raw["instance"]["eps"])
        if len(h_hat) != system.K or len(eps) != system.K:
            raise ConfigError("instance must supply K channel vectors and radii")
        lengths = {len(v) for v in h_hat}
        if lengths != {system.N}:
            raise ConfigError("instance channel vectors must have length N")
        instance = (np.stack(h_hat), np.array(eps))
        # numbers too large for a double parse as inf
        if not all(np.isfinite(x).all() for x in instance):
            raise ConfigError("instance values must be finite")

    sweep_dict = raw.get("sweep")
    if sweep_dict is not None:
        try:
            # validate everything except the kind, which the CLI supplies
            SweepSpec(
                kind="snr",
                values=list(sweep_dict["values"]),
                trials=sweep_dict["trials"],
                schemes=list(sweep_dict["schemes"]),
                base=system,
                master_seed=raw["master_seed"],
                s_values=sweep_dict.get("s_values"),
                solver=solver,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return RunConfig(system, solver, sweep_dict, instance, raw["master_seed"])


def serialize_config(config):
    """Inverse of parse_config for the round-trip contract."""
    raw = {
        "system": {
            "K": config.system.K,
            "N": config.system.N,
            "P": config.system.P,
            "noise_var": config.system.noise_var,
            "channel_var": config.system.channel_var,
            "s": config.system.s,
            "eval_mode": config.system.eval_mode,
            "error_sampling": config.system.error_sampling,
        },
        "solver": {
            "mode": config.solver.mode,
            "delta_stop": config.solver.delta_stop,
            "max_iters": config.solver.max_iters,
            "safeguard": config.solver.safeguard,
            "lambda_after_phase": config.solver.lambda_after_phase,
            "init_rule": config.solver.init_rule,
        },
        "master_seed": config.master_seed,
    }
    if config.sweep_dict is not None:
        raw["sweep"] = dict(config.sweep_dict)
    if config.instance is not None:
        h_hat, eps = config.instance
        raw["instance"] = {
            "h_hat": [[[z.real, z.imag] for z in vec] for vec in h_hat],
            "eps": [float(e) for e in eps],
        }
    return raw
