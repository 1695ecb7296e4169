"""Monte Carlo sweep harness: NMSE of the robust and non-robust schemes
versus SNR, RIS size N, or sensor count K, with fully reproducible
per-trial seeding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, synthesize_instance
from .optimizer import nonrobust_design, robust_design, run_algorithm1
from .worst_case import mse_at_error, worst_case_objective

SWEEP_KINDS = ("snr", "n", "k")
SCHEMES = ("robust_exact", "nonrobust", "multistart")

_KIND_CODE = {kind: i for i, kind in enumerate(SWEEP_KINDS)}
# fixed code in every channel seed path: a recorded result depends on it,
# so it stays 4 whatever the number of schemes
_CHANNEL_STREAM = 4


@dataclass
class SweepSpec:
    kind: str
    values: list
    trials: int
    schemes: list
    base: SystemConfig
    master_seed: int
    s_values: list | None = None

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"kind must be one of {SWEEP_KINDS}")
        if not self.values or list(self.values) != sorted(set(self.values)):
            raise ValueError("values must be non-empty and strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if self.s_values is not None and not self.s_values:
            raise ValueError("s_values must be non-empty when given")
        try:
            numbers = np.array(list(self.values) + list(self.s_values or []), float)
        except OverflowError as exc:
            raise ValueError(f"values and s_values must be finite: {exc}") from exc
        if not np.isfinite(numbers).all():
            raise ValueError("values and s_values must be finite")
        if self.kind in ("n", "k"):
            if not all(float(v).is_integer() and v >= 1 for v in self.values):
                raise ValueError(f"{self.kind} sweep values must be integers >= 1")
            self.values = [int(v) for v in self.values]


@dataclass
class AggregateRecord:
    kind: str
    value: float
    scheme: str
    nmse_mean: float
    nmse_std: float
    trials: int
    mean_iters: float


def snr_to_noise_var(snr_db, P):
    """Noise variance from SNR = 10 log10(P / sigma^2)."""
    if P <= 0:
        raise ValueError("P must be > 0")
    return P * 10.0 ** (-snr_db / 10.0)


def nmse(mse, K):
    """MSE normalized by the variance K of the target sum signal."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return mse / K


def design_for_scheme(config, scheme, h_hat_set, eps_set):
    """Run the designer a scheme refers to; returns (Design, iterations)."""
    if scheme == "nonrobust":
        return nonrobust_design(config, h_hat_set), 0
    if scheme == "robust_exact":
        design, trace = run_algorithm1(config, h_hat_set, eps_set)
        return design, trace.n_iters
    if scheme == "multistart":
        # the historical name of the closed-form global optimum
        return robust_design(config, h_hat_set, eps_set), 0
    raise ValueError(f"unknown scheme {scheme!r}")


def run_trial(config, scheme, channel_seed):
    """One Monte Carlo trial: synthesize channels from channel_seed, design,
    evaluate; returns (NMSE, iterations)."""
    inst, deltas = synthesize_instance(config, _seeded_rng(channel_seed))
    return _design_and_score(config, scheme, inst, deltas)


def _seeded_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _design_and_score(config, scheme, inst, deltas):
    """Design a scheme on one channel draw; returns (NMSE, iterations)."""
    design, iters = design_for_scheme(config, scheme, inst.h_hat, inst.eps)
    if config.eval_mode == "worst":
        mse = worst_case_objective(design, inst.h_hat, inst.eps, config.noise_var)
    else:
        mse = mse_at_error(
            design, inst.h_hat, deltas, config.noise_var, eps_set=inst.eps
        )
    return nmse(mse, config.K), iters


def _config_at(base, kind, value, s):
    fields = dict(
        K=base.K,
        N=base.N,
        P=base.P,
        noise_var=base.noise_var,
        channel_var=base.channel_var,
        s=s,
        eval_mode=base.eval_mode,
        error_sampling=base.error_sampling,
    )
    if kind == "snr":
        fields["noise_var"] = snr_to_noise_var(value, base.P)
    elif kind == "n":
        fields["N"] = value
    elif kind == "k":
        fields["K"] = value
    return SystemConfig(**fields)


def scheme_label(scheme, s, multiple_s):
    return f"{scheme}|s={s:g}" if multiple_s else scheme


def channel_seed(master_seed, kind, value_index, s_index, trial):
    """Seed tuple of one sweep cell trial's channel draw. It omits the
    scheme, so schemes compete on identical channels."""
    return (master_seed, _KIND_CODE[kind], value_index, s_index, _CHANNEL_STREAM, trial)


def run_sweep(spec):
    """Run every (value, s, scheme) cell of the sweep; returns records
    ordered by (value, scheme label). Trial seeds are derived by index so
    execution order and parallelism cannot change the results. Each trial
    draws its channels once and designs every scheme on them."""
    s_values = spec.s_values if spec.s_values is not None else [spec.base.s]
    multiple_s = len(s_values) > 1
    records = []
    for vi, value in enumerate(spec.values):
        row = []
        for si, s in enumerate(s_values):
            config = _config_at(spec.base, spec.kind, value, s)
            nmses = np.empty((len(spec.schemes), spec.trials))
            iters = np.empty_like(nmses)
            for trial in range(spec.trials):
                seed = channel_seed(spec.master_seed, spec.kind, vi, si, trial)
                inst, deltas = synthesize_instance(config, _seeded_rng(seed))
                for j, scheme in enumerate(spec.schemes):
                    nmses[j, trial], iters[j, trial] = _design_and_score(
                        config, scheme, inst, deltas
                    )
            for j, scheme in enumerate(spec.schemes):
                row.append(
                    AggregateRecord(
                        kind=spec.kind,
                        value=value,
                        scheme=scheme_label(scheme, s, multiple_s),
                        nmse_mean=float(np.mean(nmses[j])),
                        nmse_std=float(np.std(nmses[j])),
                        trials=spec.trials,
                        mean_iters=float(np.mean(iters[j])),
                    )
                )
        row.sort(key=lambda rec: rec.scheme)
        records.extend(row)
    return records
