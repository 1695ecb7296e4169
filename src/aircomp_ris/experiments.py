"""Monte Carlo sweep harness: NMSE of the robust and non-robust schemes
versus SNR, RIS size N, or sensor count K, with fully reproducible
per-trial seeding. Trials run in blocks: one call synthesizes, designs or
scores every trial of a block along a leading trial axis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MAX_DIMENSION, SystemConfig, synthesize_instance, trials_per_block
from .optimizer import nonrobust_design, robust_design
from .worst_case import mse_at_error, worst_case_objective

SWEEP_KINDS = ("snr", "n", "k")
SCHEMES = ("robust_exact", "nonrobust", "multistart")

_KIND_CODE = {kind: i for i, kind in enumerate(SWEEP_KINDS)}
# fixed code in every channel seed path: a recorded result depends on it,
# so it stays 4 whatever the number of schemes
_CHANNEL_STREAM = 4
# robust_exact reports Algorithm 1's passes: the first lands on the closed
# form and the second, which changes nothing, stops the loop
ALGORITHM1_PASSES = 2


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
        if not 1 <= self.trials <= MAX_DIMENSION:
            raise ValueError(f"trials must be >= 1 and <= {MAX_DIMENSION}")
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
            if not all(
                float(v).is_integer() and 1 <= v <= MAX_DIMENSION for v in self.values
            ):
                raise ValueError(
                    f"{self.kind} sweep values must be integers >= 1 "
                    f"and <= {MAX_DIMENSION}"
                )
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
    """Run the designer a scheme refers to on a (T, K, N) block of trials;
    returns (Design, iterations per trial)."""
    if scheme == "nonrobust":
        design = nonrobust_design(config, h_hat_set)
    elif scheme in ("multistart", "robust_exact"):
        # two historical names of the closed-form global optimum
        design = robust_design(config, h_hat_set, eps_set)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    passes = ALGORITHM1_PASSES if scheme == "robust_exact" else 0
    return design, np.full(len(h_hat_set), passes)


def run_trial(config, scheme, channel_seed):
    """One Monte Carlo trial: synthesize channels from channel_seed, design,
    evaluate; returns (NMSE, iterations). It is a block of one trial."""
    inst = synthesize_instance(config, [_seeded_rng(channel_seed)])
    values, iters = _design_and_score(config, scheme, inst)
    return float(values[0]), int(iters[0])


def _seeded_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _design_and_score(config, scheme, inst):
    """Design a scheme on a block of channel draws; returns the NMSE and
    iterations of each trial."""
    design, iters = design_for_scheme(config, scheme, inst.h_hat, inst.eps)
    if config.eval_mode == "worst":
        mse = worst_case_objective(design, inst.h_hat, inst.eps, config.noise_var)
    else:
        mse = mse_at_error(
            design, inst.h_hat, inst.deltas, config.noise_var, eps_set=inst.eps
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
    execution order and parallelism cannot change the results. A cell runs
    its trials in blocks: one synthesis call draws the block, each trial
    from its own seed, and every scheme is designed and scored on it."""
    s_values = spec.s_values if spec.s_values is not None else [spec.base.s]
    multiple_s = len(s_values) > 1
    records = []
    for vi, value in enumerate(spec.values):
        row = []
        for si, s in enumerate(s_values):
            config = _config_at(spec.base, spec.kind, value, s)
            block = trials_per_block(config)
            nmses = np.empty((len(spec.schemes), spec.trials))
            iters = np.empty_like(nmses)
            for lo in range(0, spec.trials, block):
                hi = min(lo + block, spec.trials)
                rngs = [
                    _seeded_rng(channel_seed(spec.master_seed, spec.kind, vi, si, trial))
                    for trial in range(lo, hi)
                ]
                inst = synthesize_instance(config, rngs)
                for j, scheme in enumerate(spec.schemes):
                    nmses[j, lo:hi], iters[j, lo:hi] = _design_and_score(
                        config, scheme, inst
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
