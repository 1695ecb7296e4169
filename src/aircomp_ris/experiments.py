"""Monte Carlo sweep harness: NMSE of the robust and non-robust schemes
versus SNR, RIS size N or sensor count K, from reproducible per-trial seeds.
SweepSpec lays a sweep out once: its (value, s) cells in order, each cell's
config and its rows' labels; run_sweep executes the cells. Cells of equal K
run stacked, in blocks of trials: per cell and block one call draws the
(T, K) per-sensor scalars a co-phased score needs (gain, radius, and in
realized mode the error's projection and norm); per stack and block, passes
of at most _BLOCK_ROWS seeds hash all seeds and each scheme gets one design
and one score."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .errors import AirCompError
from .model import MAX_DIMENSION, SystemConfig, synthesize_instance
from .optimizer import robust_scalars
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
# Sensor rows per sweep trial block: bounds its generators and (T, K) arrays.
_BLOCK_ROWS = 1 << 10
# Sensor rows a stacked call takes, and NMSEs a stack holds, at most.
_STACK_ROWS = 16 * _BLOCK_ROWS

# numpy's SeedSequence, O'Neill's seed_seq hash: a pool of 4 32-bit words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass
class SweepSpec:
    kind: str
    values: list
    trials: int
    schemes: list
    base: SystemConfig
    master_seed: int
    s_values: list | None = None  # [base.s] when none is given
    cells: list = field(init=False, repr=False)  # (value, s), in that order
    labels: list = field(init=False, repr=False)  # each cell's row label per scheme
    configs: list = field(init=False, repr=False)  # each cell's SystemConfig

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"kind must be one of {SWEEP_KINDS}")
        if not self.values or list(self.values) != sorted(set(self.values)):
            raise ValueError("values must be non-empty and strictly increasing")
        if not 1 <= self.trials <= MAX_DIMENSION:
            raise ValueError(f"trials must be >= 1 and <= {MAX_DIMENSION}")
        if not self.schemes:
            raise ValueError("schemes must be non-empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"{s!r} is not one of {list(SCHEMES)!r}")
        if self.s_values is not None and not self.s_values:
            raise ValueError("s_values must be non-empty when given")
        self.s_values = self.s_values or [self.base.s]
        try:
            numbers = np.array(list(self.values) + list(self.s_values), float)
        except OverflowError as exc:
            raise ValueError(f"values and s_values must be finite: {exc}") from exc
        if not np.isfinite(numbers).all():
            raise ValueError("values and s_values must be finite")
        form = "{}|s={:g}" if len(self.s_values) > 1 else "{}"  # scheme, s
        labels = [[form.format(x, s) for x in self.schemes] for s in self.s_values]
        rows = sum(labels, [])
        if len(set(rows)) < len(rows):
            raise ValueError(f"sweep rows must have distinct labels, got {rows}")
        if self.kind in ("n", "k"):
            if not all(
                float(v).is_integer() and 1 <= v <= MAX_DIMENSION for v in self.values
            ):
                raise ValueError(
                    f"{self.kind} sweep values must be integers >= 1 "
                    f"and <= {MAX_DIMENSION}"
                )
            self.values = [int(v) for v in self.values]
        # every cell's SystemConfig checks its own ranges, s >= 0 among them
        self.cells = [(value, s) for value in self.values for s in self.s_values]
        self.labels = labels * len(self.values)
        self.configs = [_config_at(self.base, self.kind, *cell) for cell in self.cells]


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
    try:
        return P * 10.0 ** (-snr_db / 10.0)
    except OverflowError as exc:
        raise ValueError(f"SNR {snr_db} dB: noise variance overflows") from exc


def trials_per_block(config):
    """Trials a sweep synthesizes per call: at least one, and T*K sensor
    rows within _BLOCK_ROWS. N does not count: a block holds a generator per
    trial (~0.8 KB) and (T, K) scalars, and synthesis chunks its draws."""
    return max(1, _BLOCK_ROWS // config.K)


def design_for_scheme(config, scheme, draw):
    """Design a scheme on a block of trials with robust_scalars. draw is
    what synthesis gave the block with gains_only, whose (..., K) gains and
    radii (a, eps) fix m and t; every scheme co-phases. config is a
    SystemConfig or run_sweep's stand-in for stacked (C, T, K) cells."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    # multistart and robust_exact: two historical names of the closed-form
    # global optimum; nonrobust: the same at radius 0, the MMSE scaling
    a, eps = draw[:2]
    radius = 0.0 * eps if scheme == "nonrobust" else eps * np.sqrt(config.N)
    return robust_scalars(a, radius, config.noise_var, config.P)


def _hash(value, init, mult, first, n):
    """SeedSequence's hash steps first .. first + n - 1 from constant init,
    one per row of the result: step k xors value with init * mult^k,
    multiplies by init * mult^(k+1) and folds the high half down, mod 2^32.
    uint64 powers wrap mod 2^64, which 2^32 divides."""
    steps = np.arange(first, first + n + 1, dtype=np.uint64)
    consts = (init * mult**steps & _MASK32)[:, None, None]
    value = (value ^ consts[:-1]) * consts[1:] & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def seed_words(prefixes, trials):
    """PCG64 seed words of the seed tuples prefix + (trial,), a C-contiguous
    (prefixes, trials, 4) uint64 array; [c, t] equals np.random.SeedSequence(
    (*prefixes[c], trials[t])).generate_state(4, np.uint64).

    numpy mixes a prefix into its pool of 4 32-bit words, so the prefixes
    must fill one number of words, at least 4. Each trial's low word, then
    its high word for a trial >= 2^32, is hashed once and mixed into every
    prefix's 4 pool words, on uint64 arrays over the prefixes and trials,
    every product masked to 32 bits."""
    n_words = {sum(max(1, -(-int(n).bit_length() // 32)) for n in p) for p in prefixes}
    if len(n_words) != 1 or min(n_words) < _POOL:
        raise ValueError(f"prefixes fill {sorted(n_words)} pool words, not one >= 4")
    pools = [np.random.SeedSequence(prefix).pool for prefix in prefixes]
    pool = np.array(pools, dtype=np.uint64).T[:, :, None]
    # a hash step apiece: 4 fill the pool, 12 cross-mix it, 4 per later word
    step = _POOL * n_words.pop()
    trials = np.asarray(trials, dtype=np.uint64)
    pool = _mix(pool, _hash(trials & _MASK32, _INIT_A, _MULT_A, step, _POOL))
    high = trials >> 32
    if high.any():
        mixed = _mix(pool, _hash(high, _INIT_A, _MULT_A, step + _POOL, _POOL))
        pool = np.where(high > 0, mixed, pool)
    # generate_state: 8 32-bit words cycling through the pool, paired
    # little-endian into 4 uint64; PCG64 reads a row's buffer as it lies
    state = _hash(np.concatenate([pool, pool]), _INIT_B, _MULT_B, 0, 2 * _POOL)
    return np.ascontiguousarray(np.moveaxis(state[0::2] | (state[1::2] << 32), 0, -1))


def trial_generators(words):
    """One Generator per row of a prefix's seed_words, each the same stream
    as np.random.default_rng(np.random.SeedSequence(seed)) of its seed."""
    # numpy.random is imported here, so importing the CLI does not load it
    from numpy.random import PCG64, Generator

    seeded = _seed_words_type()
    return [Generator(PCG64(seeded(row))) for row in words]


@functools.cache
def _seed_words_type():
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A seed sequence that hands PCG64 precomputed seed words."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords holds only PCG64's 4 uint64 words")
            return self.words

    return SeedWords


def _design_and_score(config, scheme, draw):
    """Design a scheme on a block's draw (see design_for_scheme); returns
    the NMSE of each trial, its MSE over the variance K of the target sum."""
    design = design_for_scheme(config, scheme, draw)
    a, eps, *errors = draw
    if config.eval_mode == "worst":
        mse = worst_case_objective(design, a, eps * np.sqrt(config.N), config.noise_var)
    else:
        mse = mse_at_error(design, a, *errors, eps, config.noise_var)
    return mse / config.K


def _config_at(base, kind, value, s):
    """The SystemConfig of one sweep cell; replace re-runs its checks."""
    if kind == "snr":
        return replace(base, s=s, noise_var=snr_to_noise_var(value, base.P))
    return replace(base, s=s, **{kind.upper(): value})


def run_sweep(spec):
    """Execute the cells spec laid out, every scheme on each; returns records
    labelled from spec.labels, ordered by (value, label). Trial seeds are
    derived by index so execution order and parallelism cannot change the
    results. Cells of equal K (all of an SNR or N sweep, each value's of a
    K sweep) run as stacks of at most _STACK_ROWS sensor rows a block of
    trials_per_block trials and _STACK_ROWS NMSEs (one cell, if more), so
    memory stays bounded whatever the number of cells and trials. Per stack
    and block, seed_words passes of at most _BLOCK_ROWS seeds (one cell's,
    if more) hash the seeds; per cell, one synthesis call draws the block
    from the cell's config, a generator per trial; per scheme, one design
    and one score call take the stacked (C, T, K) scalars. Per stack, one
    mean and one std over the trials of its (cells, schemes, trials) NMSE
    array give its records' numbers. The first cell in (value, s) order
    whose NMSE is not finite, as when |h_hat|^2 overflows at a huge s,
    raises AirCompError."""
    configs, trials, n_s = spec.configs, spec.trials, len(spec.s_values)
    means, stds = np.empty((2, len(configs), len(spec.schemes)))
    prefixes = [
        (spec.master_seed, _KIND_CODE[spec.kind], vi, si, _CHANNEL_STREAM)
        for vi, si in np.ndindex(len(spec.values), n_s)
    ]
    group = n_s if spec.kind == "k" else len(configs)  # cells of equal K
    for first in range(0, len(configs), group):
        block = trials_per_block(configs[first])
        per_cell = max(min(block, trials) * configs[first].K, trials * len(spec.schemes))
        step = max(1, _STACK_ROWS // per_cell)  # cells a stack takes
        for lo_cell in range(first, first + group, step):
            cells = slice(lo_cell, min(lo_cell + step, first + group))
            stack = configs[cells]
            # a stand-in config: noise_var over the trials, N over the radii
            noise_var = np.array([config.noise_var for config in stack])[:, None]
            N = np.array([config.N for config in stack])[:, None, None]
            cfg = SimpleNamespace(**vars(stack[0]) | {"noise_var": noise_var, "N": N})
            nmses = np.empty((len(stack), len(spec.schemes), trials))
            for lo in range(0, trials, block):
                hi = min(lo + block, trials)
                per_pass = max(1, _BLOCK_ROWS // (hi - lo))  # cells a hash pass takes
                draws = []
                for c in range(cells.start, cells.stop, per_pass):
                    part = slice(c, min(c + per_pass, cells.stop))
                    words = seed_words(prefixes[part], np.arange(lo, hi))
                    draws += [
                        synthesize_instance(config, trial_generators(rows), gains_only=True)
                        for config, rows in zip(configs[part], words)
                    ]
                draw = tuple(map(np.stack, zip(*draws)))
                for j, scheme in enumerate(spec.schemes):
                    nmses[:, j, lo:hi] = _design_and_score(cfg, scheme, draw)
            finite = np.isfinite(nmses).all(axis=(1, 2))
            if not finite.all():
                value, s = spec.cells[lo_cell + int(np.argmin(finite))]
                raise AirCompError(f"NMSE is not finite at {spec.kind} {value}, s {s}")
            means[cells], stds[cells] = np.mean(nmses, axis=-1), np.std(nmses, axis=-1)
    records = []
    for (cell, j), mean in np.ndenumerate(means):
        passes = ALGORITHM1_PASSES if spec.schemes[j] == "robust_exact" else 0
        row = (float(mean), float(stds[cell, j]), trials, float(passes))
        value, label = spec.cells[cell][0], spec.labels[cell][j]
        records.append(AggregateRecord(spec.kind, value, label, *row))
    # values increase and a value's labels differ, so this orders by value
    return sorted(records, key=lambda rec: (rec.value, rec.scheme))
