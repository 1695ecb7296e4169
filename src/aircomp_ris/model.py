"""System model: complex-vector conventions, the scenario dataclass, and
channel synthesis with a bounded CSI error.

Conventions used throughout the package:

* Column vectors are 1-D complex ndarrays; a (K, N) array holds one per
  sensor row. The Hermitian inner product h^H v = sum_i conj(h_i) * v_i
  is ``np.vdot(h, v)``, or ``np.vecdot(h, v)`` row by row.
* Row covectors (e.g. the CSI perturbation) are stored as plain 1-D complex
  ndarrays and applied to a column vector WITHOUT conjugation:
  ``row @ v = sum_i row_i * v_i``. The row h^H of a column h is
  ``np.conj(h)``.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

EVAL_MODES = ("worst", "realized")
ERROR_SAMPLING_MODES = ("surface", "interior")

# Doubles drawn per synthesis chunk: bounds the temporaries at large K*N.
# Serial blocks drawn in _SPLIT_PLANE planes instead, from kept buffers, ran
# the example sweep in 0.972x of the time but fig_snr in 1.038x (paired
# in-process A/B, 2-CPU VM, 300 pairs, CIs [0.961, 0.982], [1.029, 1.048]).
_DRAW_BLOCK = 1 << 14
# Doubles of draws each range of a block split across CPUs must get.
_SPLIT_BLOCK = 2 * _DRAW_BLOCK
# Doubles per (rows, N) plane of a chunk drawn beside others on threads,
# max(1, _SPLIT_PLANE // N) rows: its fewer, larger ufunc calls hand the
# GIL between the threads less often, and each 96 KiB temporary stays
# under glibc's 128 KiB mmap threshold, so none is mapped and unmapped per call.
_SPLIT_PLANE = 12288
# Doubles per generator call below which threads drawing a block's trials
# spend more time handing each other the GIL than they save. It pays only
# on interior rows, one call per sensor: without it a realized interior SNR
# sweep (K = 10, N = 16) ran 1.96x slower, and fig_snr 4-8% faster.
_SPLIT_CALL = 1 << 10

# Largest count numpy accepts as an array dimension.
MAX_DIMENSION = int(np.iinfo(np.intp).max)


def _finite_double(name, value):
    """value as a double, which must be finite; an int beyond the double
    range reads as inf, so an int and its float spelling behave alike."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


@dataclass
class SystemConfig:
    """Scenario parameters shared by the solver and the simulator.

    K sensors, each served by its own N-element RIS; P is the sum transmit
    power budget, noise_var the receiver AWGN variance, and s the relative
    CSI uncertainty coefficient (eps_k = s * ||h_k||_2). Each number is
    checked as a double; noise_var and s are stored as one, P as given.
    """

    K: int
    N: int
    P: float
    noise_var: float
    s: float = 0.0
    eval_mode: str = "worst"
    error_sampling: str = "surface"

    def __post_init__(self):
        if not (1 <= self.K <= MAX_DIMENSION and 1 <= self.N <= MAX_DIMENSION):
            raise ConfigError(
                f"K={self.K}, N={self.N} must be >= 1 and <= {MAX_DIMENSION}"
            )
        P = _finite_double("P", self.P)
        self.noise_var = _finite_double("noise_var", self.noise_var)
        self.s = _finite_double("s", self.s)
        if P <= 0:
            raise ConfigError("P must be > 0")
        if self.noise_var < 0:
            raise ConfigError("noise_var must be >= 0")
        if self.s < 0:
            raise ConfigError("s must be >= 0")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigError(f"eval_mode must be one of {EVAL_MODES}")
        if self.error_sampling not in ERROR_SAMPLING_MODES:
            raise ConfigError(
                f"error_sampling must be one of {ERROR_SAMPLING_MODES}"
            )


def _trial_ranges(trials, doubles_per_trial, doubles_per_call):
    """Split trials into contiguous [lo, hi) ranges, one per CPU this process
    may run on, when each range draws at least _SPLIT_BLOCK doubles in
    generator calls of at least _SPLIT_CALL doubles; else one range."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    n = min(cpus, trials, trials * doubles_per_trial // _SPLIT_BLOCK)
    if n < 2 or doubles_per_call < _SPLIT_CALL:
        return [(0, trials)]
    bounds = [trials * i // n for i in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


@functools.cache
def _pool():
    """The workers that draw split blocks' ranges, made on the first split."""
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms to import

    return ThreadPoolExecutor(os.cpu_count())  # a range per CPU at most


if hasattr(os, "register_at_fork"):  # a forked child has none of its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)
_chunks = threading.local()  # the chunk buffer each thread keeps, as .z


def _run_ranges(fn, ranges):
    """Call fn(lo, hi) once for every range: the first on this thread, each
    other on a worker of the pool in a copy of this thread's context
    (numpy's error state with it), or here if the pool cannot take it.
    Returns once all have finished, raising an exception a range raised."""
    here, futures, submitting = [ranges[0]], [], threading.Lock()

    def run(lo, hi):
        with submitting:  # a submit that raised still queues its range
            if (lo, hi) in here:  # drawn on the calling thread instead
                return
        fn(lo, hi)

    try:
        with submitting:
            for lo, hi in ranges[1:]:
                try:
                    futures.append(_pool().submit(copy_context().run, run, lo, hi))
                except RuntimeError:  # no worker to spare: draw the range here
                    here.append((lo, hi))
        for lo, hi in here:
            fn(lo, hi)
    finally:
        for future in futures:
            future.exception()  # wait: every range writes the caller's arrays
    for future in futures:
        future.result()


def _draw_rows(rngs, K, lo, hi, z, radius, interior):
    """Draw rows [lo, hi) of trials of K rows into z, (rows, parts, N), each
    trial's from rngs[trial] in stream order: in one normal call, or with
    interior errors one per row and its radius's uniform."""
    power = 1.0 / (2 * z.shape[-1])  # U^(1/(2N)): uniform over the 2N-dim ball
    for trial in range(lo // K, (hi - 1) // K + 1):
        first, last = max(lo, trial * K) - lo, min(hi, trial * K + K) - lo
        if not interior:
            rngs[trial].standard_normal(out=z[first:last])
            continue
        normal, uniform = rngs[trial].standard_normal, rngs[trial].random
        for i in range(first, last):
            normal(out=z[i])
            radius[i] = uniform() ** power


def _planes(s, z, radius):
    """h_hat's real and imaginary planes and eps from drawn rows z and their
    first radius factors, and for s > 0 the error's planes, scale and norm."""
    g_re, g_im, r_re, r_im = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
    # h = g * conj(r) for CN(0, 1/2) segments, half their normals; a power
    # of two scales the product with the same rounding
    h_re = (g_re * r_re + g_im * r_im) * 0.25
    h_im = (g_im * r_re - g_re * r_im) * 0.25
    eps = s * np.sqrt(np.vecdot(h_re, h_re) + np.vecdot(h_im, h_im))
    if s == 0:
        return h_re, h_im, eps, None
    d_re, d_im = z[:, 4], z[:, 5]
    norm = np.sqrt(np.vecdot(d_re, d_re) + np.vecdot(d_im, d_im))
    scale = (eps * radius[: len(z)] / norm)[:, None]
    del_re, del_im = d_re * scale, d_im * scale
    h_re -= del_re  # h_hat = h - conj(delta)
    h_im += del_im
    return h_re, h_im, eps, (del_re, del_im, scale, norm)


def synthesize_instance(config, rng):
    """Draw what the designer sees, (h_hat, eps): Rayleigh segments g_k
    (RIS->receiver) and r_k (sensor->RIS) of i.i.d. CN(0, 1/2) entries give
    true channels row(h_k) = conj(g_k) * r_k, and estimates row(h_hat_k) =
    row(h_k) - delta_k for a bounded error delta_k of radius eps_k = s*||h_k||.

    Sensor by sensor, the Generator rng yields N normals each for re(g_k),
    im(g_k), re(r_k), im(r_k), and when s > 0 (even where eps_k underflows
    to 0) for the real and imaginary parts of the error direction, then one
    uniform for an interior error's radius (rng.random(), the double
    rng.uniform() gives). Rows are drawn in chunks of _DRAW_BLOCK doubles,
    or one row if a row is larger; the arithmetic runs on real planes, one
    ufunc per real multiply, add, divide or sqrt, and np.vecdot: unlike
    complex multiply and abs, they round alike at every SIMD dispatch level."""
    K, N, parts = config.K, config.N, 6 if config.s > 0 else 4
    interior = parts == 6 and config.error_sampling == "interior"
    step = max(1, _DRAW_BLOCK // (parts * N))
    eps, h_hat = np.empty(K), np.empty((K, N), dtype=complex)
    z, radius = np.empty((min(step, K), parts, N)), np.ones(min(step, K))
    for lo in range(0, K, step):
        hi = min(lo + step, K)
        _draw_rows([rng], K, lo, hi, z, radius, interior)
        h_re, h_im, eps[lo:hi], _ = _planes(config.s, z[: hi - lo], radius)
        h_hat.real[lo:hi], h_hat.imag[lo:hi] = h_re, h_im
    return h_hat, eps


def draw_scalars(config, rngs):
    """The per-sensor scalars that score config.eval_mode's co-phased
    designs on a block of trials, trial t drawn from rngs[t] as
    synthesize_instance draws it: (T, K) gains a_k = h_hat_k^H v_k =
    ||h_hat_k||_1 for v_k = h_hat_k/|h_hat_k| (1 where an entry is zero) and
    radii eps, and in realized mode c_k = delta_k @ v_k and ||delta_k||.

    Chunks go to a buffer each thread keeps. A block large enough (see
    _trial_ranges) is split into contiguous ranges of trials, one per CPU,
    drawn at once by _run_ranges into disjoint rows in chunks of
    _SPLIT_PLANE doubles per (rows, N) plane. Each row's draws and
    arithmetic are the serial draw's, so the output does not depend on the
    CPU count. Trials whose generators share a bit generator, or are one
    generator, share its stream: they are drawn in order on one thread."""
    K, N, trials, robust = config.K, config.N, len(rngs), config.s > 0
    interior = robust and config.error_sampling == "interior"
    parts = 6 if robust else 4
    # a generator call draws one row with interior errors, else a trial's rows
    per_call = parts * N * (1 if interior else K)
    ranges = _trial_ranges(trials, K * parts * N, per_call)
    if len(ranges) > 1:  # a stream shared by trials draws them in order
        if len({id(getattr(gen, "bit_generator", gen)) for gen in rngs}) < trials:
            ranges = [(0, trials)]
    step = max(1, _DRAW_BLOCK // (parts * N) if len(ranges) == 1 else _SPLIT_PLANE // N)
    gains, eps = np.empty((2, trials * K))
    realized = config.eval_mode == "realized"
    if realized:  # c and ||delta|| stay zero without errors (s = 0)
        c, delta_norms = np.zeros(trials * K, dtype=complex), np.zeros(trials * K)

    def draw(trial_lo, trial_hi):
        """Draw trials [trial_lo, trial_hi) into their rows, chunk by chunk."""
        start, stop = trial_lo * K, trial_hi * K
        shape = (min(step, stop - start), parts, N)
        if getattr(_chunks, "z", np.empty(0)).size < math.prod(shape):
            _chunks.z = np.empty(shape)  # shaped: numpy says if it is too big
        z = np.ndarray(shape, buffer=_chunks.z)
        radius = np.ones(len(z))
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            _draw_rows(rngs, K, lo, hi, z, radius, interior)
            h_re, h_im, eps[lo:hi], errors = _planes(config.s, z[: hi - lo], radius)
            mag = np.sqrt(h_re * h_re + h_im * h_im)
            gains[lo:hi] = mag.sum(axis=-1)
            if realized and robust:
                del_re, del_im, scale, norm = errors
                delta_norms[lo:hi] = scale[:, 0] * norm  # squaring could overflow
                if not mag.all():
                    # v_i = 1 where h_hat_i = 0, as co-phasing sets it
                    zero = mag == 0
                    h_re, mag = np.where(zero, 1.0, h_re), np.where(zero, 1.0, mag)
                # c = delta @ v for v = h_hat / |h_hat|
                w = 1.0 / mag
                c.real[lo:hi] = np.vecdot(del_re * h_re - del_im * h_im, w)
                c.imag[lo:hi] = np.vecdot(del_re * h_im + del_im * h_re, w)

    _run_ranges(draw, ranges)
    more = (c.reshape(trials, K), delta_norms.reshape(trials, K)) if realized else ()
    return gains.reshape(trials, K), eps.reshape(trials, K), *more
