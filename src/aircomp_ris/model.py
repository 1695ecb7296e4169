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
# Serial blocks drawn in _SPLIT_PLANE planes instead ran the example sweep
# 1.16x slower (paired in-process A/B, 2-CPU VM, 150 pairs, CI [1.15, 1.16]).
_DRAW_BLOCK = 1 << 14
# Doubles of draws each range of a block split across CPUs must get.
_SPLIT_BLOCK = 2 * _DRAW_BLOCK
# Doubles per (rows, N) plane of a chunk drawn beside others on threads,
# max(1, _SPLIT_PLANE // N) rows: its fewer, larger ufunc calls hand the
# GIL between the threads less often, and each 96 KiB temporary stays
# under glibc's 128 KiB mmap threshold, so none is mapped and unmapped per
# call. The chunk buffer itself (parts * 96 KiB) is still allocated per
# range and per call, and it page-faults at N = 64.
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


def _run_ranges(fn, ranges):
    """Call fn(lo, hi) for every range: the first on this thread, each other
    on a thread of its own in a copy of this thread's context (numpy's error
    state with it), or here if that thread cannot start. Returns once all
    have finished, raising the first exception a range raised."""
    errors = [None] * len(ranges)

    def run(i, lo, hi):
        try:
            fn(lo, hi)
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    started = []
    try:
        for i, (lo, hi) in enumerate(ranges[1:], 1):
            thread = threading.Thread(target=copy_context().run, args=(run, i, lo, hi))
            try:
                thread.start()
            except RuntimeError:  # no thread to spare: draw the range here
                run(i, lo, hi)
            else:
                started.append(thread)
        run(0, *ranges[0])
    finally:
        for thread in started:
            thread.join()  # every range writes the caller's arrays
    for error in errors:
        if error is not None:
            raise error


def synthesize_instance(config, rng, gains_only=False):
    """Draw what the designer sees, (h_hat, eps): Rayleigh segments g_k
    (RIS->receiver) and r_k (sensor->RIS) of i.i.d. CN(0, 1/2) entries give
    true channels row(h_k) = conj(g_k) * r_k, and estimates row(h_hat_k) =
    row(h_k) - delta_k for a bounded error delta_k of radius eps_k = s*||h_k||.

    With gains_only, return instead the per-sensor scalars that score the
    co-phased designs of config.eval_mode, v_k = h_hat_k/|h_hat_k| (1 where
    an entry is zero): (a, eps) in worst mode, the gains a_k = h_hat_k^H v_k
    = ||h_hat_k||_1 and the radii, and (a, eps, c, ||delta||) in realized
    mode, with c_k = delta_k @ v_k and the errors' norms.

    rng is one Generator, or a sequence of T Generators for a block of
    trials with (T, K, N) arrays; trial t is drawn from rng[t] exactly as
    it would be alone. Sensor by sensor, a stream yields N normals each for
    re(g_k), im(g_k), re(r_k), im(r_k), and when s > 0 (even where eps_k
    underflows to 0) for the real and imaginary parts of the error
    direction, then one uniform for an interior error's radius
    (gen.random(), the double gen.uniform() gives). The rows are drawn in
    chunks of _DRAW_BLOCK doubles, or in a block split across CPUs (below)
    of _SPLIT_PLANE doubles per (rows, N) plane; a trial's rows
    without uniforms take one call, which fills in that same order, rows
    with them one normal call and one random() each. The arithmetic
    runs on real planes, one ufunc per real multiply, add, divide or sqrt,
    and np.vecdot: unlike complex multiply and abs, they round alike at
    every numpy SIMD dispatch level.

    A block large enough (see _trial_ranges) is split into contiguous
    ranges of trials, one per CPU, drawn at once on threads into disjoint
    rows; each row's draws and arithmetic are those of the serial draw, so
    the output does not depend on the CPU count. Trials whose generators
    share a bit generator, or are one generator, share its stream: they
    are drawn in order on one thread."""
    batched = isinstance(rng, (list, tuple))
    rngs = list(rng) if batched else [rng]
    K, N = config.K, config.N
    rows = len(rngs) * K
    robust = config.s > 0
    interior = robust and config.error_sampling == "interior"
    parts = 6 if robust else 4
    # a generator call draws one row with interior errors, else a trial's
    # rows (two calls where a chunk's edge splits them)
    per_call = parts * N * (1 if interior else K)
    ranges = _trial_ranges(len(rngs), K * parts * N, per_call)
    if len(ranges) > 1:  # a stream shared by trials draws them in order
        if len({id(getattr(gen, "bit_generator", gen)) for gen in rngs}) < len(rngs):
            ranges = [(0, len(rngs))]
    step = max(1, _DRAW_BLOCK // (parts * N) if len(ranges) == 1 else _SPLIT_PLANE // N)
    radius_power = 1.0 / (2 * N)  # U^(1/(2N)): uniform over the 2N-dim ball
    eps = np.empty(rows)
    realized = config.eval_mode == "realized"
    if gains_only:
        gains = np.empty(rows)
        if realized:  # c and ||delta|| stay zero without errors (s = 0)
            c, delta_norms = np.zeros(rows, dtype=complex), np.zeros(rows)
    else:
        h_hat = np.empty((rows, N), dtype=complex)

    def draw(trial_lo, trial_hi):
        """Draw trials [trial_lo, trial_hi) into their rows, chunk by chunk."""
        start, stop = trial_lo * K, trial_hi * K
        z = np.empty((min(step, stop - start), parts, N))
        radius = np.ones(len(z))
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            zb = z[: hi - lo]
            for trial in range(lo // K, (hi - 1) // K + 1):
                gen = rngs[trial]
                first, last = max(lo, trial * K) - lo, min(hi, trial * K + K) - lo
                if interior:
                    normal, uniform = gen.standard_normal, gen.random
                    for i in range(first, last):
                        normal(out=zb[i])
                        radius[i] = uniform() ** radius_power
                else:
                    gen.standard_normal(out=zb[first:last])
            g_re, g_im, r_re, r_im = zb[:, 0], zb[:, 1], zb[:, 2], zb[:, 3]
            # h = g * conj(r) for CN(0, 1/2) segments, half their normals; a
            # power of two scales the product with the same rounding
            h_re = (g_re * r_re + g_im * r_im) * 0.25
            h_im = (g_im * r_re - g_re * r_im) * 0.25
            eps[lo:hi] = config.s * np.sqrt(
                np.vecdot(h_re, h_re) + np.vecdot(h_im, h_im)
            )
            if robust:
                d_re, d_im = zb[:, 4], zb[:, 5]
                norm = np.sqrt(np.vecdot(d_re, d_re) + np.vecdot(d_im, d_im))
                scale = (eps[lo:hi] * radius[: hi - lo] / norm)[:, None]
                del_re, del_im = d_re * scale, d_im * scale
                # h_hat = h - conj(delta)
                h_re -= del_re
                h_im += del_im
            if gains_only:
                mag = np.sqrt(h_re * h_re + h_im * h_im)
                gains[lo:hi] = mag.sum(axis=-1)
                if realized and robust:
                    if not mag.all():
                        # v_i = 1 where h_hat_i = 0, as co-phasing sets it
                        zero = mag == 0
                        h_re, mag = np.where(zero, 1.0, h_re), np.where(zero, 1.0, mag)
                    # c = delta @ v for v = h_hat / |h_hat|
                    w = 1.0 / mag
                    c.real[lo:hi] = np.vecdot(del_re * h_re - del_im * h_im, w)
                    c.imag[lo:hi] = np.vecdot(del_re * h_im + del_im * h_re, w)
                    delta_norms[lo:hi] = scale[:, 0] * norm  # squaring could overflow
                continue
            h_hat.real[lo:hi], h_hat.imag[lo:hi] = h_re, h_im

    _run_ranges(draw, ranges)
    lead = (len(rngs), K) if batched else (K,)
    eps = eps.reshape(lead)
    if gains_only:
        more = (c.reshape(lead), delta_norms.reshape(lead)) if realized else ()
        return gains.reshape(lead), eps, *more
    return h_hat.reshape(*lead, N), eps
