"""System model: complex-vector conventions, the scenario and design
dataclasses, and channel synthesis with a bounded CSI error.

Conventions used throughout the package:

* Column vectors are 1-D complex ndarrays; a (K, N) array holds one per
  sensor row. The Hermitian inner product is
  ``inner(a, b) = sum_i conj(a_i) * b_i`` over the last axis.
* Row covectors (e.g. the CSI perturbation) are stored as plain 1-D complex
  ndarrays and applied to a column vector WITHOUT conjugation:
  ``row @ v = sum_i row_i * v_i``. The row h^H of a column h is
  ``np.conj(h)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDimension

EVAL_MODES = ("worst", "realized")
ERROR_SAMPLING_MODES = ("surface", "interior")

# Doubles drawn per synthesis block: bounds the temporaries at large K*N.
_DRAW_BLOCK = 1 << 14


def inner(a, b):
    """Hermitian inner product sum_i conj(a_i) b_i over the last axis, so
    (K, N) operands give the K row products."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"inner: {a.shape} vs {b.shape}")
    return np.vecdot(a, b)


def row_norms(x):
    """Euclidean norm over the last axis, summed as np.linalg.norm sums a
    single complex vector (real and imaginary parts apart)."""
    x = np.asarray(x)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class SystemConfig:
    """Scenario parameters shared by the solver and the simulator.

    K sensors, each served by its own N-element RIS; P is the sum transmit
    power budget, noise_var the receiver AWGN variance, channel_var the
    per-segment Rayleigh variance, and s the relative CSI uncertainty
    coefficient (eps_k = s * ||h_k||_2).
    """

    K: int
    N: int
    P: float
    noise_var: float
    channel_var: float = 0.5
    s: float = 0.0
    eval_mode: str = "worst"
    error_sampling: str = "surface"

    def __post_init__(self):
        if self.K < 1 or self.N < 1:
            raise InvalidDimension(f"K={self.K}, N={self.N} must be >= 1")
        for name in ("P", "noise_var", "channel_var", "s"):
            _check_finite(name, getattr(self, name))
        if self.P <= 0:
            raise ValueError("P must be > 0")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")
        if self.channel_var <= 0:
            raise ValueError("channel_var must be > 0")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.eval_mode not in EVAL_MODES:
            raise ValueError(f"eval_mode must be one of {EVAL_MODES}")
        if self.error_sampling not in ERROR_SAMPLING_MODES:
            raise ValueError(
                f"error_sampling must be one of {ERROR_SAMPLING_MODES}"
            )


@dataclass
class ChannelInstance:
    """Per-sensor channels of one Monte Carlo draw.

    h is the (K, N) true cascaded channel and h_hat the estimate available
    to the designer. eps is the (K,) vector of uncertainty radii bounding
    ||row(h) - row(h_hat)||.
    """

    h: np.ndarray
    h_hat: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.h_hat.shape:
            raise DimensionMismatch(
                f"channel arrays disagree: {self.h.shape} vs {self.h_hat.shape}"
            )
        if self.eps.shape[0] != self.h.shape[0]:
            raise DimensionMismatch("eps length must equal K")
        if np.any(self.eps < 0):
            raise ValueError("eps must be >= 0")


@dataclass
class Design:
    """A transceiver/RIS operating point.

    m is the receive scaling, t the (K,) transmit scalars, v the (K, N)
    unit-modulus RIS phase vectors. The effective scalars t_hat = m * t are
    what the worst-case objective actually depends on.
    """

    m: float
    t: np.ndarray
    v: np.ndarray

    @property
    def t_hat(self):
        return self.m * self.t

    @property
    def K(self):
        return self.t.shape[0]


def sample_rayleigh_vector(n, variance, rng):
    """Draw a length-n vector of i.i.d. CN(0, variance) entries."""
    if n < 1:
        raise InvalidDimension(f"n={n} must be >= 1")
    if variance < 0:
        raise ValueError("variance must be >= 0")
    scale = np.sqrt(variance / 2.0)
    return rng.normal(0.0, 1.0, n) * scale + 1j * rng.normal(0.0, 1.0, n) * scale


def epsilon_from_coefficient(s, h):
    """Uncertainty radius eps = s * ||h||_2, per row of a (K, N) array."""
    return s * row_norms(h)


def synthesize_instance(config, rng):
    """Draw one ChannelInstance and its row perturbations: Rayleigh
    segments g_k (RIS->receiver) and r_k (sensor->RIS), true channels h_k
    with row(h_k) = conj(g_k) * r_k, and estimates with
    row(h_hat_k) = row(h_k) - delta_k for a bounded error delta_k of radius
    eps_k = s*||h_k||.

    Sensor by sensor, the stream yields N normals each for re(g_k), im(g_k),
    re(r_k), im(r_k), and when s > 0 (so eps_k > 0) for the real and
    imaginary parts of the error direction, then one uniform for an
    interior error's radius. A block of sensors without uniforms is drawn
    in one call, which fills in that same order."""
    K, N = config.K, config.N
    robust = config.s > 0
    interior = robust and config.error_sampling == "interior"
    parts = 6 if robust else 4
    step = max(1, _DRAW_BLOCK // (parts * N))
    z = np.empty((min(step, K), parts, N))
    seg_scale = np.sqrt(config.channel_var / 2.0)
    h = np.empty((K, N), dtype=complex)
    h_hat = np.empty_like(h)
    deltas = np.zeros_like(h)
    eps = np.empty(K)
    for lo in range(0, K, step):
        blk = slice(lo, min(lo + step, K))
        zb = z[: blk.stop - lo]
        radius = np.ones(len(zb))
        if interior:
            for i in range(len(zb)):
                rng.standard_normal(out=zb[i])
                # radius ~ U^(1/(2N)): uniform over the 2N-real-dim ball
                radius[i] = rng.uniform() ** (1.0 / (2 * N))
        else:
            rng.standard_normal(out=zb)
        g = (zb[:, 0] + 1j * zb[:, 1]) * seg_scale
        r = (zb[:, 2] + 1j * zb[:, 3]) * seg_scale
        h[blk] = g * np.conj(r)
        eps[blk] = epsilon_from_coefficient(config.s, h[blk])
        if robust:
            d = (zb[:, 4] + 1j * zb[:, 5]) * np.sqrt(0.5)
            d /= row_norms(d)[:, None]
            deltas[blk] = (eps[blk] * radius)[:, None] * d
        h_hat[blk] = h[blk] - np.conj(deltas[blk])
    return ChannelInstance(h=h, h_hat=h_hat, eps=eps), deltas
