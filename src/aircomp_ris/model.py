"""System model: complex-vector conventions, channel synthesis, bounded CSI
error model, and the nominal MSE evaluators.

Conventions used throughout the package:

* Column vectors are 1-D complex ndarrays; a (K, N) array holds one per
  sensor row. The Hermitian inner product is
  ``inner(a, b) = sum_i conj(a_i) * b_i`` over the last axis.
* Row covectors (e.g. the CSI perturbation) are stored as plain 1-D complex
  ndarrays and applied to a column vector WITHOUT conjugation:
  ``row @ v = sum_i row_i * v_i``. ``hermitian_row(h)`` gives the row of
  entries of ``h^H`` for a column ``h``.
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


def hermitian_row(h):
    """Entries of the row h^H for a column vector h."""
    return np.conj(np.asarray(h))


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

    All arrays are (K, N): g is RIS->receiver, r is sensor->RIS, h the true
    cascaded channel, h_hat the estimate available to the designer. eps is
    the (K,) vector of uncertainty radii bounding ||row(h) - row(h_hat)||.
    """

    g: np.ndarray
    r: np.ndarray
    h: np.ndarray
    h_hat: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        shapes = {self.g.shape, self.r.shape, self.h.shape, self.h_hat.shape}
        if len(shapes) != 1:
            raise DimensionMismatch(f"channel arrays disagree: {shapes}")
        if self.eps.shape[0] != self.g.shape[0]:
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


def cascade_channel(g, r):
    """Cascaded sensor->RIS->receiver channel h, with row(h) = conj(g)*r.

    Satisfies inner(h, v) = sum_i conj(g_i) r_i v_i for any column v.
    """
    g = np.asarray(g)
    r = np.asarray(r)
    if g.shape != r.shape:
        raise DimensionMismatch(f"cascade: {g.shape} vs {r.shape}")
    return g * np.conj(r)


def epsilon_from_coefficient(s, h):
    """Uncertainty radius eps = s * ||h||_2, per row of a (K, N) array."""
    return s * row_norms(h)


def sample_bounded_error(n, eps, mode, rng):
    """Draw a row perturbation with norm exactly eps ("surface") or uniform
    over the radius-eps complex ball ("interior")."""
    if n < 1:
        raise InvalidDimension(f"n={n} must be >= 1")
    if eps == 0:
        return np.zeros(n, dtype=complex)
    d = sample_rayleigh_vector(n, 1.0, rng)
    d = d / np.linalg.norm(d)
    if mode == "surface":
        return eps * d
    if mode == "interior":
        # radius ~ eps * U^(1/(2n)): uniform over the 2n-real-dim ball
        u = rng.uniform()
        return eps * u ** (1.0 / (2 * n)) * d
    raise ValueError(f"unknown error sampling mode {mode!r}")


def apply_error(h, delta_row):
    """Estimated channel h_hat with row(h_hat) = row(h) - delta_row."""
    h = np.asarray(h)
    delta_row = np.asarray(delta_row)
    if h.shape != delta_row.shape:
        raise DimensionMismatch(f"apply_error: {h.shape} vs {delta_row.shape}")
    return h - np.conj(delta_row)


def closed_form_mse(design, channels, noise_var):
    """MSE of the computed sum for the channels actually applied:
    sum_k |m * inner(h_k, v_k) * t_k - 1|^2 + noise_var * m^2."""
    gains = design.m * inner(channels, design.v) * design.t
    return float(np.sum(np.abs(gains - 1.0) ** 2) + noise_var * design.m**2)


def empirical_mse(design, channels, noise_var, trials, rng):
    """Monte Carlo estimate of E|y - sum_k x_k|^2 with unit-variance real
    Gaussian sensor signals and CN(0, noise_var) receiver noise."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gains = design.m * inner(channels, design.v) * design.t
    x = rng.normal(0.0, 1.0, (trials, design.K))
    noise = sample_rayleigh_vector(trials, noise_var, rng) if noise_var > 0 else 0.0
    err = x @ (gains - 1.0) + design.m * noise
    return float(np.mean(np.abs(err) ** 2))


def synthesize_instance(config, rng):
    """Draw one ChannelInstance: Rayleigh segments, cascaded true channels,
    and estimates perturbed by a bounded error of radius s*||h_k||.

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
    g = np.empty((K, N), dtype=complex)
    r = np.empty_like(g)
    h = np.empty_like(g)
    h_hat = np.empty_like(g)
    deltas = np.zeros_like(g)
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
        g[blk] = (zb[:, 0] + 1j * zb[:, 1]) * seg_scale
        r[blk] = (zb[:, 2] + 1j * zb[:, 3]) * seg_scale
        h[blk] = cascade_channel(g[blk], r[blk])
        eps[blk] = epsilon_from_coefficient(config.s, h[blk])
        if robust:
            d = (zb[:, 4] + 1j * zb[:, 5]) * np.sqrt(0.5)
            d /= row_norms(d)[:, None]
            deltas[blk] = (eps[blk] * radius)[:, None] * d
        h_hat[blk] = apply_error(h[blk], deltas[blk])
    inst = ChannelInstance(g=g, r=r, h=h, h_hat=h_hat, eps=eps)
    return inst, deltas
