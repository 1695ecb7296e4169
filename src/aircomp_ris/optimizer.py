"""Joint design of RIS phases and transceiver scalings.

Each sensor has its own RIS and the power constraint is active, so the
worst-case problem splits into K scalar problems, each solved globally by
co-phasing, v_k = h_hat_k/|h_hat_k|, and the exact 1-D minimizer `t_exact`.
Co-phasing leaves sensor k the gain a_k = ||h_hat_k||_1 (`cophased_gains`),
so the designer is a scalar core: `robust_scalars` gives m and t from
(a_k, eps_k sqrt(N)) and a noise_var per trial, at radius 0 the non-robust
baseline, and `ris_phases` the phases of v. The paper's alternating loop
(Algorithm 1) lands here in its first pass and stops after a second that
changes nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import AirCompError
from .model import Design


def t_exact(a, eps_rootN, noise_var, P):
    """Exact minimizer over tau >= 0 of
    (|tau*a - 1| + eps_rootN*tau)^2 + (noise_var/P)*tau^2, per sensor.

    With b = a - eps_rootN and c = noise_var/P: tau = 0 when b <= 0
    (uncertainty dominates), otherwise min(b/(b^2 + c), 1/a). Where b^2 + c
    overflows for a finite b, the quotient is 1/(b + c/b) instead."""
    b = np.asarray(a - eps_rootN, dtype=float)
    c = noise_var / P
    live = b > 0
    with np.errstate(over="ignore"):
        denom = b * b + c
    tau = np.divide(b, denom, out=np.zeros_like(b), where=live)
    huge = np.isinf(denom)
    if huge.any():
        huge &= live & np.isfinite(b)
        bh = b[huge]
        tau[huge] = 1.0 / (bh + np.broadcast_to(c, b.shape)[huge] / bh)
    np.minimum(tau, np.divide(1.0, a, out=np.full_like(b, np.inf), where=live), out=tau)
    return float(tau) if tau.ndim == 0 else tau


def recover_m_t(t_hat_set, P):
    """Recover (m, t) from the effective scalars: m = sqrt(sum|t_hat|^2 / P),
    t_k = t_hat_k / m, so the sum power constraint is met with equality.
    A trial whose scalars are all zero (uncertainty so large that silence
    is optimal for every sensor) gets the m = 0 design. Works per trial
    over the leading axes of a (..., K) array."""
    t_hat_set = np.asarray(t_hat_set)
    m = np.sqrt(np.sum(np.abs(t_hat_set) ** 2, axis=-1) / P)
    live = m[..., None] > 0
    t = np.divide(t_hat_set, m[..., None], out=np.zeros_like(t_hat_set), where=live)
    return m, t


def cophased_gains(h_hat):
    """The gains a_k = h_hat_k^H v_k = ||h_hat_k||_1 that co-phasing leaves
    each sensor row of h_hat, summed from real planes, which round alike at
    every numpy dispatch level."""
    return np.sqrt(h_hat.real * h_hat.real + h_hat.imag * h_hat.imag).sum(axis=-1)


def ris_phases(h_hat):
    """Phases in (-pi, pi] of the co-phasing v = h_hat/|h_hat|: 0 at zero
    entries of either sign, pi where np.angle gives -pi (-x - 0j)."""
    phi = np.angle(h_hat)
    return np.where(h_hat == 0, 0.0, np.where(phi == -np.pi, np.pi, phi))


def robust_scalars(a, eps_rootN, noise_var, P):
    """m and t of the worst-case optimum from the (..., K) gains a_k and
    radii eps_k sqrt(N): t_hat_k = t_exact(a_k, eps_k sqrt(N)), and m = 0
    for a trial whose every sensor is silenced; none for a trial whose every
    estimate is zero. At radius 0, the MMSE scaling a_k/(a_k^2 + sigma^2/P)."""
    if not a.any(axis=-1).all():
        raise AirCompError("every channel estimate is zero")
    t_hat = t_exact(a, eps_rootN, np.expand_dims(noise_var, -1), P)
    m, t = recover_m_t(t_hat, P)
    return Design(m=m, t=t)
