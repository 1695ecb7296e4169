"""Joint design of RIS phases and transceiver scalings.

`robust_design` is the closed-form global optimum: each sensor has its own
RIS and the power constraint is active, so the problem splits into K scalar
problems, each solved by co-phasing and the exact 1-D minimizer `t_exact`.
Co-phasing leaves sensor k the gain a_k = ||h_hat_k||_1, so each designer
is a scalar core, m and t from (a_k, eps_k sqrt(N)), and a wrapper that
adds the RIS vectors. The paper's alternating loop (Algorithm 1) lands on
this point in its first pass and stops after a second that changes nothing.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import AllZeroScalers
from .model import Design


def update_phases(h_hat):
    """Co-phasing RIS vector: v_i = exp(j*arg(h_hat_i)) (zero entries get
    phase 0), which makes inner(h_hat, v) = sum_i |h_hat_i| real and maximal
    among unit-modulus vectors. Works row by row on a (K, N) array."""
    h_hat = np.asarray(h_hat, dtype=complex)
    ones = np.ones_like(h_hat)
    return np.divide(h_hat, np.abs(h_hat), out=ones, where=h_hat != 0)


def t_exact(a, eps_rootN, noise_var, P):
    """Exact minimizer over tau >= 0 of
    (|tau*a - 1| + eps_rootN*tau)^2 + (noise_var/P)*tau^2, per sensor.

    With b = a - eps_rootN and c = noise_var/P: tau = 0 when b <= 0
    (uncertainty dominates), otherwise min(b/(b^2 + c), 1/a)."""
    b = np.asarray(a - eps_rootN, dtype=float)
    live = b > 0
    tau = np.divide(b, b * b + noise_var / P, out=np.zeros_like(b), where=live)
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
    return (float(m) if np.ndim(m) == 0 else m), t


def _l1_gains(h_hat_set):
    """a_k = ||h_hat_k||_1 of a (..., K, N) block, the gain co-phasing gives
    each sensor."""
    return np.abs(h_hat_set).sum(axis=-1)


def _scalar_design(a, t_hat, P):
    """The Design of the effective scalars t_hat, without RIS vectors. No
    design serves a trial whose every estimate is zero."""
    if not a.any(axis=-1).all():
        raise AllZeroScalers("every channel estimate is zero")
    m, t = recover_m_t(t_hat, P)
    return Design(m=m, t=t)


def nonrobust_scalars(config, a):
    """m and t of the non-robust design from the (..., K) gains a_k: the MMSE
    scaling t_hat_k = a_k / (a_k^2 + sigma^2/P), 0 where a_k = 0."""
    c = config.noise_var / config.P
    t_hat = np.divide(a, a * a + c, out=np.zeros_like(a), where=a > 0)
    return _scalar_design(a, t_hat, config.P)


def robust_scalars(config, a, eps_rootN):
    """m and t of the worst-case optimum from the (..., K) gains a_k and
    radii eps_k sqrt(N): t_hat_k = t_exact(a_k, eps_k sqrt(N)), and m = 0
    for a trial whose every sensor is silenced."""
    t_hat = t_exact(a, eps_rootN, config.noise_var, config.P)
    return _scalar_design(a, t_hat, config.P)


def nonrobust_design(config, h_hat_set):
    """Baseline ignoring CSI uncertainty: nonrobust_scalars with co-phased
    RIS vectors, for each trial of a (..., K, N) block."""
    design = nonrobust_scalars(config, _l1_gains(h_hat_set))
    return replace(design, v=update_phases(h_hat_set))


def robust_design(config, h_hat_set, eps_set):
    """Global optimum of the worst-case design: robust_scalars with
    co-phased RIS vectors, for each trial of a (..., K, N) block."""
    eps_rootN = np.asarray(eps_set, dtype=float) * np.sqrt(config.N)
    design = robust_scalars(config, _l1_gains(h_hat_set), eps_rootN)
    return replace(design, v=update_phases(h_hat_set))
