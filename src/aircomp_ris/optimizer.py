"""Joint design of RIS phases and transceiver scalings.

`robust_design` is the closed-form global optimum: each sensor has its own
RIS and the power constraint is active, so the problem splits into K scalar
problems, each solved by co-phasing and the exact 1-D minimizer `t_exact`.

`run_algorithm1` is the alternating loop that reaches the same point. Its
phase update co-phases every RIS vector to its channel estimate, which is
where the loop starts, so each pass updates the effective scalars t_hat:
the exact 1-D minimizer of each sensor's worst-case objective, or the
classical MMSE scaling where eps_k = 0 or t_hat_k = 0. m and t_k are then
recovered so the sum power constraint holds with equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroScalers
from .model import Design
from .worst_case import worst_case_term

# the loop stops once a pass changes the scalars by at most DELTA_STOP
DELTA_STOP = 1e-9
MAX_ITERS = 200


@dataclass
class IterTrace:
    """Per-iteration records of one alternating run."""

    objective: list = field(default_factory=list)

    @property
    def n_iters(self):
        return len(self.objective)


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


def _t_mmse(a, noise_over_P):
    """Classical sum-power MMSE scaling a / (a^2 + sigma^2/P), 0 where a = 0."""
    return np.divide(a, a * a + noise_over_P, out=np.zeros_like(a), where=a > 0)


def recover_m_t(t_hat_set, P):
    """Recover (m, t) from the effective scalars: m = sqrt(sum|t_hat|^2 / P),
    t_k = t_hat_k / m, so the sum power constraint is met with equality."""
    t_hat_set = np.asarray(t_hat_set)
    ssq = float(np.sum(np.abs(t_hat_set) ** 2))
    if ssq == 0:
        raise AllZeroScalers("all effective scalars are zero")
    m = float(np.sqrt(ssq / P))
    return m, t_hat_set / m


def _per_sensor_objective(t_hat, h_hat, v, eps, noise_over_P):
    """Worst-case term plus each sensor's share of the noise penalty, in
    t_hat space (m eliminated via the active power constraint)."""
    return worst_case_term(t_hat, h_hat, v, eps) + noise_over_P * np.abs(t_hat) ** 2


def nonrobust_design(config, h_hat_set):
    """Baseline ignoring CSI uncertainty: co-phased RIS vectors and the
    classical sum-power MMSE scaling t_hat_k = a_k / (a_k^2 + sigma^2/P)."""
    h_hat_set = np.asarray(h_hat_set)
    a = np.abs(h_hat_set).sum(axis=1)
    t_hat = _t_mmse(a, config.noise_var / config.P)
    m, t = recover_m_t(t_hat, config.P)
    return Design(m=m, t=t, v=update_phases(h_hat_set))


def robust_design(config, h_hat_set, eps_set):
    """Global optimum of the worst-case design: co-phased RIS vectors and
    the exact per-sensor scaling t_hat_k = t_exact(a_k, eps_k sqrt(N)),
    a_k = ||h_hat_k||_1. Yields the m = 0 design when every sensor is
    silenced."""
    h_hat_set = np.asarray(h_hat_set)
    if np.all(h_hat_set == 0):
        raise AllZeroScalers("every channel estimate is zero")
    a = np.abs(h_hat_set).sum(axis=1)
    eps_rootN = np.asarray(eps_set, dtype=float) * np.sqrt(config.N)
    t_hat = t_exact(a, eps_rootN, config.noise_var, config.P)
    m, t = _recover_or_zero(t_hat, config.P)
    return Design(m=m, t=t, v=update_phases(h_hat_set))


def run_algorithm1(config, h_hat_set, eps_set):
    """Alternating loop for the worst-case joint design, from co-phased
    RIS vectors and equal per-sensor power, t_hat_k = sqrt(P/K).

    Returns the final Design and its IterTrace. Where eps_k = 0 or
    t_hat_k = 0 the robust step is bypassed for the MMSE scaling. Any
    per-sensor update that would increase the objective is reverted, so the
    objective trace is non-increasing. Each sensor's update depends on that
    sensor alone, so every pass updates all K sensors at once.
    """
    h_hat_set = np.asarray(h_hat_set)
    eps_set = np.asarray(eps_set, dtype=float)
    if np.all(h_hat_set == 0):
        raise AllZeroScalers("every channel estimate is zero")
    noise_over_P = config.noise_var / config.P
    v = update_phases(h_hat_set)
    t_hat = np.full(config.K, np.sqrt(config.P / config.K), dtype=complex)
    a = np.abs(h_hat_set).sum(axis=1)
    t_mmse = _t_mmse(a, noise_over_P)
    t_robust = t_exact(a, eps_set * np.sqrt(config.N), config.noise_var, config.P)
    # per-sensor objective at the current iterate
    obj = _per_sensor_objective(t_hat, h_hat_set, v, eps_set, noise_over_P)

    trace = IterTrace()
    for it in range(MAX_ITERS):
        t_prev = t_hat.copy()
        t_new = np.where((eps_set == 0) | (t_hat == 0), t_mmse, t_robust)
        obj_new = _per_sensor_objective(t_new, h_hat_set, v, eps_set, noise_over_P)
        # the safeguard reverts every update that would raise its sensor's objective
        accept = ~(obj_new > obj)
        np.copyto(t_hat, t_new, where=accept)
        np.copyto(obj, obj_new, where=accept)
        trace.objective.append(float(np.sum(obj)))
        # only a pass after the first can confirm that nothing changes
        if it > 0 and np.sum(np.abs(t_hat - t_prev) ** 2) <= DELTA_STOP:
            break
    m, t = _recover_or_zero(t_hat, config.P)
    return Design(m=m, t=t, v=v), trace


def _recover_or_zero(t_hat, P):
    """recover_m_t, except the all-zero degenerate case (uncertainty so
    large that silence is optimal for every sensor) yields the m = 0 design
    rather than an error mid-run."""
    if np.all(np.abs(t_hat) == 0):
        return 0.0, np.zeros_like(t_hat)
    return recover_m_t(t_hat, P)
