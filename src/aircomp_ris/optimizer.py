"""Joint design of RIS phases and transceiver scalings.

`robust_design` is the closed-form global optimum: each sensor has its own
RIS and the power constraint is active, so the problem splits into K scalar
problems, each solved by co-phasing and the exact 1-D minimizer `t_exact`.

`run_algorithm1` is the alternating loop. Per iteration, for each sensor:
the ball-constraint multiplier is computed at the current iterate, the RIS
phases are co-phased to the channel estimate, and the effective scalar
t_hat is updated either by the cube-root stationarity formula ("paper"
mode) or by the exact 1-D minimizer of the per-sensor worst-case objective
("exact" mode). m and t_k are then recovered so the sum power constraint
holds with equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroScalers, InvalidNoise
from .model import Design
from .worst_case import lambda_worst, worst_case_term

MODES = ("paper", "exact")
INIT_RULES = ("random_phase", "cophase")


@dataclass
class SolverOptions:
    mode: str = "exact"
    delta_stop: float = 1e-9
    max_iters: int = 200
    safeguard: bool = True
    # recompute the multiplier after the phase update instead of before
    lambda_after_phase: bool = False
    init_rule: str = "random_phase"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.delta_stop <= 0:
            raise ValueError("delta_stop must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.init_rule not in INIT_RULES:
            raise ValueError(f"init_rule must be one of {INIT_RULES}")


@dataclass
class IterTrace:
    """Per-iteration records of one alternating run."""

    objective: list = field(default_factory=list)
    change: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    a: list = field(default_factory=list)
    hit_max_iters: bool = False

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


def t_mag_paper(Q, lam, N, P, noise_var):
    """Cube-root stationary point of the per-sensor objective with constant
    numerator Q: |t_hat|^2 = lam * (1 + cbrt(2 N P Q / (lam noise_var))) / N."""
    if noise_var == 0:
        raise InvalidNoise("stationarity equation has no finite root")
    return lam * (1.0 + np.cbrt(2.0 * N * P * Q / (lam * noise_var))) / N


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


def _init_state(config, h_hat_set, options, rng):
    K, N = config.K, config.N
    if options.init_rule == "cophase":
        v = update_phases(h_hat_set)
    else:
        phases = rng.uniform(0.0, 2.0 * np.pi, (K, N))
        v = np.exp(1j * phases)
    # m^(1) = 1, per-sensor power P/K
    t_hat = np.full(K, np.sqrt(config.P / K), dtype=complex)
    return v, t_hat


def run_algorithm1(config, h_hat_set, eps_set, options, rng, init=None):
    """Alternating loop for the worst-case joint design.

    Returns the final Design and its IterTrace. When eps_k = 0 the robust
    step is bypassed (multiplier treated as +inf). With the safeguard on,
    any per-sensor block update that would increase the objective is
    reverted, making the objective trace non-increasing.

    In t_hat space each sensor's block update depends on that sensor
    alone, so every iteration updates all K sensors at once.
    """
    h_hat_set = np.asarray(h_hat_set)
    eps_set = np.asarray(eps_set, dtype=float)
    if np.all(h_hat_set == 0):
        raise AllZeroScalers("every channel estimate is zero")
    N = config.N
    noise_over_P = config.noise_var / config.P

    if init is not None:
        v, t_hat = init
        v = np.array(v, dtype=complex)
        t_hat = np.array(t_hat, dtype=complex)
    else:
        v, t_hat = _init_state(config, h_hat_set, options, rng)

    # the phase update and the non-robust and exact scalings do not change
    # across iterations
    v_co = update_phases(h_hat_set)
    a = np.abs(h_hat_set).sum(axis=1)
    t_mmse = _t_mmse(a, noise_over_P)
    if options.mode == "exact":
        t_robust = t_exact(a, eps_set * np.sqrt(N), config.noise_var, config.P)
    # per-sensor objective at the current iterate
    obj = _per_sensor_objective(t_hat, h_hat_set, v, eps_set, noise_over_P)

    trace = IterTrace()
    for it in range(options.max_iters):
        v_lam = v_co if options.lambda_after_phase else v
        lam = _multiplier(t_hat, h_hat_set, v_lam, eps_set)
        # lambda = inf (eps = 0 or t_hat = 0): classical MMSE scaling
        mmse = ~np.isfinite(lam)
        if options.mode == "exact":
            t_new = np.where(mmse, t_mmse, t_robust)
        elif mmse.all():
            t_new = t_mmse
        else:
            # constant numerator: residual at the fresh phases and the
            # previous effective scalar
            Q = np.abs(t_hat * a - 1.0) ** 2
            t_sq = t_mag_paper(Q, lam, N, config.P, config.noise_var)
            t_new = np.where(mmse, t_mmse, np.sqrt(t_sq))
        trace.lambdas.append(lam.tolist())
        trace.a.append(a.tolist())
        obj_new = _per_sensor_objective(t_new, h_hat_set, v_co, eps_set, noise_over_P)
        # the safeguard reverts every update that would raise its sensor's objective
        accept = ~(options.safeguard & (obj_new > obj))
        np.copyto(t_hat, t_new, where=accept)
        np.copyto(v, v_co, where=accept[:, None])
        np.copyto(obj, obj_new, where=accept)

        m, t = _recover_or_zero(t_hat, config.P)
        trace.objective.append(float(np.sum(obj)))
        if it == 0:
            change = np.inf
        else:
            change = float(
                np.sum(np.abs(v - v_prev) ** 2)
                + np.sum(np.abs(t - t_prev) ** 2)
                + abs(m - m_prev) ** 2
            )
        trace.change.append(change)
        v_prev = v.copy()
        t_prev, m_prev = t, m
        if change <= options.delta_stop:
            break
    else:
        trace.hit_max_iters = True
    return Design(m=m, t=t, v=v), trace


def _multiplier(t_hat, h_hat, v, eps):
    """lambda_worst per sensor, +inf where eps = 0 or t_hat = 0."""
    live = (eps != 0) & (t_hat != 0)
    lam = lambda_worst(t_hat, h_hat, v, np.where(live, eps, np.inf))
    return np.where(live, lam, np.inf)


def _recover_or_zero(t_hat, P):
    """recover_m_t, except the all-zero degenerate case (uncertainty so
    large that silence is optimal for every sensor) yields the m = 0 design
    rather than an error mid-run."""
    if np.all(np.abs(t_hat) == 0):
        return 0.0, np.zeros_like(t_hat)
    return recover_m_t(t_hat, P)
