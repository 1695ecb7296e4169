"""Self-check suites behind `aircomp verify`: randomized validation of the
closed-form worst case against its KKT conditions and sampling oracles,
and of the safeguarded solver's monotonicity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, sample_rayleigh_vector, synthesize_instance
from .optimizer import run_algorithm1
from .worst_case import (
    brute_force_worst_case,
    delta_worst,
    kkt_residual,
    lagrangian_gradient,
    lagrangian_value,
    lambda_worst,
    worst_case_term,
)

SUITES = ("worstcase", "kkt", "oracle", "monotone")


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: int
    worst_deviation: float
    tolerance: float

    @property
    def passed(self):
        return self.failures == 0


def random_instance(rng, n_max=8, complex_t=True):
    """One random per-sensor worst-case instance on a unit scale."""
    N = int(rng.integers(1, n_max + 1))
    h_hat = sample_rayleigh_vector(N, 1.0, rng)
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
    if complex_t:
        t_hat = complex(rng.normal(), rng.normal())
    else:
        t_hat = abs(rng.normal()) + 1e-3
    s = rng.uniform(0.1, 0.8)
    eps = s * np.linalg.norm(h_hat)
    return t_hat, h_hat, v, eps


def run_worstcase_suite(trials, seed):
    """Certificate exactness: active ball constraint and attainment."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    tol = 1e-10
    for _ in range(trials):
        t_hat, h_hat, v, eps = random_instance(rng)
        delta = delta_worst(t_hat, h_hat, v, eps)
        norm_dev = abs(np.linalg.norm(delta) - eps) / eps
        gain = np.vdot(h_hat, v) + delta @ v
        attained = abs(t_hat * gain - 1.0) ** 2
        term = worst_case_term(t_hat, h_hat, v, eps)
        att_dev = abs(attained - term) / max(term, 1e-30)
        dev = max(norm_dev, att_dev)
        worst = max(worst, dev)
        if dev > tol:
            failures += 1
    return SuiteReport("worstcase", trials, failures, worst, tol)


def run_kkt_suite(trials, seed):
    """Stationarity of the closed-form pair and a finite-difference check
    of the analytic Lagrangian gradient."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    worst_fd = 0.0
    tol = 1e-8
    fd_tol = 1e-5
    step = 1e-6
    for _ in range(trials):
        t_hat, h_hat, v, eps = random_instance(rng)
        lam = lambda_worst(t_hat, h_hat, v, eps)
        delta = delta_worst(t_hat, h_hat, v, eps)
        res = kkt_residual(t_hat, h_hat, v, eps, delta, lam)
        worst = max(worst, res)
        ok = res <= tol
        # central differences in every real coordinate of delta
        grad = lagrangian_gradient(t_hat, h_hat, v, delta, lam)
        for i in range(len(delta)):
            for direction, part in ((1.0, np.real), (1j, np.imag)):
                d_plus = delta.copy()
                d_plus[i] += direction * step
                d_minus = delta.copy()
                d_minus[i] -= direction * step
                fd = (
                    lagrangian_value(t_hat, h_hat, v, eps, d_plus, lam)
                    - lagrangian_value(t_hat, h_hat, v, eps, d_minus, lam)
                ) / (2 * step)
                fd_dev = abs(fd - 2.0 * part(grad[i]))
                worst_fd = max(worst_fd, fd_dev)
                if fd_dev > fd_tol:
                    ok = False
        if not ok:
            failures += 1
    # report whichever check came closest to (or beyond) its tolerance
    if worst_fd / fd_tol > worst / tol:
        return SuiteReport("kkt", trials, failures, worst_fd, fd_tol)
    return SuiteReport("kkt", trials, failures, worst, tol)


def run_oracle_suite(trials, seed, n_samples=2000, refine_steps=50):
    """Brute-force search never beats the closed form and reaches it to 1%
    relative after ascent refinement."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    rel_tol = 0.01
    for _ in range(trials):
        t_hat, h_hat, v, eps = random_instance(rng)
        term = worst_case_term(t_hat, h_hat, v, eps)
        found = brute_force_worst_case(
            t_hat, h_hat, v, eps, n_samples, refine_steps, rng
        )
        if found > term + 1e-9:
            failures += 1
        gap = (term - found) / max(term, 1e-30)
        worst = max(worst, gap)
        if gap > rel_tol:
            failures += 1
    return SuiteReport("oracle", trials, failures, worst, rel_tol)


def run_monotone_suite(trials, seed):
    """Safeguarded runs have non-increasing objective traces."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    tol = 1e-12
    for _ in range(trials):
        K = int(rng.integers(1, 5))
        N = int(rng.integers(1, 9))
        config = SystemConfig(
            K=K,
            N=N,
            P=float(rng.uniform(1.0, 20.0)),
            noise_var=float(rng.uniform(0.05, 2.0)),
            s=float(rng.uniform(0.0, 0.7)),
        )
        inst, _ = synthesize_instance(config, rng)
        _, trace = run_algorithm1(config, inst.h_hat, inst.eps)
        obj = np.asarray(trace.objective)
        rise = float(np.max(np.diff(obj), initial=0.0))
        worst = max(worst, rise)
        if rise > tol:
            failures += 1
    return SuiteReport("monotone", trials, failures, worst, tol)


_RUNNERS = {
    "worstcase": run_worstcase_suite,
    "kkt": run_kkt_suite,
    "oracle": run_oracle_suite,
    "monotone": run_monotone_suite,
}


def run_suite(suite, trials, seed):
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _RUNNERS[suite](trials, seed)
