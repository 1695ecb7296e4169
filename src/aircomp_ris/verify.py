"""Self-check suites behind `aircomp verify`. Each trial draws a small
instance, designs and certifies it as `aircomp solve` does (`robust_scalars`
on the co-phased gains, `certificate`, v = exp(j ris_phases)), and checks
every sensor against the complex per-sensor forms of its worst case."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import SystemConfig, synthesize_instance
from .optimizer import certificate, cophased_gains, ris_phases, robust_scalars

# Sampling oracle: perturbations drawn on the eps-sphere, then at most
# _ASCENT ascent steps, until one gains less than _GAIN relative.
_SAMPLES = 2000
_ASCENT = 10**4
_GAIN = 1e-12
# Step of the central differences of the Lagrangian.
_STEP = 1e-6
# Points of the tau grid and random RIS vectors each design must beat.
_GRID = 10**4
_RANDOM_V = 100


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


def _sensors(rng):
    """Draw a random instance (K in [1, 6], N in [1, 8], s in [0.05, 1.2]),
    design and certify it; one (t_hat, h_hat, v, eps, a, c, term, lam) per
    sensor, with c = noise_var/P."""
    K, N = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    config = SystemConfig(
        K=K,
        N=N,
        P=float(rng.uniform(0.5, 50.0)),
        noise_var=float(rng.uniform(0.01, 2.0)),
        s=float(rng.uniform(0.05, 1.2)),
    )
    h_hat, eps = synthesize_instance(config, rng)
    a = cophased_gains(h_hat)
    design = robust_scalars(a, eps * np.sqrt(N), config.noise_var, config.P)
    cert = certificate(design, a, eps, N, config.noise_var)
    v = np.exp(1j * ris_phases(h_hat))
    c = config.noise_var / config.P
    for k in range(K):
        t_hat, term, lam = design.t_hat[k], cert.terms[k], cert.lambdas[k]
        yield t_hat, h_hat[k], v[k], eps[k], a[k], c, term, lam


def _delta_worst(t_hat, h_hat, v, eps):
    """The rank-1 maximizer (eps/sqrt(N)) u row(v^H) of |t_hat (h_hat^H +
    delta) v - 1|^2 over ||delta|| <= eps: u is the phase of conj(t_hat) rho,
    rho = t_hat h_hat^H v - 1, and any phase where that is 0."""
    w = np.conj(t_hat) * (t_hat * np.vdot(h_hat, v) - 1.0)
    u = w / abs(w) if w != 0 else 1.0
    return eps / np.sqrt(len(v)) * u * np.conj(v)


def _lagrangian(t_hat, h_hat, v, eps, delta, lam):
    """L = -|t_hat ((h_hat^H + delta) v) - 1|^2 + lam (||delta||^2 - eps^2)."""
    value = abs(t_hat * (np.vdot(h_hat, v) + delta @ v) - 1.0) ** 2
    return -value + lam * (np.vdot(delta, delta).real - eps**2)


def _lagrangian_gradient(t_hat, h_hat, v, delta, lam):
    """Wirtinger gradient of the Lagrangian wrt conj(delta) (a row vector)."""
    w = t_hat * (np.vdot(h_hat, v) + delta @ v) - 1.0
    return -np.conj(t_hat) * w * np.conj(v) + lam * delta


def _sampled_worst(t_hat, h_hat, v, eps, rng):
    """The largest |t_hat ((h_hat^H + delta) v) - 1|^2 of _SAMPLES
    perturbations on the eps-sphere, raised by steps of the ascent
    delta <- eps grad/||grad||, which never lowers this convex objective.
    It converges slowly where |rho| << |t_hat| eps sqrt(N), so it runs until
    a step gains less than _GAIN relative."""
    shape = (_SAMPLES, len(v))
    d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    d *= eps / np.linalg.norm(d, axis=1, keepdims=True)
    rho = t_hat * np.vdot(h_hat, v) - 1.0
    values = np.abs(rho + t_hat * (d @ v)) ** 2
    delta = d[np.argmax(values)]
    value = values.max()
    for _ in range(_ASCENT):
        grad = -_lagrangian_gradient(t_hat, h_hat, v, delta, 0.0)
        norm = np.linalg.norm(grad)
        if norm == 0:
            break
        delta = eps * grad / norm
        previous, value = value, abs(rho + t_hat * (delta @ v)) ** 2
        if value <= previous * (1 + _GAIN):
            break
    return value


def _worstcase_check(rng, t_hat, h_hat, v, eps, a, c, term, lam):
    """The rank-1 delta has norm eps and attains the certificate's term."""
    delta = _delta_worst(t_hat, h_hat, v, eps)
    attained = abs(t_hat * (np.vdot(h_hat, v) + delta @ v) - 1.0) ** 2
    return abs(np.linalg.norm(delta) - eps) / eps, abs(attained - term) / term


def _kkt_check(rng, t_hat, h_hat, v, eps, a, c, term, lam):
    """Stationarity plus complementary slackness at (delta, lam), and the
    largest gap between central differences of the Lagrangian in each real
    coordinate of delta and the analytic gradient."""
    delta = _delta_worst(t_hat, h_hat, v, eps)
    grad = _lagrangian_gradient(t_hat, h_hat, v, delta, lam)
    slack = abs(lam * (np.vdot(delta, delta).real - eps**2))
    fd_dev = 0.0
    for i in range(len(delta)):
        for direction, part in ((1.0, np.real), (1j, np.imag)):
            shift = np.zeros_like(delta)
            shift[i] = direction * _STEP
            fd = (
                _lagrangian(t_hat, h_hat, v, eps, delta + shift, lam)
                - _lagrangian(t_hat, h_hat, v, eps, delta - shift, lam)
            ) / (2 * _STEP)
            fd_dev = max(fd_dev, abs(fd - 2.0 * part(grad[i])))
    return np.linalg.norm(grad) + slack, fd_dev


def _oracle_check(rng, t_hat, h_hat, v, eps, a, c, term, lam):
    """How far the design is beaten, by sampling plus ascent on the term, by
    a dense grid of scalings tau in (|tau a - 1| + eps sqrt(N) tau)^2 + c
    tau^2, or by random unit-modulus v at the same t_hat; and the relative
    gap by which sampling plus ascent falls short of the term."""
    found = _sampled_worst(t_hat, h_hat, v, eps, rng)
    e = eps * np.sqrt(len(v))
    tau = np.linspace(0.0, 2.0 / a, _GRID)
    grid = (np.abs(tau * a - 1.0) + e * tau) ** 2 + c * tau**2
    u = np.exp(2j * np.pi * rng.random((_RANDOM_V, len(v))))
    random_v = (np.abs(t_hat * (u @ np.conj(h_hat)) - 1.0) + abs(t_hat) * e) ** 2
    beaten = max(found - term, term + c * t_hat**2 - grid.min(), term - random_v.min())
    return beaten, (term - found) / term


# each suite's per-sensor check and the tolerances of the deviations it returns
_SUITES = {
    "worstcase": (_worstcase_check, (1e-10, 1e-10)),
    "kkt": (_kkt_check, (1e-8, 1e-5)),
    "oracle": (_oracle_check, (1e-9, 0.01)),
}
SUITES = tuple(_SUITES)


def run_suite(suite, trials, seed):
    """Run a suite's check on every sensor of `trials` random instances drawn
    from `seed`. A trial fails when a deviation of one of its sensors exceeds
    its tolerance; the report gives the check whose worst deviation came
    closest to (or went furthest past) its tolerance."""
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    check, tolerances = _SUITES[suite]
    tolerances = np.array(tolerances)
    rng = np.random.default_rng(seed)
    worst = np.zeros(len(tolerances))
    failures = 0
    for _ in range(trials):
        devs = np.max([check(rng, *sensor) for sensor in _sensors(rng)], axis=0)
        failures += not np.all(devs <= tolerances)
        worst = np.maximum(worst, devs)
    i = int(np.argmax(worst / tolerances))
    return SuiteReport(suite, trials, failures, float(worst[i]), float(tolerances[i]))
