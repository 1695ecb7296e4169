"""Closed-form worst-case CSI perturbation, its KKT certificate, and
independent brute-force oracles.

The inner maximization per sensor is

    max_{||delta|| <= eps}  |t_hat * ((h_hat^H + delta) v) - 1|^2

with v unit-modulus (so v^H v = N). Because delta enters only through the
scalar delta @ v, the maximizer is a rank-1 multiple of row(v^H) and the
optimum has the closed form (|rho| + |t_hat| * eps * sqrt(N))^2 with
rho = t_hat * (h_hat^H v) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PerturbationOutOfBall
from .model import inner, row_norms


@dataclass
class WorstCaseCert:
    """Per-sensor worst-case certificate for a fixed design.

    lambdas[k] is the KKT multiplier of the ball constraint (inf when
    eps_k = 0), terms[k] the attained per-sensor worst MSE term; total adds
    the noise term. delta_worst gives the perturbations that attain them.
    """

    lambdas: np.ndarray
    terms: np.ndarray
    total: float


def residual(t_hat, h_hat, v):
    """rho = t_hat * (h_hat^H v) - 1, the nominal misalignment."""
    return t_hat * inner(h_hat, v) - 1.0


def lambda_worst(t_hat, h_hat, v, eps):
    """KKT multiplier of the active ball constraint (maximizer branch).

    Root of ||delta(lambda)||^2 = eps^2 with lambda > |t_hat|^2 N:
    lambda = |t_hat|^2 N + (sqrt(N)/eps) |t_hat| |rho|. Where eps = 0 the
    ball is a point and lambda is inf. Broadcasts over a leading sensor
    axis of h_hat and v.
    """
    eps = np.asarray(eps, dtype=float)
    live = eps != 0
    N = np.shape(h_hat)[-1]
    rho = residual(t_hat, h_hat, v)
    at = np.abs(t_hat)
    scale = np.divide(np.sqrt(N), eps, out=np.zeros_like(eps), where=live)
    lam = np.where(live, at**2 * N + scale * at * np.abs(rho), np.inf)
    return float(lam) if lam.ndim == 0 else lam


def delta_worst(t_hat, h_hat, v, eps):
    """Worst-case row perturbation, a scalar multiple of row(v^H).

    delta = (eps/sqrt(N)) * u * row(v^H) with u = conj(t_hat)*rho normalized;
    degenerate cases pick a deterministic phase (see below). For eps > 0 the
    result always has norm eps and attains (|rho| + |t_hat| eps sqrt(N))^2.
    Broadcasts over a leading sensor axis of h_hat and v.
    """
    N = np.shape(h_hat)[-1]
    rho = residual(t_hat, h_hat, v)
    w = np.conj(t_hat) * rho
    at = np.abs(t_hat)
    aw = np.abs(w)
    # u = w/|w|. Where rho = 0 every phase attains the max, so take that of
    # conj(t_hat); where t_hat = 0 delta does not matter, so take u = 1.
    ones = np.ones_like(w, dtype=complex)
    u = np.divide(np.conj(t_hat), at, out=ones, where=at > 0, dtype=complex)
    np.divide(w, aw, out=u, where=aw > 0)
    return (eps / np.sqrt(N) * u)[..., None] * np.conj(v)


def worst_case_term(t_hat, h_hat, v, eps):
    """Per-sensor worst MSE term (|rho| + |t_hat| * eps * sqrt(N))^2;
    broadcasts over a leading sensor axis of h_hat and v."""
    N = np.shape(h_hat)[-1]
    rho = residual(t_hat, h_hat, v)
    term = (np.abs(rho) + np.abs(t_hat) * eps * np.sqrt(N)) ** 2
    return float(term) if np.ndim(term) == 0 else term


def worst_case_objective(design, h_hat_set, eps_set, noise_var):
    """Total worst-case MSE: sum_k worst term + noise_var * m^2."""
    if np.shape(h_hat_set)[0] != design.K or np.shape(eps_set)[0] != design.K:
        raise DimensionMismatch("h_hat_set/eps_set must have K rows")
    terms = worst_case_term(design.t_hat, h_hat_set, design.v, eps_set)
    return float(noise_var * design.m**2 + np.sum(terms))


def certificate(design, h_hat_set, eps_set, noise_var):
    """Assemble the per-sensor worst-case certificate for a design."""
    t_hat = design.t_hat
    lambdas = lambda_worst(t_hat, h_hat_set, design.v, eps_set)
    terms = worst_case_term(t_hat, h_hat_set, design.v, eps_set)
    total = float(np.sum(terms) + noise_var * design.m**2)
    return WorstCaseCert(lambdas=lambdas, terms=terms, total=total)


def mse_at_error(design, h_hat_set, delta_set, noise_var, eps_set=None):
    """MSE conditioned on the estimate, at the supplied row perturbations.

    When eps_set is given, each ||delta_k|| is checked against its radius
    (with a small slack for roundoff).
    """
    h_hat_set = np.asarray(h_hat_set)
    delta_set = np.asarray(delta_set)
    if h_hat_set.shape != delta_set.shape or h_hat_set.shape[0] != design.K:
        raise DimensionMismatch("h_hat_set/delta_set shape mismatch")
    if eps_set is not None:
        nd = row_norms(delta_set)
        out = nd > np.asarray(eps_set) * (1 + 1e-9) + 1e-15
        if np.any(out):
            k = int(np.argmax(out))
            raise PerturbationOutOfBall(
                f"||delta_{k}|| = {nd[k]} > eps = {eps_set[k]}"
            )
    values = _per_sensor_value(design.t_hat, h_hat_set, design.v, delta_set)
    return float(noise_var * design.m**2 + np.sum(values))


def _per_sensor_value(t_hat, h_hat, v, delta):
    # row-wise delta @ v, unconjugated
    gain = inner(h_hat, v) + (delta[..., None, :] @ v[..., :, None])[..., 0, 0]
    return np.abs(t_hat * gain - 1.0) ** 2


def brute_force_worst_case(t_hat, h_hat, v, eps, n_samples, refine_steps, rng):
    """Sampling + ascent oracle for the inner maximization.

    Draws n_samples perturbations on the eps-sphere, keeps the best, then
    (optionally) runs refine_steps of the convex-maximization ascent
    delta <- eps * grad/||grad||, which is monotone because the objective is
    convex in delta. Never exceeds worst_case_term beyond roundoff.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    N = len(h_hat)
    if eps == 0:
        return float(abs(residual(t_hat, h_hat, v)) ** 2)
    d = (rng.normal(size=(n_samples, N)) + 1j * rng.normal(size=(n_samples, N)))
    d *= eps / np.linalg.norm(d, axis=1, keepdims=True)
    rho = residual(t_hat, h_hat, v)
    vals = np.abs(rho + t_hat * (d @ v)) ** 2
    best = int(np.argmax(vals))
    delta = d[best]
    value = float(vals[best])
    for _ in range(refine_steps):
        # gradient wrt conj(delta) is w * conj(t_hat) * row(v^H)
        w = rho + t_hat * (delta @ v)
        grad = w * np.conj(t_hat) * np.conj(v)
        gn = np.linalg.norm(grad)
        if gn == 0:
            break
        delta = eps * grad / gn
        value = float(abs(rho + t_hat * (delta @ v)) ** 2)
    return value


def lagrangian_value(t_hat, h_hat, v, eps, delta, lam):
    """L = -|t_hat ((h_hat^H + delta) v) - 1|^2 + lam (||delta||^2 - eps^2)."""
    val = _per_sensor_value(t_hat, h_hat, v, delta)
    return -val + lam * (np.linalg.norm(delta) ** 2 - eps**2)


def lagrangian_gradient(t_hat, h_hat, v, delta, lam):
    """Wirtinger gradient of the Lagrangian wrt conj(delta) (a row vector)."""
    w = residual(t_hat, h_hat, v) + t_hat * (delta @ v)
    return -np.conj(t_hat) * w * np.conj(v) + lam * delta


def kkt_residual(t_hat, h_hat, v, eps, delta, lam):
    """Stationarity norm plus complementary-slackness violation at a
    candidate (delta, lam); zero at the closed-form pair."""
    grad = lagrangian_gradient(t_hat, h_hat, v, delta, lam)
    slack = abs(lam * (np.linalg.norm(delta) ** 2 - eps**2))
    return float(np.linalg.norm(grad) + slack)
