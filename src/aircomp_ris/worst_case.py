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
from .model import inner


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


def worst_case_objective(design, a, eps_rootN, noise_var):
    """Total worst-case MSE of a co-phased design, h_hat_k^H v_k = a_k, per
    trial of a (..., K) block of gains a_k = ||h_hat_k||_1 and radii eps_k
    sqrt(N): sum_k (|t_hat_k a_k - 1| + |t_hat_k| eps_k sqrt(N))^2 + noise_var m^2."""
    return _worst_terms(design, a, eps_rootN, noise_var)[1]


def certificate(design, a, eps, N, noise_var):
    """The per-sensor worst-case certificate of a co-phased design from its
    (K,) gains a_k = ||h_hat_k||_1, radii eps_k and RIS size N: the terms of
    worst_case_objective, and lambda_worst with rho_k = t_hat_k a_k - 1."""
    eps = np.asarray(eps, dtype=float)
    terms, total = _worst_terms(design, a, eps * np.sqrt(N), noise_var)
    t_hat = design.t_hat
    at = np.abs(t_hat)
    live = eps != 0
    scale = np.divide(np.sqrt(N), eps, out=np.zeros_like(eps), where=live)
    lambdas = np.where(live, at**2 * N + scale * at * np.abs(t_hat * a - 1.0), np.inf)
    return WorstCaseCert(lambdas=lambdas, terms=terms, total=total)


def _worst_terms(design, a, eps_rootN, noise_var):
    """The per-sensor worst MSE terms of a co-phased design and their total
    with the noise term, per trial of a (..., K) block."""
    if np.shape(a)[-1] != design.K or np.shape(eps_rootN) != np.shape(a):
        raise DimensionMismatch("a/eps_rootN must have K entries per trial")
    t_hat = design.t_hat
    terms = (np.abs(t_hat * a - 1.0) + np.abs(t_hat) * eps_rootN) ** 2
    return terms, _total(terms, design.m, noise_var)


def mse_at_error(design, a, c, delta_norms, eps, noise_var):
    """Realized MSE of a co-phased design, h_hat_k^H v_k = a_k, at the
    errors whose projections on its RIS vectors are c_k = delta_k @ v_k, per
    trial of a (..., K) block: sum_k |t_hat_k (a_k + c_k) - 1|^2 + noise_var
    m^2, for the real t_hat the scalar designers give.

    Each ||delta_k|| is checked against its radius eps_k (with a small
    slack for roundoff).
    """
    if np.shape(a)[-1] != design.K or not (
        np.shape(a) == np.shape(c) == np.shape(delta_norms) == np.shape(eps)
    ):
        raise DimensionMismatch("a/c/delta_norms/eps must have K entries per trial")
    out = delta_norms > eps * (1 + 1e-9) + 1e-15
    if np.any(out):
        at = np.unravel_index(np.argmax(out), out.shape)
        raise PerturbationOutOfBall(
            f"||delta_{at[-1]}|| = {delta_norms[at]} > eps = {eps[at]}"
        )
    t_hat = design.t_hat
    re = t_hat * (a + c.real) - 1.0
    im = t_hat * c.imag
    return _total(re * re + im * im, design.m, noise_var)


def _total(terms, m, noise_var):
    """Sum of the per-sensor terms plus the noise term noise_var * m^2.
    np.float_power squares with pow() as float ** 2 does; ** on an array
    multiplies, which can round the last bit differently."""
    total = noise_var * np.float_power(m, 2) + np.sum(terms, axis=-1)
    return float(total) if np.ndim(total) == 0 else total


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
    val = np.abs(t_hat * (inner(h_hat, v) + delta @ v) - 1.0) ** 2
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
