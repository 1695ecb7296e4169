"""Worst-case and realized MSE of co-phased designs, and the per-sensor
worst-case certificate, from per-sensor scalars.

The inner maximization per sensor is

    max_{||delta|| <= eps}  |t_hat * ((h_hat^H + delta) v) - 1|^2

with v unit-modulus (so v^H v = N). Because delta enters only through the
scalar delta @ v, the maximizer is a rank-1 multiple of row(v^H) and the
optimum has the closed form (|rho| + |t_hat| * eps * sqrt(N))^2 with
rho = t_hat * (h_hat^H v) - 1. Co-phasing makes h_hat^H v = a_k =
||h_hat_k||_1, so every function here takes the gains a_k, never the
channel arrays; `aircomp verify` checks the closed form against the complex
per-sensor forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AirCompError


@dataclass
class WorstCaseCert:
    """Per-sensor worst-case certificate for a fixed design.

    lambdas[k] is the KKT multiplier of the ball constraint (inf when
    eps_k = 0), terms[k] the attained per-sensor worst MSE term; total adds
    the noise term. The rank-1 perturbation (eps_k/sqrt(N)) u_k row(v_k^H),
    with u_k the phase of conj(t_hat_k) rho_k, attains terms[k].
    """

    lambdas: np.ndarray
    terms: np.ndarray
    total: float


def worst_case_objective(design, a, eps_rootN, noise_var):
    """Total worst-case MSE of a co-phased design, h_hat_k^H v_k = a_k, per
    trial of a (..., K) block of gains a_k = ||h_hat_k||_1 and radii eps_k
    sqrt(N): sum_k (|t_hat_k a_k - 1| + |t_hat_k| eps_k sqrt(N))^2 + noise_var m^2."""
    return _worst_terms(design, a, eps_rootN, noise_var)[1]


def certificate(design, a, eps, N, noise_var):
    """The per-sensor worst-case certificate of a co-phased design from its
    (K,) gains a_k = ||h_hat_k||_1, radii eps_k and RIS size N: the terms of
    worst_case_objective, and the multipliers lambda_k = |t_hat_k|^2 N +
    (sqrt(N)/eps_k) |t_hat_k| |rho_k| with rho_k = t_hat_k a_k - 1, the root
    of ||delta(lambda)|| = eps_k on the maximizer branch."""
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
        raise AirCompError("a/eps_rootN must have K entries per trial")
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
        raise AirCompError("a/c/delta_norms/eps must have K entries per trial")
    out = delta_norms > eps * (1 + 1e-9) + 1e-15
    if np.any(out):
        at = np.unravel_index(np.argmax(out), out.shape)
        raise AirCompError(
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
    return noise_var * np.float_power(m, 2) + np.sum(terms, axis=-1)
