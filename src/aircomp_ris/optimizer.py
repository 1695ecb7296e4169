"""The co-phased scalar core: the design of RIS phases and transceiver
scalings, its worst-case and realized scores, and its certificate.

Each sensor has its own RIS and the power constraint is active, so the
worst-case problem splits into K scalar problems. The inner maximum

    max_{||delta|| <= eps}  |t_hat * ((h_hat^H + delta) v) - 1|^2

with v unit-modulus (v^H v = N) is (|rho| + |t_hat| * eps * sqrt(N))^2,
rho = t_hat * (h_hat^H v) - 1: delta enters only through the scalar
delta @ v, so the maximizer is a rank-1 multiple of row(v^H). Co-phasing,
v_k = h_hat_k/|h_hat_k| (`ris_phases`), makes h_hat^H v the gain a_k =
||h_hat_k||_1 (`cophased_gains`), so every function here takes the gains,
never the channel arrays, and `t_exact` is the exact minimizer:
`robust_scalars` gives m and t from (a_k, eps_k sqrt(N)) and a noise_var
per trial, at radius 0 the non-robust baseline. The paper's alternating
loop (Algorithm 1) lands here in its first pass and stops after a second
that changes nothing; `aircomp verify` checks the closed form against the
complex per-sensor forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AirCompError


@dataclass
class Design:
    """A transceiver operating point: m is the receive scaling, t the (K,)
    transmit scalars. The RIS phases co-phase each sensor to its estimate,
    so they are a function of h_hat (ris_phases) and never stored.
    A block of designs adds a leading trial axis: m (T,) and t (T, K).
    """

    m: float | np.ndarray
    t: np.ndarray

    @property
    def t_hat(self):
        return np.asarray(self.m)[..., None] * self.t

    @property
    def K(self):
        return self.t.shape[-1]


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
    return tau


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
