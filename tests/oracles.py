"""Reference evaluators the tests check the package against: the MSE of a
design on known true channels, in closed form and by Monte Carlo, and a
sampler of perturbations inside an uncertainty ball."""

import numpy as np

from aircomp_ris.model import inner, sample_rayleigh_vector


def closed_form_mse(design, channels, noise_var):
    """MSE of the computed sum for the channels actually applied:
    sum_k |m * inner(h_k, v_k) * t_k - 1|^2 + noise_var * m^2."""
    gains = design.m * inner(channels, design.v) * design.t
    return float(np.sum(np.abs(gains - 1.0) ** 2) + noise_var * design.m**2)


def empirical_mse(design, channels, noise_var, trials, rng):
    """Monte Carlo estimate of E|y - sum_k x_k|^2 with unit-variance real
    Gaussian sensor signals and CN(0, noise_var) receiver noise."""
    gains = design.m * inner(channels, design.v) * design.t
    x = rng.normal(0.0, 1.0, (trials, design.K))
    noise = sample_rayleigh_vector(trials, noise_var, rng) if noise_var > 0 else 0.0
    err = x @ (gains - 1.0) + design.m * noise
    return float(np.mean(np.abs(err) ** 2))


def ball_perturbation(n, radius, rng):
    """A length-n row perturbation of norm radius in a uniform direction."""
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    return radius * d / np.linalg.norm(d)
