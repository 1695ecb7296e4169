"""The row-wise evaluators, the certificate and the closed-form design
against per-sensor loops, including the degenerate
cases: eps = 0, t_hat = 0, zero channel entries and K = 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RISDesign,
    cophase,
    cophased_design,
    mse_at_error,
    ref_loop,
    ref_term,
    worst_case_objective,
)

from aircomp_ris.model import SystemConfig
from aircomp_ris.worst_case import certificate

RTOL = 1e-12


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=1e-14)


def flags(draw, n):
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)


@st.composite
def problems(draw):
    """A design and per-sensor data with some entries forced to zero."""
    K = draw(st.integers(1, 4))
    N = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_hat = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
    h_hat[flags(draw, K * N).reshape(K, N)] = 0.0
    eps = rng.uniform(0.0, 1.2, K) * np.linalg.norm(h_hat, axis=1)
    eps[flags(draw, K)] = 0.0
    t = rng.normal(size=K) + 1j * rng.normal(size=K)
    t[flags(draw, K)] = 0.0
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (K, N)))
    m = draw(st.floats(0.1, 3.0))
    noise_var = draw(st.floats(0.05, 2.0))
    return RISDesign(m=m, t=t, v=v), h_hat, eps, noise_var, rng


@settings(max_examples=150, deadline=None)
@given(problems())
def test_objective_and_certificate_match_loops(problem):
    design, h_hat, eps, noise_var, _ = problem
    K, N = h_hat.shape
    t_hat = design.t_hat
    terms = [ref_term(t_hat[k], h_hat[k], design.v[k], eps[k]) for k in range(K)]
    total = noise_var * design.m**2 + sum(terms)
    close(worst_case_objective(design, h_hat, eps, noise_var), total)

    # the certificate is that of the co-phased v, built from a_k = ||h_hat_k||_1
    v = cophase(h_hat)
    terms, lambdas = [], []
    for k in range(K):
        rho = t_hat[k] * np.vdot(h_hat[k], v[k]) - 1.0
        terms.append(ref_term(t_hat[k], h_hat[k], v[k], eps[k]))
        at = abs(t_hat[k])
        lambdas.append(
            np.inf if eps[k] == 0 else at**2 * N + np.sqrt(N) / eps[k] * at * abs(rho)
        )
    cert = certificate(design, np.abs(h_hat).sum(axis=1), eps, N, noise_var)
    close(cert.terms, terms)
    close(cert.total, noise_var * design.m**2 + sum(terms))
    assert np.array_equal(np.isinf(cert.lambdas), eps == 0)
    close(cert.lambdas[eps > 0], np.array(lambdas)[eps > 0])


@settings(max_examples=150, deadline=None)
@given(problems(), st.floats(0.0, 1.0))
def test_mse_at_error_matches_loop(problem, fill):
    design, h_hat, eps, noise_var, rng = problem
    K, N = h_hat.shape
    d = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
    delta = fill * eps[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True)
    t_hat = design.t_hat
    expected = noise_var * design.m**2 + sum(
        abs(t_hat[k] * (np.vdot(h_hat[k], design.v[k]) + delta[k] @ design.v[k]) - 1.0)
        ** 2
        for k in range(K)
    )
    close(mse_at_error(design, h_hat, delta, noise_var, eps_set=eps), expected)


def test_single_sensor_loop_and_rows_agree():
    """K = 1 through every entry point, by hand."""
    h = np.array([[2.0 + 0j, 0.0]])
    v = np.array([[1.0 + 0j, 1j]])
    design = RISDesign(m=0.5, t=np.array([1.0 + 0j]), v=v)
    # rho = 0.5*2 - 1 = 0, so the worst term is (0.5 * 0.3 * sqrt(2))^2
    expected = (0.5 * 0.3 * np.sqrt(2)) ** 2 + 0.1 * 0.25
    assert worst_case_objective(design, h, [0.3], 0.1) == pytest.approx(expected)
    # h^H v = 2 = ||h||_1: v co-phases h where h is nonzero
    cert = certificate(design, np.array([2.0]), np.array([0.3]), 2, 0.1)
    assert cert.total == pytest.approx(expected)
    config = SystemConfig(K=1, N=2, P=1.0, noise_var=0.1)
    eps = np.array([0.3])
    got = cophased_design(config, h, eps)
    v_ref, t_ref, _ = ref_loop(config, h, eps)
    close(got.t_hat, t_ref)
    close(got.v, v_ref)
