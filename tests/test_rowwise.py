"""The row-wise evaluators and one solver iteration against per-sensor
loops written here with np.vdot, including the degenerate cases: eps = 0,
t_hat = 0, zero channel entries and K = 1."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aircomp_ris.model import Design, SystemConfig
from aircomp_ris.optimizer import SolverOptions, run_algorithm1
from aircomp_ris.worst_case import certificate, mse_at_error, worst_case_objective

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
    return Design(m=m, t=t, v=v), h_hat, eps, noise_var, rng


def ref_term(t_hat, h, v, eps):
    rho = t_hat * np.vdot(h, v) - 1.0
    return (abs(rho) + abs(t_hat) * eps * np.sqrt(len(h))) ** 2


@settings(max_examples=150, deadline=None)
@given(problems())
def test_objective_and_certificate_match_loops(problem):
    design, h_hat, eps, noise_var, _ = problem
    K, N = h_hat.shape
    t_hat = design.t_hat
    terms, lambdas, deltas = [], [], []
    for k in range(K):
        rho = t_hat[k] * np.vdot(h_hat[k], design.v[k]) - 1.0
        terms.append(ref_term(t_hat[k], h_hat[k], design.v[k], eps[k]))
        at = abs(t_hat[k])
        lambdas.append(
            np.inf if eps[k] == 0 else at**2 * N + np.sqrt(N) / eps[k] * at * abs(rho)
        )
        w = np.conj(t_hat[k]) * rho
        if abs(w) > 0:
            u = w / abs(w)
        elif at > 0:
            u = np.conj(t_hat[k]) / at
        else:
            u = 1.0
        deltas.append(eps[k] / np.sqrt(N) * u * np.conj(design.v[k]))
    total = noise_var * design.m**2 + sum(terms)

    close(worst_case_objective(design, h_hat, eps, noise_var), total)
    cert = certificate(design, h_hat, eps, noise_var)
    close(cert.terms, terms)
    close(cert.deltas, np.array(deltas).reshape(K, N))
    close(cert.total, total)
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


def ref_iteration(config, h_hat, eps, options, v, t_hat):
    """One pass of the per-sensor block updates of the alternating loop."""
    N = config.N
    c = config.noise_var / config.P
    v, t_hat = v.copy(), t_hat.copy()
    lambdas = []

    def multiplier(t, h, vk, e):
        if e == 0 or abs(t) == 0:
            return np.inf
        rho = t * np.vdot(h, vk) - 1.0
        return abs(t) ** 2 * N + np.sqrt(N) / e * abs(t) * abs(rho)

    for k in range(config.K):
        h = h_hat[k]
        lam = multiplier(t_hat[k], h, v[k], eps[k])
        nz = h != 0
        v_new = np.ones(N, dtype=complex)
        v_new[nz] = h[nz] / np.abs(h[nz])
        a = float(np.sum(np.abs(h)))
        if options.lambda_after_phase:
            lam = multiplier(t_hat[k], h, v_new, eps[k])
        if eps[k] == 0 or not np.isfinite(lam):
            t_new = a / (a * a + c) if a > 0 else 0.0
        elif options.mode == "exact":
            b = a - eps[k] * np.sqrt(N)
            t_new = 0.0 if b <= 0 else min(b / (b * b + c), 1.0 / a)
        else:
            Q = abs(t_hat[k] * a - 1.0) ** 2
            root = np.cbrt(2 * N * config.P * Q / (lam * config.noise_var))
            t_new = np.sqrt(lam * (1.0 + root) / N)
        lambdas.append(lam)
        if options.safeguard:
            before = ref_term(t_hat[k], h, v[k], eps[k]) + c * abs(t_hat[k]) ** 2
            after = ref_term(t_new, h, v_new, eps[k]) + c * abs(t_new) ** 2
            if after > before:
                continue
        v[k] = v_new
        t_hat[k] = t_new
    return v, t_hat, lambdas


@settings(max_examples=150, deadline=None)
@given(
    problems(),
    st.sampled_from(["exact", "paper"]),
    st.booleans(),
    st.booleans(),
)
def test_one_iteration_matches_loop(problem, mode, safeguard, lambda_after_phase):
    design, h_hat, eps, noise_var, _ = problem
    assume(np.any(h_hat != 0))
    K, N = h_hat.shape
    config = SystemConfig(K=K, N=N, P=4.0, noise_var=noise_var)
    options = SolverOptions(
        mode=mode,
        safeguard=safeguard,
        lambda_after_phase=lambda_after_phase,
        max_iters=1,
    )
    t0 = design.t.astype(complex)
    v_ref, t_ref, lam_ref = ref_iteration(config, h_hat, eps, options, design.v, t0)
    got, trace = run_algorithm1(
        config, h_hat, eps, options, rng=None, init=(design.v, t0)
    )
    assert trace.n_iters == 1
    close(trace.a[0], np.sum(np.abs(h_hat), axis=1))
    assert np.array_equal(np.isinf(trace.lambdas[0]), np.isinf(lam_ref))
    finite = np.isfinite(lam_ref)
    close(np.array(trace.lambdas[0])[finite], np.array(lam_ref)[finite])
    close(got.v, v_ref)
    if np.any(t_ref != 0):
        close(got.t_hat, t_ref)
    else:
        assert got.m == 0.0


def test_single_sensor_loop_and_rows_agree():
    """K = 1 through every entry point, by hand."""
    h = np.array([[2.0 + 0j, 0.0]])
    v = np.array([[1.0 + 0j, 1j]])
    design = Design(m=0.5, t=np.array([1.0 + 0j]), v=v)
    # rho = 0.5*2 - 1 = 0, so the worst term is (0.5 * 0.3 * sqrt(2))^2
    expected = (0.5 * 0.3 * np.sqrt(2)) ** 2 + 0.1 * 0.25
    assert worst_case_objective(design, h, [0.3], 0.1) == pytest.approx(expected)
    cert = certificate(design, h, np.array([0.3]), 0.1)
    assert cert.total == pytest.approx(expected)
    assert np.linalg.norm(cert.deltas[0]) == pytest.approx(0.3)
    options = SolverOptions(max_iters=1)
    config = SystemConfig(K=1, N=2, P=1.0, noise_var=0.1)
    eps = np.array([0.3])
    got, _ = run_algorithm1(config, h, eps, options, None, init=(v, [0.5]))
    v_ref, t_ref, _ = ref_iteration(config, h, eps, options, v, np.array([0.5 + 0j]))
    close(got.t_hat, t_ref)
    close(got.v, v_ref)
