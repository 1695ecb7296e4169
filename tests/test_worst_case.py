import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ball_perturbation

from aircomp_ris.errors import DimensionMismatch, PerturbationOutOfBall
from aircomp_ris.model import Design, inner
from aircomp_ris.verify import random_instance
from aircomp_ris.worst_case import (
    brute_force_worst_case,
    certificate,
    delta_worst,
    kkt_residual,
    lagrangian_gradient,
    lagrangian_value,
    lambda_worst,
    mse_at_error,
    residual,
    worst_case_objective,
    worst_case_term,
)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestResidual:
    def test_perfect_match(self):
        assert residual(1.0, np.array([1.0 + 0j]), np.array([1.0 + 0j])) == 0

    def test_simple(self):
        assert residual(1.0, np.array([2.0 + 0j]), np.array([1.0 + 0j])) == 1

    def test_cophased(self):
        h = np.array([1.0 + 0j, 1j])
        v = np.array([1.0 + 0j, 1j])
        assert residual(0.4, h, v) == pytest.approx(-0.2)


class TestLambdaWorst:
    def test_hand_example(self):
        lam = lambda_worst(1.0, np.array([2.0 + 0j]), np.array([1.0 + 0j]), 0.5)
        assert lam == pytest.approx(3.0)

    def test_zero_residual_limit(self):
        h = np.array([0.25 + 0j] * 4)
        v = np.ones(4, dtype=complex)  # inner = 1, rho = 0
        lam = lambda_worst(1.0, h, v, 0.3)
        assert lam == pytest.approx(4.0)

    def test_maximizer_branch(self, rng):
        for _ in range(50):
            t_hat, h_hat, v, eps = random_instance(rng)
            if abs(residual(t_hat, h_hat, v)) < 1e-12:
                continue
            lam = lambda_worst(t_hat, h_hat, v, eps)
            assert lam > abs(t_hat) ** 2 * len(h_hat)

    def test_zero_eps_is_inf(self, rng):
        assert lambda_worst(1.0, np.array([1.0 + 0j]), np.array([1.0 + 0j]), 0.0) == np.inf
        # row-wise: inf where eps_k = 0, the scalar value bit for bit elsewhere
        rows = [random_instance(rng, n_max=1) for _ in range(4)]
        t_hat = np.array([row[0] for row in rows])
        h_hat = np.array([row[1] for row in rows])
        v = np.array([row[2] for row in rows])
        eps = np.array([rows[0][3], 0.0, rows[2][3], 0.0])
        lam = lambda_worst(t_hat, h_hat, v, eps)
        assert np.array_equal(np.isinf(lam), eps == 0)
        for k in (0, 2):
            assert lam[k] == lambda_worst(t_hat[k], h_hat[k], v[k], eps[k])


class TestDeltaWorst:
    def test_hand_example(self):
        delta = delta_worst(1.0, np.array([2.0 + 0j]), np.array([1.0 + 0j]), 0.5)
        assert np.allclose(delta, [0.5])

    def test_zero_eps(self):
        delta = delta_worst(1.0, np.array([2.0 + 0j]), np.array([1.0 + 0j]), 0.0)
        assert np.all(delta == 0)

    def test_norm_always_eps(self, rng):
        for _ in range(100):
            t_hat, h_hat, v, eps = random_instance(rng)
            delta = delta_worst(t_hat, h_hat, v, eps)
            assert np.linalg.norm(delta) == pytest.approx(eps, rel=1e-10)

    def test_degenerate_zero_t_hat(self, rng):
        _, h_hat, v, eps = random_instance(rng)
        delta = delta_worst(0.0, h_hat, v, eps)
        assert np.linalg.norm(delta) == pytest.approx(eps, rel=1e-10)

    def test_dominates_random_perturbations(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng, n_max=6)
        best = worst_case_term(t_hat, h_hat, v, eps)
        rho = residual(t_hat, h_hat, v)
        for _ in range(10**4):
            d = ball_perturbation(len(h_hat), eps * rng.uniform() ** 0.5, rng)
            val = abs(rho + t_hat * (d @ v)) ** 2
            assert val <= best + 1e-9


class TestWorstCaseTerm:
    def test_zero_eps(self, rng):
        t_hat, h_hat, v, _ = random_instance(rng)
        rho = residual(t_hat, h_hat, v)
        assert worst_case_term(t_hat, h_hat, v, 0.0) == pytest.approx(abs(rho) ** 2)

    def test_hand_example(self):
        term = worst_case_term(1.0, np.array([2.0 + 0j]), np.array([1.0 + 0j]), 0.5)
        assert term == pytest.approx(2.25)

    def test_hand_example_n2(self):
        h = np.array([1.0 + 0j, 1j])
        v = np.array([1.0 + 0j, 1j])
        term = worst_case_term(0.4, h, v, 0.1)
        assert term == pytest.approx((0.2 + 0.4 * 0.1 * np.sqrt(2)) ** 2)
        assert term == pytest.approx(0.065827, abs=1e-6)

    def test_multiplier_form_matches_direct_value(self, rng):
        # |rho / (1 - N|t|^2/lam)|^2 with the closed-form lambda
        for _ in range(100):
            t_hat, h_hat, v, eps = random_instance(rng)
            rho = residual(t_hat, h_hat, v)
            if abs(rho) < 1e-12:
                continue
            N = len(h_hat)
            lam = lambda_worst(t_hat, h_hat, v, eps)
            via_lambda = abs(rho / (1.0 - abs(t_hat) ** 2 * N / lam)) ** 2
            assert via_lambda == pytest.approx(
                worst_case_term(t_hat, h_hat, v, eps), rel=1e-10
            )


def _design_k1(t_hat, v):
    return Design(m=1.0, t=np.array([t_hat]), v=np.array([v]))


class TestObjectiveAndMseAtError:
    def test_noise_only(self):
        h = np.array([[1.0 + 0j]])
        design = _design_k1(1.0, np.array([1.0 + 0j]))
        obj = worst_case_objective(design, h, np.array([0.0]), 0.1)
        assert obj == pytest.approx(0.1)

    def test_additivity(self, rng):
        K, N = 3, 5
        h_set = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
        v_set = np.exp(1j * rng.uniform(0, 2 * np.pi, (K, N)))
        t = rng.normal(size=K) + 1j * rng.normal(size=K)
        eps = rng.uniform(0.1, 0.8, K)
        design = Design(m=1.0, t=t, v=v_set)
        total = worst_case_objective(design, h_set, eps, 0.25)
        parts = sum(
            worst_case_term(t[k], h_set[k], v_set[k], eps[k]) for k in range(K)
        )
        assert total == pytest.approx(parts + 0.25)

    def test_mse_at_zero_delta_is_nominal(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng)
        design = _design_k1(t_hat, v)
        rho = residual(t_hat, h_hat, v)
        got = mse_at_error(design, h_hat[None, :], np.zeros((1, len(v))), 0.3)
        assert got == pytest.approx(abs(rho) ** 2 + 0.3)

    def test_certificate_consistency(self, rng):
        for _ in range(50):
            t_hat, h_hat, v, eps = random_instance(rng)
            design = _design_k1(t_hat, v)
            delta = delta_worst(t_hat, h_hat, v, eps)
            attained = mse_at_error(design, h_hat[None, :], delta[None, :], 0.0)
            term = worst_case_term(t_hat, h_hat, v, eps)
            assert attained == pytest.approx(term, rel=1e-10)

    def test_out_of_ball_rejected(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng)
        design = _design_k1(t_hat, v)
        bad = delta_worst(t_hat, h_hat, v, eps) * 2.0
        with pytest.raises(PerturbationOutOfBall):
            mse_at_error(
                design, h_hat[None, :], bad[None, :], 0.0, eps_set=np.array([eps])
            )

    def test_objective_dominates_sampled_errors(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng)
        design = _design_k1(t_hat, v)
        bound = worst_case_objective(design, h_hat[None, :], np.array([eps]), 0.2)
        for _ in range(2000):
            # uniform over the eps-ball: radius eps * U^(1/(2N))
            d = ball_perturbation(len(v), eps * rng.uniform() ** (1 / (2 * len(v))), rng)
            val = mse_at_error(design, h_hat[None, :], d[None, :], 0.2)
            assert val <= bound + 1e-9

    def test_shape_mismatch(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng)
        design = _design_k1(t_hat, v)
        with pytest.raises(DimensionMismatch):
            worst_case_objective(design, np.stack([h_hat, h_hat]), np.array([eps, eps]), 0.0)


class TestBruteForce:
    def test_one_dim_reaches_closed_form(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng, n_max=1)
        term = worst_case_term(t_hat, h_hat, v, eps)
        found = brute_force_worst_case(t_hat, h_hat, v, eps, 1000, 50, rng)
        assert found <= term + 1e-9
        assert found == pytest.approx(term, rel=1e-3)

    def test_zero_eps(self, rng):
        t_hat, h_hat, v, _ = random_instance(rng)
        rho = residual(t_hat, h_hat, v)
        assert brute_force_worst_case(t_hat, h_hat, v, 0.0, 10, 0, rng) == pytest.approx(
            abs(rho) ** 2
        )

    def test_nondecreasing_in_eps(self, rng):
        t_hat, h_hat, v, _ = random_instance(rng)
        vals = []
        for eps in (0.1, 0.2, 0.4):
            vals.append(
                brute_force_worst_case(
                    t_hat, h_hat, v, eps, 500, 30, np.random.default_rng(5)
                )
            )
        assert vals == sorted(vals)


class TestKkt:
    def test_zero_at_closed_form(self, rng):
        for _ in range(100):
            t_hat, h_hat, v, eps = random_instance(rng)
            lam = lambda_worst(t_hat, h_hat, v, eps)
            delta = delta_worst(t_hat, h_hat, v, eps)
            assert kkt_residual(t_hat, h_hat, v, eps, delta, lam) <= 1e-8

    def test_slackness_violation_off_sphere(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng)
        lam = lambda_worst(t_hat, h_hat, v, eps)
        delta = delta_worst(t_hat, h_hat, v, eps) * 0.5  # norm eps/2
        res = kkt_residual(t_hat, h_hat, v, eps, delta, lam)
        slack = abs(lam * (np.linalg.norm(delta) ** 2 - eps**2))
        assert slack == pytest.approx(lam * 0.75 * eps**2, rel=1e-10)
        assert res >= slack

    def test_finite_difference_gradient(self, rng):
        step = 1e-6
        for _ in range(20):
            t_hat, h_hat, v, eps = random_instance(rng)
            lam = lambda_worst(t_hat, h_hat, v, eps)
            delta = delta_worst(t_hat, h_hat, v, eps) * rng.uniform(0.3, 1.0)
            grad = lagrangian_gradient(t_hat, h_hat, v, delta, lam)
            for i in range(len(delta)):
                for direction, part in ((1.0, np.real), (1j, np.imag)):
                    dp = delta.copy()
                    dp[i] += direction * step
                    dm = delta.copy()
                    dm[i] -= direction * step
                    fd = (
                        lagrangian_value(t_hat, h_hat, v, eps, dp, lam)
                        - lagrangian_value(t_hat, h_hat, v, eps, dm, lam)
                    ) / (2 * step)
                    assert abs(fd - 2 * part(grad[i])) < 1e-5


class TestCertificate:
    def test_fields(self, rng):
        t_hat, h_hat, v, eps = random_instance(rng)
        design = _design_k1(t_hat, v)
        cert = certificate(design, h_hat[None, :], np.array([eps]), 0.4)
        assert cert.total == pytest.approx(float(cert.terms.sum()) + 0.4 * design.m**2)
        # delta_worst gives the perturbation that attains the certificate
        delta = delta_worst(design.t_hat, h_hat[None, :], design.v, np.array([eps]))
        assert np.linalg.norm(delta[0]) == pytest.approx(eps, rel=1e-10)
        attained = mse_at_error(design, h_hat[None, :], delta, 0.4)
        assert attained == pytest.approx(cert.total, rel=1e-10)
        assert cert.lambdas[0] > abs(t_hat) ** 2 * len(h_hat) or abs(
            residual(t_hat, h_hat, v)
        ) < 1e-12

    def test_zero_eps_lambda_inf(self, rng):
        t_hat, h_hat, v, _ = random_instance(rng)
        design = _design_k1(t_hat, v)
        cert = certificate(design, h_hat[None, :], np.array([0.0]), 0.0)
        assert np.isinf(cert.lambdas[0])
        delta = delta_worst(design.t_hat, h_hat[None, :], design.v, np.array([0.0]))
        assert np.all(delta == 0)
