import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aircomp_ris.errors import AllZeroScalers
from aircomp_ris.model import (
    Design,
    SystemConfig,
    inner,
    sample_rayleigh_vector,
    synthesize_instance,
)
from aircomp_ris.optimizer import (
    nonrobust_design,
    recover_m_t,
    robust_design,
    run_algorithm1,
    t_exact,
    update_phases,
)
from aircomp_ris.worst_case import worst_case_objective


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestUpdatePhases:
    def test_phase_extraction(self):
        h = np.array([1 + 1j, -2.0 + 0j])
        v = update_phases(h)
        assert np.allclose(v, [np.exp(1j * np.pi / 4), -1.0])
        assert inner(h, v) == pytest.approx(np.sqrt(2) + 2)

    def test_real_positive_gives_ones(self):
        assert np.allclose(update_phases(np.array([1.0, 2.0, 0.5])), 1.0)

    def test_zero_entry_gets_phase_zero(self):
        v = update_phases(np.array([0.0 + 0j, 1j]))
        assert v[0] == 1.0 and v[1] == pytest.approx(1j)

    def test_triangle_inequality_optimality(self, rng):
        h = sample_rayleigh_vector(8, 1.0, rng)
        a = inner(h, update_phases(h))
        assert abs(a.imag) < 1e-12
        for _ in range(1000):
            u = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            assert a.real >= abs(inner(h, u)) - 1e-12


class TestTExact:
    def test_boundary_binds(self):
        tau = t_exact(2.0, 0.5, 1.0, 10.0)
        assert tau == pytest.approx(0.5)
        obj = (abs(tau * 2 - 1) + 0.5 * tau) ** 2 + 0.1 * tau**2
        assert obj == pytest.approx(0.0875)

    def test_no_uncertainty_quadratic_min(self):
        assert t_exact(1.0, 0.0, 1.0, 10.0) == pytest.approx(1 / 1.1)

    def test_uncertainty_dominates(self):
        assert t_exact(0.5, 0.6, 1.0, 10.0) == 0.0

    def test_beats_grid(self, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 4.0)
            e = rng.uniform(0.0, 3.0)
            nv = rng.uniform(0.01, 2.0)
            P = rng.uniform(0.5, 50.0)
            tau = t_exact(a, e, nv, P)
            hi = max(3.0 / a, 3.0) if a > 0 else 3.0
            grid = np.linspace(0.0, hi, 10**5)

            def f(x):
                return (np.abs(x * a - 1) + e * x) ** 2 + nv / P * x**2

            assert f(tau) <= np.min(f(grid)) + 1e-9


class TestRecoverMT:
    def test_hand_example(self):
        m, t = recover_m_t(np.array([1.0, 2.0]), 10.0)
        assert m == pytest.approx(np.sqrt(0.5))
        assert np.allclose(t, [np.sqrt(2), 2 * np.sqrt(2)])
        assert np.sum(np.abs(t) ** 2) == pytest.approx(10.0)

    def test_identity_case(self):
        m, t = recover_m_t(np.array([3.0]), 9.0)
        assert m == pytest.approx(1.0) and t[0] == pytest.approx(3.0)

    def test_homogeneity(self):
        m1, t1 = recover_m_t(np.array([1.0, 2.0]), 10.0)
        m2, t2 = recover_m_t(np.array([2.0, 4.0]), 10.0)
        assert m2 == pytest.approx(2 * m1)
        assert np.allclose(t1, t2)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroScalers):
            recover_m_t(np.zeros(3), 1.0)

    @given(
        st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=8).filter(
            lambda xs: sum(x * x for x in xs) > 1e-12
        ),
        st.floats(0.1, 100, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_identities_property(self, t_hat, P):
        t_hat = np.array(t_hat)
        m, t = recover_m_t(t_hat, P)
        assert np.sum(np.abs(t) ** 2) == pytest.approx(P, rel=1e-12)
        assert np.allclose(m * t, t_hat, rtol=1e-12, atol=1e-300)


def _random_problem(rng, K=None, N=None, s=None):
    K = K if K is not None else int(rng.integers(1, 5))
    N = N if N is not None else int(rng.integers(1, 9))
    config = SystemConfig(
        K=K,
        N=N,
        P=float(rng.uniform(1.0, 20.0)),
        noise_var=float(rng.uniform(0.05, 2.0)),
        s=s if s is not None else float(rng.uniform(0.0, 0.7)),
    )
    inst, _ = synthesize_instance(config, rng)
    return config, inst


class TestRunAlgorithm1:
    def test_golden_scalar_instance(self):
        config = SystemConfig(K=1, N=1, P=10.0, noise_var=1.0)
        h_hat = np.array([[1.0 + 0j]])
        design, trace = run_algorithm1(config, h_hat, np.array([0.0]))
        assert np.allclose(design.v, [[1.0]])
        assert design.t_hat[0] == pytest.approx(1 / 1.1, rel=1e-9)
        assert trace.objective[-1] == pytest.approx(1 / 11, rel=1e-9)
        assert design.m == pytest.approx(np.sqrt((1 / 1.1) ** 2 / 10), rel=1e-9)
        assert abs(design.t[0]) == pytest.approx(np.sqrt(10), rel=1e-9)
        assert np.sum(np.abs(design.t) ** 2) == pytest.approx(10.0, rel=1e-12)

    def test_safeguarded_trace_non_increasing(self, rng):
        for _ in range(20):
            config, inst = _random_problem(rng)
            _, trace = run_algorithm1(config, inst.h_hat, inst.eps)
            obj = np.asarray(trace.objective)
            assert np.all(np.diff(obj) <= 1e-12)

    def test_deterministic_per_seed(self, rng):
        config, inst = _random_problem(rng, K=3, N=4, s=0.4)
        d1, t1 = run_algorithm1(config, inst.h_hat, inst.eps)
        d2, t2 = run_algorithm1(config, inst.h_hat, inst.eps)
        assert np.array_equal(d1.t, d2.t)
        assert np.array_equal(d1.v, d2.v)
        assert d1.m == d2.m
        assert t1.objective == t2.objective

    def test_power_equality_after_run(self, rng):
        config, inst = _random_problem(rng, K=4, N=6, s=0.3)
        design, _ = run_algorithm1(config, inst.h_hat, inst.eps)
        assert np.sum(np.abs(design.t) ** 2) == pytest.approx(config.P, rel=1e-12)
        assert np.allclose(np.abs(design.v), 1.0)

    def test_final_objective_matches_evaluator(self, rng):
        config, inst = _random_problem(rng, K=3, N=5, s=0.5)
        design, trace = run_algorithm1(config, inst.h_hat, inst.eps)
        obj = worst_case_objective(design, inst.h_hat, inst.eps, config.noise_var)
        assert obj == pytest.approx(trace.objective[-1], rel=1e-10)


class TestNonRobust:
    def test_scalar_instance(self):
        config = SystemConfig(K=1, N=1, P=10.0, noise_var=1.0)
        design = nonrobust_design(config, np.array([[1.0 + 0j]]))
        assert design.t_hat[0] == pytest.approx(1 / 1.1)

    def test_matches_algorithm_at_zero_eps(self, rng):
        config, inst = _random_problem(rng, K=3, N=4, s=0.0)
        design, _ = run_algorithm1(config, inst.h_hat, inst.eps)
        baseline = nonrobust_design(config, inst.h_hat)
        assert np.allclose(design.t_hat, baseline.t_hat, rtol=1e-10)
        assert np.allclose(design.v, baseline.v)
        assert design.m == pytest.approx(baseline.m, rel=1e-10)

    def test_nominal_residual_below_one(self, rng):
        config, inst = _random_problem(rng, K=2, N=4)
        design = nonrobust_design(config, inst.h_hat)
        for k in range(2):
            a = np.sum(np.abs(inst.h_hat[k]))
            resid = abs(design.t_hat[k] * a - 1)
            assert resid == pytest.approx(
                (config.noise_var / config.P) / (a**2 + config.noise_var / config.P)
            )
            assert resid < 1

    def test_all_zero_channels_rejected(self):
        config = SystemConfig(K=2, N=2, P=1.0, noise_var=0.5)
        with pytest.raises(AllZeroScalers):
            nonrobust_design(config, np.zeros((2, 2), dtype=complex))


def _flags(draw, n):
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)


@st.composite
def robust_problems(draw):
    """An instance with some channel entries and radii forced to zero and
    some sensors (or all of them) silenced: eps_k sqrt(N) >= ||h_hat_k||_1."""
    K = draw(st.integers(1, 4))
    N = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_hat = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
    h_hat[_flags(draw, K * N).reshape(K, N)] = 0.0
    assume(np.any(h_hat != 0))
    # r >= 1 silences the sensor
    r = rng.uniform(1.0, 1.5, K) if draw(st.booleans()) else rng.uniform(0.0, 1.5, K)
    eps = r * np.abs(h_hat).sum(axis=1) / np.sqrt(N)
    eps[_flags(draw, K)] = 0.0
    config = SystemConfig(
        K=K,
        N=N,
        P=draw(st.floats(0.5, 50.0)),
        noise_var=draw(st.floats(0.05, 2.0)),
    )
    return config, h_hat, eps, rng


def _objective(config, design, h_hat, eps):
    return worst_case_objective(design, h_hat, eps, config.noise_var)


def _random_feasible_designs(config, h_hat, rng, count):
    """Designs with per-sensor |t_hat| from a dense grid, random phases of
    t_hat and v, and sum power at most P."""
    K, N = h_hat.shape
    a = np.abs(h_hat).sum(axis=1)
    grid = np.linspace(0.0, 2.0 / max(a.min(), 1e-3), 2001)
    for _ in range(count):
        tau = grid[rng.integers(len(grid), size=K)]
        if not tau.any():
            continue
        t_hat = tau * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, K))
        v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (K, N)))
        power = config.P * rng.uniform(0.1, 1.0)
        m = np.sqrt(np.sum(tau**2) / power)
        yield Design(m=m, t=t_hat / m, v=v)


class TestRobustDesign:
    def test_scalar_instance(self):
        config = SystemConfig(K=1, N=1, P=10.0, noise_var=1.0)
        design = robust_design(config, np.array([[1.0 + 0j]]), np.array([0.0]))
        assert design.t_hat[0] == pytest.approx(1 / 1.1, rel=1e-12)
        assert _objective(config, design, np.array([[1.0 + 0j]]), [0.0]) == (
            pytest.approx(1 / 11, rel=1e-12)
        )

    @settings(max_examples=150, deadline=None)
    @given(robust_problems())
    def test_equals_exact_alternating_loop(self, problem):
        config, h_hat, eps, rng = problem
        got = robust_design(config, h_hat, eps)
        ref, trace = run_algorithm1(config, h_hat, eps)
        np.testing.assert_allclose(got.t_hat, ref.t_hat, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.v, ref.v, rtol=1e-12, atol=0)
        assert got.m == pytest.approx(ref.m, rel=1e-12, abs=0)
        # one pass reaches the optimum and the second changes nothing
        assert trace.n_iters == 2
        silenced = eps * np.sqrt(config.N) >= np.abs(h_hat).sum(axis=1)
        assert np.array_equal(got.t_hat == 0, silenced)
        if silenced.all():
            assert got.m == 0.0
        else:
            assert np.sum(np.abs(got.t) ** 2) == pytest.approx(config.P, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(robust_problems())
    def test_never_worse_than_other_designs(self, problem):
        config, h_hat, eps, rng = problem
        best = _objective(config, robust_design(config, h_hat, eps), h_hat, eps)
        others = [nonrobust_design(config, h_hat)]
        others.append(run_algorithm1(config, h_hat, eps)[0])
        others.extend(_random_feasible_designs(config, h_hat, rng, 200))
        for design in others:
            assert best <= _objective(config, design, h_hat, eps) * (1 + 1e-12)

    def test_all_zero_channels_rejected(self):
        config = SystemConfig(K=2, N=2, P=1.0, noise_var=0.5)
        with pytest.raises(AllZeroScalers):
            robust_design(config, np.zeros((2, 2), dtype=complex), np.zeros(2))
