import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    RISDesign,
    cophased_design,
    inner,
    ref_loop,
    ref_loop_design,
    sample_rayleigh_vector,
    worst_case_objective,
)

from aircomp_ris.errors import AirCompError
from aircomp_ris.experiments import design_for_scheme
from aircomp_ris.model import SystemConfig, synthesize_instance
from aircomp_ris.optimizer import recover_m_t, ris_phases, t_exact


# robust_scalars' message for a trial whose every estimate is zero
ALL_ZERO = "^every channel estimate is zero$"


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestUpdatePhases:
    def test_phase_extraction(self):
        h = np.array([1 + 1j, -2.0 + 0j])
        phi = ris_phases(h)
        assert np.allclose(phi, [np.pi / 4, np.pi])
        assert inner(h, np.exp(1j * phi)) == pytest.approx(np.sqrt(2) + 2)
        # np.angle gives -pi for a negative real with a negative-zero imaginary part
        assert ris_phases(np.array([complex(-2.0, -0.0)])).tolist() == [np.pi]

    def test_real_positive_gives_ones(self):
        assert np.allclose(np.exp(1j * ris_phases(np.array([1.0, 2.0, 0.5]))), 1.0)

    def test_zero_entry_gets_phase_zero(self):
        # np.angle gives -pi for -0 - 0j and -0.0 for 0 - 0j
        h = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), 0j, 1j])
        phi = ris_phases(h)
        assert phi.tolist()[:3] == [0.0, 0.0, 0.0]
        assert all(np.copysign(1.0, phi[:3]) == 1.0)
        assert phi[3] == pytest.approx(np.pi / 2)

    def test_triangle_inequality_optimality(self, rng):
        h = sample_rayleigh_vector(8, 1.0, rng)
        a = inner(h, np.exp(1j * ris_phases(h)))
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

    def test_all_zero_gives_m_zero(self):
        m, t = recover_m_t(np.zeros(3), 1.0)
        assert m == 0.0 and not t.any()
        m, t = recover_m_t(np.array([[1.0, 2.0], [0.0, 0.0]]), 10.0)
        assert m[1] == 0.0 and not t[1].any()
        assert m[0] == recover_m_t(np.array([1.0, 2.0]), 10.0)[0]

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
    return config, *synthesize_instance(config, rng)


class TestNonRobust:
    def test_scalar_instance(self):
        config = SystemConfig(K=1, N=1, P=10.0, noise_var=1.0)
        design = cophased_design(config, np.array([[1.0 + 0j]]))
        assert design.t_hat[0] == pytest.approx(1 / 1.1)

    def test_matches_algorithm_at_zero_eps(self, rng):
        config, h_hat, eps = _random_problem(rng, K=3, N=4, s=0.0)
        design = ref_loop_design(config, h_hat, eps)
        baseline = cophased_design(config, h_hat)
        assert np.allclose(design.t_hat, baseline.t_hat, rtol=1e-10)
        assert np.allclose(design.v, baseline.v)
        assert design.m == pytest.approx(baseline.m, rel=1e-10)

    def test_nominal_residual_below_one(self, rng):
        config, h_hat, _ = _random_problem(rng, K=2, N=4)
        design = cophased_design(config, h_hat)
        for k in range(2):
            a = np.sum(np.abs(h_hat[k]))
            resid = abs(design.t_hat[k] * a - 1)
            assert resid == pytest.approx(
                (config.noise_var / config.P) / (a**2 + config.noise_var / config.P)
            )
            assert resid < 1

    def test_all_zero_channels_rejected(self):
        config = SystemConfig(K=2, N=2, P=1.0, noise_var=0.5)
        with pytest.raises(AirCompError, match=ALL_ZERO):
            cophased_design(config, np.zeros((2, 2), dtype=complex))


def _mmse_design(a, noise_var, P):
    """The classical MMSE scaling written out: t_hat_k = a_k/(a_k^2 +
    sigma^2/P), 0 where a_k = 0, and the m and t recovered from it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hat = np.where(a > 0, a / (a * a + noise_var / P), 0.0)
    return recover_m_t(t_hat, P)


@st.composite
def mmse_problems(draw):
    """Gains with zeros among them, P, and noise_var = 0 or sigma^2/P from
    2^10 down to 2^-70 times the largest gain squared."""
    gain = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    a = np.array(draw(st.lists(gain, min_size=1, max_size=6)))
    assume(a.any())
    P = draw(st.floats(0.1, 100.0))
    exponent = draw(st.one_of(st.none(), st.floats(-10.0, 70.0)))
    noise_var = 0.0 if exponent is None else P * a.max() ** 2 * 2.0**-exponent
    return a, noise_var, P


class TestZeroRadius:
    """The nonrobust scheme is robust_scalars at radius 0. t_exact's clip
    1/a_k can bind there only where sigma^2/P is below about 2^-52 a_k^2:
    above 2^-40 max_k a_k^2 the design is the MMSE scaling bit for bit, and
    below it is within a few ulps."""

    @settings(max_examples=300, deadline=None)
    @given(mmse_problems())
    @example((np.array([0.0, 1.0, 3.0]), 0.0, 2.0))
    @example((np.array([0.5, 0.0]), 0.1, 10.0))
    def test_nonrobust_is_the_mmse_scaling(self, problem):
        a, noise_var, P = problem
        config = SystemConfig(K=len(a), N=4, P=P, noise_var=noise_var)
        # radii that would silence every sensor of a robust design
        design = design_for_scheme(config, "nonrobust", (a, a))
        m, t = _mmse_design(a, noise_var, P)
        if noise_var / P >= 2.0**-40 * a.max() ** 2:
            assert design.m == m and design.t.tobytes() == t.tobytes()
        else:
            assert design.m == pytest.approx(m, rel=1e-15, abs=0)
            np.testing.assert_allclose(design.t, t, rtol=1e-15, atol=0)


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
        yield RISDesign(m=m, t=t_hat / m, v=v)


class TestRobustDesign:
    def test_scalar_instance(self):
        config = SystemConfig(K=1, N=1, P=10.0, noise_var=1.0)
        design = cophased_design(config, np.array([[1.0 + 0j]]), np.array([0.0]))
        assert design.t_hat[0] == pytest.approx(1 / 1.1, rel=1e-12)
        assert _objective(config, design, np.array([[1.0 + 0j]]), [0.0]) == (
            pytest.approx(1 / 11, rel=1e-12)
        )

    @settings(max_examples=150, deadline=None)
    @given(robust_problems())
    def test_equals_exact_alternating_loop(self, problem):
        config, h_hat, eps, rng = problem
        got = cophased_design(config, h_hat, eps)
        v_ref, t_ref, objectives = ref_loop(config, h_hat, eps)
        np.testing.assert_allclose(got.t_hat, t_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.v, v_ref, rtol=1e-12, atol=0)
        # one pass reaches the optimum and the second changes nothing
        assert len(objectives) == 2
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
        best = _objective(config, cophased_design(config, h_hat, eps), h_hat, eps)
        others = [cophased_design(config, h_hat)]
        others.append(ref_loop_design(config, h_hat, eps))
        others.extend(_random_feasible_designs(config, h_hat, rng, 200))
        for design in others:
            assert best <= _objective(config, design, h_hat, eps) * (1 + 1e-12)

    def test_all_zero_channels_rejected(self):
        config = SystemConfig(K=2, N=2, P=1.0, noise_var=0.5)
        with pytest.raises(AirCompError, match=ALL_ZERO):
            cophased_design(config, np.zeros((2, 2), dtype=complex), np.zeros(2))


class TestTrialBlock:
    """The designers treat a leading axis as independent trials."""

    config = SystemConfig(K=3, N=4, P=5.0, noise_var=0.4)

    def block(self, rng):
        h_hat = rng.normal(size=(4, 3, 4)) + 1j * rng.normal(size=(4, 3, 4))
        h_hat[2, 1] = 0.0  # one sensor with a zero estimate
        eps = rng.uniform(0.0, 0.5, (4, 3))
        eps[1] = 10.0  # every sensor of trial 1 silenced
        eps[3, 0] = 0.0
        return h_hat, eps

    @staticmethod
    def assert_same(design, alone, t):
        assert design.m[t] == alone.m
        assert design.t[t].tobytes() == alone.t.tobytes()
        assert design.v[t].tobytes() == alone.v.tobytes()

    def test_robust_block_matches_single_trials(self, rng):
        h_hat, eps = self.block(rng)
        design = cophased_design(self.config, h_hat, eps)
        assert design.m[1] == 0.0 and not design.t[1].any()
        for t in range(4):
            self.assert_same(design, cophased_design(self.config, h_hat[t], eps[t]), t)

    def test_nonrobust_block_matches_single_trials(self, rng):
        h_hat, _ = self.block(rng)
        design = cophased_design(self.config, h_hat)
        for t in range(4):
            self.assert_same(design, cophased_design(self.config, h_hat[t]), t)

    def test_one_all_zero_trial_rejected(self, rng):
        h_hat, eps = self.block(rng)
        h_hat[3] = 0.0
        with pytest.raises(AirCompError, match=ALL_ZERO):
            cophased_design(self.config, h_hat, eps)
        with pytest.raises(AirCompError, match=ALL_ZERO):
            cophased_design(self.config, h_hat)
