import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp_ris.errors import DimensionMismatch, InvalidDimension
from aircomp_ris.model import (
    Design,
    SystemConfig,
    apply_error,
    cascade_channel,
    closed_form_mse,
    empirical_mse,
    epsilon_from_coefficient,
    hermitian_row,
    inner,
    sample_bounded_error,
    sample_rayleigh_vector,
    synthesize_instance,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestSampleRayleigh:
    def test_zero_variance(self, rng):
        v = sample_rayleigh_vector(3, 0.0, rng)
        assert np.all(v == 0) and len(v) == 3

    def test_zero_length_rejected(self, rng):
        with pytest.raises(InvalidDimension):
            sample_rayleigh_vector(0, 1.0, rng)

    def test_per_entry_variance(self, rng):
        draws = np.array([sample_rayleigh_vector(1, 0.5, rng)[0] for _ in range(10**5)])
        var = np.mean(np.abs(draws) ** 2)
        assert abs(var - 0.5) / 0.5 < 0.02

    def test_cross_entry_independence(self, rng):
        draws = np.array([sample_rayleigh_vector(4, 1.0, rng) for _ in range(10**5)])
        corr = draws.T @ np.conj(draws) / draws.shape[0]
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 0.02


class TestCascade:
    def test_hand_example(self):
        h = cascade_channel(np.array([1j]), np.array([2.0 + 0j]))
        assert h[0] == pytest.approx(2j)
        # row(h) must be conj(g)*r
        assert hermitian_row(h)[0] == pytest.approx(-2j)

    def test_all_ones_reflector(self, rng):
        g = sample_rayleigh_vector(5, 1.0, rng)
        assert np.allclose(cascade_channel(g, np.ones(5)), g)

    def test_inner_product_expansion(self, rng):
        g = sample_rayleigh_vector(4, 1.0, rng)
        r = sample_rayleigh_vector(4, 1.0, rng)
        h = cascade_channel(g, r)
        for _ in range(100):
            v = sample_rayleigh_vector(4, 1.0, rng)
            direct = np.sum(np.conj(g) * r * v)
            assert abs(inner(h, v) - direct) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cascade_channel(np.ones(3), np.ones(2))


class TestEpsilon:
    def test_zero_coefficient(self):
        assert epsilon_from_coefficient(0.0, np.array([1.0, 2.0])) == 0

    def test_scaling(self):
        h = np.array([2.0 + 0j])  # norm 2
        assert epsilon_from_coefficient(0.4, h) == pytest.approx(0.8)

    def test_monotone_in_s(self, rng):
        h = sample_rayleigh_vector(6, 1.0, rng)
        assert epsilon_from_coefficient(0.6, h) > epsilon_from_coefficient(0.4, h)


class TestBoundedError:
    def test_zero_radius(self, rng):
        assert np.all(sample_bounded_error(4, 0.0, "surface", rng) == 0)

    def test_surface_norm(self, rng):
        d = sample_bounded_error(5, 0.8, "surface", rng)
        assert np.linalg.norm(d) == pytest.approx(0.8, rel=1e-12)

    def test_interior_never_exceeds(self, rng):
        for _ in range(200):
            d = sample_bounded_error(3, 0.7, "interior", rng)
            assert np.linalg.norm(d) <= 0.7 + 1e-12

    def test_interior_ball_volume_law(self, rng):
        # (norm/eps)^(2n) should be uniform on [0, 1]
        n, eps, draws = 2, 1.0, 10**5
        u = np.array(
            [
                (np.linalg.norm(sample_bounded_error(n, eps, "interior", rng)) / eps)
                ** (2 * n)
                for _ in range(draws)
            ]
        )
        grid = np.linspace(0, 1, 201)
        ecdf = np.searchsorted(np.sort(u), grid, side="right") / draws
        assert np.max(np.abs(ecdf - grid)) < 0.01


class TestApplyError:
    def test_zero_delta(self, rng):
        h = sample_rayleigh_vector(4, 1.0, rng)
        assert np.array_equal(apply_error(h, np.zeros(4)), h)

    def test_round_trip(self, rng):
        h = sample_rayleigh_vector(4, 1.0, rng)
        delta = sample_bounded_error(4, 0.3, "surface", rng)
        h_hat = apply_error(h, delta)
        recovered = hermitian_row(h) - hermitian_row(h_hat)
        assert np.allclose(recovered, delta, atol=0)

    def test_isometry(self, rng):
        h = sample_rayleigh_vector(4, 1.0, rng)
        delta = sample_bounded_error(4, 0.3, "surface", rng)
        h_hat = apply_error(h, delta)
        assert np.linalg.norm(hermitian_row(h) - hermitian_row(h_hat)) == pytest.approx(
            np.linalg.norm(delta)
        )


@given(
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    st.floats(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_apply_error_round_trip_property(entries, eps):
    h = np.array([complex(a, b) for a, b in entries])
    rng = np.random.default_rng(7)
    delta = sample_bounded_error(len(h), eps, "surface", rng)
    h_hat = apply_error(h, delta)
    assert np.allclose(hermitian_row(h) - hermitian_row(h_hat), delta, atol=1e-15)


def _aligned_design(channels, m=1.0):
    """Design with m*t_k*inner(h_k, v_k) = 1 for all k."""
    K, N = channels.shape
    v = np.stack([ch / np.abs(ch) for ch in channels])
    t = np.array([1.0 / (m * inner(channels[k], v[k])) for k in range(K)])
    return Design(m=m, t=t, v=v)


class TestEmpiricalMse:
    def test_perfect_alignment(self, rng):
        channels = np.abs(rng.normal(size=(3, 4))) + 0.1 + 0j
        design = _aligned_design(channels)
        assert empirical_mse(design, channels, 0.0, 100, rng) == pytest.approx(0.0)

    def test_half_gain_analytic(self, rng):
        channels = np.array([[1.0 + 0j]])
        design = Design(m=1.0, t=np.array([0.5 + 0j]), v=np.array([[1.0 + 0j]]))
        trials = 200_000
        est = empirical_mse(design, channels, 0.0, trials, rng)
        # E|0.5 x - x|^2 = 0.25 with Var = E[(0.25 x^2 - 0.25)^2] per sample
        se = 0.25 * np.sqrt(2.0 / trials)
        assert abs(est - 0.25) <= 3 * se

    def test_matches_closed_form(self, rng):
        config = SystemConfig(K=3, N=4, P=5.0, noise_var=0.3, s=0.2)
        inst, _ = synthesize_instance(config, rng)
        design = Design(
            m=0.7,
            t=sample_rayleigh_vector(3, 1.0, rng),
            v=np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 4))),
        )
        trials = 200_000
        expected = closed_form_mse(design, inst.h, config.noise_var)
        samples_mean = empirical_mse(design, inst.h, config.noise_var, trials, rng)
        # crude bound: per-sample std is at most a few times the mean
        se = 3.0 * expected / np.sqrt(trials)
        assert abs(samples_mean - expected) <= 3 * se


class TestSystemConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidDimension):
            SystemConfig(K=0, N=4, P=1.0, noise_var=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SystemConfig(K=1, N=1, P=float("nan"), noise_var=0.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SystemConfig(K=1, N=1, P=1.0, noise_var=0.0, eval_mode="typo")


class TestSynthesize:
    def test_cascade_and_ball(self, rng):
        config = SystemConfig(K=4, N=6, P=1.0, noise_var=0.1, s=0.3)
        inst, deltas = synthesize_instance(config, rng)
        for k in range(4):
            assert np.allclose(
                hermitian_row(inst.h[k]), np.conj(inst.g[k]) * inst.r[k]
            )
            assert inst.eps[k] == pytest.approx(0.3 * np.linalg.norm(inst.h[k]))
            gap = np.linalg.norm(hermitian_row(inst.h[k]) - hermitian_row(inst.h_hat[k]))
            assert gap <= inst.eps[k] * (1 + 1e-12)
            assert np.allclose(
                hermitian_row(inst.h[k]) - hermitian_row(inst.h_hat[k]), deltas[k]
            )


def reference_synthesis(config, rng):
    """Sensor-by-sensor draws: g_k, r_k, then for eps_k > 0 the error
    direction and, for interior errors, one uniform for its radius."""
    K, N = config.K, config.N
    seg = np.sqrt(config.channel_var / 2.0)
    g = np.empty((K, N), dtype=complex)
    r = np.empty_like(g)
    deltas = np.zeros_like(g)
    eps = np.empty(K)
    for k in range(K):
        g[k] = rng.normal(0.0, 1.0, N) * seg + 1j * rng.normal(0.0, 1.0, N) * seg
        r[k] = rng.normal(0.0, 1.0, N) * seg + 1j * rng.normal(0.0, 1.0, N) * seg
        eps[k] = config.s * np.linalg.norm(g[k] * np.conj(r[k]))
        if eps[k] > 0:
            scale = np.sqrt(0.5)
            d = rng.normal(0.0, 1.0, N) * scale + 1j * rng.normal(0.0, 1.0, N) * scale
            d = d / np.linalg.norm(d)
            if config.error_sampling == "interior":
                d = eps[k] * rng.uniform() ** (1.0 / (2 * N)) * d
            else:
                d = eps[k] * d
            deltas[k] = d
    h = g * np.conj(r)
    return g, r, h, h - np.conj(deltas), eps, deltas


@pytest.mark.parametrize(
    "K, N, s, sampling",
    [
        (1, 1, 0.3, "surface"),
        (5, 7, 0.3, "surface"),
        (5, 7, 0.3, "interior"),
        (4, 3, 0.0, "surface"),
        (4, 3, 0.0, "interior"),
        # several draw blocks of a few sensors each
        (9, 700, 0.4, "surface"),
        (9, 700, 0.4, "interior"),
    ],
)
def test_synthesis_matches_per_sensor_draws(K, N, s, sampling):
    config = SystemConfig(
        K=K, N=N, P=1.0, noise_var=0.1, channel_var=0.7, s=s, error_sampling=sampling
    )
    rng = np.random.default_rng(K * 1000 + N)
    inst, deltas = synthesize_instance(config, rng)
    ref_rng = np.random.default_rng(K * 1000 + N)
    expected = reference_synthesis(config, ref_rng)
    got = (inst.g, inst.r, inst.h, inst.h_hat, inst.eps, deltas)
    for name, a, b in zip(("g", "r", "h", "h_hat", "eps", "deltas"), got, expected):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0, err_msg=name)
    # both streams end at the same point
    assert rng.uniform() == ref_rng.uniform()
