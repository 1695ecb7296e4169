import copy
import os
import signal
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    FixedNormals,
    RISDesign,
    closed_form_mse,
    cophase,
    empirical_mse,
    inner,
    mse_at_error,
    reference_synthesis,
    row_norms,
    sample_rayleigh_vector,
    seeded_rng,
)

from aircomp_ris import model
from aircomp_ris.errors import ConfigError
from aircomp_ris.experiments import trials_per_block
from aircomp_ris.model import SystemConfig, synthesize_instance


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def small_config(K=4, N=6, s=0.3, sampling="surface"):
    return SystemConfig(K=K, N=N, P=1.0, noise_var=0.1, s=s, error_sampling=sampling)


def draw_errors(rng, **kw):
    """The radii and the realized-mode scalars of the errors, (eps, c,
    ||delta||)."""
    config = replace(small_config(**kw), eval_mode="realized")
    return synthesize_instance(config, rng, gains_only=True)[1:]


def draw_with_reference(rng, **kw):
    """synthesize_instance's (h_hat, eps) and reference_synthesis of the
    same stream."""
    config = small_config(**kw)
    reference = reference_synthesis(config, copy.deepcopy(rng))
    return synthesize_instance(config, rng), reference


def assert_errors_match(c, delta_norms, h_hat, deltas):
    """Realized-mode scalars against reference arrays: c_k = delta_k @ v_k
    for the co-phasing v_k of h_hat_k, and the errors' norms."""
    want_c = np.sum(deltas * cophase(h_hat), axis=-1)
    np.testing.assert_allclose(c, want_c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(delta_norms, row_norms(deltas), rtol=1e-13)


class TestSampleRayleigh:
    def test_zero_variance(self, rng):
        v = sample_rayleigh_vector(3, 0.0, rng)
        assert np.all(v == 0) and len(v) == 3

    def test_zero_length_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_rayleigh_vector(0, 1.0, rng)

    def test_per_entry_variance(self, rng):
        draws = sample_rayleigh_vector(10**5, 0.5, rng)
        var = np.mean(np.abs(draws) ** 2)
        assert abs(var - 0.5) / 0.5 < 0.02

    def test_cross_entry_independence(self, rng):
        draws = sample_rayleigh_vector(4 * 10**5, 1.0, rng).reshape(10**5, 4)
        corr = draws.T @ np.conj(draws) / draws.shape[0]
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 0.02


class TestCascade:
    """The synthesized true channel is the cascade row(h) = conj(g) * r."""

    # segments are the normals times sqrt(1/2 / 2) = 0.5, so doubled normals
    # give them exactly: g = (2 re + 2j im) / 2; s = 0, so the estimate is
    # the true channel
    unit = dict(K=1, P=1.0, noise_var=0.1)

    def test_hand_example(self):
        # g = 1j, r = 2
        config = SystemConfig(N=1, **self.unit)
        h, _ = synthesize_instance(config, FixedNormals(2 * np.array([0, 1, 2, 0])))
        assert h[0, 0] == pytest.approx(2j)
        # row(h) must be conj(g)*r
        assert np.conj(h)[0, 0] == pytest.approx(-2j)

    def test_all_ones_reflector(self, rng):
        g = rng.normal(size=(2, 5))
        config = SystemConfig(N=5, **self.unit)
        normals = np.concatenate([g, np.ones((1, 5)), np.zeros((1, 5))])
        h, _ = synthesize_instance(config, FixedNormals(2 * normals))
        assert np.allclose(h[0], g[0] + 1j * g[1])

    def test_inner_product_expansion(self, rng):
        config = SystemConfig(K=3, N=4, P=1.0, noise_var=0.1, s=0.2)
        h_hat, _ = synthesize_instance(config, np.random.default_rng(5))
        g, r, *_, deltas = reference_synthesis(config, np.random.default_rng(5))
        h = h_hat + np.conj(deltas)
        for _ in range(100):
            v = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            direct = np.sum(np.conj(g) * r * v, axis=1)
            assert np.max(np.abs(inner(h, v) - direct)) < 1e-12


class TestEpsilon:
    """Synthesis sets the radius eps_k = s * ||h_k||_2 from the planes of
    h_k, in both of its outputs."""

    # doubled normals make the segments exactly g = re + 1j * im (TestCascade)
    unit = dict(K=1, N=1, P=1.0, noise_var=0.1)

    def test_zero_coefficient(self, rng):
        config = SystemConfig(K=3, N=4, P=1.0, noise_var=0.1, s=0.0)
        _, eps = synthesize_instance(config, rng, gains_only=True)
        assert np.all(eps == 0)

    def test_scaling(self):
        # g = 1j, r = 2: h = 2j has norm 2
        config = SystemConfig(s=0.4, **self.unit)
        normals = 2 * np.array([0.0, 1.0, 2.0, 0.0, 1.0, 0.0])
        assert synthesize_instance(config, FixedNormals(normals))[1][0] == 0.8
        _, eps = synthesize_instance(config, FixedNormals(normals), gains_only=True)
        assert eps[0] == 0.8

    def test_monotone_in_s(self):
        def radii(s):
            config = SystemConfig(K=5, N=6, P=1.0, noise_var=0.1, s=s)
            return synthesize_instance(config, np.random.default_rng(8))[1]

        assert np.all(radii(0.6) > radii(0.4))
        np.testing.assert_allclose(radii(0.6) / radii(0.4), 1.5, rtol=1e-15)


class TestBoundedError:
    """The row perturbations synthesize_instance draws, read from their
    realized-mode norms: delta_k on the eps_k-sphere ("surface") or uniform
    over the eps_k-ball ("interior")."""

    def test_zero_radius(self, rng):
        eps, c, delta_norms = draw_errors(rng, s=0.0)
        assert np.all(eps == 0) and np.all(c == 0) and np.all(delta_norms == 0)

    def test_surface_norm(self, rng):
        eps, _, delta_norms = draw_errors(rng, K=6, N=5, s=0.8)
        np.testing.assert_allclose(delta_norms, eps, rtol=1e-12)

    def test_interior_never_exceeds(self, rng):
        eps, _, delta_norms = draw_errors(rng, K=200, N=3, s=0.7, sampling="interior")
        assert np.all(delta_norms <= eps * (1 + 1e-12))

    def test_interior_ball_volume_law(self, rng):
        # (norm/eps)^(2N) should be uniform on [0, 1]
        N, draws = 2, 10**5
        u = []
        for _ in range(draws // 10**4):
            eps, _, delta_norms = draw_errors(
                rng, K=10**4, N=N, s=0.5, sampling="interior"
            )
            u.append((delta_norms / eps) ** (2 * N))
        u = np.concatenate(u)
        grid = np.linspace(0, 1, 201)
        ecdf = np.searchsorted(np.sort(u), grid, side="right") / draws
        assert np.max(np.abs(ecdf - grid)) < 0.01


class TestApplyError:
    """Synthesis perturbs the estimate by the drawn rows:
    row(h_hat_k) = row(h_k) - delta_k, with the true channels and errors
    of reference_synthesis."""

    def test_zero_delta(self, rng):
        (h_hat, eps), (*_, h, _, _, deltas) = draw_with_reference(rng, s=0.0)
        assert np.all(eps == 0) and np.all(deltas == 0)
        np.testing.assert_allclose(h_hat, h, rtol=1e-13, atol=0)

    def test_round_trip(self, rng):
        (h_hat, _), (*_, h, _, _, deltas) = draw_with_reference(rng)
        recovered = np.conj(h) - np.conj(h_hat)
        assert np.allclose(recovered, deltas, atol=0)

    def test_isometry(self, rng):
        (h_hat, _), (*_, h, _, _, deltas) = draw_with_reference(rng)
        gap = np.linalg.norm(np.conj(h) - np.conj(h_hat), axis=1)
        np.testing.assert_allclose(gap, row_norms(deltas), rtol=1e-7)


@given(
    st.integers(1, 4),
    st.integers(1, 8),
    st.floats(0, 2),
    st.sampled_from(["surface", "interior"]),
    st.integers(0, 2**32 - 1),
)
# a subnormal s: sensor 0's eps underflows to 0, yet its error is drawn
@example(K=2, N=1, s=5e-324, sampling="surface", seed=0)
@settings(max_examples=100, deadline=None)
def test_apply_error_round_trip_property(K, N, s, sampling, seed):
    rng = np.random.default_rng(seed)
    (h_hat, _), (*_, h, _, _, deltas) = draw_with_reference(
        rng, K=K, N=N, s=s, sampling=sampling
    )
    assert np.allclose(np.conj(h) - np.conj(h_hat), deltas, atol=1e-15)


def _aligned_design(channels, m=1.0):
    """Design with m*t_k*inner(h_k, v_k) = 1 for all k."""
    K, N = channels.shape
    v = np.stack([ch / np.abs(ch) for ch in channels])
    t = np.array([1.0 / (m * inner(channels[k], v[k])) for k in range(K)])
    return RISDesign(m=m, t=t, v=v)


class TestEmpiricalMse:
    def test_perfect_alignment(self, rng):
        channels = np.abs(rng.normal(size=(3, 4))) + 0.1 + 0j
        design = _aligned_design(channels)
        assert empirical_mse(design, channels, 0.0, 100, rng) == pytest.approx(0.0)

    def test_half_gain_analytic(self, rng):
        channels = np.array([[1.0 + 0j]])
        design = RISDesign(m=1.0, t=np.array([0.5 + 0j]), v=np.array([[1.0 + 0j]]))
        trials = 200_000
        est = empirical_mse(design, channels, 0.0, trials, rng)
        # E|0.5 x - x|^2 = 0.25 with Var = E[(0.25 x^2 - 0.25)^2] per sample
        se = 0.25 * np.sqrt(2.0 / trials)
        assert abs(est - 0.25) <= 3 * se

    def test_matches_closed_form(self, rng):
        config = SystemConfig(K=3, N=4, P=5.0, noise_var=0.3, s=0.2)
        h = reference_synthesis(config, rng)[2]
        design = RISDesign(
            m=0.7,
            t=sample_rayleigh_vector(3, 1.0, rng),
            v=np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 4))),
        )
        trials = 200_000
        expected = closed_form_mse(design, h, config.noise_var)
        samples_mean = empirical_mse(design, h, config.noise_var, trials, rng)
        # crude bound: per-sample std is at most a few times the mean
        se = 3.0 * expected / np.sqrt(trials)
        assert abs(samples_mean - expected) <= 3 * se

    def test_mse_at_error_is_realized_mse(self, rng):
        # realized evaluation: the true channel is h = h_hat + conj(delta)
        config = SystemConfig(
            K=3, N=4, P=5.0, noise_var=0.3, s=0.2, error_sampling="interior"
        )
        _, _, h, _, _, deltas = reference_synthesis(config, copy.deepcopy(rng))
        h_hat, eps = synthesize_instance(config, rng)
        design = RISDesign(
            m=0.7,
            t=sample_rayleigh_vector(3, 1.0, rng),
            v=np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 4))),
        )
        realized = mse_at_error(design, h_hat, deltas, config.noise_var, eps_set=eps)
        expected = closed_form_mse(design, h, config.noise_var)
        assert realized == pytest.approx(expected, rel=1e-12)
        trials = 200_000
        samples_mean = empirical_mse(design, h, config.noise_var, trials, rng)
        se = 3.0 * expected / np.sqrt(trials)
        assert abs(samples_mean - realized) <= 3 * se


class TestSystemConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            SystemConfig(K=0, N=4, P=1.0, noise_var=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ConfigError):
            SystemConfig(K=1, N=1, P=float("nan"), noise_var=0.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            SystemConfig(K=1, N=1, P=1.0, noise_var=0.0, eval_mode="typo")


class TestSynthesize:
    def test_cascade_and_ball(self):
        config = SystemConfig(K=4, N=6, P=1.0, noise_var=0.1, s=0.3)
        h_hat, eps = synthesize_instance(config, np.random.default_rng(3))
        g, r, h, _, _, deltas = reference_synthesis(config, np.random.default_rng(3))
        for k in range(4):
            # the estimate plus the error is the cascade conj(g) * r
            assert np.allclose(np.conj(h_hat[k]) + deltas[k], np.conj(g[k]) * r[k])
            assert eps[k] == pytest.approx(0.3 * np.linalg.norm(h[k]))
            gap = np.linalg.norm(np.conj(h[k]) - np.conj(h_hat[k]))
            assert gap <= eps[k] * (1 + 1e-12)
            assert np.allclose(np.conj(h[k]) - np.conj(h_hat[k]), deltas[k])


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
        # a sweep_k_large trial: draw blocks of 10 rows, so it spans two
        (12, 256, 0.3, "interior"),
    ],
)
def test_synthesis_matches_per_sensor_draws(K, N, s, sampling):
    config = SystemConfig(K=K, N=N, P=1.0, noise_var=0.1, s=s, error_sampling=sampling)
    rng = np.random.default_rng(K * 1000 + N)
    got = synthesize_instance(config, rng)
    ref_rng = np.random.default_rng(K * 1000 + N)
    *_, h_hat, eps, deltas = reference_synthesis(config, ref_rng)
    for name, a, b in zip(("h_hat", "eps"), got, (h_hat, eps)):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0, err_msg=name)
    # both streams end at the same point
    assert rng.uniform() == ref_rng.uniform()
    realized = replace(config, eval_mode="realized")
    a, _, c, delta_norms = synthesize_instance(
        realized, np.random.default_rng(K * 1000 + N), gains_only=True
    )
    np.testing.assert_allclose(a, np.abs(h_hat).sum(axis=-1), rtol=1e-13, atol=0)
    assert_errors_match(c, delta_norms, h_hat, deltas)


@pytest.mark.parametrize(
    "s, sampling, trials",
    [(0.0, "surface", 1), (0.4, "surface", 3), (0.4, "interior", 3)],
)
def test_gains_only_match_the_instance(s, sampling, trials):
    # draw blocks of 3 rows split the 9-sensor trials
    config = SystemConfig(
        K=9, N=700, P=1.0, noise_var=0.1, s=s, error_sampling=sampling
    )
    seeds = [(6, trial) for trial in range(trials)]

    def draw(config, gains_only):
        rngs = [seeded_rng(seed) for seed in seeds]
        return synthesize_instance(config, rngs, gains_only=gains_only)

    h_hat, radii = draw(config, False)
    a, eps = draw(config, True)
    realized = draw(replace(config, eval_mode="realized"), True)
    re, im = h_hat.real, h_hat.imag
    l1 = np.sqrt(re * re + im * im).sum(axis=-1)
    assert {x.shape for x in (a, eps, *realized)} == {(trials, config.K)}
    # both modes draw the same gains and radii, bit for bit
    for got in (a, realized[0]):
        assert got.tobytes() == l1.tobytes()
    for got in (eps, realized[1]):
        assert got.tobytes() == radii.tobytes()
    np.testing.assert_allclose(a, np.abs(h_hat).sum(axis=-1), rtol=1e-14)
    *_, ref_h_hat, _, deltas = reference_synthesis(
        config, [seeded_rng(seed) for seed in seeds]
    )
    assert_errors_match(*realized[2:], ref_h_hat, deltas)


def test_trials_per_block():
    def block(K, N):
        return trials_per_block(SystemConfig(K=K, N=N, P=1.0, noise_var=0.1))

    # at most 1024 sensor rows per block, whatever N
    assert block(1, 1) == block(1, 4096) == 1024
    assert block(7, 16) == 146
    assert block(10, 16) == block(10, 256) == 102
    assert block(100, 256) == 10
    assert block(512, 1) == 2
    # more sensors than the cap: one trial per block
    assert block(1025, 4) == block(5000, 64) == 1


@pytest.mark.parametrize(
    "K, N, s, sampling, trials",
    [
        # draw chunks of 170 rows (256 without errors) split the 7-sensor
        # trials, drawn on one thread
        (7, 16, 0.4, "surface", None),
        (7, 16, 0.4, "interior", None),
        (7, 16, 0.0, "surface", None),
        # (3, 8, 1024) arrays: past the 16384 entries where numpy may reuse
        # a temporary in place
        (8, 1024, 0.3, "surface", 3),
        # split across CPUs, in draw chunks of 12 rows: each of the 51
        # trials spans two or three
        (20, 1000, 0.3, "interior", None),
        # the sweep_k_large shape: 85 trials of 12 rows, split across CPUs
        # in draw chunks of 48 rows, four whole trials each
        (12, 256, 0.3, "interior", None),
    ],
)
def test_trial_block_matches_per_trial_draws(K, N, s, sampling, trials):
    config = SystemConfig(K=K, N=N, P=1.0, noise_var=0.1, s=s, error_sampling=sampling)
    trials = trials or trials_per_block(config)
    seeds = [(5, K, N, trial) for trial in range(trials)]
    realized = replace(config, eval_mode="realized")

    def draw(rng):
        """(h_hat, eps) and the realized-mode (a, eps, c, ||delta||)."""
        scalars = synthesize_instance(realized, copy.deepcopy(rng), gains_only=True)
        return (*synthesize_instance(config, rng), *scalars)

    names = ("h_hat", "eps", "a", "eps", "c", "delta_norms")
    block = draw([seeded_rng(seed) for seed in seeds])
    assert [x.shape for x in block] == [(trials, K, N)] + [(trials, K)] * 5
    for t, seed in enumerate(seeds):
        alone = draw(seeded_rng(seed))
        for name, got, want in zip(names, block, alone):
            assert got[t].tobytes() == want.tobytes(), (name, t)


def cpus(monkeypatch, n):
    """Make this process look as if it may run on n CPUs."""

    def affinity(pid):
        return set(range(n))

    monkeypatch.setattr(model.os, "sched_getaffinity", affinity, raising=False)


def spy_ranges(monkeypatch):
    """Record the trial ranges of every synthesis call."""
    used = []
    run_ranges = model._run_ranges

    def spy(fn, ranges):
        used.append(ranges)
        return run_ranges(fn, ranges)

    monkeypatch.setattr(model, "_run_ranges", spy)
    return used


# 13 trials of 7 sensors at N=1000, split across CPUs into 3 ranges of 4,
# 4 and 5 trials (28, 28 and 35 rows): each range is drawn in three chunks
# of up to 12 rows, whose edges cut trials; on one CPU the chunks are of 2
# rows (4 without errors)
SPLIT_TRIALS, SPLIT_RANGES = 13, [(0, 4), (4, 8), (8, 13)]


def split_config(s=0.4, sampling="surface", eval_mode="worst"):
    return SystemConfig(
        K=7,
        N=1000,
        P=1.0,
        noise_var=0.1,
        s=s,
        eval_mode=eval_mode,
        error_sampling=sampling,
    )


def split_rngs(seed=9):
    return [seeded_rng((seed, trial)) for trial in range(SPLIT_TRIALS)]


@pytest.mark.parametrize("output", ["instance", "worst", "realized"])
@pytest.mark.parametrize(
    "s, sampling", [(0.0, "surface"), (0.4, "surface"), (0.4, "interior")]
)
def test_split_block_matches_one_range(monkeypatch, output, s, sampling):
    """Trial ranges drawn on threads give the bytes one range gives, with
    more ranges than this machine may have CPUs and the GIL handed over as
    often as the interpreter allows."""
    eval_mode = "worst" if output == "instance" else output
    config = split_config(s, sampling, eval_mode)
    used = spy_ranges(monkeypatch)

    def draw():
        return synthesize_instance(config, split_rngs(), gains_only=output != "instance")

    cpus(monkeypatch, 1)
    serial = draw()
    cpus(monkeypatch, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = draw()
    finally:
        sys.setswitchinterval(interval)
    assert used == [[(0, SPLIT_TRIALS)], SPLIT_RANGES]
    arrays = {"instance": 2, "worst": 2, "realized": 4}[output]
    assert len(serial) == len(split) == arrays
    for one, many in zip(serial, split):
        assert one.tobytes() == many.tobytes()


def test_split_block_draws_under_the_callers_error_state(monkeypatch):
    """Each range's thread runs under the calling thread's numpy error state:
    at s = 1e300 every range's |h_hat|^2 overflows, and a block drawn in
    two ranges under np.errstate(all="ignore") warns in neither."""
    cpus(monkeypatch, 2)
    used = spy_ranges(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            a, eps = synthesize_instance(
                split_config(s=1e300), split_rngs(), gains_only=True
            )
    assert used == [[(0, 6), (6, SPLIT_TRIALS)]]
    assert np.isinf(a).all() and np.isfinite(eps).all()


def test_generator_shared_by_trials_draws_them_in_order(monkeypatch):
    used = spy_ranges(monkeypatch)
    draws = []
    for n in (1, 3):
        cpus(monkeypatch, n)
        rng = seeded_rng(4)
        draws.append(synthesize_instance(split_config(), [rng] * SPLIT_TRIALS))
    assert used == [[(0, SPLIT_TRIALS)]] * 2
    assert draws[0][0].tobytes() == draws[1][0].tobytes()


def test_bit_generator_shared_by_trials_draws_them_in_order(monkeypatch):
    """Distinct Generators over one bit generator share its stream: their
    trials are drawn in order on one range, as one shared Generator draws
    them, with the GIL handed over as often as the interpreter allows."""
    used = spy_ranges(monkeypatch)
    cpus(monkeypatch, 1)
    shared = synthesize_instance(split_config(), [seeded_rng(4)] * SPLIT_TRIALS)
    cpus(monkeypatch, 3)
    bit_generator = seeded_rng(4).bit_generator
    rngs = [np.random.Generator(bit_generator) for _ in range(SPLIT_TRIALS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        draw = synthesize_instance(split_config(), rngs)
    finally:
        sys.setswitchinterval(interval)
    assert used == [[(0, SPLIT_TRIALS)]] * 2
    assert draw[0].tobytes() == shared[0].tobytes()


@pytest.mark.parametrize("count, ranges", [(3, SPLIT_RANGES), (None, [(0, 13)])])
def test_trial_ranges_without_an_affinity_api(monkeypatch, count, ranges):
    """Where os has no sched_getaffinity, the CPU count is os.cpu_count(),
    and one range when that is unknown."""
    monkeypatch.delattr(model.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(model.os, "cpu_count", lambda: count)
    per_trial = split_config().K * 6 * split_config().N
    assert model._trial_ranges(SPLIT_TRIALS, per_trial, per_trial) == ranges


class FailingGenerator:
    """Stands in for a Generator whose first draw raises, noting the thread
    that drew."""

    def __init__(self):
        self.error = RuntimeError("draw failed")
        self.thread = None

    def standard_normal(self, out):
        self.thread = threading.current_thread()
        raise self.error


@pytest.mark.parametrize("bad", [0, SPLIT_TRIALS - 1])
def test_a_failing_range_raises_its_error(monkeypatch, bad):
    """A range's exception reaches the caller, from the calling thread's
    range (trial 0) or another thread's (the last trial), and the next block
    is drawn as before."""
    cpus(monkeypatch, 3)
    used = spy_ranges(monkeypatch)
    rngs = split_rngs()
    failing = rngs[bad] = FailingGenerator()
    with pytest.raises(RuntimeError) as info:
        synthesize_instance(split_config(), rngs)
    assert info.value is failing.error
    assert (failing.thread is threading.main_thread()) == (bad == 0)
    again = synthesize_instance(split_config(), split_rngs())
    assert used == [SPLIT_RANGES] * 2
    cpus(monkeypatch, 1)
    alone = synthesize_instance(split_config(), split_rngs())
    assert again[0].tobytes() == alone[0].tobytes()


def test_a_range_whose_thread_cannot_start_is_drawn_here(monkeypatch):
    """When a fresh pool cannot start the second range's worker, the calling
    thread draws that range as well, the worker that started draws nothing
    more once it is idle (the failed submit left the range queued), and the
    bytes are those of one range."""
    cpus(monkeypatch, 3)
    used = spy_ranges(monkeypatch)
    started = []
    start = threading.Thread.start

    def start_one(thread):
        if started:
            raise RuntimeError("can't start new thread")
        start(thread)
        started.append(thread)

    model._pool.cache_clear()
    monkeypatch.setattr(threading.Thread, "start", start_one)
    split = synthesize_instance(split_config(), split_rngs())
    assert used == [SPLIT_RANGES] and len(started) == 1
    # the worker runs what is left queued, then stops
    model._pool().shutdown(wait=False)
    model._pool.cache_clear()
    started[0].join(timeout=60)
    assert not started[0].is_alive()
    cpus(monkeypatch, 1)
    serial = synthesize_instance(split_config(), split_rngs())
    for one, many in zip(serial, split):
        assert one.tobytes() == many.tobytes()


class CountingThread(threading.Thread):
    """A Thread that counts the threads started."""

    started = 0

    def start(self):
        CountingThread.started += 1
        super().start()


def test_split_draws_start_workers_once(monkeypatch):
    """The pool's workers start on the first split draw and draw the next."""
    monkeypatch.setattr(CountingThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    cpus(monkeypatch, 3)
    used = spy_ranges(monkeypatch)
    model._pool.cache_clear()
    first = synthesize_instance(split_config(), split_rngs())
    started = CountingThread.started
    second = synthesize_instance(split_config(), split_rngs())
    assert used == [SPLIT_RANGES] * 2
    assert started > 0 and CountingThread.started == started
    for one, two in zip(first, second):
        assert one.tobytes() == two.tobytes()


def test_callers_on_many_threads_share_the_pool(monkeypatch):
    """Split draws from four threads at once, on one pool and with the GIL
    handed over as often as the interpreter allows, each give the bytes of
    one range: no thread draws into another's chunk buffer or rows."""
    used = spy_ranges(monkeypatch)
    cpus(monkeypatch, 1)
    serial = synthesize_instance(split_config(), split_rngs())
    cpus(monkeypatch, 3)
    draws = []

    def draw():
        for _ in range(3):
            draws.append(synthesize_instance(split_config(), split_rngs()))

    callers = [threading.Thread(target=draw) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert used == [[(0, SPLIT_TRIALS)]] + [SPLIT_RANGES] * 12
    for split in draws:
        for one, many in zip(serial, split):
            assert one.tobytes() == many.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_draws_split_blocks(monkeypatch):
    """After a split draw here, a forked child draws a split block to the
    same bytes and exits: it starts workers of its own, as it has none of
    this process's threads."""
    cpus(monkeypatch, 3)
    used = spy_ranges(monkeypatch)
    here = synthesize_instance(split_config(), split_rngs())
    with warnings.catch_warnings():
        # Python >= 3.12 warns that a fork of a threaded process may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            child = synthesize_instance(split_config(), split_rngs())
            same = all(a.tobytes() == b.tobytes() for a, b in zip(here, child))
            status = 0 if same and used == [SPLIT_RANGES] * 2 else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split draw did not finish in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_small_blocks_stay_on_the_calling_thread(monkeypatch):
    def trial_rngs(trials):
        return [seeded_rng((2, trial)) for trial in range(trials)]

    monkeypatch.setattr(CountingThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    cpus(monkeypatch, 64)
    used = spy_ranges(monkeypatch)
    # the example SNR sweep's cells: 50 trials of 10 sensors at N=16
    for s in (0.0, 0.4, 0.6):
        config = SystemConfig(K=10, N=16, P=10.0, noise_var=1.0, s=s)
        synthesize_instance(config, trial_rngs(50), gains_only=True)
    # large, but drawn in calls of one 384-double row: handing the GIL
    # between threads that often costs more than it saves
    fine = SystemConfig(
        K=25,
        N=64,
        P=10.0,
        noise_var=1.0,
        s=0.4,
        eval_mode="realized",
        error_sampling="interior",
    )
    synthesize_instance(fine, trial_rngs(40), gains_only=True)
    assert CountingThread.started == 0
    assert used == [[(0, 50)]] * 3 + [[(0, 40)]]
    # a cell of the large K sweep, 10 trials of 25 sensors at N=256, is
    # split into a range per trial
    synthesize_instance(replace(fine, N=256), trial_rngs(10), gains_only=True)
    assert used[-1] == [(trial, trial + 1) for trial in range(10)]
