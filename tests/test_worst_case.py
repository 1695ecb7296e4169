"""The shipped certificate and evaluators, the per-sensor forms the
`aircomp verify` suites check it with, and the reference evaluators in
`oracles.py`."""

import numpy as np
import pytest

from oracles import (
    FixedNormals,
    RISDesign,
    ball_perturbation,
    cophase,
    cophased_design,
    mse_at_error,
    reference_synthesis,
    ref_term,
    sample_rayleigh_vector,
    seeded_rng,
    worst_case_objective,
)

from aircomp_ris import verify
from aircomp_ris.errors import DimensionMismatch, PerturbationOutOfBall
from aircomp_ris.experiments import design_for_scheme
from aircomp_ris.model import Design, SystemConfig, synthesize_instance
from aircomp_ris.optimizer import cophased_gains
from aircomp_ris.verify import (
    _delta_worst,
    _lagrangian,
    _lagrangian_gradient,
    _sampled_worst,
)
from aircomp_ris.worst_case import certificate
from aircomp_ris.worst_case import mse_at_error as realized_score
from aircomp_ris.worst_case import worst_case_objective as score_from_gains


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def random_sensor(rng, n_max=8):
    """One sensor's (t_hat, h_hat, v, eps) on a unit scale: a complex t_hat
    and a random unit-modulus v, which need not co-phase h_hat."""
    N = int(rng.integers(1, n_max + 1))
    h_hat = sample_rayleigh_vector(N, 1.0, rng)
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
    t_hat = complex(rng.normal(), rng.normal())
    return t_hat, h_hat, v, rng.uniform(0.1, 0.8) * np.linalg.norm(h_hat)


def designed_sensors(rng, trials):
    """The (t_hat, h_hat, v, eps, a, c, term, lambda) of every sensor of
    `trials` instances designed and certified as the verify suites do."""
    return [sensor for _ in range(trials) for sensor in verify._sensors(rng)]


def cert_k1(t_hat, a, eps, N):
    """The certificate of a one-sensor design with effective scalar t_hat
    and gain a."""
    design = Design(m=1.0, t=np.array([t_hat]))
    return certificate(design, np.array([a]), np.array([eps]), N, 0.0)


class TestResidual:
    """Where eps = 0 the certificate's term is |rho|^2, rho = t_hat a - 1."""

    def test_perfect_match(self):
        assert cert_k1(1.0, 1.0, 0.0, 1).terms[0] == 0

    def test_simple(self):
        assert cert_k1(1.0, 2.0, 0.0, 1).terms[0] == 1

    def test_cophased(self):
        # co-phasing h = (1, j) leaves the gain a = 2, so rho = 0.4 * 2 - 1
        a = cophased_gains(np.array([1.0 + 0j, 1j]))
        assert a == 2
        assert cert_k1(0.4, a, 0.0, 2).terms[0] == pytest.approx(0.2**2)


class TestLambdaWorst:
    """The certificate's multipliers of the ball constraint."""

    def test_hand_example(self):
        # rho = 1, so lambda = |t_hat|^2 N + (sqrt(N)/eps) |t_hat| |rho| = 1 + 2
        assert cert_k1(1.0, 2.0, 0.5, 1).lambdas[0] == pytest.approx(3.0)

    def test_zero_residual_limit(self):
        # t_hat a = 1, so lambda = |t_hat|^2 N
        assert cert_k1(1.0, 1.0, 0.3, 4).lambdas[0] == pytest.approx(4.0)

    def test_maximizer_branch(self, rng):
        for t_hat, _, v, _, a, _, _, lam in designed_sensors(rng, 50):
            assert lam >= t_hat**2 * len(v)
            if t_hat > 0 and abs(t_hat * a - 1.0) > 1e-12:
                assert lam > t_hat**2 * len(v)

    def test_zero_eps_is_inf(self, rng):
        # inf where eps_k = 0, the one-sensor value bit for bit elsewhere
        t_hat, a = rng.uniform(0.1, 1.0, 4), rng.uniform(0.5, 2.0, 4)
        eps = np.array([0.3, 0.0, 0.2, 0.0])
        lam = certificate(Design(m=1.0, t=t_hat), a, eps, 3, 0.1).lambdas
        assert np.array_equal(np.isinf(lam), eps == 0)
        for k in (0, 2):
            assert lam[k] == cert_k1(t_hat[k], a[k], eps[k], 3).lambdas[0]


class TestDeltaWorst:
    """The rank-1 maximizer the worstcase and kkt suites build."""

    def test_hand_example(self):
        delta = _delta_worst(1.0, np.array([2.0 + 0j]), np.array([1.0 + 0j]), 0.5)
        assert np.allclose(delta, [0.5])

    def test_zero_eps(self):
        delta = _delta_worst(1.0, np.array([2.0 + 0j]), np.array([1.0 + 0j]), 0.0)
        assert np.all(delta == 0)

    def test_norm_always_eps(self, rng):
        for _ in range(100):
            t_hat, h_hat, v, eps = random_sensor(rng)
            delta = _delta_worst(t_hat, h_hat, v, eps)
            assert np.linalg.norm(delta) == pytest.approx(eps, rel=1e-10)

    def test_degenerate_zero_t_hat(self, rng):
        _, h_hat, v, eps = random_sensor(rng)
        delta = _delta_worst(0.0, h_hat, v, eps)
        assert np.linalg.norm(delta) == pytest.approx(eps, rel=1e-10)

    def test_dominates_random_perturbations(self, rng):
        t_hat, h_hat, v, eps = random_sensor(rng, n_max=6)
        rho = t_hat * np.vdot(h_hat, v) - 1.0
        best = abs(rho + t_hat * (_delta_worst(t_hat, h_hat, v, eps) @ v)) ** 2
        assert best == pytest.approx(ref_term(t_hat, h_hat, v, eps), rel=1e-12)
        # 10^4 perturbations uniform over the eps-ball
        d = rng.normal(size=(10**4, len(v))) + 1j * rng.normal(size=(10**4, len(v)))
        radius = eps * rng.uniform(size=10**4) ** (1 / (2 * len(v)))
        d *= (radius / np.linalg.norm(d, axis=1))[:, None]
        assert np.all(np.abs(rho + t_hat * (d @ v)) ** 2 <= best + 1e-9)


class TestWorstCaseTerm:
    """The certificate's terms (|t_hat a - 1| + |t_hat| eps sqrt(N))^2."""

    def test_zero_eps(self, rng):
        h_hat = sample_rayleigh_vector(5, 1.0, rng)
        t_hat = rng.uniform(0.1, 1.0)
        term = cert_k1(t_hat, cophased_gains(h_hat), 0.0, 5).terms[0]
        assert term == pytest.approx(ref_term(t_hat, h_hat, cophase(h_hat), 0.0))

    def test_hand_example(self):
        assert cert_k1(1.0, 2.0, 0.5, 1).terms[0] == pytest.approx(2.25)

    def test_hand_example_n2(self):
        a = cophased_gains(np.array([1.0 + 0j, 1j]))
        term = cert_k1(0.4, a, 0.1, 2).terms[0]
        assert term == pytest.approx((0.2 + 0.4 * 0.1 * np.sqrt(2)) ** 2)
        assert term == pytest.approx(0.065827, abs=1e-6)

    def test_multiplier_form_matches_direct_value(self, rng):
        # |rho / (1 - N |t_hat|^2 / lambda)|^2 with the certificate's lambda
        checked = 0
        for t_hat, _, v, _, a, _, term, lam in designed_sensors(rng, 50):
            rho = t_hat * a - 1.0
            if t_hat == 0 or abs(rho) < 1e-12:
                continue
            via_lambda = abs(rho / (1.0 - t_hat**2 * len(v) / lam)) ** 2
            assert via_lambda == pytest.approx(term, rel=1e-10)
            checked += 1
        assert checked > 0


# each scheme designed on the channel arrays, with co-phased RIS vectors
ARRAY_DESIGNS = {
    "multistart": lambda config, h_hat, eps: cophased_design(config, h_hat, eps),
    "nonrobust": lambda config, h_hat, eps: cophased_design(config, h_hat),
}


def _design_k1(t_hat, v):
    return RISDesign(m=1.0, t=np.array([t_hat]), v=np.array([v]))


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
        design = RISDesign(m=1.0, t=t, v=v_set)
        total = worst_case_objective(design, h_set, eps, 0.25)
        parts = sum(ref_term(t[k], h_set[k], v_set[k], eps[k]) for k in range(K))
        assert total == pytest.approx(parts + 0.25)

    def test_mse_at_zero_delta_is_nominal(self, rng):
        t_hat, h_hat, v, eps = random_sensor(rng)
        design = _design_k1(t_hat, v)
        rho = t_hat * np.vdot(h_hat, v) - 1.0
        got = mse_at_error(design, h_hat[None, :], np.zeros((1, len(v))), 0.3)
        assert got == pytest.approx(abs(rho) ** 2 + 0.3)

    def test_certificate_consistency(self, rng):
        for _ in range(50):
            t_hat, h_hat, v, eps = random_sensor(rng)
            design = _design_k1(t_hat, v)
            delta = _delta_worst(t_hat, h_hat, v, eps)
            attained = mse_at_error(design, h_hat[None, :], delta[None, :], 0.0)
            term = ref_term(t_hat, h_hat, v, eps)
            assert attained == pytest.approx(term, rel=1e-10)

    def test_out_of_ball_rejected(self, rng):
        t_hat, h_hat, v, eps = random_sensor(rng)
        design = _design_k1(t_hat, v)
        bad = _delta_worst(t_hat, h_hat, v, eps) * 2.0
        with pytest.raises(PerturbationOutOfBall):
            mse_at_error(
                design, h_hat[None, :], bad[None, :], 0.0, eps_set=np.array([eps])
            )

    def test_objective_dominates_sampled_errors(self, rng):
        t_hat, h_hat, v, eps = random_sensor(rng)
        design = _design_k1(t_hat, v)
        bound = worst_case_objective(design, h_hat[None, :], np.array([eps]), 0.2)
        for _ in range(2000):
            # uniform over the eps-ball: radius eps * U^(1/(2N))
            d = ball_perturbation(len(v), eps * rng.uniform() ** (1 / (2 * len(v))), rng)
            val = mse_at_error(design, h_hat[None, :], d[None, :], 0.2)
            assert val <= bound + 1e-9

    def test_shape_mismatch(self, rng):
        t_hat, h_hat, v, eps = random_sensor(rng)
        design = _design_k1(t_hat, v)
        with pytest.raises(DimensionMismatch):
            worst_case_objective(design, np.stack([h_hat, h_hat]), np.array([eps, eps]), 0.0)


class TestScoreFromGains:
    """The sweeps' worst-mode score: each scheme's design and worst-case
    MSE from the gains a_k = ||h_hat_k||_1 and radii eps_k sqrt(N) alone,
    against the same scheme designed on the channel arrays and scored by
    the oracle on its RIS vectors."""

    T, K, N = 6, 4, 5

    def block(self, rng):
        shape = (self.T, self.K, self.N)
        h_hat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = np.abs(h_hat).sum(axis=-1)
        # a live sensor has eps sqrt(N) < a
        eps = rng.uniform(0.0, 0.9, a.shape) * a / np.sqrt(self.N)
        eps[0, 1] = 1.5 * a[0, 1] / np.sqrt(self.N)  # one sensor silenced
        eps[1] = 2.0 * a[1] / np.sqrt(self.N)  # every sensor silenced
        eps[2, 0] = 0.0  # a sensor without uncertainty
        return h_hat, a, eps

    @pytest.mark.parametrize("scheme", ["multistart", "nonrobust"])
    def test_matches_oracle(self, rng, scheme):
        for _ in range(25):
            h_hat, a, eps = self.block(rng)
            config = SystemConfig(
                K=self.K,
                N=self.N,
                P=float(rng.uniform(0.5, 5.0)),
                noise_var=float(rng.uniform(0.01, 2.0)),
            )
            full = ARRAY_DESIGNS[scheme](config, h_hat, eps)
            scalar = design_for_scheme(config, scheme, (a, eps))
            assert np.array_equal(scalar.m, full.m) and np.array_equal(scalar.t, full.t)
            got = score_from_gains(scalar, a, eps * np.sqrt(self.N), config.noise_var)
            want = worst_case_objective(full, h_hat, eps, config.noise_var)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            if scheme == "multistart":
                assert full.t[0, 1] == 0 and full.m[1] == 0 and got[1] == self.K
                assert np.all(np.delete(full.m, 1) > 0) and full.t[2, 0] > 0

    def test_shape_mismatch(self):
        design = Design(m=np.ones(2), t=np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            score_from_gains(design, np.ones((2, 4)), np.zeros((2, 4)), 0.1)
        with pytest.raises(DimensionMismatch):
            score_from_gains(design, np.ones((2, 3)), np.zeros((2, 1)), 0.1)


class TestRealizedScore:
    """The sweeps' realized-mode score: each scheme's design and MSE from
    the per-sensor scalars synthesis gives, a_k, eps_k, c_k = delta_k @ v_k
    and ||delta_k||, against the same scheme designed on the channel arrays
    reference_synthesis draws from the same stream and scored by the oracle
    on its RIS vectors."""

    @staticmethod
    def config(**kw):
        base = dict(K=2, N=4, P=2.0, noise_var=0.3, eval_mode="realized")
        return SystemConfig(**{**base, **kw})

    def check(self, config, scheme, reference, draw):
        scalar = design_for_scheme(config, scheme, draw)
        a, eps, c, delta_norms = draw
        got = realized_score(scalar, a, c, delta_norms, eps, config.noise_var)
        *_, h_hat, ref_eps, deltas = reference
        full = ARRAY_DESIGNS[scheme](config, h_hat, ref_eps)
        want = mse_at_error(full, h_hat, deltas, config.noise_var, ref_eps)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        return scalar

    @pytest.mark.parametrize("scheme", ["multistart", "nonrobust"])
    @pytest.mark.parametrize(
        "s, sampling", [(0.0, "surface"), (0.3, "interior"), (0.85, "surface")]
    )
    def test_matches_oracle(self, scheme, s, sampling):
        config = self.config(s=s, error_sampling=sampling)
        seeds = [(11, trial) for trial in range(8)]
        reference = reference_synthesis(config, [seeded_rng(seed) for seed in seeds])
        draw = synthesize_instance(
            config, [seeded_rng(seed) for seed in seeds], gains_only=True
        )
        assert [x.shape for x in draw] == [(8, config.K)] * 4
        scalar = self.check(config, scheme, reference, draw)
        if s == 0:
            assert not draw[2].any() and not draw[3].any()
        if s == 0.85 and scheme == "multistart":
            # trial 1 silences every sensor, the others do not
            assert scalar.m[1] == 0 and np.all(np.delete(scalar.m, 1) > 0)

    @pytest.mark.parametrize("scheme", ["multistart", "nonrobust"])
    def test_zero_estimate_entry(self, scheme):
        # doubled normals make the segments exactly the crafted values
        # (0.5 * 2x = x). Sensor 0 has h = (3j, 4), so eps = 0.6 * 5 = 3, and
        # its error direction -1j on entry 0 scales to delta = (-3j, 0):
        # h_hat = h - conj(delta) = (0, 4)
        config = self.config(N=2, s=0.6)
        crafted = 2 * np.array([[0, 1], [1, 0], [3, 4], [0, 0], [0, 0], [-1, 0]])
        normals = [crafted, np.random.default_rng(2).normal(size=(6, 2))]
        h_hat, _ = synthesize_instance(config, FixedNormals(normals))
        draw = synthesize_instance(config, FixedNormals(normals), gains_only=True)
        assert h_hat[0, 0] == 0 and h_hat[0, 1] == 4
        a, eps, c, delta_norms = draw
        # v_0 = 1 on the zero entry, so c_0 = delta_0 @ v_0 = -3j
        assert (a[0], eps[0], c[0], delta_norms[0]) == (4.0, 3.0, -3j, 3.0)
        reference = reference_synthesis(config, FixedNormals(normals))
        assert reference[3][0, 0] == 0  # its h_hat has the same zero entry
        self.check(config, scheme, reference, draw)

    def test_out_of_ball_rejected(self):
        config = self.config(K=3, s=0.4)
        seeds = [(12, trial) for trial in range(5)]
        a, eps, c, delta_norms = synthesize_instance(
            config, [seeded_rng(seed) for seed in seeds], gains_only=True
        )
        design = design_for_scheme(config, "multistart", (a, eps))
        # the slack admits roundoff, not an error past the ball
        delta_norms[3, 1] = eps[3, 1] * (1 + 1e-10)
        realized_score(design, a, c, delta_norms, eps, 0.3)
        delta_norms[3, 1] = eps[3, 1] * (1 + 1e-8)
        with pytest.raises(PerturbationOutOfBall, match="delta_1"):
            realized_score(design, a, c, delta_norms, eps, 0.3)

    def test_shape_mismatch(self):
        design = Design(m=np.ones(2), t=np.ones((2, 3)))
        ones = np.ones((2, 3))
        with pytest.raises(DimensionMismatch):
            realized_score(design, np.ones((2, 4)), ones + 0j, ones, ones, 0.1)
        with pytest.raises(DimensionMismatch):
            realized_score(design, ones, ones + 0j, ones[:, :1], ones, 0.1)


class TestTrialBlock:
    """The evaluators score a leading axis of trials one by one."""

    def block(self, rng, T=5, K=3, N=4):
        h_hat = rng.normal(size=(T, K, N)) + 1j * rng.normal(size=(T, K, N))
        eps = rng.uniform(0.1, 0.5, (T, K))
        deltas = np.stack(
            [[ball_perturbation(N, e, rng) for e in row] for row in eps * 0.9]
        )
        design = RISDesign(
            m=rng.uniform(0.5, 2.0, T),
            t=rng.normal(size=(T, K)) + 1j * rng.normal(size=(T, K)),
            v=np.exp(1j * rng.uniform(0, 2 * np.pi, (T, K, N))),
        )
        return design, h_hat, eps, deltas

    def test_block_matches_single_trials(self, rng):
        design, h_hat, eps, deltas = self.block(rng)
        worst = worst_case_objective(design, h_hat, eps, 0.3)
        realized = mse_at_error(design, h_hat, deltas, 0.3, eps_set=eps)
        for t in range(len(h_hat)):
            alone = RISDesign(m=float(design.m[t]), t=design.t[t], v=design.v[t])
            assert worst[t] == worst_case_objective(alone, h_hat[t], eps[t], 0.3)
            assert realized[t] == mse_at_error(
                alone, h_hat[t], deltas[t], 0.3, eps_set=eps[t]
            )

    def test_noise_term_squares_like_a_float(self, rng):
        # m values where pow(m, 2) and m * m differ in the last bit, and
        # still do after the two unit terms are added
        m = rng.uniform(0.5, 2.0, 10**4)
        m = m[[float(x) ** 2 + 2.0 != x * x + 2.0 for x in m]][:3]
        assert len(m) == 3
        K, N = 2, 3
        design = Design(m=m, t=np.zeros((3, K)))
        got = score_from_gains(design, np.full((3, K), float(N)), np.zeros((3, K)), 1.0)
        # each trial's terms are 1: the residual of t_hat = 0
        assert got.tolist() == [float(x) ** 2 + 2.0 for x in m]

    def test_out_of_ball_in_one_trial_rejected(self, rng):
        design, h_hat, eps, deltas = self.block(rng)
        deltas[3, 1] *= 2.0
        with pytest.raises(PerturbationOutOfBall, match="delta_1"):
            mse_at_error(design, h_hat, deltas, 0.3, eps_set=eps)


class TestBruteForce:
    """The oracle suite's sampling plus ascent."""

    def test_one_dim_reaches_closed_form(self, rng):
        t_hat, h_hat, v, eps = random_sensor(rng, n_max=1)
        term = ref_term(t_hat, h_hat, v, eps)
        found = _sampled_worst(t_hat, h_hat, v, eps, rng)
        assert found <= term + 1e-9
        assert found == pytest.approx(term, rel=1e-3)

    def test_zero_eps(self, rng):
        t_hat, h_hat, v, _ = random_sensor(rng)
        rho = t_hat * np.vdot(h_hat, v) - 1.0
        assert _sampled_worst(t_hat, h_hat, v, 0.0, rng) == pytest.approx(abs(rho) ** 2)

    def test_nondecreasing_in_eps(self, rng):
        t_hat, h_hat, v, _ = random_sensor(rng)
        vals = [
            _sampled_worst(t_hat, h_hat, v, eps, np.random.default_rng(5))
            for eps in (0.1, 0.2, 0.4)
        ]
        assert vals == sorted(vals)

    def test_reaches_a_residual_small_against_the_ball(self):
        # |rho| = 0.002 against |t_hat| eps sqrt(N) = 0.2: each ascent step
        # turns delta's phase toward rho's by only ~1%
        h_hat = np.full(4, 0.2495 + 0j)
        v = np.ones(4, dtype=complex)
        term = ref_term(1.0, h_hat, v, 0.1)
        for seed in range(5):
            found = _sampled_worst(1.0, h_hat, v, 0.1, np.random.default_rng(seed))
            assert found == pytest.approx(term, rel=1e-9)


class TestKkt:
    """The KKT conditions the kkt suite checks at the rank-1 maximizer and
    the certificate's multiplier."""

    def test_zero_at_closed_form(self, rng):
        for t_hat, h_hat, v, eps, _, _, _, lam in designed_sensors(rng, 30):
            delta = _delta_worst(t_hat, h_hat, v, eps)
            grad = _lagrangian_gradient(t_hat, h_hat, v, delta, lam)
            assert np.linalg.norm(grad) <= 1e-8
            assert abs(lam * (np.linalg.norm(delta) ** 2 - eps**2)) <= 1e-8

    def test_slackness_violation_off_sphere(self, rng):
        # half the maximizer is stationary for no multiplier that keeps slackness
        for t_hat, h_hat, v, eps, _, _, _, lam in designed_sensors(rng, 30):
            if t_hat == 0:
                continue
            delta = _delta_worst(t_hat, h_hat, v, eps) * 0.5
            assert np.linalg.norm(_lagrangian_gradient(t_hat, h_hat, v, delta, 0.0)) > 0
            slack = abs(lam * (np.linalg.norm(delta) ** 2 - eps**2))
            assert slack == pytest.approx(lam * 0.75 * eps**2, rel=1e-10)

    def test_finite_difference_gradient(self, rng):
        step = 1e-6
        for _ in range(20):
            t_hat, h_hat, v, eps = random_sensor(rng)
            lam = rng.uniform(0.0, 5.0)
            delta = _delta_worst(t_hat, h_hat, v, eps) * rng.uniform(0.3, 1.0)
            grad = _lagrangian_gradient(t_hat, h_hat, v, delta, lam)
            for i in range(len(delta)):
                for direction, part in ((1.0, np.real), (1j, np.imag)):
                    dp = delta.copy()
                    dp[i] += direction * step
                    dm = delta.copy()
                    dm[i] -= direction * step
                    fd = (
                        _lagrangian(t_hat, h_hat, v, eps, dp, lam)
                        - _lagrangian(t_hat, h_hat, v, eps, dm, lam)
                    ) / (2 * step)
                    assert abs(fd - 2 * part(grad[i])) < 1e-5


class TestCertificate:
    """The certificate of a co-phased design, built from the gains
    a_k = ||h_hat_k||_1 and radii eps_k alone."""

    @staticmethod
    def cophased_k1(rng):
        t_hat, h_hat, _, eps = random_sensor(rng)
        v = cophase(h_hat)
        return _design_k1(t_hat, v), h_hat, np.array([np.abs(h_hat).sum()]), eps

    def test_fields(self, rng):
        design, h_hat, a, eps = self.cophased_k1(rng)
        cert = certificate(design, a, np.array([eps]), len(h_hat), 0.4)
        assert cert.total == pytest.approx(float(cert.terms.sum()) + 0.4 * design.m**2)
        t_hat = design.t_hat[0]
        assert cert.lambdas[0] > abs(t_hat) ** 2 * len(h_hat) or abs(
            t_hat * a[0] - 1.0
        ) < 1e-12

    def test_zero_eps_lambda_inf(self, rng):
        design, h_hat, a, _ = self.cophased_k1(rng)
        cert = certificate(design, a, np.array([0.0]), len(h_hat), 0.0)
        assert np.isinf(cert.lambdas[0])

    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_matches_per_sensor_forms_on_cophased_v(self, rng, K):
        """The multipliers, terms and objective of the complex per-sensor
        forms on the co-phased RIS vectors, with eps_k = 0 (lambda = inf),
        silenced sensors (t_hat_k = 0) and a zero entry of h_hat among the
        cases."""
        N = 5
        config = SystemConfig(K=K, N=N, P=2.0, noise_var=0.3)
        seen = set()
        for trial in range(40):
            h_hat = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
            h_hat[0, trial % N] = 0.0
            a = np.abs(h_hat).sum(axis=1)
            # a ratio >= 1 silences the sensor
            eps = rng.uniform(0.0, 1.5, K) * a / np.sqrt(N)
            eps[rng.uniform(size=K) < 0.3] = 0.0
            design = cophased_design(config, h_hat, eps)
            t_hat = design.t_hat
            cert = certificate(design, a, eps, N, config.noise_var)
            for k in range(K):
                rho = t_hat[k] * np.vdot(h_hat[k], design.v[k]) - 1.0
                if eps[k] == 0:
                    assert cert.lambdas[k] == np.inf
                else:
                    lam = t_hat[k] ** 2 * N + np.sqrt(N) / eps[k] * t_hat[k] * abs(rho)
                    assert cert.lambdas[k] == pytest.approx(lam, rel=1e-12)
            np.testing.assert_allclose(
                cert.terms,
                ref_term(t_hat, h_hat, design.v, eps),
                rtol=1e-12,
                atol=1e-14,
            )
            want = worst_case_objective(design, h_hat, eps, config.noise_var)
            assert cert.total == pytest.approx(want, rel=1e-12, abs=1e-14)
            seen.update(
                name
                for name, hit in (
                    ("eps = 0", (eps == 0).any()),
                    ("eps > 0", (eps > 0).any()),
                    ("silenced", (t_hat == 0).any()),
                    ("live", (t_hat != 0).any()),
                )
                if hit
            )
        assert seen == {"eps = 0", "eps > 0", "silenced", "live"}

    def test_shape_mismatch(self):
        design = Design(m=1.0, t=np.ones(3))
        with pytest.raises(DimensionMismatch):
            certificate(design, np.ones(2), np.zeros(2), 4, 0.1)
