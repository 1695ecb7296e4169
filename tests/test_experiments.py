import numpy as np
import pytest

from aircomp_ris.experiments import (
    AggregateRecord,
    SweepSpec,
    channel_seed,
    nmse,
    run_sweep,
    run_trial,
    snr_to_noise_var,
)
from aircomp_ris.model import SystemConfig


def base_config(**kw):
    defaults = dict(K=3, N=4, P=10.0, noise_var=1.0, s=0.4)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestSnrNmse:
    def test_snr_zero(self):
        assert snr_to_noise_var(0.0, 10.0) == pytest.approx(10.0)

    def test_snr_ten(self):
        assert snr_to_noise_var(10.0, 10.0) == pytest.approx(1.0)

    def test_snr_twenty(self):
        assert snr_to_noise_var(20.0, 10.0) == pytest.approx(0.1)

    def test_nmse(self):
        assert nmse(2.5, 10) == pytest.approx(0.25)
        assert nmse(0.0, 4) == 0
        assert nmse(1.7, 1) == 1.7


class TestRunTrial:
    def test_deterministic(self):
        cfg = base_config()
        a = run_trial(cfg, "robust_exact", (1, 2, 3))
        b = run_trial(cfg, "robust_exact", (1, 2, 3))
        assert a == b

    def test_worst_dominates_realized(self):
        cfg_w = base_config(eval_mode="worst")
        cfg_r = base_config(eval_mode="realized")
        for trial in range(10):
            seed = (9, trial)
            w, _ = run_trial(cfg_w, "robust_exact", seed)
            r, _ = run_trial(cfg_r, "robust_exact", seed)
            assert w >= r - 1e-12

    def test_zero_s_realized_equals_nominal(self):
        # with s = 0 the estimate is the true channel
        cfg = base_config(s=0.0, eval_mode="realized")
        val, _ = run_trial(cfg, "nonrobust", (4, 2))
        assert val >= 0

    def test_shared_channel_seed_across_schemes(self):
        cfg = base_config()
        seed = channel_seed(0, "snr", 0, 0, 5)
        # (master seed, kind code, value index, s index, channel stream, trial)
        assert seed == (0, 0, 0, 0, 4, 5)
        robust, _ = run_trial(cfg, "multistart", seed)
        nonrob, _ = run_trial(cfg, "nonrobust", seed)
        # multistart is the global optimum, so on shared channels it can
        # never do worse under the worst-case metric
        assert robust <= nonrob + 1e-12

    def test_returns_iters(self):
        cfg = base_config()
        val, iters = run_trial(cfg, "robust_exact", (0,))
        assert val >= 0 and iters == 2


class TestRunSweep:
    def test_single_cell(self):
        spec = SweepSpec(
            kind="snr",
            values=[10.0],
            trials=1,
            schemes=["nonrobust"],
            base=base_config(),
            master_seed=3,
        )
        recs = run_sweep(spec)
        assert len(recs) == 1
        rec = recs[0]
        cfg = base_config(noise_var=snr_to_noise_var(10.0, 10.0))
        seed = channel_seed(3, "snr", 0, 0, 0)
        assert rec.nmse_mean == run_trial(cfg, "nonrobust", seed)[0]
        assert rec.nmse_std == 0.0
        assert rec.trials == 1

    def test_record_grid_shape(self):
        spec = SweepSpec(
            kind="snr",
            values=[0.0, 5.0, 10.0, 15.0, 20.0],
            trials=2,
            schemes=["multistart", "nonrobust"],
            base=base_config(K=4, N=4),
            master_seed=1,
            s_values=[0.4, 0.6],
        )
        recs = run_sweep(spec)
        assert len(recs) == 5 * 2 * 2
        labels = {r.scheme for r in recs}
        assert labels == {
            "multistart|s=0.4",
            "multistart|s=0.6",
            "nonrobust|s=0.4",
            "nonrobust|s=0.6",
        }
        # ordered by (value, scheme)
        keys = [(r.value, r.scheme) for r in recs]
        assert keys == sorted(keys)

    def test_sweep_determinism(self):
        spec = SweepSpec(
            kind="n",
            values=[2, 4],
            trials=3,
            schemes=["robust_exact"],
            base=base_config(),
            master_seed=8,
        )
        r1 = run_sweep(spec)
        r2 = run_sweep(spec)
        assert r1 == r2

    def test_k_sweep_overrides_K(self):
        spec = SweepSpec(
            kind="k",
            values=[1, 2],
            trials=1,
            schemes=["nonrobust"],
            base=base_config(),
            master_seed=0,
        )
        recs = run_sweep(spec)
        assert [r.value for r in recs] == [1, 2]

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SweepSpec(
                kind="bad",
                values=[1],
                trials=1,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
            )
        with pytest.raises(ValueError):
            SweepSpec(
                kind="snr",
                values=[5.0, 5.0],
                trials=1,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
            )
        with pytest.raises(ValueError):
            SweepSpec(
                kind="snr",
                values=[5.0],
                trials=0,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
            )
        with pytest.raises(ValueError):
            SweepSpec(
                kind="snr",
                values=[5.0],
                trials=1,
                schemes=["typo"],
                base=base_config(),
                master_seed=0,
            )


# (value, scheme label, nmse_mean, nmse_std, mean_iters) recorded with the
# per-sensor loop implementation; the vectorised code must reproduce them.
GOLDEN_SNR = [
    (0.0, "multistart|s=0", 0.3477277458317682, 0.06633466734838742, 0.0),
    (0.0, "multistart|s=0.5", 0.5285781665891226, 0.05191685532513472, 0.0),
    (0.0, "nonrobust|s=0", 0.3477277458317682, 0.06633466734838742, 0.0),
    (0.0, "nonrobust|s=0.5", 0.5443054737599274, 0.04450694747497382, 0.0),
    (0.0, "robust_exact|s=0", 0.3477277458317682, 0.0663346673483874, 2.0),
    (0.0, "robust_exact|s=0.5", 0.5285781665891226, 0.05191685532513472, 2.0),
    (10.0, "multistart|s=0", 0.09937211954428206, 0.04339790379472357, 0.0),
    (10.0, "multistart|s=0.5", 0.2821500106055122, 0.023498549970739233, 0.0),
    (10.0, "nonrobust|s=0", 0.09937211954428206, 0.04339790379472357, 0.0),
    (10.0, "nonrobust|s=0.5", 0.2967785155926476, 0.024182595446902357, 0.0),
    (10.0, "robust_exact|s=0", 0.09937211954428206, 0.04339790379472357, 2.0),
    (10.0, "robust_exact|s=0.5", 0.2821500106055122, 0.023498549970739233, 2.0),
    (20.0, "multistart|s=0", 0.012157200854316442, 0.006996364899535695, 0.0),
    (20.0, "multistart|s=0.5", 0.23932367905886734, 0.023549223327069848, 0.0),
    (20.0, "nonrobust|s=0", 0.012157200854316442, 0.006996364899535695, 0.0),
    (20.0, "nonrobust|s=0.5", 0.24130791253411124, 0.02302450696822623, 0.0),
    (20.0, "robust_exact|s=0", 0.012157200854316442, 0.006996364899535695, 2.0),
    (20.0, "robust_exact|s=0.5", 0.23932367905886734, 0.023549223327069848, 2.0),
]

GOLDEN_K = [
    (1, "nonrobust", 0.11069788343765763, 0.03879686419020824, 0.0),
    (1, "robust_exact", 0.11074638854201808, 0.0465089738104275, 2.0),
    (3, "nonrobust", 0.08627292560184951, 0.014239889514908368, 0.0),
    (3, "robust_exact", 0.0852254381517958, 0.01732506030310699, 2.0),
]


def golden_snr_spec():
    return SweepSpec(
        kind="snr",
        values=[0.0, 10.0, 20.0],
        trials=3,
        schemes=["multistart", "nonrobust", "robust_exact"],
        base=SystemConfig(K=3, N=4, P=10.0, noise_var=1.0),
        master_seed=11,
        s_values=[0.0, 0.5],
    )


def golden_k_spec():
    return SweepSpec(
        kind="k",
        values=[1, 3],
        trials=3,
        schemes=["robust_exact", "nonrobust"],
        base=base_config(
            K=2, N=5, s=0.4, eval_mode="realized", error_sampling="interior"
        ),
        master_seed=4,
    )


class TestGoldenSweeps:
    @pytest.mark.parametrize(
        "spec, golden",
        [(golden_snr_spec(), GOLDEN_SNR), (golden_k_spec(), GOLDEN_K)],
        ids=["snr", "k_realized_interior"],
    )
    def test_matches_recorded_results(self, spec, golden):
        recs = run_sweep(spec)
        assert [(r.value, r.scheme) for r in recs] == [g[:2] for g in golden]
        for rec, (_, _, mean, std, iters) in zip(recs, golden):
            assert rec.nmse_mean == pytest.approx(mean, rel=1e-12, abs=0)
            assert rec.nmse_std == pytest.approx(std, rel=1e-12, abs=0)
            assert rec.mean_iters == iters
            assert rec.trials == spec.trials


def test_one_synthesis_per_trial_shared_by_schemes(monkeypatch):
    import aircomp_ris.experiments as experiments

    synth_calls = []
    designs = []
    real_synth = experiments.synthesize_instance
    real_design = experiments.design_for_scheme

    def counting_synth(config, rng):
        synth_calls.append((config.noise_var, config.s))
        return real_synth(config, rng)

    def recording_design(config, scheme, h_hat_set, eps_set):
        designs.append((config.noise_var, config.s, scheme))
        return real_design(config, scheme, h_hat_set, eps_set)

    monkeypatch.setattr(experiments, "synthesize_instance", counting_synth)
    monkeypatch.setattr(experiments, "design_for_scheme", recording_design)
    spec = SweepSpec(
        kind="snr",
        values=[0.0, 10.0],
        trials=3,
        schemes=["multistart", "nonrobust", "robust_exact"],
        base=base_config(),
        master_seed=2,
        s_values=[0.2, 0.4],
    )
    run_sweep(spec)
    cells = len(spec.values) * len(spec.s_values)
    assert len(synth_calls) == cells * spec.trials
    # every scheme is designed on each trial's one draw, right after it
    assert designs == [
        (*cell, scheme) for cell in synth_calls for scheme in spec.schemes
    ]


def test_non_finite_sweep_values_rejected():
    for values, s_values in (([float("inf")], None), ([1.0], [float("nan")])):
        with pytest.raises(ValueError):
            SweepSpec(
                kind="snr",
                values=values,
                trials=1,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
                s_values=s_values,
            )
