import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    channel_seed,
    expected_nmse,
    large_n_nmse,
    ref_loop,
    reference_run_sweep,
    run_trial,
    seeded_rng,
)

from aircomp_ris.errors import ConfigError
from aircomp_ris.experiments import (
    ALGORITHM1_PASSES,
    SweepSpec,
    _design_and_score,
    design_for_scheme,
    run_sweep,
    seed_words,
    snr_to_noise_var,
    trial_generators,
    trials_per_block,
)
from aircomp_ris.model import SystemConfig, draw_scalars, synthesize_instance


def base_config(**kw):
    defaults = dict(K=3, N=4, P=10.0, noise_var=1.0, s=0.4)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestSnrNmse:
    def test_snr_zero(self):
        assert snr_to_noise_var(0.0, 10.0) == pytest.approx(10.0)

    def test_snr_ten(self):
        assert snr_to_noise_var(10.0, 10.0) == pytest.approx(1.0)

    def test_overflowing_noise_variance_rejected(self):
        with pytest.raises(ConfigError, match="^SNR -4000.0 dB: noise variance overflows$"):
            snr_to_noise_var(-4000.0, 10.0)

    def test_snr_twenty(self):
        assert snr_to_noise_var(20.0, 10.0) == pytest.approx(0.1)


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
            w = run_trial(cfg_w, "robust_exact", seed)
            r = run_trial(cfg_r, "robust_exact", seed)
            assert w >= r - 1e-12

    def test_zero_s_realized_equals_nominal(self):
        # with s = 0 the estimate is the true channel
        cfg = base_config(s=0.0, eval_mode="realized")
        val = run_trial(cfg, "nonrobust", (4, 2))
        assert val >= 0

    def test_shared_channel_seed_across_schemes(self):
        cfg = base_config()
        seed = channel_seed(0, "snr", 0, 0, 5)
        # (master seed, kind code, value index, s index, channel stream, trial)
        assert seed == (0, 0, 0, 0, 4, 5)
        robust = run_trial(cfg, "multistart", seed)
        nonrob = run_trial(cfg, "nonrobust", seed)
        # multistart is the global optimum, so on shared channels it can
        # never do worse under the worst-case metric
        assert robust <= nonrob + 1e-12


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
        assert rec.nmse_mean == run_trial(cfg, "nonrobust", seed)
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
        with pytest.raises(ConfigError):
            SweepSpec(
                kind="bad",
                values=[1],
                trials=1,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
            )
        with pytest.raises(ConfigError):
            SweepSpec(
                kind="snr",
                values=[5.0, 5.0],
                trials=1,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
            )
        with pytest.raises(ConfigError):
            SweepSpec(
                kind="snr",
                values=[5.0],
                trials=0,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
            )
        with pytest.raises(ConfigError):
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


def test_one_synthesis_per_trial_block_shared_by_schemes(monkeypatch):
    """One synthesis per (cell, block), each cell drawn with the config the
    spec built for it; then, per stack of cells of equal K and block, one
    design and one score per scheme, on the cells' draws stacked along a
    leading cell axis."""
    import aircomp_ris.experiments as experiments

    events = []
    real = {
        name: getattr(experiments, name)
        for name in (
            "draw_scalars",
            "design_for_scheme",
            "worst_case_objective",
            "mse_at_error",
        )
    }

    def counting_synth(config, rngs):
        draw = real["draw_scalars"](config, rngs)
        events.append(("synth", config, len(rngs), draw))
        return draw

    def recording_design(cells, scheme, draw):
        design = real["design_for_scheme"](cells, scheme, draw)
        events.append(("design", scheme, cells, draw, design))
        return design

    def recording_score(name):
        def score(design, channels, *args, **kwargs):
            events.append(("score", name, channels, design))
            return real[name](design, channels, *args, **kwargs)

        return score

    monkeypatch.setattr(experiments, "draw_scalars", counting_synth)
    monkeypatch.setattr(experiments, "design_for_scheme", recording_design)
    for name in ("worst_case_objective", "mse_at_error"):
        monkeypatch.setattr(experiments, name, recording_score(name))
    # (kind, values, stacks): each stack's cell indices and block sizes. 512
    # sensors put two trials in a block, so 5 trials take 3 blocks; an SNR
    # sweep stacks all its cells, a K sweep each value's
    sweeps = [
        ("snr", [0.0, 10.0], [([0, 1, 2, 3], [2, 2, 1])]),
        ("k", [3, 512], [([0, 1], [5]), ([2, 3], [2, 2, 1])]),
    ]
    for eval_mode, score in (
        ("worst", "worst_case_objective"),
        ("realized", "mse_at_error"),
    ):
        base = base_config(K=512, N=4, eval_mode=eval_mode)
        assert trials_per_block(base) == 2
        for kind, values, stacks in sweeps:
            events.clear()
            spec = SweepSpec(
                kind=kind,
                values=values,
                trials=5,
                schemes=["multistart", "nonrobust", "robust_exact"],
                base=base,
                master_seed=2,
                s_values=[0.2, 0.4],
            )
            run_sweep(spec)
            # the spec's configs are its cells', in (value, s) order
            want = [
                (snr_to_noise_var(v, base.P), base.K, s)
                if kind == "snr"
                else (base.noise_var, v, s)
                for v in values
                for s in spec.s_values
            ]
            assert [(c.noise_var, c.K, c.s) for c in spec.configs] == want
            at = 0
            for cells, sizes in stacks:
                configs = [spec.configs[i] for i in cells]
                K = configs[0].K
                for size in sizes:
                    synths = events[at : at + len(cells)]
                    at += len(cells)
                    for config, (tag, drawn_with, n, draw) in zip(configs, synths):
                        assert (tag, n) == ("synth", size)
                        assert drawn_with is config  # built once, by the spec
                        assert len(draw) == (2 if eval_mode == "worst" else 4)
                        assert {np.shape(x) for x in draw} == {(size, K)}
                    for scheme in spec.schemes:
                        design_event, score_event = events[at : at + 2]
                        at += 2
                        assert design_event[:2] == ("design", scheme)
                        stacked, draw = design_event[2], design_event[3]
                        for i, part in enumerate(draw):
                            want = np.stack([synth[3][i] for synth in synths])
                            assert part.tobytes() == want.tobytes()
                            assert part.shape == (len(cells), size, K)
                        assert stacked.noise_var.tolist() == [
                            [config.noise_var] for config in configs
                        ]
                        assert stacked.N.tolist() == [[[c.N]] for c in configs]
                        assert score_event[:2] == ("score", score)
                        assert score_event[2] is draw[0]
                        assert score_event[3] is design_event[4]
            assert at == len(events)


def test_stacked_rows_stay_within_the_cap(monkeypatch):
    """A sweep of more cells than one call may hold splits them: no design
    call sees more than _STACK_ROWS sensor rows, and no seed_words call
    hashes more than _BLOCK_ROWS seeds. At one trial a cell, the seed cap
    stacks 1024 cells, so 3000 cells take three stacks."""
    import aircomp_ris.experiments as experiments

    rows, seeds = [], []
    real_design, real_seed_words = experiments.design_for_scheme, experiments.seed_words

    def recording_design(cells, scheme, draw):
        rows.append(draw[0].size)
        return real_design(cells, scheme, draw)

    def recording_seed_words(prefixes, trials):
        seeds.append(len(prefixes) * len(trials))
        return real_seed_words(prefixes, trials)

    monkeypatch.setattr(experiments, "design_for_scheme", recording_design)
    monkeypatch.setattr(experiments, "seed_words", recording_seed_words)
    spec = SweepSpec(
        kind="snr",
        values=[i / 100 for i in range(3000)],
        trials=1,
        schemes=["nonrobust"],
        base=base_config(K=10, N=2),
        master_seed=5,
    )
    assert len(run_sweep(spec)) == 3000
    assert sum(rows) == 3000 * 10 and len(rows) == 3
    assert max(rows) <= experiments._STACK_ROWS
    assert sum(seeds) == 3000 and max(seeds) <= experiments._BLOCK_ROWS


@pytest.mark.parametrize(
    "kind, values, base, s_values",
    [
        # one block of 7 trials per cell
        ("snr", [0.0, 10.0], base_config(K=10, N=16), [0.2, 0.4]),
        # interior errors, realized mode: 12 sensors span two draw chunks,
        # and 400 sensors put two trials in a block (blocks of 2, 2, 2, 1)
        (
            "k",
            [1, 12, 400],
            base_config(N=256, eval_mode="realized", error_sampling="interior"),
            None,
        ),
    ],
)
def test_block_size_cannot_change_an_output(monkeypatch, kind, values, base, s_values):
    import aircomp_ris.experiments as experiments
    from aircomp_ris.cli import records_to_csv

    spec = SweepSpec(
        kind=kind,
        values=values,
        trials=7,
        schemes=["multistart", "nonrobust"],
        base=base,
        master_seed=11,
        s_values=s_values,
    )
    blocked = records_to_csv(run_sweep(spec))
    monkeypatch.setattr(experiments, "trials_per_block", lambda config: 1)
    assert records_to_csv(run_sweep(spec)) == blocked


@pytest.mark.parametrize("master_seed", [2**32, 2**70 + 5])
@pytest.mark.parametrize(
    "eval_mode, sampling", [("worst", "surface"), ("realized", "interior")]
)
@pytest.mark.parametrize(
    "kind, values", [("snr", [-3, 0.0, 12.5]), ("n", [1, 4, 9]), ("k", [1, 3, 512])]
)
def test_csv_bytes_match_the_per_cell_loop(kind, values, eval_mode, sampling, master_seed):
    """Stacking cells changes no byte of a sweep's CSV. 512 sensors put two
    trials in a block, so 5 trials take 3 blocks; an s = 0 cell, which
    draws no errors, sits next to s > 0 cells."""
    from aircomp_ris.cli import records_to_csv

    spec = SweepSpec(
        kind=kind,
        values=values,
        trials=5,
        schemes=["robust_exact", "nonrobust", "multistart"],
        base=base_config(K=512, N=4, eval_mode=eval_mode, error_sampling=sampling),
        master_seed=master_seed,
        s_values=[0.0, 0.3, 0.6],
    )
    assert trials_per_block(spec.configs[-1]) == 2
    want = records_to_csv(reference_run_sweep(spec))
    assert records_to_csv(run_sweep(spec)) == want


def _peak_kb(fn, spec):
    tracemalloc.start()
    try:
        fn(spec)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "trials, schemes",
    [(5000, ["robust_exact", "nonrobust", "multistart"]), (1024, ["nonrobust"])],
)
def test_memory_of_a_many_trial_sweep_stays_near_the_per_cell_loop(trials, schemes):
    """A 20-value, K = N = 1 SNR sweep of many trials peaks within 1.5x of
    the per-cell loop. 5000 trials of 3 schemes fill a stack's _STACK_ROWS
    NMSEs with one cell; 1024 trials of 1 scheme fill a block's _BLOCK_ROWS
    seeds with one cell. The loop holds one cell at a time, so its peak on
    the first two values is its peak on all twenty."""
    spec = SweepSpec(
        kind="snr",
        values=list(range(20)),
        trials=trials,
        schemes=schemes,
        base=base_config(K=1, N=1),
        master_seed=3,
    )
    for fn in (run_sweep, reference_run_sweep):  # one-time imports and caches
        fn(replace(spec, trials=2))
    loop_kb = _peak_kb(reference_run_sweep, replace(spec, values=spec.values[:2]))
    assert _peak_kb(run_sweep, spec) <= 1.5 * loop_kb


@pytest.mark.parametrize(
    "eval_mode, sampling",
    [
        ("worst", "surface"),
        ("realized", "surface"),
        ("worst", "interior"),
        ("realized", "interior"),
    ],
    ids=["worst", "realized", "worst-interior", "realized-interior"],
)
def test_sweep_means_match_the_quadrature_at_one_element(eval_mode, sampling):
    """At N = 1, each row's mean lies within 4.5 standard errors
    (nmse_std / sqrt(trials)) of expected_nmse, a quadrature over the model
    that shares no code with synthesis. The trials, seed and bound were
    fixed before the results were seen, with surface errors; interior
    errors reuse them."""
    spec = SweepSpec(
        kind="snr",
        values=[0.0, 10.0],
        trials=2000,
        schemes=["multistart", "nonrobust"],
        base=base_config(K=100, N=1, eval_mode=eval_mode, error_sampling=sampling),
        master_seed=1,
        s_values=[0.0, 0.4],
    )
    records = run_sweep(spec)
    assert len(records) == 8
    for rec in records:
        scheme, s = rec.scheme.split("|s=")
        want = expected_nmse(
            eval_mode, float(s), rec.value, spec.base.P, scheme, sampling
        )
        z = (rec.nmse_mean - want) / (rec.nmse_std / np.sqrt(rec.trials))
        assert abs(z) <= 4.5, (rec, want, z)


@pytest.mark.parametrize("sampling", ["surface", "interior"])
@pytest.mark.parametrize(
    "eval_mode, trend", [("worst", 1.0), ("realized", 5.0)], ids=["worst", "realized"]
)
def test_sweep_means_approach_the_large_n_limit(eval_mode, trend, sampling):
    """At N = 64, 256 and 1024, each row's mean lies within trend/N of
    large_n_nmse, relative, plus 4.5 standard errors: the gap falls as 1/N,
    and trend is above the largest N * gap measured on three other seeds,
    0.86 worst and 2.6 realized. The trials, seed and bound were fixed
    before the first run."""
    spec = SweepSpec(
        kind="n",
        values=[64, 256, 1024],
        trials=200,
        schemes=["multistart", "nonrobust"],
        base=base_config(
            K=10, N=64, P=100.0, eval_mode=eval_mode, error_sampling=sampling
        ),
        master_seed=31,
        s_values=[0.4],
    )
    want = large_n_nmse(eval_mode, 0.4)
    records = run_sweep(spec)
    assert len(records) == 6
    for rec in records:
        bound = want * trend / rec.value + 4.5 * rec.nmse_std / np.sqrt(rec.trials)
        assert abs(rec.nmse_mean - want) <= bound, (rec, want, bound)


@pytest.mark.parametrize("sampling", ["surface", "interior"])
def test_realized_gap_is_the_silenced_sensors_at_zero_noise(sampling):
    """At sigma^2 = 0 both schemes set t_hat_k = 1/a_k on every live sensor
    (a_k > eps_k sqrt(N)); multistart silences the rest, where nonrobust
    leaves the error's |c_k|^2/a_k^2, so each silenced sensor costs
    1 - |c_k|^2/a_k^2 of realized MSE, and nothing else differs. The trials
    and seed were fixed before the first run."""
    config = base_config(
        K=10, N=16, s=0.8, noise_var=0.0, eval_mode="realized", error_sampling=sampling
    )
    words = seed_words([(11, 0, 0, 0, 4)], np.arange(4000))[0]
    draw = draw_scalars(config, trial_generators(words))
    a, eps, c, _ = draw
    live = a > eps * np.sqrt(config.N)
    robust, plain = (
        design_for_scheme(config, scheme, draw).t_hat
        for scheme in ("multistart", "nonrobust")
    )
    assert np.all(np.abs(robust - plain)[live] <= 4 * np.spacing(plain[live]))
    gap = _design_and_score(config, "multistart", draw) - _design_and_score(
        config, "nonrobust", draw
    )
    cost = np.where(live, 0.0, 1.0 - np.abs(c) ** 2 / a**2).sum(axis=-1)
    assert np.max(np.abs(gap - cost / config.K)) <= 1e-14
    assert not live.all()


@pytest.mark.parametrize("scheme", ["multistart", "nonrobust", "robust_exact"])
@pytest.mark.parametrize(
    "eval_mode, sampling", [("worst", "surface"), ("realized", "interior")]
)
def test_block_scores_match_single_trials(scheme, eval_mode, sampling):
    config = base_config(K=5, N=6, eval_mode=eval_mode, error_sampling=sampling)
    seeds = [channel_seed(7, "snr", 0, 0, trial) for trial in range(9)]
    rngs = [seeded_rng(seed) for seed in seeds]
    draw = draw_scalars(config, rngs)
    values = _design_and_score(config, scheme, draw)
    for t, seed in enumerate(seeds):
        assert values[t] == run_trial(config, scheme, seed)


def test_unknown_scheme_rejected():
    """A name outside SCHEMES is refused, not designed at the robust radius."""
    config = base_config()
    draw = draw_scalars(config, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="^unknown scheme 'mmse'$"):
        design_for_scheme(config, "mmse", draw)


# a sweep cell's (master_seed, kind, value index, s index, stream)
SEED_PREFIXES = [(master, 0, 1, 2, 4) for master in (0, 2**32 - 1, 2**32, 2**70 + 5)]
SEED_TRIALS = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 7, 2**63 - 2]


@pytest.mark.parametrize("prefix", SEED_PREFIXES)
def test_seed_words_equal_seed_sequence(prefix):
    # the prefix stacked with other cells of a sweep at its master seed
    master = prefix[0]
    cells = [(1, 0, 0), (2, 7, 3), (0, 2**32 - 1, 1)]
    prefixes = [prefix] + [(master, *cell, 4) for cell in cells]
    words = seed_words(prefixes, SEED_TRIALS)
    assert words.shape == (len(prefixes), len(SEED_TRIALS), 4)
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    for cell, rows in zip(prefixes, words):
        for trial, row, gen in zip(SEED_TRIALS, rows, trial_generators(rows)):
            seed = (*cell, trial)
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tobytes() == want.tobytes(), seed
            assert gen.standard_normal(8).tobytes() == (
                seeded_rng(seed).standard_normal(8).tobytes()
            ), seed


# fewer than the pool's 4 32-bit words: a trial's words would land in it
@pytest.mark.parametrize("prefix", [(), (4,), (1, 2), (2**40, 3), (1, 2, 3)])
def test_seed_words_reject_short_prefixes(prefix):
    with pytest.raises(ValueError):
        seed_words([prefix], SEED_TRIALS)


def test_seed_words_reject_prefixes_of_unequal_word_counts():
    """A trial's words take the hash steps after its prefix's words, so
    prefixes that fill different numbers of pool words cannot share a
    pass; each is served alone, and no prefixes at all is rejected too."""
    prefixes = [(2**32 - 1, 0, 0, 0, 4), (2**32, 0, 0, 0, 4), (2**64, 0, 0, 0, 4)]
    for pair in itertools.combinations(prefixes, 2):
        with pytest.raises(ValueError, match="pool words"):
            seed_words(list(pair), [0, 1])
    for prefix in prefixes:
        want = np.random.SeedSequence((*prefix, 1)).generate_state(4, np.uint64)
        assert seed_words([prefix], [0, 1])[0, 1].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="pool words"):
        seed_words([], [0])


def test_seed_words_span_hash_passes():
    prefix = (11, 2, 0, 1, 4)
    words = seed_words([prefix], np.arange(2**14 + 4))[0]
    for trial in (0, 2**14 - 1, 2**14, 2**14 + 3):
        want = np.random.SeedSequence((*prefix, trial)).generate_state(4, np.uint64)
        assert words[trial].tobytes() == want.tobytes(), trial


def test_seed_words_reject_negative_entries():
    with pytest.raises(ValueError):
        seed_words([(-1, 0, 0, 0, 4)], [0])


def test_seeded_bit_generator_serves_only_pcg64_state():
    gen = trial_generators(seed_words([(3, 0, 0, 0, 4)], [0])[0])[0]
    seq = gen.bit_generator.seed_seq
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint32)
    with pytest.raises(ValueError):
        seq.generate_state(2, np.uint64)


def test_robust_exact_cell_is_multistart_with_algorithm1_passes():
    spec = SweepSpec(
        kind="snr",
        values=[0.0, 20.0],
        trials=7,
        schemes=["multistart", "robust_exact"],
        base=base_config(),
        master_seed=4,
        s_values=[0.0, 0.4, 2.0],
    )
    cells = {(r.value, r.scheme): r for r in run_sweep(spec)}
    for value in spec.values:
        for s in spec.s_values:
            closed = cells[value, f"multistart|s={s:g}"]
            exact = cells[value, f"robust_exact|s={s:g}"]
            assert (exact.nmse_mean, exact.nmse_std) == (
                closed.nmse_mean,
                closed.nmse_std,
            )
            assert (exact.mean_iters, closed.mean_iters) == (2.0, 0.0)


def test_algorithm1_passes_pinned_by_reference_loop():
    rng = np.random.default_rng(17)
    for s in (0.0, 0.3, 0.8, 3.0):
        config = base_config(K=4, N=5, s=s, noise_var=float(rng.uniform(0.0, 2.0)))
        h_hat, eps = synthesize_instance(config, rng)
        _, _, objectives = ref_loop(config, h_hat, eps)
        assert len(objectives) == ALGORITHM1_PASSES == 2


def test_non_finite_sweep_values_rejected():
    for values, s_values in (([float("inf")], None), ([1.0], [float("nan")])):
        with pytest.raises(ConfigError):
            SweepSpec(
                kind="snr",
                values=values,
                trials=1,
                schemes=["nonrobust"],
                base=base_config(),
                master_seed=0,
                s_values=s_values,
            )


def test_spec_lays_out_cells_labels_and_configs():
    spec = SweepSpec(
        kind="k",
        values=[1, 2],
        trials=1,
        schemes=["multistart", "nonrobust"],
        base=base_config(),
        master_seed=0,
    )
    assert spec.s_values == [0.4]
    assert spec.cells == [(1, 0.4), (2, 0.4)]
    assert spec.labels == [["multistart", "nonrobust"]] * 2
    spec = replace(spec, s_values=[0.0, 0.5])
    assert spec.cells == [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)]
    assert spec.labels == [
        ["multistart|s=0", "nonrobust|s=0"],
        ["multistart|s=0.5", "nonrobust|s=0.5"],
    ] * 2
    assert [(c.K, c.s) for c in spec.configs] == spec.cells


def test_size_sweep_values_stored_as_ints():
    spec = SweepSpec(
        kind="n",
        values=[2.0, 4.0],
        trials=1,
        schemes=["nonrobust"],
        base=base_config(),
        master_seed=0,
    )
    assert spec.values == [2, 4]
    assert all(type(v) is int for v in spec.values)
