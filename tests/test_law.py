"""The law of the scalars a sweep scores, drawn by the function run_sweep
calls (model.draw_scalars, through the sweep's own seeding), against
oracles.model_sampler, which draws the system model as written.

The pins (goldens, figure hashes, perfbench references) only say that a
draw did not change. A change that means to draw other numbers must still
draw the same law, and this test is what says so: on each grid point it
compares six statistics of the two samples by the two-sample
Kolmogorov-Smirnov statistic, at a family level of 1e-3 split over the
grid by Bonferroni, and their means within 4.5 combined standard errors.
The grid, trials, sensors, seeds and bounds were fixed before the first
run."""

import itertools

import numpy as np
import pytest
from oracles import model_sampler

from aircomp_ris import model
from aircomp_ris.experiments import seed_words, trial_generators

N_VALUES = (1, 2, 16, 64)
S_VALUES = (0.0, 0.4, 0.8)
SAMPLINGS = ("surface", "interior")
GRID = list(itertools.product(N_VALUES, S_VALUES, SAMPLINGS))
# sensors per trial and trials per sample: 10000 i.i.d. sensors a side
K, TRIALS = 10, 1000
SEED = 14
SIGMA_H = 0.5  # E|h_i|^2 = 1/4 for h = g * conj(r) of CN(0, 1/2) segments
STATISTICS = (
    "a/(N sigma_h)",
    "eps/(sqrt(N) sigma_h)",
    "a/eps",
    "(a + Re c)/a",
    "|c|/eps",
    "||delta||/eps",
)
# one test a statistic and grid point; at s = 0 only a/(N sigma_h) has a law
TESTS = sum(1 if s == 0 else len(STATISTICS) for _, s, _ in GRID)
ALPHA = 1e-3 / TESTS
MEAN_SE = 4.5


def statistics(N, s, a, eps, c, delta_norms):
    """Each statistic's sample, rounded to 1e-9: a law with an atom (as
    ||delta|| = eps on the sphere) then compares by the atom, not by how
    each draw rounds next to it."""
    values = [a / (N * SIGMA_H)]
    if s > 0:
        values += [
            eps / (np.sqrt(N) * SIGMA_H),
            a / eps,
            (a + c.real) / a,
            np.abs(c) / eps,
            delta_norms / eps,
        ]
    return [np.round(np.ravel(x), 9) for x in values]


def ks_statistic(x, y):
    """sup |F_x - F_y| of the two empirical CDFs."""
    x, y = np.sort(x), np.sort(y)
    points = np.concatenate([x, y])
    fx = np.searchsorted(x, points, side="right") / len(x)
    fy = np.searchsorted(y, points, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def ks_rejects(d, n, m, alpha):
    """Whether D = d of samples of n and m rejects at level alpha, by the
    Kolmogorov tail P(sqrt(nm/(n+m)) D > x) <= 2 exp(-2 x^2)."""
    x = d * np.sqrt(n * m / (n + m))
    return 2 * np.exp(-2 * x * x) < alpha


@pytest.mark.parametrize("N, s, sampling", GRID)
def test_sweep_draw_has_the_model_law(N, s, sampling):
    config = model.SystemConfig(
        K=K,
        N=N,
        P=1.0,
        noise_var=1.0,
        s=s,
        eval_mode="realized",
        error_sampling=sampling,
    )
    point = GRID.index((N, s, sampling))
    words = seed_words([(SEED, 0, 0, point)], np.arange(TRIALS))[0]
    drawn = model.draw_scalars(config, trial_generators(words))
    sampled = model_sampler(config, np.random.default_rng((SEED, 1, point)), TRIALS)
    failures = []
    pairs = zip(STATISTICS, statistics(N, s, *drawn), statistics(N, s, *sampled))
    for name, x, y in pairs:
        d = ks_statistic(x, y)
        if ks_rejects(d, len(x), len(y), ALPHA):
            failures.append(f"{name}: KS D = {d:.4f}")
        se = np.sqrt(np.var(x) / len(x) + np.var(y) / len(y))
        gap = abs(np.mean(x) - np.mean(y))
        if gap > MEAN_SE * se:
            failures.append(f"{name}: means differ by {gap:.3g}, SE {se:.3g}")
    assert failures == []
