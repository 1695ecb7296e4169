"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import json
import time

import numpy as np
import pytest

from oracles import (
    RISDesign,
    channel_seed,
    cophased_design,
    ref_loop_design,
    run_trial,
    worst_case_objective,
)

from aircomp_ris.cli import main
from aircomp_ris.experiments import snr_to_noise_var
from aircomp_ris.model import SystemConfig, synthesize_instance
from aircomp_ris.optimizer import t_exact
from aircomp_ris.verify import run_suite

MASTER_SEED = 20240823
TRIALS = 200


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num}: {name} {detail}".rstrip())
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def _mean_se(x):
    x = np.asarray(x)
    return float(np.mean(x)), float(np.std(x) / np.sqrt(len(x)))


def _non_increasing_within_2se(means, ses):
    for i in range(len(means) - 1):
        slack = 2.0 * np.hypot(ses[i], ses[i + 1])
        if means[i + 1] > means[i] + slack:
            return False
    return True


def _suite_criterion(num, name, suite, trials, seed, bound_s):
    """Criteria 1-3: one `aircomp verify` suite on the shipped design path,
    within its tolerances and an elapsed-time bound."""
    t0 = time.time()
    rep = run_suite(suite, trials, seed)
    elapsed = time.time() - t0
    report(
        num,
        name,
        rep.passed and elapsed < bound_s,
        f"({rep.failures} failing of {trials} trials, worst deviation "
        f"{rep.worst_deviation:.2e} at tolerance {rep.tolerance:.0e}, {elapsed:.1f}s)",
    )


def test_criterion_1_certificate_exactness():
    _suite_criterion(
        1, "worst-case certificate exactness", "worstcase", 1000, MASTER_SEED, 10
    )


def test_criterion_2_oracle_equivalence():
    _suite_criterion(
        2, "brute-force oracle equivalence", "oracle", 300, MASTER_SEED + 1, 60
    )


def test_criterion_3_kkt_stationarity():
    _suite_criterion(
        3,
        "KKT stationarity and finite-difference gradient",
        "kkt",
        100,
        MASTER_SEED + 2,
        10,
    )


def test_criterion_5_exact_scalar_optimality():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst = -np.inf
    for _ in range(200):
        a = rng.uniform(0.0, 4.0)
        e = rng.uniform(0.0, 3.0)
        nv = rng.uniform(0.01, 2.0)
        P = rng.uniform(0.5, 50.0)
        tau = t_exact(a, e, nv, P)
        hi = max(3.0 / a, 3.0) if a > 0 else 3.0
        grid = np.linspace(0.0, hi, 10**5)
        fgrid = (np.abs(grid * a - 1) + e * grid) ** 2 + nv / P * grid**2
        ftau = (abs(tau * a - 1) + e * tau) ** 2 + nv / P * tau**2
        worst = max(worst, ftau - np.min(fgrid))
    elapsed = time.time() - t0
    report(
        5,
        "exact scalar update beats dense grid",
        worst <= 1e-9 and elapsed < 10,
        f"(worst excess {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_6_recovery_identities():
    from aircomp_ris.optimizer import recover_m_t

    rng = np.random.default_rng(MASTER_SEED + 5)
    worst_pow = worst_prod = 0.0
    for _ in range(10**4):
        K = int(rng.integers(1, 9))
        t_hat = rng.uniform(0.0, 10.0, K)
        if np.all(t_hat == 0):
            t_hat[0] = 1.0
        P = rng.uniform(0.1, 100.0)
        m, t = recover_m_t(t_hat, P)
        worst_pow = max(worst_pow, abs(np.sum(np.abs(t) ** 2) - P) / P)
        denom = np.where(t_hat > 0, t_hat, 1.0)
        worst_prod = max(worst_prod, np.max(np.abs(m * t - t_hat) / denom))
    report(
        6,
        "power and product recovery identities",
        worst_pow <= 1e-12 and worst_prod <= 1e-12,
        f"(power dev {worst_pow:.2e}, product dev {worst_prod:.2e})",
    )


def _sweep_cells(kind, values, s_values, base_kwargs, schemes):
    """Per-trial NMSE arrays for every (value, s, scheme) cell, with channel
    draws shared across schemes."""
    cells = {}
    for vi, value in enumerate(values):
        for si, s in enumerate(s_values):
            kwargs = dict(base_kwargs)
            kwargs["s"] = s
            if kind == "snr":
                kwargs["noise_var"] = snr_to_noise_var(value, kwargs["P"])
            elif kind == "n":
                kwargs["N"] = int(value)
            elif kind == "k":
                kwargs["K"] = int(value)
            config = SystemConfig(**kwargs)
            for scheme in schemes:
                vals = np.empty(TRIALS)
                for trial in range(TRIALS):
                    seed = channel_seed(MASTER_SEED, kind, vi, si, trial)
                    vals[trial] = run_trial(config, scheme, seed)
                cells[(value, s, scheme)] = vals
    return cells


def test_criterion_8_snr_sweep_properties():
    t0 = time.time()
    snrs = [0.0, 5.0, 10.0, 15.0, 20.0]
    s_values = [0.4, 0.6]
    cells = _sweep_cells(
        "snr",
        snrs,
        s_values,
        dict(K=10, N=16, P=10.0, noise_var=1.0),
        ["multistart", "nonrobust"],
    )
    per_trial_ok = all(
        np.all(cells[(v, s, "multistart")] <= cells[(v, s, "nonrobust")] + 1e-12)
        for v in snrs
        for s in s_values
    )
    trend_ok = True
    for s in s_values:
        stats = [_mean_se(cells[(v, s, "multistart")]) for v in snrs]
        means = [m for m, _ in stats]
        ses = [e for _, e in stats]
        trend_ok = trend_ok and _non_increasing_within_2se(means, ses)
    s_order_ok = True
    for v in snrs:
        m4, e4 = _mean_se(cells[(v, 0.4, "multistart")])
        m6, e6 = _mean_se(cells[(v, 0.6, "multistart")])
        if m4 > m6 + 2 * np.hypot(e4, e6):
            s_order_ok = False
    elapsed = time.time() - t0
    report(
        8,
        "SNR sweep: per-trial domination, SNR trend, s ordering",
        per_trial_ok and trend_ok and s_order_ok and elapsed < 180,
        f"(domination {per_trial_ok}, trend {trend_ok}, s-order {s_order_ok}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_9_ris_size_trend():
    t0 = time.time()
    ns = [8, 16, 32, 64]
    # SNR 0 dB: the channel-gain benefit of N only shows when noise matters,
    # because eps = s*||h|| keeps the relative uncertainty term N-independent
    cells = _sweep_cells(
        "n",
        ns,
        [0.4],
        dict(K=8, N=8, P=100.0, noise_var=snr_to_noise_var(0.0, 100.0)),
        ["multistart"],
    )
    stats = [_mean_se(cells[(n, 0.4, "multistart")]) for n in ns]
    means = [m for m, _ in stats]
    ses = [e for _, e in stats]
    ok = _non_increasing_within_2se(means, ses)
    elapsed = time.time() - t0
    report(
        9,
        "RIS-size sweep: NMSE non-increasing in N",
        ok and elapsed < 180,
        f"(means {[f'{m:.4g}' for m in means]}, {elapsed:.1f}s)",
    )


def test_criterion_10_sensor_count_trend_and_gap():
    t0 = time.time()
    ks = [2, 4, 6, 8, 10, 12]
    cells = _sweep_cells(
        "k",
        ks,
        [0.4],
        dict(K=2, N=64, P=100.0, noise_var=1.0),
        ["multistart", "nonrobust"],
    )
    stats = [_mean_se(cells[(k, 0.4, "multistart")]) for k in ks]
    means = [m for m, _ in stats]
    ses = [e for _, e in stats]
    # trend must hold read in the non-decreasing direction
    trend_ok = _non_increasing_within_2se(means[::-1], ses[::-1])
    # robustness gain "more pronounced" with more sensors: the aggregate
    # (un-normalized) MSE gap grows with K; the per-sensor NMSE gap is
    # K-independent by separability, so only the aggregate gap can trend
    gaps_nmse = {
        k: float(
            np.mean(cells[(k, 0.4, "nonrobust")] - cells[(k, 0.4, "multistart")])
        )
        for k in ks
    }
    gap_lo = ks[0] * gaps_nmse[ks[0]]
    gap_hi = ks[-1] * gaps_nmse[ks[-1]]
    gap_ok = gap_hi > gap_lo
    elapsed = time.time() - t0
    report(
        10,
        "sensor-count sweep: NMSE trend and widening robustness gap",
        trend_ok and gap_ok and elapsed < 300,
        f"(means {[f'{m:.4g}' for m in means]}, aggregate-MSE gap "
        f"{gap_lo:.3e} -> {gap_hi:.3e}, per-sensor gaps {gaps_nmse[ks[0]]:.2e}/"
        f"{gaps_nmse[ks[-1]]:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_11_closed_form_global_optimum():
    rng = np.random.default_rng(MASTER_SEED + 10)
    gaps = []
    ok = True
    for _ in range(100):
        config = SystemConfig(
            K=4, N=8, P=10.0, noise_var=1.0, s=float(rng.uniform(0.2, 0.6))
        )
        h_hat, eps = synthesize_instance(config, rng)

        def objective(design):
            return worst_case_objective(design, h_hat, eps, config.noise_var)

        best = objective(cophased_design(config, h_hat, eps))
        others = [
            objective(cophased_design(config, h_hat)),
            objective(ref_loop_design(config, h_hat, eps)),
        ]
        # random feasible designs: random phases, |t_hat_k| on a grid
        grid = np.linspace(0.0, 2.0 / np.abs(h_hat).sum(axis=1).min(), 1001)
        for _ in range(100):
            t_hat = grid[rng.integers(len(grid), size=config.K)] * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi, config.K)
            )
            if not t_hat.any():
                continue
            v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (config.K, config.N)))
            m = np.sqrt(np.sum(np.abs(t_hat) ** 2) / config.P)
            others.append(objective(RISDesign(m=m, t=t_hat / m, v=v)))
        runner_up = min(others)
        if best > runner_up * (1 + 1e-12):
            ok = False
        gaps.append((runner_up - best) / runner_up)
    report(
        11,
        "closed form never worse than the alternating loop, the non-robust "
        "design or random feasible designs",
        ok,
        f"(median relative gap to the best other design {np.median(gaps):.3e}, "
        f"min {min(gaps):.3e})",
    )


def test_criterion_12_sweep_determinism(tmp_path):
    cfg = {
        "system": {"K": 4, "N": 8, "P": 10.0, "noise_var": 1.0, "s": 0.4},
        "sweep": {
            "values": [0.0, 10.0],
            "trials": 5,
            "schemes": ["multistart", "nonrobust"],
            "s_values": [0.4, 0.6],
        },
        "master_seed": MASTER_SEED,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--kind", "snr", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["sweep", "--kind", "snr", "--config", str(path), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(12, "byte-identical sweep reruns", identical)
