"""Checks of the CLI's outputs. Each check returns a list of problems; an
empty list means the output is correct. The formulas here are written
independently of the package, from the model in README.md."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

DESIGN_RTOL = 1e-9
REFERENCE_RTOL = 1e-12
POWER_RTOL = 1e-12
SOLVE_REFERENCE_KEYS = ("objective", "worst_case_terms", "sum_power")


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_solve(path, raw):
    """The written design against the input instance: the reported objective
    must equal both the worst-case MSE recomputed from the design and the sum
    of per-sensor closed-form optima (co-phased RIS, 1-D optimal scaling),
    and the design must meet the power budget."""
    doc = json.loads(path.read_text())
    P = raw["system"]["P"]
    noise_var = raw["system"]["noise_var"]
    h_hat = _complex(raw["instance"]["h_hat"])
    eps = np.asarray(raw["instance"]["eps"], dtype=float)
    K, N = h_hat.shape
    t = _complex(doc["t"])
    phases = np.asarray(doc["v_phases"], dtype=float)
    if t.shape != (K,) or phases.shape != (K, N):
        return [f"design shapes t{t.shape} v{phases.shape}, expected K={K}, N={N}"]
    m = float(doc["m"])
    reported = doc["objective"]
    if not isinstance(reported, (int, float)) or not math.isfinite(reported):
        return [f"objective {reported!r} is not a finite number"]

    # worst case of |t_hat (h_hat^H + delta) v - 1|^2 over ||delta|| <= eps
    t_hat = m * t
    gain = np.sum(np.conj(h_hat) * np.exp(1j * phases), axis=1)
    terms = (np.abs(t_hat * gain - 1.0) + np.abs(t_hat) * eps * math.sqrt(N)) ** 2
    recomputed = float(np.sum(terms) + noise_var * m * m)

    # per-sensor optimum: gain a = ||h_hat_k||_1, scaling tau minimising
    # (|tau a - 1| + tau eps sqrt(N))^2 + (noise_var / P) tau^2
    a = np.sum(np.abs(h_hat), axis=1)
    e = eps * math.sqrt(N)
    b = a - e
    c = noise_var / P
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(b > 0, np.minimum(b / (b * b + c), 1.0 / a), 0.0)
    optimum = float(np.sum((np.abs(tau * a - 1.0) + tau * e) ** 2 + c * tau**2))

    problems = []
    if _rel(recomputed, reported) > DESIGN_RTOL:
        problems.append(f"objective {reported!r} but the design gives {recomputed!r}")
    if _rel(optimum, reported) > DESIGN_RTOL:
        problems.append(f"objective {reported!r} but the optimum is {optimum!r}")
    power = float(np.sum(np.abs(t) ** 2))
    if max(power, doc["sum_power"]) > P * (1 + POWER_RTOL):
        problems.append(f"sum power {power!r} exceeds P = {P!r}")
    return problems


def expected_rows(raw):
    """(value, scheme label) of every CSV row, in the documented order."""
    sweep = raw["sweep"]
    s_values = sweep.get("s_values")
    if s_values and len(s_values) > 1:
        labels = [f"{scheme}|s={s:g}" for scheme in sweep["schemes"] for s in s_values]
    else:
        labels = list(sweep["schemes"])
    return [(float(v), label) for v in sweep["values"] for label in sorted(labels)]


def check_sweep(path, raw, kind, worst_case):
    """Row labels and trial counts as configured; every NMSE finite and
    >= 0; with worst-case evaluation, each robust scheme no worse than the
    non-robust one in every cell."""
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    got = [(float(row["value"]), row["scheme"]) for row in rows]
    want = expected_rows(raw)
    if got != want:
        return [f"rows {got} != expected {want}"]
    problems = []
    trials = str(raw["sweep"]["trials"])
    nmse = {}
    for row, key in zip(rows, got):
        if row["kind"] != kind or row["trials"] != trials:
            problems.append(f"row {key}: kind {row['kind']!r}, trials {row['trials']!r}")
        mean, std = float(row["nmse_mean"]), float(row["nmse_std"])
        if not (math.isfinite(mean) and math.isfinite(std) and mean >= 0 and std >= 0):
            problems.append(f"row {key}: nmse_mean {mean!r}, nmse_std {std!r}")
        nmse[key] = mean
    if worst_case:
        for (value, label), mean in nmse.items():
            scheme, sep, rest = label.partition("|")
            baseline = nmse.get((value, "nonrobust" + sep + rest))
            if scheme != "nonrobust" and baseline is not None and mean > baseline * (1 + REFERENCE_RTOL):
                problems.append(f"{label} at {value}: NMSE {mean!r} > nonrobust {baseline!r}")
    return problems


def reference_text(workload, path):
    """What is recorded of an output as the reference."""
    if workload == "solve_instance":
        doc = json.loads(path.read_text())
        return json.dumps({key: doc[key] for key in SOLVE_REFERENCE_KEYS}, indent=1) + "\n"
    return path.read_text()


def _solve_numbers(doc):
    return [doc["objective"], *doc["worst_case_terms"], doc["sum_power"]]


def compare_reference(workload, path, reference):
    """The output against the recorded reference, numbers to REFERENCE_RTOL."""
    if workload == "solve_instance":
        got = [_solve_numbers(json.loads(path.read_text()))]
        want = [_solve_numbers(json.loads(reference))]
    else:
        got = list(csv.reader(io.StringIO(path.read_text())))
        want = list(csv.reader(io.StringIO(reference)))
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(got, want)):
        if len(row) != len(ref) or any(not _same(x, y) for x, y in zip(row, ref)):
            problems.append(f"row {i}: {row} differs from reference {ref}")
    return problems


def _same(x, y):
    if x == y:
        return True
    try:
        return _rel(float(x), float(y)) <= REFERENCE_RTOL
    except (TypeError, ValueError):
        return False
