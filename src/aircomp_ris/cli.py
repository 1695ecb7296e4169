"""Command-line interface.

    aircomp solve  --config cfg.json --out design.json
    aircomp sweep  --kind snr|n|k --config cfg.json --out results.csv
                   [--plot results.svg]
    aircomp verify --suite worstcase|kkt|oracle|monotone --trials N --seed S

Exit codes: 0 ok, 1 config error, 2 solver error, 3 I/O error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from .config import load_config
from .errors import AirCompError, ConfigError
from .experiments import run_sweep
from .model import synthesize_instance
from .optimizer import robust_design
from .svgplot import line_plot_svg, records_to_series
from .verify import SUITES, run_suite
from .worst_case import certificate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_VERIFY = 4

CSV_HEADER = ["kind", "value", "scheme", "nmse_mean", "nmse_std", "trials", "mean_iters"]


def _atomic_write(path, data):
    """Write text atomically: temp file in the target directory + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-aircomp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _design_document(design, cert, P):
    # phases in (-pi, pi]: np.angle gives -pi for a negative real with a
    # negative-zero imaginary part
    phases = np.angle(design.v)
    phases[phases == -np.pi] = np.pi
    return {
        "m": design.m,
        "t": np.stack([design.t.real, design.t.imag], axis=-1).tolist(),
        "v_phases": phases.tolist(),
        "lambda": np.where(np.isfinite(cert.lambdas), cert.lambdas, None).tolist(),
        "worst_case_terms": cert.terms.tolist(),
        "objective": cert.total,
        "sum_power": float(np.sum(np.abs(design.t) ** 2)),
        "power_budget": P,
    }


def cmd_solve(config_path, out_path):
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    system = cfg.system
    rng = np.random.default_rng(cfg.master_seed)
    try:
        if cfg.instance is not None:
            h_hat, eps = cfg.instance
        else:
            inst, _ = synthesize_instance(system, rng)
            h_hat, eps = inst.h_hat, inst.eps
        design = robust_design(system, h_hat, eps)
        cert = certificate(design, h_hat, eps, system.noise_var)
        doc = _design_document(design, cert, system.P)
        # ValueError: a non-finite number, which JSON cannot represent
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except (AirCompError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        _atomic_write(out_path, text)
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def records_to_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(
            [
                rec.kind,
                repr(float(rec.value)) if isinstance(rec.value, float) else rec.value,
                rec.scheme,
                repr(rec.nmse_mean),
                repr(rec.nmse_std),
                rec.trials,
                repr(rec.mean_iters),
            ]
        )
    return buf.getvalue()


def cmd_sweep(config_path, kind, out_csv, plot_path=None):
    try:
        cfg = load_config(config_path)
        spec = cfg.sweep_spec(kind)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        records = run_sweep(spec)
    except AirCompError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        _atomic_write(out_csv, records_to_csv(records))
        if plot_path is not None:
            x_label = {"snr": "SNR (dB)", "n": "RIS elements N", "k": "sensors K"}[kind]
            svg = line_plot_svg(
                records_to_series(records), x_label, title=f"NMSE vs {kind}"
            )
            _atomic_write(plot_path, svg)
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(suite, trials, seed):
    if suite not in SUITES:
        print(f"error: unknown suite {suite!r}", file=sys.stderr)
        return EXIT_CONFIG
    if trials < 1:
        print("error: trials must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    report = run_suite(suite, trials, seed)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} suite={report.suite} trials={report.trials} "
        f"failures={report.failures} "
        f"worst_deviation={report.worst_deviation:.3e} "
        f"tolerance={report.tolerance:.1e}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aircomp",
        description="Worst-case robust transceiver and RIS design for "
        "over-the-air computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance, emit a design")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo NMSE sweep")
    p_sweep.add_argument("--kind", required=True, choices=["snr", "n", "k"])
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--plot", default=None)

    p_verify = sub.add_parser("verify", help="run a randomized property suite")
    p_verify.add_argument(
        "--suite", required=True, choices=list(SUITES)
    )
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args.config, args.out)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.kind, args.out, args.plot)
    if args.command == "verify":
        return cmd_verify(args.suite, args.trials, args.seed)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
