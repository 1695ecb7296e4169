"""Command-line interface.

    aircomp solve  --config cfg.json --out design.json
    aircomp sweep  --kind snr|n|k --config cfg.json --out results.csv
                   [--plot results.svg]
    aircomp verify --suite worstcase|kkt|oracle --trials N --seed S

Exit codes: 0 ok, 1 config or usage error, 2 solver error, 3 I/O error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .config import load_config
from .errors import AirCompError, ConfigError
from .experiments import SWEEP_KINDS, AggregateRecord, run_sweep
from .model import synthesize_instance
from .optimizer import cophased_gains, ris_phases, robust_scalars
from .svgplot import line_plot_svg, records_to_series
from .verify import SUITES, run_suite
from .worst_case import certificate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_VERIFY = 4

CSV_HEADER = [field.name for field in fields(AggregateRecord)]
# json's C encoder; json.dumps with indent runs the pure-Python one
_ENCODE = json.JSONEncoder(allow_nan=False).encode


def _indented(doc):
    """json.dumps(doc, indent=2, allow_nan=False) of a solve document, whose
    values are numbers, number lists and lists of number lists: each value
    is C-encoded once and re-indented, as no number or null holds ", "."""
    items = []
    for key, value in doc.items():
        text = _ENCODE(value)
        if text.startswith("[["):
            text = text[2:-2].replace("], [", "\n    ],\n    [\n      ")
            text = "[\n    [\n      " + text.replace(", ", ",\n      ") + "\n    ]\n  ]"
        elif text.startswith("["):
            text = "[\n    " + text[1:-1].replace(", ", ",\n    ") + "\n  ]"
        items.append(f"{_ENCODE(key)}: {text}")
    return "{\n  " + ",\n  ".join(items) + "\n}"


def _write_outputs(outputs):
    """Write every (path, text) pair of outputs, or none: each text goes to
    a temp file in its target's directory, created as open(path, "w")
    creates a file (so mode 0666 less the umask), and the temp files are
    renamed into place only once no target is an existing directory and
    all are written. The one partial case left: a rename that fails for a
    cause not visible in advance keeps the outputs renamed before it."""
    pending = []  # (temp file, target) pairs not yet renamed into place
    try:
        for path, text in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError("Is a directory")
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".tmp-aircomp-{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        while pending:
            tmp, path = pending[0]
            os.replace(tmp, path)
            del pending[0]
    except BaseException as exc:
        for tmp, _ in pending:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IOError(f"cannot write {path}: {exc}") from exc
        raise


def _check_distinct(**paths):
    """Refuse a run two of whose files, by flag, are one: an output would
    overwrite the config or the other output."""
    named = [(f"--{flag}", os.path.realpath(p)) for flag, p in paths.items() if p]
    for (x, x_path), (y, y_path) in itertools.combinations(named, 2):
        if x_path == y_path:
            raise ConfigError(f"{x} and {y} name the same file")


def cmd_solve(config_path, out_path):
    _check_distinct(config=config_path, out=out_path)
    cfg = load_config(config_path)
    system = cfg.system
    if cfg.instance is not None:
        h_hat, eps = cfg.instance
    else:
        h_hat, eps = synthesize_instance(system, np.random.default_rng(cfg.master_seed))
    a = cophased_gains(h_hat)
    design = robust_scalars(a, eps * np.sqrt(system.N), system.noise_var, system.P)
    cert = certificate(design, a, eps, system.N, system.noise_var)
    # lambda is inf where eps_k = 0 and written as null; NaN is never valid
    finite = {
        "m": np.isfinite(design.m),
        "t": np.isfinite(design.t),
        "lambda": ~np.isnan(cert.lambdas),
        "worst_case_terms": np.isfinite(cert.terms),
        "objective": np.isfinite(cert.total),
    }
    bad = [key for key, ok in finite.items() if not np.all(ok)]
    if bad:
        raise AirCompError(f"the design is not finite: {', '.join(bad)}")
    doc = {
        "m": design.m,
        "t": np.stack([design.t.real, design.t.imag], axis=-1).tolist(),
        "v_phases": ris_phases(h_hat).tolist(),
        "lambda": np.where(np.isfinite(cert.lambdas), cert.lambdas, None).tolist(),
        "worst_case_terms": cert.terms.tolist(),
        "objective": cert.total,
        "sum_power": float(np.sum(np.abs(design.t) ** 2)),
        "power_budget": system.P,
    }
    return [(out_path, _indented(doc) + "\n")]


def records_to_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    # a dataclass sets its fields in CSV_HEADER's order; csv writes str(x),
    # for a float the shortest text that reads back as the same double
    writer.writerows(vars(rec).values() for rec in records)
    return buf.getvalue()


def cmd_sweep(config_path, kind, out_csv, plot_path=None):
    _check_distinct(config=config_path, out=out_csv, plot=plot_path)
    spec = load_config(config_path, kind).sweep
    if spec is None:
        raise ConfigError("config has no 'sweep' section")
    records = run_sweep(spec)
    outputs = [(out_csv, records_to_csv(records))]
    if plot_path is not None:
        x_label = {"snr": "SNR (dB)", "n": "RIS elements N", "k": "sensors K"}[kind]
        svg = line_plot_svg(records_to_series(records), x_label, f"NMSE vs {kind}")
        outputs.append((plot_path, svg))
    return outputs


def cmd_verify(suite, trials, seed):
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
    p_sweep.add_argument("--kind", required=True, choices=list(SWEEP_KINDS))
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a solver error here
        return EXIT_CONFIG if exc.code == 2 else exc.code
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.trials, args.seed)
        if args.command == "solve":
            outputs = cmd_solve(args.config, args.out)
        else:
            outputs = cmd_sweep(args.config, args.kind, args.out, args.plot)
        _write_outputs(outputs)  # every output is rendered before any is written
        return EXIT_OK
    except ConfigError as exc:  # an AirCompError, so it comes first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AirCompError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MemoryError, ValueError) as exc:
        # numpy refuses a size whose byte count overflows a pointer with a
        # ValueError. Outputs are written last, so a run that cannot
        # allocate writes none.
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        print(
            f"error: cannot allocate what the config asks for: {exc}", file=sys.stderr
        )
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
