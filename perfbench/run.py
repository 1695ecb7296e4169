"""Benchmark of the `aircomp` CLI, driven in-process from one thread.

    python3 perfbench/run.py --workload sweep_snr --seed 1 --seconds 20 --trace 0

Writes each workload's config from the seed, runs one warm-up command at the
reference seed and compares it with the recorded reference output, then
repeats the workload's command for --seconds, checking every output. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it measures
untraced for half the time, then traced, and reports the per-layer split.
The last line of standard output is the result as one JSON object.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in child processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("sweep_snr", "sweep_k_large", "solve_instance")
# Seed of the recorded reference outputs: the shipped sweep config's own seed.
REFERENCE_SEED = 20240823
SETUP_REPS = 11
SUBPROCESS_TIMEOUT_S = 60


def make_config(workload, seed, quick):
    """The workload's config as a dict; the same seed gives the same config."""
    if workload == "sweep_snr":
        raw = json.loads((ROOT / "configs" / "sweep_snr_example.json").read_text())
        raw["master_seed"] = seed
        if quick:
            raw["sweep"]["trials"] = 2
        return raw
    if workload == "sweep_k_large":
        return {
            "system": {
                "K": 4 if quick else 25,
                "N": 8 if quick else 256,
                "P": 10.0,
                "noise_var": 1.0,
                "s": 0.4,
                "eval_mode": "realized",
                "error_sampling": "interior",
            },
            "sweep": {
                "values": [2, 4] if quick else [25, 50, 100],
                "trials": 2 if quick else 10,
                "schemes": ["robust_exact", "nonrobust"],
            },
            "master_seed": seed,
        }
    if workload == "solve_instance":
        K, N = (4, 8) if quick else (32, 64)
        rng = np.random.default_rng(seed)
        # cascaded Rayleigh channel: product of two CN(0, 1/2) segments
        g = (rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))) * 0.5
        r = (rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))) * 0.5
        h_hat = g * np.conj(r)
        eps = 0.4 * np.linalg.norm(h_hat, axis=1)
        return {
            "system": {"K": K, "N": N, "P": 10.0, "noise_var": 1.0},
            "instance": {
                "h_hat": [[[z.real, z.imag] for z in row] for row in h_hat.tolist()],
                "eps": eps.tolist(),
            },
            "master_seed": seed,
        }
    raise ValueError(f"unknown workload {workload!r}")


class Job:
    """One workload at one seed: its config file, command and outputs."""

    def __init__(self, workload, seed, quick, workdir, tag):
        self.workload = workload
        self.raw = make_config(workload, seed, quick)
        text = json.dumps(self.raw)
        self.config_sha256 = hashlib.sha256(text.encode()).hexdigest()
        self.config_path = workdir / f"{tag}.json"
        self.config_path.write_text(text)
        if workload == "solve_instance":
            self.outputs = [workdir / f"{tag}.out.json"]
            self.argv = ["solve", "--config", str(self.config_path), "--out", str(self.outputs[0])]
            self.ops = 1
        else:
            self.outputs = [workdir / f"{tag}.csv", workdir / f"{tag}.svg"]
            self.kind = "snr" if workload == "sweep_snr" else "k"
            self.argv = [
                "sweep", "--kind", self.kind, "--config", str(self.config_path),
                "--out", str(self.outputs[0]), "--plot", str(self.outputs[1]),
            ]
            sweep = self.raw["sweep"]
            cells = len(sweep["values"]) * len(sweep.get("s_values") or [None])
            self.ops = cells * len(sweep["schemes"]) * sweep["trials"]

    def clear_outputs(self):
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def out_bytes(self):
        return sum(path.stat().st_size for path in self.outputs)

    def check(self):
        """Problems found in the outputs of the last command."""
        if self.workload == "solve_instance":
            return checks.check_solve(self.outputs[0], self.raw)
        return checks.check_sweep(
            self.outputs[0], self.raw, self.kind, self.raw["system"].get("eval_mode", "worst") == "worst"
        )

    def check_reference(self, reference):
        return checks.compare_reference(self.workload, self.outputs[0], reference)


class Runner:
    """Runs commands through the CLI, times them with the speed probe and
    counts attempts and failures."""

    def __init__(self, cli, probe):
        self.cli = cli
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, job, reference=None):
        """Run the job's command once; returns its start and end times."""
        job.clear_outputs()
        self.attempted += 1
        t0 = perf_counter()
        try:
            rc = self.cli.main(job.argv)
        except Exception:
            rc = None
            traceback.print_exc()
        t1 = perf_counter()
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            problems = job.check()
            if reference is not None and not problems:
                problems = job.check_reference(reference)
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.workload}: {p}" for p in problems[:5])
        return t0, t1

    def repeat(self, job, seconds):
        """Repeat the command for at least `seconds` of wall time; returns
        the normalized and the wall times of the commands."""
        intervals = []
        deadline = perf_counter() + seconds
        while not intervals or perf_counter() < deadline:
            intervals.append(self.run(job))
        normalized = [self.probe.normalize(t0, t1) for t0, t1 in intervals]
        return normalized, [t1 - t0 for t0, t1 in intervals]


def setup_seconds(probe, reps):
    """Median normalized time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    intervals = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import aircomp_ris.cli"],
            env=env, cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        intervals.append((t0, perf_counter()))
    return statistics.median(probe.normalize(t0, t1) for t0, t1 in intervals)


def import_cli():
    """Import the CLI from this checkout's src/, and from nowhere else."""
    if not (SRC / "aircomp_ris" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'aircomp_ris'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    from aircomp_ris import cli

    if Path(cli.__file__).resolve().parent != (SRC / "aircomp_ris").resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's package")
    return cli


def git_head():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, jobs):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "git_head": git_head(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": version("jsonschema"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "configs_sha256": {job.config_path.name: job.config_sha256 for job in jobs},
    }


def load_reference(workload, quick):
    ext = "json" if workload == "solve_instance" else "csv"
    path = REFERENCE_DIR / f"{workload}{'.quick' if quick else ''}.{ext}"
    return path, (path.read_text() if path.exists() else None)


def measure(args, cli, workdir, probe):
    runner = Runner(cli, probe)
    ref_job = Job(args.workload, REFERENCE_SEED, args.quick, workdir, "reference")
    job = Job(args.workload, args.seed, args.quick, workdir, "run")
    ref_path, reference = load_reference(args.workload, args.quick)

    if args.write_reference:
        runner.run(ref_job)
        if runner.failed:
            raise SystemExit("error: " + "; ".join(runner.problems))
        ref_path.write_text(checks.reference_text(args.workload, ref_job.outputs[0]))
        print(f"wrote {ref_path.relative_to(ROOT)}", file=sys.stderr)
        return None
    if reference is None:
        raise SystemExit(f"error: missing reference output {ref_path}")

    # warm-up command, checked against the output recorded at REFERENCE_SEED
    runner.run(ref_job, reference)
    prov = provenance(args, [ref_job, job])

    metrics = {}
    if args.trace:
        plain, _ = runner.repeat(job, args.seconds / 2)
        with spans.Tracer() as tracer:
            traced, traced_wall = runner.repeat(job, args.seconds / 2)
        commands = len(traced)
        # span times are wall times: bring them to the reference speed too
        scale = sum(traced) / sum(traced_wall)
        layer = spans.summarize(tracer.spans, commands, commands * job.ops, scale)
        for name, (value, unit) in layer.items():
            metrics[name] = {"value": value, "unit": unit}
        overhead = 1.0 - statistics.median(plain) / statistics.median(traced)
        metrics["cli.out_bytes"] = {"value": float(job.out_bytes()), "unit": "B"}
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        metrics["trace.absent_names"] = {"value": len(tracer.absent), "unit": "count"}
        header = {"provenance": prov, "absent": tracer.absent,
                  "fields": ["sid", "parent", "layer", "name", "t0", "t1", "attrs"]}
        spans_path = RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path, header)
        shares = ", ".join(f"{n[6:]} {m['value']:.3f}" for n, m in metrics.items() if n.startswith("share."))
        print(f"layer shares: {shares}")
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans, "
              f"absent: {', '.join(tracer.absent) or 'none'})")
    else:
        times, wall = runner.repeat(job, args.seconds)
        setup = setup_seconds(probe, 1 if args.quick else SETUP_REPS)
        p50 = statistics.median(times)
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else p50
        metrics["ops_per_s"] = {"value": job.ops * len(times) / sum(times), "unit": "1/s"}
        metrics["cmd_ms_p50"] = {"value": 1e3 * p50, "unit": "ms"}
        metrics["cmd_ms_p90"] = {"value": 1e3 * p90, "unit": "ms"}
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        print(f"commands: {len(times)} x {job.ops} ops; wall ms p50 "
              f"{1e3 * statistics.median(wall):.1f}, normalized ms p50 {1e3 * p50:.1f}")

    print(json.dumps({"provenance": prov}))
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"error_rate: {runner.failed}/{runner.attempted}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="minimal sizes, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference output at the reference seed and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    cli = import_cli()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        with SpeedProbe() as probe:
            result = measure(args, cli, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
