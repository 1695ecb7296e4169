"""Every benchmark workload, run once at the reference seed, must still
produce the outputs recorded in perfbench/reference/ (to 1e-12 relative)
and pass the benchmark's own output checks. Catches output drift without a
full benchmark run. The perfbench modules are imported read-only."""

import importlib
import json
import os
import sys
from pathlib import Path

import pytest

from aircomp_ris.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _import_perfbench():
    # run.py pins the BLAS thread variables on import; keep them out of
    # this process
    env = dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("run"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(PERFBENCH))
        os.environ.clear()
        os.environ.update(env)


bench, checks = _import_perfbench()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_reference(workload, tmp_path):
    raw = bench.make_config(workload, bench.REFERENCE_SEED, quick=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    if workload == "solve_instance":
        out = tmp_path / "design.json"
        argv = ["solve", "--config", str(config), "--out", str(out)]
    else:
        out = tmp_path / "results.csv"
        kind = "snr" if workload == "sweep_snr" else "k"
        argv = ["sweep", "--kind", kind, "--config", str(config), "--out", str(out)]
    assert main(argv) == 0

    if workload == "solve_instance":
        assert checks.check_solve(out, raw) == []
    else:
        worst_case = raw["system"].get("eval_mode", "worst") == "worst"
        assert checks.check_sweep(out, raw, kind, worst_case) == []
    _, reference = bench.load_reference(workload, quick=False)
    assert checks.compare_reference(workload, out, reference) == []
