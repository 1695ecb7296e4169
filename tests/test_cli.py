import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact_design, serialize_config

from aircomp_ris import cli, optimizer, verify
from aircomp_ris.cli import main, records_to_csv
from aircomp_ris.config import ConfigError, load_config, parse_config
from aircomp_ris.errors import AirCompError
from aircomp_ris.experiments import (
    SCHEMES,
    SWEEP_KINDS,
    AggregateRecord,
    snr_to_noise_var,
)
from aircomp_ris.model import ERROR_SAMPLING_MODES, EVAL_MODES, SystemConfig


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def golden_solve_config():
    return {
        "system": {"K": 1, "N": 1, "P": 10.0, "noise_var": 1.0, "s": 0.0},
        "instance": {"h_hat": [[[1.0, 0.0]]], "eps": [0.0]},
        "master_seed": 0,
    }


def sweep_config(trials=1, values=None, schemes=None):
    return {
        "system": {"K": 2, "N": 3, "P": 10.0, "noise_var": 1.0, "s": 0.4},
        "sweep": {
            "values": values or [10.0],
            "trials": trials,
            "schemes": schemes or ["nonrobust"],
        },
        "master_seed": 5,
    }


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """Fail a test that leaves one of the CLI's temp files in its tmp_path."""
    uses_tmp = "tmp_path" in request.fixturenames
    tmp_path = request.getfixturevalue("tmp_path") if uses_tmp else None
    yield
    if tmp_path is not None:
        left = sorted(p.name for p in tmp_path.rglob(".tmp-aircomp-*"))
        assert not left, f"temp files left behind: {left}"


def run_cli_child(argv):
    """Run the CLI in a child process, where numpy's overflow warnings stay
    warnings instead of the errors the test settings make them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "aircomp_ris.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestSolve:
    def test_golden_instance(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", golden_solve_config())
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sum_power"] == pytest.approx(10.0, rel=1e-12)
        assert doc["m"] == pytest.approx(math.sqrt((1 / 1.1) ** 2 / 10), rel=1e-9)
        t = complex(*doc["t"][0])
        assert abs(t) == pytest.approx(math.sqrt(10), rel=1e-9)
        assert doc["v_phases"][0][0] == pytest.approx(0.0, abs=1e-12)
        assert doc["objective"] == pytest.approx(1 / 11, rel=1e-9)
        assert doc["lambda"] == [None]  # eps = 0
        # the closed form runs no iterations, so there is no trace to report
        assert "trace_length" not in doc

    def test_out_naming_a_directory_writes_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", golden_solve_config())
        (tmp_path / "d").mkdir()
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_out_naming_the_config_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", golden_solve_config())
        before = (tmp_path / "cfg.json").read_bytes()
        assert main(["solve", "--config", cfg, "--out", cfg]) == 1
        assert capsys.readouterr().err == "error: --config and --out name the same file\n"
        assert (tmp_path / "cfg.json").read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "design.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_deeply_nested_config_exits_1_with_one_line(self, tmp_path, capsys):
        """json's decoder stops at the recursion limit: a config too deeply
        nested to read exits 1 with one line, not a traceback."""
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}: ")
        assert len(err.splitlines()) == 1 and err.endswith("\n")

    def test_unknown_key_rejected(self, tmp_path):
        raw = golden_solve_config()
        raw["extra_key"] = 1
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("starts", 3),
            ("include_nonrobust_start", True),
            ("mode", "exact"),
            ("delta_stop", 1e-9),
            ("max_iters", 200),
            ("safeguard", True),
            ("lambda_after_phase", False),
            ("init_rule", "cophase"),
        ],
    )
    def test_removed_solver_keys_rejected(self, tmp_path, capsys, key, value):
        raw = golden_solve_config()
        raw["solver"] = {key: value}
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert "'solver' was unexpected" in capsys.readouterr().err

    def test_removed_scheme_rejected(self, tmp_path, capsys):
        raw = sweep_config(schemes=["robust_paper"])
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert "'robust_paper' is not one of" in capsys.readouterr().err

    def test_solver_error_exit_code(self, tmp_path):
        raw = golden_solve_config()
        raw["instance"] = {"h_hat": [[[0.0, 0.0]]], "eps": [0.0]}
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key",
        [(None, "master_seed"), ("system", "s"), ("sweep", "trials"), ("instance", "eps")],
        ids=["top_level", "system", "sweep", "instance"],
    )
    def test_key_given_twice_exits_1(self, tmp_path, capsys, section, key):
        """A key given twice in one object is a config error, even with the
        same value, rather than a silent choice of its last value."""
        raw = dict(golden_solve_config(), sweep=sweep_config()["sweep"])
        obj = raw if section is None else raw[section]
        text, part = json.dumps(raw), json.dumps(obj)
        twice = f"{part[:-1]}, {json.dumps(key)}: {json.dumps(obj[key])}}}"
        assert part in text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace(part, twice, 1))
        out = tmp_path / "design.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        keys = [*obj, key]
        message = f"error: cannot read config {cfg}: a key is given twice in {keys}\n"
        assert capsys.readouterr().err == message

    def test_non_finite_design_is_a_solver_error(self, tmp_path):
        """At s = 1e200, |h_hat|^2 overflows in synthesis and the design is
        NaN: solve names the keys that are not finite, exits 2 and writes
        nothing."""
        system = {"K": 3, "N": 4, "P": 10.0, "noise_var": 1.0, "s": 1e200}
        cfg = write_json(tmp_path / "cfg.json", {"system": system, "master_seed": 5})
        out = tmp_path / "design.json"
        run = run_cli_child(["solve", "--config", cfg, "--out", str(out)])
        assert run.returncode == 2 and "Traceback" not in run.stderr
        last = run.stderr.splitlines()[-1]
        assert last.startswith("solver error: the design is not finite: ")
        assert "objective" in last.split(": ")[-1].split(", ")
        assert not out.exists()

    def test_phases_in_pi_interval(self, tmp_path):
        raw = {
            "system": {"K": 2, "N": 4, "P": 5.0, "noise_var": 0.5, "s": 0.3},
            "master_seed": 17,
        }
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for row in doc["v_phases"]:
            for phi in row:
                assert -math.pi < phi <= math.pi

    def test_minus_pi_phase_written_as_pi(self, tmp_path):
        # np.angle(-1 - 0j) is -pi
        raw = golden_solve_config()
        raw["instance"]["h_hat"] = [[[-1.0, -0.0]]]
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["v_phases"] == [[math.pi]]

    @staticmethod
    def solve_instance(tmp_path, h_hat, eps):
        raw = golden_solve_config()
        raw["system"].update(K=len(h_hat), N=len(h_hat[0]))
        raw["instance"] = {"h_hat": h_hat, "eps": eps}
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_v_phases_co_phase(self, tmp_path):
        # sum_i conj(h_hat_i) exp(j phi_i) = ||h_hat||_1 for every sensor
        rng = np.random.default_rng(23)
        h_hat = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        pairs = [[[z.real, z.imag] for z in row] for row in h_hat.tolist()]
        eps = (0.3 * np.linalg.norm(h_hat, axis=1)).tolist()
        doc = self.solve_instance(tmp_path, pairs, eps)
        gain = np.sum(np.conj(h_hat) * np.exp(1j * np.array(doc["v_phases"])), axis=1)
        np.testing.assert_allclose(gain, np.abs(h_hat).sum(axis=1), rtol=0, atol=1e-12)

    def test_v_phases_of_hand_instance(self, tmp_path):
        h_hat = [[[1.0, 1.0], [-2.0, 0.0], [3.0, 0.0], [0.5, 0.0]]]
        doc = self.solve_instance(tmp_path, h_hat, [0.1])
        assert doc["v_phases"] == [[math.pi / 4, math.pi, 0.0, 0.0]]

    def test_gain_whose_square_overflows_keeps_its_sensor(self, tmp_path):
        """a_0 = 8e154 squares past the largest double: sensor 0 still gets
        t_hat_0 = 1/a_0 (not 0), and the objective is sensor 1's alone."""
        h_hat = [[[1e154, 0.0]] * 8, [[1.0, 0.0]] * 8]
        doc = self.solve_instance(tmp_path, h_hat, [0.0, 0.0])
        t_hat_1 = 8 / (64 + 1 / 10)
        m = t_hat_1 / math.sqrt(10)
        assert doc["m"] == pytest.approx(m, rel=1e-12)
        assert complex(*doc["t"][0]) == pytest.approx(1 / 8e154 / m, rel=1e-12)
        assert complex(*doc["t"][1]) == pytest.approx(t_hat_1 / m, rel=1e-12)
        objective = (8 * t_hat_1 - 1) ** 2 + m * m
        assert doc["objective"] == pytest.approx(objective, rel=1e-12)
        assert doc["objective"] == pytest.approx(0.0015600624024961, rel=1e-12)

    def test_zero_entries_get_phase_zero(self, tmp_path):
        # np.angle gives -pi for -0 - 0j and -0.0 for 0 - 0j
        h_hat = [[[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]]
        doc = self.solve_instance(tmp_path, h_hat, [0.0])
        phases = doc["v_phases"][0]
        assert phases == [0.0, 0.0, 0.0, 0.0, math.pi / 2]
        assert all(math.copysign(1.0, phi) == 1.0 for phi in phases[:4])


_P = [1.0, -0.5]
_EPS = [0.1, 0.2]
_BAD_H = "error: instance h_hat must be numbers of shape (2, 2, 2)\n"
_BAD_EPS = "error: instance eps must be numbers of shape (2,)\n"
_HUGE_H = "error: instance h_hat: int too large to convert to float\n"
_HUGE_EPS = "error: instance eps: int too large to convert to float\n"
_NOT_A_LIST = "error: invalid config: instance.{} must be of type list\n"


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "old, new",
        [
            ("[[[1.0, 0.0]]]", "[[[NaN, 0.0]]]"),
            ('"eps": [0.0]', '"eps": [Infinity]'),
            ('"eps": [0.0]', '"eps": [-Infinity]'),
            # overflows to inf when parsed as a double
            ("[[[1.0, 0.0]]]", "[[[1e999, 0.0]]]"),
        ],
        ids=["nan_h_hat", "inf_eps", "minus_inf_eps", "overflow_h_hat"],
    )
    def test_solve_rejects(self, tmp_path, capsys, old, new):
        text = json.dumps(golden_solve_config())
        assert old in text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace(old, new))
        out = tmp_path / "design.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "h_hat, eps, message",
        [
            ([[[True, 0.0], _P], [_P, _P]], _EPS, _BAD_H),
            ([[["1.0", 0.0], _P], [_P, _P]], _EPS, _BAD_H),
            ([[[None, 0.0], _P], [_P, _P]], _EPS, _BAD_H),
            ([[[[1.0], 0.0], _P], [_P, _P]], _EPS, _BAD_H),
            ([[[1.0], _P], [_P, _P]], _EPS, _BAD_H),
            ([[[1.0, 0.0, 0.0], _P], [_P, _P]], _EPS, _BAD_H),
            ([[], [_P, _P]], _EPS, _BAD_H),
            ([[_P, _P], [_P]], _EPS, _BAD_H),
            ([[_P, _P]], _EPS, _BAD_H),
            ([[_P, _P], [_P, _P], [_P, _P]], _EPS, _BAD_H),
            ([[_P, _P, _P], [_P, _P, _P]], _EPS, _BAD_H),
            ([_P, _P], _EPS, _BAD_H),
            ([[_P, _P], [_P, _P]], [0.1], _BAD_EPS),
            ([[_P, _P], [_P, _P]], [0.1, -0.2], "error: instance eps must be >= 0\n"),
            ([[_P, _P], [_P, _P]], [0.1, True], _BAD_EPS),
            ([[_P, _P], [_P, _P]], [[0.1], [0.2]], _BAD_EPS),
            # integers too large for a double
            ([[[10**400, 0.0], _P], [_P, _P]], _EPS, _HUGE_H),
            ([[_P, _P], [_P, _P]], [0.1, 10**400], _HUGE_EPS),
            # the section's own shape rule: each array is a list
            (1.0, _EPS, _NOT_A_LIST.format("h_hat")),
            ({"re": 1.0}, _EPS, _NOT_A_LIST.format("h_hat")),
            ([[_P, _P], [_P, _P]], 0.1, _NOT_A_LIST.format("eps")),
        ],
        ids=[
            "true_entry",
            "string_entry",
            "null_entry",
            "list_entry",
            "one_number_pair",
            "three_number_pair",
            "empty_row",
            "ragged_rows",
            "too_few_rows",
            "too_many_rows",
            "rows_longer_than_N",
            "missing_row_axis",
            "too_few_eps",
            "negative_eps",
            "boolean_eps",
            "nested_eps",
            "huge_int_h_hat",
            "huge_int_eps",
            "number_h_hat",
            "object_h_hat",
            "number_eps",
        ],
    )
    def test_solve_rejects_malformed_instance(
        self, tmp_path, capsys, h_hat, eps, message
    ):
        raw = golden_solve_config()
        raw["system"].update(K=2, N=2)
        raw["instance"] = {"h_hat": h_hat, "eps": eps}
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == message

    def test_sweep_rejects_overflowing_value(self, tmp_path, capsys):
        text = json.dumps(sweep_config(values=[10.0]))
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "r.csv"
        # 1e999 parses as inf; -4000 dB is a noise variance of 10^400 * P
        for value in ["1e999", "-4000.0"]:
            cfg.write_text(text.replace("[10.0]", f"[{value}]"))
            argv = ["sweep", "--kind", "snr", "--config", str(cfg), "--out", str(out)]
            assert main(argv) == 1
            assert not out.exists()
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("snr", "values", [10**400]),  # too large for a double
            ("snr", "s_values", [10**400]),
            # beyond numpy's largest array dimension
            ("snr", "trials", 10**30),
            ("n", "values", [10**30]),
            ("k", "values", [2, 10**30]),
        ],
        ids=["values", "s_values", "trials", "n_value", "k_value"],
    )
    def test_sweep_rejects_huge_integer(self, tmp_path, capsys, kind, key, value):
        raw = sweep_config()
        raw["sweep"][key] = value
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "r.csv"
        argv = ["sweep", "--kind", kind, "--config", cfg, "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, key",
        [
            *[("solve", key) for key in ("P", "noise_var", "s")],
            *[("sweep", key) for key in ("P", "noise_var", "s", "s_values", "values")],
        ],
    )
    def test_int_reads_as_its_double(self, tmp_path, capsys, command, key):
        """A number is read as a double: the int 2^64, which numpy's ufuncs
        take only as an object, runs as its float spelling does, and the
        int 10^400, beyond the double range, is rejected by its key's own
        rule, in its words."""

        def run(value):
            if command == "solve":
                raw = golden_solve_config()
                raw["system"].update(K=2, N=3)
                del raw["instance"]  # synthesized, so s counts
                argv = ["solve"]
            else:
                raw = sweep_config(trials=2, values=[3])
                # noise_var counts in an N sweep; values are an SNR sweep's
                argv = ["sweep", "--kind", "snr" if key == "values" else "n"]
            if key in ("s_values", "values"):
                raw["sweep"][key] = [value]
            else:
                raw["system"][key] = value
            cfg = write_json(tmp_path / "cfg.json", raw)
            out = tmp_path / "out"
            code = main([*argv, "--config", cfg, "--out", str(out)])
            text = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, text, capsys.readouterr().err

        as_int, as_float = run(2**64), run(1.8446744073709552e19)
        assert as_int[0] == as_float[0] == 0
        assert as_int[2] == as_float[2] == ""
        if command == "solve":
            docs = [json.loads(text) for text in (as_int[1], as_float[1])]
            budgets = [doc.pop("power_budget") for doc in docs]
            # power_budget echoes P as written, an int as an int
            assert budgets == ([2**64, 2.0**64] if key == "P" else [10.0, 10.0])
            assert type(budgets[0]) is (int if key == "P" else float)
            assert docs[0] == docs[1]
        else:
            assert as_int[1] == as_float[1]
        code, text, err = run(10**400)
        assert (code, text) == (1, None)
        if key in ("s_values", "values"):
            words = "values and s_values must be finite: int too large to convert to float"
        else:
            words = f"{key} must be finite, got inf"
        assert err == f"error: {words}\n"

    @pytest.mark.parametrize("key", ["K", "N"])
    def test_solve_rejects_huge_size(self, tmp_path, capsys, key):
        raw = golden_solve_config()
        del raw["instance"]
        raw["system"][key] = 10**30
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


    # K = 1, N = 2^56: synthesis asks for a 3 EiB buffer first, which no
    # 64-bit address space can map; at 2^62 numpy refuses the size itself.
    # Neither allocates anything.
    @pytest.mark.parametrize(
        "command, system, trials",
        [
            pytest.param("solve", {"K": 1, "N": 2**56}, 1, id="solve"),
            pytest.param("sweep", {"K": 1, "N": 2**56}, 1, id="sweep"),
            pytest.param("solve", {"K": 2**62, "N": 1}, 1, id="solve-K=2^62"),
            pytest.param("sweep", {"K": 1, "N": 2**62}, 1, id="sweep-N=2^62"),
            pytest.param("sweep", {}, 2**62, id="sweep-trials=2^62"),
        ],
    )
    def test_unallocatable_run_exits_1(self, tmp_path, capsys, command, system, trials):
        raw = sweep_config(trials=trials)
        raw["system"].update(system)
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "sweep":
            argv[1:1] = ["--kind", "snr"]
        assert main(argv) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

class TestSweep:
    def test_two_line_csv(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out = tmp_path / "r.csv"
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "kind,value,scheme,nmse_mean,nmse_std,trials,mean_iters"
        assert len([l for l in lines if l]) == 2

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            sweep_config(trials=3, values=[0.0, 10.0], schemes=["nonrobust", "multistart"]),
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_plot_emitted(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sweep_config(values=[0.0, 10.0]))
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        code = main(
            [
                "sweep",
                "--kind",
                "snr",
                "--config",
                cfg,
                "--out",
                str(out),
                "--plot",
                str(svg),
            ]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_one_value_plot_at_any_magnitude(self, tmp_path):
        """A one-value sweep plots its point at the left margin, also where
        x + 1.0 == x (|x| >= 2^53), which used to divide by a zero width."""
        raw = json.loads((CONFIGS / "sweep_snr_example.json").read_text())
        raw["sweep"]["values"] = [1e16]
        del raw["sweep"]["s_values"]
        cfg = write_json(tmp_path / "cfg.json", raw)
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
        assert main([*argv, "--plot", str(svg)]) == 0
        assert out.read_text().split("\n")[1].startswith("snr,1e+16,")
        assert '<polyline points="70.00,' in svg.read_text()

    def test_failed_plot_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        """Both outputs are rendered before either is written."""
        monkeypatch.setattr(cli, "line_plot_svg", _raises(OSError("cannot render")))
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
        assert main([*argv, "--plot", str(svg)]) == 3
        assert capsys.readouterr().err == "error: cannot render\n"
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("plot", ["no-such-dir/r.svg", "d"], ids=["missing", "dir"])
    def test_unwritable_plot_writes_no_csv(self, tmp_path, capsys, plot):
        """A plot target in a missing directory, or an existing directory,
        exits 3 before the CSV is renamed into place."""
        (tmp_path / "d").mkdir()
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out = tmp_path / "r.csv"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
        assert main([*argv, "--plot", str(tmp_path / plot)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "d"]
        assert list((tmp_path / "d").iterdir()) == []

    @pytest.mark.parametrize("plot", ["r.csv", "./r.csv"])
    def test_plot_naming_the_out_file_rejected(self, tmp_path, monkeypatch, capsys, plot):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "cfg.json", sweep_config())
        argv = ["sweep", "--kind", "snr", "--config", "cfg.json", "--out", "r.csv"]
        assert main([*argv, "--plot", plot]) == 1
        assert capsys.readouterr().err == "error: --out and --plot name the same file\n"
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "outputs, flag",
        [
            pytest.param(["--out", "cfg.json"], "--out", id="out"),
            pytest.param(["--out", "r.csv", "--plot", "./cfg.json"], "--plot", id="plot"),
        ],
    )
    def test_output_naming_the_config_rejected(
        self, tmp_path, monkeypatch, capsys, outputs, flag
    ):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "cfg.json", sweep_config())
        before = (tmp_path / "cfg.json").read_bytes()
        assert main(["sweep", "--kind", "snr", "--config", "cfg.json", *outputs]) == 1
        assert capsys.readouterr().err == f"error: --config and {flag} name the same file\n"
        assert (tmp_path / "cfg.json").read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_failed_second_rename_keeps_the_first_output(self, tmp_path, monkeypatch):
        """The one partial case left: a rename that fails after an earlier
        one succeeded keeps the earlier output and removes the later temp."""
        renames = []

        def replace_once(src, dst):
            if renames:
                raise OSError("disk full")
            renames.append(dst)
            os.rename(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace_once)
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
        assert main([*argv, "--plot", str(svg)]) == 3
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "r.csv"]

    @pytest.mark.parametrize(
        "kind, values", [("n", [16.5, 32]), ("k", [0, 2]), ("n", [-4, 8])]
    )
    def test_size_values_must_be_integers(self, tmp_path, capsys, kind, values):
        cfg = write_json(tmp_path / "cfg.json", sweep_config(values=values))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--kind", kind, "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert "integers >= 1" in capsys.readouterr().err

    def test_integral_float_size_values(self, tmp_path):
        outs = []
        for values in ([16, 32], [16.0, 32.0]):
            cfg = write_json(tmp_path / "cfg.json", sweep_config(values=values))
            outs.append(tmp_path / f"{values[0]!r}.csv")
            argv = ["sweep", "--kind", "n", "--config", cfg, "--out", str(outs[-1])]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[1].read_text().split("\n")[1].startswith("n,16,")

    @pytest.mark.parametrize(
        "path",
        [("system", "K"), ("system", "N"), ("sweep", "trials"), ("master_seed",)],
    )
    def test_integral_float_integer_keys(self, tmp_path, path):
        """JSON Schema counts 2.0 as an integer: it must act as 2."""
        outputs = []
        for as_float in (False, True):
            raw = sweep_config(trials=2)
            section = raw if len(path) == 1 else raw[path[0]]
            if as_float:
                section[path[-1]] = float(section[path[-1]])
            cfg = write_json(tmp_path / f"{as_float}.json", raw)
            csv_out = tmp_path / f"{as_float}.csv"
            design = tmp_path / f"{as_float}.design.json"
            argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(csv_out)]
            assert main(argv) == 0
            assert main(["solve", "--config", cfg, "--out", str(design)]) == 0
            outputs.append((csv_out.read_bytes(), design.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "schemes, s_values, label",
        [
            (["multistart", "nonrobust", "multistart"], None, "multistart"),
            # {s:g} prints both as 0.4
            (["multistart"], [0.4, 0.4000001], "multistart|s=0.4"),
        ],
        ids=["repeated_scheme", "s_values_alike"],
    )
    def test_rows_sharing_a_label_rejected(
        self, tmp_path, capsys, schemes, s_values, label
    ):
        raw = sweep_config(schemes=schemes)
        if s_values:
            raw["sweep"]["s_values"] = s_values
        cfg = write_json(tmp_path / "cfg.json", raw)
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
        assert main([*argv, "--plot", str(svg)]) == 1
        assert not out.exists() and not svg.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: sweep rows must have distinct labels")
        assert err.count(repr(label)) == 2

    def test_missing_sweep_section(self, tmp_path):
        raw = golden_solve_config()
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "r.csv"
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]) == 1

    def test_unwritable_output(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out = tmp_path / "missing-dir" / "r.csv"
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]) == 3

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_mode_of_a_plain_write(self, tmp_path, umask):
        sweep_cfg = write_json(tmp_path / "sweep.json", sweep_config())
        solve_cfg = write_json(tmp_path / "solve.json", golden_solve_config())
        outputs = [tmp_path / name for name in ("r.csv", "r.svg", "design.json")]
        plain = tmp_path / "plain.txt"
        old = os.umask(umask)
        try:
            argv = ["sweep", "--kind", "snr", "--config", sweep_cfg]
            assert main([*argv, "--out", str(outputs[0]), "--plot", str(outputs[1])]) == 0
            assert main(["solve", "--config", solve_cfg, "--out", str(outputs[2])]) == 0
            with open(plain, "w"):
                pass
        finally:
            os.umask(old)
        assert plain.stat().st_mode & 0o777 == 0o666 & ~umask
        for out in outputs:
            assert out.stat().st_mode == plain.stat().st_mode, out

    @pytest.mark.parametrize(
        "plot, modes",
        [
            (False, {}),
            (True, {}),
            (False, {"eval_mode": "realized", "error_sampling": "interior"}),
        ],
        ids=["csv", "plot", "realized"],
    )
    def test_non_finite_nmse_is_a_solver_error(self, tmp_path, plot, modes):
        """At s = 1e200, |h_hat|^2 overflows in synthesis and the design's
        NMSE is NaN (in realized mode the error's projection c overflows
        too, while its norm stays finite): the sweep exits 2 and writes
        nothing."""
        raw = sweep_config(trials=5, values=[0.0, 10.0], schemes=["multistart"])
        raw["system"].update(K=3, N=4, s=1e200, **modes)
        cfg = write_json(tmp_path / "cfg.json", raw)
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
        run = run_cli_child(argv + (["--plot", str(svg)] if plot else []))
        assert run.returncode == 2 and "Traceback" not in run.stderr
        last = run.stderr.splitlines()[-1]
        assert last == "solver error: NMSE is not finite at snr 0.0, s 1e+200"
        assert not out.exists() and not svg.exists()

    def test_first_non_finite_cell_in_value_s_order_is_reported(self, tmp_path):
        """Of the cells whose NMSE is not finite, every value's at s = 1e200,
        the error names the first in (value, s) order: snr 0.0, s 1e+200,
        after the finite cell at s = 0.4; nothing is written."""
        raw = sweep_config(trials=5, values=[0.0, 10.0], schemes=["multistart"])
        raw["system"].update(K=3, N=4)
        raw["sweep"]["s_values"] = [0.4, 1e200]
        cfg = write_json(tmp_path / "cfg.json", raw)
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
        run = run_cli_child(argv + ["--plot", str(svg)])
        assert run.returncode == 2 and "Traceback" not in run.stderr
        last = run.stderr.splitlines()[-1]
        assert last == "solver error: NMSE is not finite at snr 0.0, s 1e+200"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


class TestVerifyCommand:
    def test_worstcase_suite_passes(self, capsys):
        assert main(["verify", "--suite", "worstcase", "--trials", "200", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS suite=worstcase")

    def test_kkt_suite_passes(self):
        assert main(["verify", "--suite", "kkt", "--trials", "50", "--seed", "1"]) == 0

    def test_zero_trials_invalid(self):
        assert main(["verify", "--suite", "oracle", "--trials", "0"]) == 1

    def test_run_suite_rejects_bad_arguments(self):
        with pytest.raises(ConfigError, match="trials"):
            verify.run_suite("kkt", 0, 1)
        with pytest.raises(ConfigError, match="seed"):
            verify.run_suite("kkt", 1, -1)

    def test_run_suite_rejects_an_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite 'monotone'"):
            verify.run_suite("monotone", 1, 0)

    def test_value_error_inside_a_suite_propagates(self, capsys, monkeypatch):
        """A ValueError from a suite's own code is a defect, not bad input,
        so it leaves main as it is."""
        error = ValueError("operands could not be broadcast together")
        monkeypatch.setattr(verify, "_sensors", _raises(error))
        with pytest.raises(ValueError) as info:
            main(["verify", "--suite", "kkt", "--trials", "1"])
        assert info.value is error
        assert capsys.readouterr().err == ""

    # each suite fails on a mutated copy of the shipped design path
    def fails(self, capsys, suite):
        assert main(["verify", "--suite", suite, "--trials", "20", "--seed", "1"]) == 4
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL suite={suite} ")
        fields = dict(item.split("=") for item in out.split()[1:])
        assert int(fields["failures"]) > 0
        assert float(fields["worst_deviation"]) > float(fields["tolerance"])

    def test_t_exact_without_its_clip_fails_oracle(self, monkeypatch, capsys):
        def unclipped(a, eps_rootN, noise_var, P):
            b = np.asarray(a - eps_rootN, dtype=float)
            tau = np.zeros_like(b)
            return np.divide(b, b * b + noise_var / P, out=tau, where=b > 0)

        monkeypatch.setattr(optimizer, "t_exact", unclipped)
        self.fails(capsys, "oracle")

    def test_scaled_multiplier_fails_kkt(self, monkeypatch, capsys):
        real = verify.certificate

        def scaled(*args):
            cert = real(*args)
            return replace(cert, lambdas=cert.lambdas * 1.01)

        monkeypatch.setattr(verify, "certificate", scaled)
        self.fails(capsys, "kkt")

    def test_offset_phases_fail_worstcase(self, monkeypatch, capsys):
        real = verify.ris_phases
        monkeypatch.setattr(verify, "ris_phases", lambda h_hat: real(h_hat) + 0.3)
        self.fails(capsys, "worstcase")


def _raises(error):
    def raise_error(*args, **kwargs):
        raise error

    return raise_error


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "failure, code, prefix",
    [
        ("config", 1, "error: bad config\n"),
        ("solver", 2, "solver error: every channel estimate is zero\n"),
        ("io", 3, "error: cannot write "),
    ],
    ids=["config", "solver", "io"],
)
def test_main_maps_errors_to_exit_codes(
    tmp_path, capsys, monkeypatch, command, failure, code, prefix
):
    """main turns a ConfigError, any other AirCompError and an OSError into
    exit 1, 2 and 3 with their stderr line, whichever callee raised it, and
    the failed run leaves no output, not even a temp file."""
    if failure == "config":
        monkeypatch.setattr(cli, "load_config", _raises(ConfigError("bad config")))
    elif failure == "solver":
        designer = "robust_scalars" if command == "solve" else "run_sweep"
        error = AirCompError("every channel estimate is zero")
        monkeypatch.setattr(cli, designer, _raises(error))
    else:  # the rename that puts a written output in place fails
        monkeypatch.setattr(cli.os, "replace", _raises(OSError("disk full")))
    raw = golden_solve_config() if command == "solve" else sweep_config()
    cfg = write_json(tmp_path / "cfg.json", raw)
    argv = ["solve"] if command == "solve" else ["sweep", "--kind", "snr"]
    out = tmp_path / "out"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_other_error_mid_write_propagates_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    """An error that is not an OSError, raised while the outputs are put in
    place, leaves main as it is, and no output or temp file is left."""
    error = RuntimeError("interrupted")
    monkeypatch.setattr(cli.os, "replace", _raises(error))
    cfg = write_json(tmp_path / "cfg.json", sweep_config())
    argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(tmp_path / "r.csv")]
    with pytest.raises(RuntimeError) as info:
        main([*argv, "--plot", str(tmp_path / "r.svg")])
    assert info.value is error
    assert capsys.readouterr().err == ""
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_value_error_other_than_too_big_propagates(tmp_path, capsys, monkeypatch):
    """Only numpy's "array is too big" ValueError is an allocation failure;
    any other leaves main as it is."""
    error = ValueError("operands could not be broadcast together")
    monkeypatch.setattr(cli, "run_sweep", _raises(error))
    cfg = write_json(tmp_path / "cfg.json", sweep_config())
    with pytest.raises(ValueError) as info:
        main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(tmp_path / "r")])
    assert info.value is error
    assert capsys.readouterr().err == ""
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "command, message",
    [
        (["solve"], "the design is not finite: m, lambda, worst_case_terms, objective"),
        (["sweep", "--kind", "snr"], "NMSE is not finite at snr 10.0, s 1e+300"),
    ],
    ids=["solve", "sweep"],
)
def test_overflow_exits_with_one_stderr_line(tmp_path, command, message):
    """At s = 1e300, |h_hat|^2 overflows and the design is not finite: the
    command exits 2 with its one solver error line and no numpy warning
    before it, in a child process, where warnings print as they would for
    a user."""
    raw = {
        "system": {"K": 2, "N": 3, "P": 10, "noise_var": 1, "s": 1e300},
        "sweep": {"values": [10], "trials": 3, "schemes": ["multistart"]},
        "master_seed": 7,
    }
    cfg = write_json(tmp_path / "cfg.json", raw)
    run = run_cli_child([*command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert run.returncode == 2
    assert run.stderr.splitlines() == [f"solver error: {message}"]
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "monotone", "--trials", "3"],
            ["sweep", "--kind", "x", "--config", "cfg.json", "--out", "r.csv"],
            ["sweep", "--kind", "snr", "--config", "cfg.json"],
            ["verify", "--suite", "kkt", "--trials", "1", "--seed", "-1"],
        ],
        ids=["retired_suite", "unknown_kind", "missing_out", "negative_seed"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: aircomp")

class TestLazyRandom:
    """numpy.random is loaded only by what draws random numbers, and no
    JSON Schema library at all, which keeps the CLI's start-up time down."""

    def run_fresh(self, code):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_importing_cli_loads_neither_numpy_random_nor_jsonschema(self):
        self.run_fresh(
            "import sys, aircomp_ris.cli\n"
            "assert 'numpy.random' not in sys.modules\n"
            "assert 'jsonschema' not in sys.modules"
        )

    def test_importing_cli_does_not_load_concurrent_futures(self):
        # ~7 ms of start-up; synthesis imports it on its first split
        self.run_fresh(
            "import sys, aircomp_ris.cli\n"
            "assert 'concurrent.futures' not in sys.modules"
        )

    def test_solve_on_an_instance_does_not_load_numpy_random(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", golden_solve_config())
        out = tmp_path / "design.json"
        self.run_fresh(
            "import sys\n"
            "from aircomp_ris.cli import main\n"
            f"assert main(['solve', '--config', {cfg!r}, '--out', {str(out)!r}]) == 0\n"
            "assert 'numpy.random' not in sys.modules"
        )
        assert out.is_file()

# ints, +-0.0, subnormals, +-1e308 and any other finite double
_NUMBERS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
    ),
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=False, allow_infinity=False),
)
_RADII = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e308]),
    st.integers(0, 2**64),
    st.floats(min_value=0.0, allow_infinity=False),
)


@st.composite
def instance_configs(draw):
    K = draw(st.integers(1, 4))
    N = draw(st.integers(1, 4))
    pair = st.lists(_NUMBERS, min_size=2, max_size=2)
    row = st.lists(pair, min_size=N, max_size=N)
    raw = golden_solve_config()
    raw["system"].update(K=K, N=N)
    raw["instance"] = {
        "h_hat": draw(st.lists(row, min_size=K, max_size=K)),
        "eps": draw(st.lists(_RADII, min_size=K, max_size=K)),
    }
    return raw


def full_config():
    """A valid config with every section and every optional key."""
    raw = sweep_config()
    raw["system"].update(eval_mode="worst", error_sampling="surface")
    raw["sweep"]["s_values"] = [0.4]
    raw["instance"] = {"h_hat": [[[1.0, 0.0]] * 3] * 2, "eps": [0.0, 0.0]}
    return raw


_DROP = object()
_REQUIRED = {
    None: ["system", "master_seed"],
    "system": ["K", "N", "P", "noise_var"],
    "sweep": ["values", "trials", "schemes"],
    "instance": ["h_hat", "eps"],
}
_MUTATIONS = (
    [(section, "extra", 1) for section in _REQUIRED]
    + [(section, key, _DROP) for section, keys in _REQUIRED.items() for key in keys]
    + [("system", key, True) for key in ("K", "P")]
    + [("sweep", "trials", True), (None, "master_seed", True)]
    + [("system", "noise_var", "1.0"), ("system", "N", 2.5), ("sweep", "trials", 2.5)]
    + [(None, "master_seed", -1), ("sweep", "s_values", [-0.1])]
    + [("sweep", key, []) for key in ("values", "schemes", "s_values")]
    + [("sweep", "values", [True])]
)
# SweepSpec's rule, the one home of each list's emptiness check
_EMPTY_LIST_ERRORS = {
    "values": "values must be non-empty and strictly increasing",
    "schemes": "schemes must be non-empty",
    "s_values": "s_values must be non-empty when given",
}


def _mutated(section, key, value):
    raw = full_config()
    target = raw if section is None else raw[section]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        pytest.param(
            _mutated(*case),
            _EMPTY_LIST_ERRORS.get(case[1]) if case[2] == [] else None,
            id=f"{case[0] or 'top'}.{case[1]}"
            + ("-missing" if case[2] is _DROP else f"={json.dumps(case[2])}"),
        )
        for case in _MUTATIONS
    ]
    + [pytest.param([full_config()], None, id="top_level_list")],
)
def test_config_shape_and_range_rules(tmp_path, capsys, raw, message):
    """Each case breaks one rule of a config that is valid without it; an
    empty list gets SweepSpec's message."""
    parse_config(full_config())
    cfg = write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "r.csv"
    assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("P", 0, "P must be > 0"),
        ("P", -1.0, "P must be > 0"),
        ("noise_var", -0.5, "noise_var must be >= 0"),
    ],
)
def test_power_and_noise_ranges(tmp_path, capsys, command, key, value, message):
    raw = sweep_config()
    raw["system"][key] = value
    cfg = write_json(tmp_path / "cfg.json", raw)
    kind = ["--kind", "snr"] if command == "sweep" else []
    assert main([command, *kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


# extremes of a double and a few plain numbers; wrong JSON types
_POSITIVE = [5e-324, 1e-300, 0.1, 0.4, 1, 1.0, 10.0, 2.0**53, 1e300, 1.7e308]
_EXTREMES = st.sampled_from([0, -0.0, *_POSITIVE, *(-x for x in _POSITIVE)])
_WRONG = st.sampled_from([None, True, "1", [1], {"a": 1}])
# a size is small, or one the checks refuse before anything is allocated
_SIZE_BAD = st.sampled_from([0, -1, 2.5, 1e300, 2**64 + 1])


def _mostly(draw, good, bad):
    """A draw of good, or about one time in 16 a draw of bad."""
    return draw(bad if draw(st.integers(0, 15)) == 15 else good)


@st.composite
def fuzzed_configs(draw):
    """Configs of the documented shape, mostly valid, with extreme numbers,
    wrong types, unknown and missing keys, duplicate values and instance
    sections."""
    bad_number = st.one_of(_EXTREMES, _WRONG)
    number = st.sampled_from([0, *_POSITIVE])
    K, N = (_mostly(draw, st.integers(1, 4), _SIZE_BAD | _WRONG) for _ in "KN")
    system = {"K": K, "N": N}
    system["P"] = _mostly(draw, st.sampled_from(_POSITIVE), bad_number)
    for key in ("noise_var", "s"):
        system[key] = _mostly(draw, number, bad_number)
    mode_keys = {"eval_mode": EVAL_MODES, "error_sampling": ERROR_SAMPLING_MODES}
    for key, modes in mode_keys.items():
        if draw(st.booleans()):
            system[key] = _mostly(draw, st.sampled_from(modes), _WRONG | st.just("x"))
    # sizes, which every kind takes, or numbers, which only an SNR sweep takes
    value = draw(st.sampled_from([st.integers(1, 4), number]))
    values = st.lists(value, min_size=1, max_size=3, unique=True).map(sorted)
    unsorted = st.lists(_EXTREMES | st.integers(1, 4), max_size=3)
    sweep = {
        "values": _mostly(draw, values, unsorted | _WRONG),
        "trials": _mostly(draw, st.integers(1, 3), _SIZE_BAD | _WRONG),
        "schemes": _mostly(
            draw,
            st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=3, unique=True),
            st.lists(st.sampled_from([*SCHEMES, "x"]), max_size=3) | _WRONG,
        ),
    }
    if draw(st.booleans()):
        s_values = st.lists(number, min_size=1, max_size=2, unique=True).map(sorted)
        sweep["s_values"] = _mostly(draw, s_values, st.lists(bad_number) | _WRONG)
    seeds = st.sampled_from([0, 7, 2**64 + 1, 2**70])
    raw = {"system": system, "master_seed": _mostly(draw, seeds, bad_number)}
    if draw(st.integers(0, 3)) < 3:
        raw["sweep"] = sweep
    if draw(st.booleans()):
        rows, cols = (n if type(n) is int and 1 <= n <= 4 else 1 for n in (K, N))
        pair = st.lists(_EXTREMES, min_size=2, max_size=2)
        row = st.lists(pair, min_size=cols, max_size=cols)
        h_hat = st.lists(row, min_size=rows, max_size=rows)
        eps = st.lists(number, min_size=rows, max_size=rows)
        raw["instance"] = {
            "h_hat": _mostly(draw, h_hat, st.lists(st.lists(pair)) | _WRONG),
            "eps": _mostly(draw, eps, st.lists(bad_number)),
        }
    sections = [raw, *(v for v in raw.values() if isinstance(v, dict))]
    if draw(st.integers(0, 15)) == 15:
        draw(st.sampled_from(sections))["extra"] = 1
    if draw(st.integers(0, 15)) == 15:
        section = draw(st.sampled_from(sections))
        del section[draw(st.sampled_from(sorted(section)))]
    return raw


def _all_finite(node, key=None):
    """Every number in a parsed JSON document is finite; a lambda may be null."""
    if isinstance(node, dict):
        return all(_all_finite(value, name) for name, value in node.items())
    if isinstance(node, list):
        return all(_all_finite(value, key) for value in node)
    if node is None:
        return key == "lambda"
    return math.isfinite(node)


def _output_is_finite(path):
    text = path.read_text()
    if path.suffix == ".json":
        return _all_finite(json.loads(text))
    if path.suffix == ".csv":
        header, *rows = (line.split(",") for line in text.splitlines())
        assert header == cli.CSV_HEADER and rows
        # every column but kind and scheme is a number
        numeric = [i for i, name in enumerate(header) if name not in ("kind", "scheme")]
        return all(math.isfinite(float(row[i])) for row in rows for i in numeric)
    coords = re.findall(r' (?:x1?|y1?|x2|y2|cx|cy|points)="([^"]*)"', text)
    return all(math.isfinite(float(x)) for c in coords for x in re.split("[ ,]", c))


_RUNS = [(["solve"], None)] + [
    (["sweep", "--kind", kind], plot)
    for kind in SWEEP_KINDS
    for plot in ("r.svg", None)
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(raw=fuzzed_configs())
# x + 1.0 == x past 2^53; pw * (x - x_min) overflows across the largest double
@example(raw=sweep_config(values=[1e16]))
@example(raw=sweep_config(values=[1, 1.7e308]))
def test_every_config_gets_a_documented_exit(raw):
    """solve and every sweep kind, with and without --plot, exit through
    main with a documented code and its stderr prefix; a failed run writes
    nothing, and a run that succeeds writes only finite numbers."""
    prefixes = {cli.EXIT_CONFIG: "error: ", cli.EXIT_SOLVER: "solver error: "}
    for argv, plot in _RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_json(Path(tmp) / "cfg.json", raw)
            out = Path(tmp) / ("design.json" if argv == ["solve"] else "r.csv")
            argv = [*argv, "--config", cfg, "--out", str(out)]
            if plot:
                argv += ["--plot", str(Path(tmp) / plot)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            written = sorted(p for p in Path(tmp).iterdir() if p.name != "cfg.json")
            if code == cli.EXIT_OK:
                assert len(written) == (2 if plot else 1), argv
                assert all(map(_output_is_finite, written)), (argv, raw)
            else:
                assert code in prefixes, (code, argv, raw)
                assert err.getvalue().startswith(prefixes[code]), err.getvalue()
                assert written == [], (argv, raw)


def test_example_sweep_checks_each_config_once(tmp_path, monkeypatch):
    """The example sweep checks the system's SystemConfig and each of its
    5 x 2 cells' once: the sweep section is parsed once, for --kind."""
    calls = []
    check = SystemConfig.__post_init__
    monkeypatch.setattr(
        SystemConfig, "__post_init__", lambda self: calls.append(1) or check(self)
    )
    config = str(CONFIGS / "sweep_snr_example.json")
    argv = ["sweep", "--kind", "snr", "--config", config, "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    assert len(calls) == 11


class TestConfigRoundTrip:
    @pytest.mark.parametrize("kind, snr_db", [("snr", None), ("n", 0.0), ("k", 10.0)])
    def test_figure_configs(self, kind, snr_db):
        cfg = load_config(CONFIGS / f"fig_{kind}.json", kind)
        spec = cfg.sweep
        assert (spec.trials, spec.master_seed) == (200, 20240823)
        if snr_db is not None:
            # the SNR of the figure, written as its exact noise variance
            assert cfg.system.noise_var == snr_to_noise_var(snr_db, cfg.system.P)

    def test_round_trip(self, tmp_path):
        raw = sweep_config(trials=2, values=[1.0, 2.0])
        cfg = parse_config(raw)
        again = parse_config(serialize_config(cfg))
        assert serialize_config(cfg) == serialize_config(again)

    @given(raw=instance_configs())
    @settings(max_examples=200, deadline=None)
    def test_instance_parsed_exactly(self, raw):
        h_hat, eps = parse_config(raw).instance
        pairs = raw["instance"]["h_hat"]
        ref_h = np.array([[complex(re, im) for re, im in row] for row in pairs])
        ref_eps = np.array([float(e) for e in raw["instance"]["eps"]])
        assert h_hat.dtype == np.complex128 and eps.dtype == np.float64
        assert h_hat.shape == ref_h.shape and eps.shape == ref_eps.shape
        # bit for bit, so the sign of each zero counts
        assert h_hat.tobytes() == ref_h.tobytes()
        assert eps.tobytes() == ref_eps.tobytes()

    @given(raw=instance_configs())
    @example(raw=golden_solve_config())
    @settings(max_examples=200, deadline=None)
    def test_instance_round_trip(self, raw):
        cfg = parse_config(raw)
        again = parse_config(json.loads(json.dumps(serialize_config(cfg))))
        for first, second in zip(cfg.instance, again.instance):
            assert first.tobytes() == second.tobytes()

    def test_instance_dimension_checks(self):
        raw = golden_solve_config()
        raw["instance"]["eps"] = [0.0, 0.1]
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize(
        "bad", [True, "1", None, [1.0], {"a": 1.0}], ids=json.dumps
    )
    def test_instance_leaf_of_another_type(self, tmp_path, capsys, bad):
        """A leaf of h_hat or eps that is not a number, at every place in
        turn, makes solve exit 1 with the shape message and write nothing."""
        K, N = 2, 2
        out = tmp_path / "design.json"
        for name, shape in (("h_hat", (K, N, 2)), ("eps", (K,))):
            for index in np.ndindex(shape):
                raw = _instance_config(K, N, 10.0, False)
                parent = raw["instance"][name]
                for i in index[:-1]:
                    parent = parent[i]
                parent[index[-1]] = bad
                cfg = write_json(tmp_path / "cfg.json", raw)
                assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert err == f"error: instance {name} must be numbers of shape {shape}\n"
                assert not out.exists()

    def test_instance_leaves_of_every_number_type(self):
        """ints, floats and numpy doubles are numbers; bools are not."""
        raw = golden_solve_config()
        raw["system"].update(K=2)
        raw["instance"] = {
            "h_hat": [[[1, np.float64(-0.0)]], [[0.5, np.float64(2.5)]]],
            "eps": [np.float64(0.25), 0],
        }
        h_hat, eps = parse_config(raw).instance
        assert h_hat.tobytes() == np.array([[complex(1, -0.0)], [2.5j + 0.5]]).tobytes()
        assert eps.tolist() == [0.25, 0.0]
        raw["instance"]["eps"][1] = np.bool_(False)
        with pytest.raises(ConfigError, match=r"instance eps must be numbers"):
            parse_config(raw)


# sha256 of the CSV each figure config writes; the 1e-12 goldens cannot
# see a change in the last bit, and the repr-formatted CSV can. Keyed by
# config, configs/fig_<key>.json, whose sweep kind leads the key.
FIGURE_CSV_SHA256 = {
    "snr": "06acaac77b4e740555c4e0d73a7a6e1f59208da1e6c6d8efbf58fc68480d1251",
    "n": "d1a9b7bdac7baf80990f94cf66697e4c3ab0e4256bacdd0568b9a34929ae7314",
    "k": "57ca412e97aeb0e4e31a7e254a1e5dfa984814310e860fe9e1afdeab66e27ed8",
    "snr_realized": "5b60ac5bf5c4cba626caf50561136dd1537bfce431349417303b7a29d0264426",
}


@pytest.mark.parametrize("name", list(FIGURE_CSV_SHA256))
def test_figure_csv_bytes(tmp_path, name):
    out = tmp_path / f"fig_{name}.csv"
    config = str(CONFIGS / f"fig_{name}.json")
    kind = name.split("_")[0]
    assert main(["sweep", "--kind", kind, "--config", config, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_CSV_SHA256[name]


# a realized-mode K sweep with interior errors, small enough for tier-1
REALIZED_K_SWEEP = {
    "system": {
        "K": 2,
        "N": 5,
        "P": 10.0,
        "noise_var": 1.0,
        "s": 0.4,
        "eval_mode": "realized",
        "error_sampling": "interior",
    },
    "sweep": {
        "values": [1, 3, 8],
        "trials": 200,
        "schemes": ["robust_exact", "nonrobust"],
    },
    "master_seed": 4,
}
# sha256 of the example solve design without v_phases (see
# test_figure_csv_bytes_at_baseline_dispatch), written as solve writes it,
# of the example sweep's SVG and of the REALIZED_K_SWEEP CSV
OUTPUT_SHA256 = {
    "solve_example": "1826b68eb3087f0df73e3c395c360c01c07ad938f10424f5d814ede2e2eb6aa0",
    "sweep_svg": "6001f59dc01ec9cf6d800144ab2aa3c0f3c4fc4e394785199740a62187d94848",
    "realized_k": "35903f85c1d921990230a5990d54346a0b0e68db27c4953c31e466b873dfbbb6",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# 2000 random designs of K, N <= 4 and the x = 1e154 probe measured 4 ulps at most
SOLVE_ULPS = 8
ITEM_7 = pytest.mark.xfail(strict=True, reason="ROADMAP item 7")


@pytest.mark.parametrize(
    "x, noise_var",
    [
        (1e154, 1.0),
        pytest.param(1e160, 1.0, marks=ITEM_7),
        pytest.param(1e-160, 0.0, marks=ITEM_7),
        pytest.param(1e-200, 0.0, marks=ITEM_7),
    ],
)
def test_solve_probe_is_the_exact_design(tmp_path, x, noise_var):
    """K = 2, N = 8, P = 10, eps = 0, h_hat_0 = x and h_hat_1 = 1 in every
    entry: solve exits 0, and each number it writes is within SOLVE_ULPS
    ulps of exact_design rounded to double. An ulp is taken at the larger
    of the exact value, its cancellation-free magnitude and the smallest
    normal double."""
    rows = [[x] * 8, [1.0] * 8]
    raw = {
        "system": {"K": 2, "N": 8, "P": 10.0, "noise_var": noise_var, "s": 0.0},
        "instance": {"h_hat": [[[v, 0.0] for v in row] for row in rows], "eps": [0, 0]},
        "master_seed": 0,
    }
    cfg = write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "design.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    h_hat = np.array(rows, dtype=complex)
    exact = exact_design(h_hat, [0.0, 0.0], 8, noise_var, 10.0)
    size = exact_design(h_hat, [0.0, 0.0], 8, noise_var, 10.0, magnitude=True)
    assert doc["lambda"] == exact["lambda"] == [None, None]
    assert doc["v_phases"] == [[0.0] * 8] * 2
    assert [im for _, im in doc["t"]] == [0.0, 0.0]
    assert doc["power_budget"] == 10.0
    doc["t"] = [re for re, _ in doc["t"]]
    for key in ("m", "t", "worst_case_terms", "objective", "sum_power"):
        got, want, scale = (np.atleast_1d(d[key]) for d in (doc, exact, size))
        for g, w, z in zip(got, want, scale):
            ulp = math.ulp(max(abs(float(w)), float(z), sys.float_info.min))
            assert abs(g - float(w)) <= SOLVE_ULPS * ulp, (key, g, w)


def design_sha256(path):
    """The sha256 OUTPUT_SHA256["solve_example"] pins, of the design file at
    path. CI calls it on the installed console script's design."""
    design = json.loads(Path(path).read_text())
    del design["v_phases"]
    return sha256((json.dumps(design, indent=2) + "\n").encode())


def solve_example_sha256(tmp_path):
    """Solve configs/solve_example.json; the sha256 its OUTPUT_SHA256 pins."""
    out = tmp_path / "design.json"
    config = str(CONFIGS / "solve_example.json")
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    return design_sha256(out)


def test_solve_example_design_bytes(tmp_path):
    assert solve_example_sha256(tmp_path) == OUTPUT_SHA256["solve_example"]


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    """One parser serves every main call in a process: a usage error, a
    --help and a solve leave nothing in it for the next command to read."""
    assert cli.build_parser() is cli.build_parser()
    assert main(["sweep", "--kind", "x", "--config", "c.json", "--out", "r.csv"]) == 1
    assert "invalid choice: 'x'" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: aircomp [-h]")
    assert solve_example_sha256(tmp_path) == OUTPUT_SHA256["solve_example"]
    cfg = write_json(tmp_path / "cfg.json", sweep_config(values=[3, 4]))
    out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    argv = ["sweep", "--kind", "n", "--config", cfg, "--out", str(out)]
    assert main([*argv, "--plot", str(svg)]) == 0
    assert out.read_text().split("\n")[1].startswith("n,3,")
    assert svg.read_text().startswith("<svg")
    svg.unlink()
    argv[2] = "snr"
    assert main(argv) == 0
    assert out.read_text().split("\n")[1].startswith("snr,3.0,")
    assert not svg.exists()


def _instance_config(K, N, P, zero_eps):
    """An explicit K x N cascaded Rayleigh instance with eps = 0.4 |h_hat|,
    or eps = 0 on sensor 0."""
    rng = np.random.default_rng(3)
    g, r = (rng.normal(size=(2, K, N)) + 1j * rng.normal(size=(2, K, N))) * 0.5
    h_hat = g * np.conj(r)
    eps = 0.4 * np.linalg.norm(h_hat, axis=1)
    if zero_eps:
        eps[0] = 0.0
    return {
        "system": {"K": K, "N": N, "P": P, "noise_var": 1.0},
        "instance": {
            "h_hat": np.stack([h_hat.real, h_hat.imag], axis=-1).tolist(),
            "eps": eps.tolist(),
        },
        "master_seed": 0,
    }


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(None, id="example"),
        pytest.param(_instance_config(32, 64, 10.0, False), id="K32_N64"),
        pytest.param(_instance_config(3, 2, 10, True), id="zero_eps_int_P"),
    ],
)
def test_solve_writes_json_dumps_indent_2(tmp_path, config):
    """A design file is json.dumps(indent=2) of its own values, byte for
    byte: floats by repr, ints as ints, an eps_k = 0 lambda as null."""
    path = CONFIGS / "solve_example.json" if config is None else tmp_path / "c.json"
    if config is not None:
        write_json(path, config)
    out = tmp_path / "design.json"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if config is not None and config["instance"]["eps"][0] == 0.0:
        assert doc["lambda"][0] is None
        assert text.endswith('"power_budget": 10\n}\n')


# a number as solve writes it: extremes of a double, ints, and floats
_DOC_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1e16, 0.1]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def solve_documents(draw):
    """Documents of a solve design's shape at K, N in 1..4; null may sit at
    any number's place, as it does in lambda."""
    K, N = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    number = st.one_of(_DOC_NUMBERS, st.none())

    def row(n):
        return st.lists(number, min_size=n, max_size=n)

    return {
        "m": draw(number),
        "t": draw(st.lists(row(2), min_size=K, max_size=K)),
        "v_phases": draw(st.lists(row(N), min_size=K, max_size=K)),
        "lambda": draw(row(K)),
        "worst_case_terms": draw(row(K)),
        "objective": draw(number),
        "sum_power": draw(number),
        "power_budget": draw(number),
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=solve_documents())
@example(
    doc={
        "m": -0.0,
        "t": [[5e-324, None]],
        "v_phases": [[1.7e308]],
        "lambda": [None],
        "worst_case_terms": [0],
        "objective": 10,
        "sum_power": 2**64,
        "power_budget": None,
    }
)
def test_indented_is_json_dumps_indent_2(doc):
    assert cli._indented(doc) == json.dumps(doc, indent=2, allow_nan=False)


def test_example_sweep_svg_bytes(tmp_path):
    csv, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    config = str(CONFIGS / "sweep_snr_example.json")
    argv = ["sweep", "--kind", "snr", "--config", config, "--out", str(csv)]
    assert main(argv + ["--plot", str(svg)]) == 0
    assert sha256(svg.read_bytes()) == OUTPUT_SHA256["sweep_svg"]


def test_realized_k_sweep_csv_bytes(tmp_path):
    config = write_json(tmp_path / "realized.json", REALIZED_K_SWEEP)
    out = tmp_path / "realized.csv"
    assert main(["sweep", "--kind", "k", "--config", config, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == OUTPUT_SHA256["realized_k"]


# sha256 of line_plot_svg on series that reach its edge cases: a one-point
# range past 2^53, a span across the largest double, a flat NMSE (widened
# log range), an all-zero NMSE (the 1e-12 floor) and colours that wrap
SVG_SERIES_SHA256 = {
    "one_point_1e16": (
        {"multistart": [(1e16, 0.25)]},
        "1a511ad1e1ac389d999d57d1e90b84d2ccd25a896f345c0c34b40cb9f6c5d32e",
    ),
    "x_across_largest_double": (
        {"nonrobust": [(1, 0.1), (1.7e308, 0.01)]},
        "6d2008354d538a7086d3e2c7f4fbdb87fa1076f3b4736bddd2ee9f023a3ca108",
    ),
    "flat_nmse": (
        {"multistart": [(0.0, 0.2), (10.0, 0.2)]},
        "7d3cfad4df7d2072d37d27d05cad81de9b751d3cee8cf269b0624415a020aa06",
    ),
    "all_zero_nmse": (
        {"multistart": [(0.0, 0.0), (5.0, 0.0)]},
        "1510004b5eee67dc82793c19a4bf88425b003b00ab18820aa299860d5866621d",
    ),
    "nine_series": (
        {f"scheme{i}": [(0.0, 10.0**-i), (10.0, 10.0 ** -(i + 1))] for i in range(9)},
        "9a190891dfbac68acfc1c9c950940ef910a28015d0bed82dd913176a26045353",
    ),
}


@pytest.mark.parametrize("case", list(SVG_SERIES_SHA256))
def test_svg_bytes_at_edge_cases(case):
    series, pinned = SVG_SERIES_SHA256[case]
    svg = cli.line_plot_svg(series, "SNR (dB)", title="NMSE vs snr")
    assert sha256(svg.encode()) == pinned


def test_csv_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    """Synthesis draws a large block's trials on every CPU the process may
    run on; a process pinned to one CPU writes the same CSV bytes, for a
    realized-mode K sweep with interior errors and for the figure N sweep."""
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs the CPU affinity API and at least two CPUs")
    from aircomp_ris import model

    realized = {
        "system": {
            "K": 3,
            "N": 192,
            "P": 10.0,
            "noise_var": 1.0,
            "s": 0.4,
            "eval_mode": "realized",
            "error_sampling": "interior",
        },
        "sweep": {
            "values": [3, 9],
            "trials": 31,
            "schemes": ["robust_exact", "nonrobust"],
        },
        "master_seed": 5,
    }
    runs = [
        ("realized", "k", write_json(tmp_path / "realized.json", realized)),
        ("fig_n", "n", str(CONFIGS / "fig_n.json")),
    ]
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "assert len(os.sched_getaffinity(0)) == 1\n"
        "from aircomp_ris.cli import main\n"
        "out, *runs = sys.argv[1:]\n"
        "for name, kind, config in zip(runs[::3], runs[1::3], runs[2::3]):\n"
        "    argv = ['sweep', '--kind', kind, '--config', config]\n"
        "    assert main(argv + ['--out', f'{out}/{name}_one_cpu.csv']) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = [str(tmp_path), *sum(runs, ())]
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True, timeout=300)
    split = []
    run_ranges = model._run_ranges

    def spy(fn, ranges):
        split.append(len(ranges) > 1)
        return run_ranges(fn, ranges)

    monkeypatch.setattr(model, "_run_ranges", spy)
    for name, kind, config in runs:
        split.clear()
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", "--kind", kind, "--config", config, "--out", str(out)]
        assert main(argv) == 0
        assert any(split), name
        one_cpu = (tmp_path / f"{name}_one_cpu.csv").read_bytes()
        assert out.read_bytes() == one_cpu, name


def test_figure_csv_bytes_at_baseline_dispatch(tmp_path):
    """numpy picks SIMD kernels by CPU, and some of them round differently
    at each level. In a process limited to numpy's baseline kernels, as on a
    CPU without the others, the figure sweeps write the pinned bytes, a
    realized-mode K sweep with interior errors the bytes it writes here, and
    `aircomp solve` the design it writes here but for v_phases, whose
    np.arctan2 may round differently."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    # a name the CPU lacks is already off, and numpy warns when asked to
    # disable it
    names = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not names:
        pytest.skip("numpy runs only its baseline kernels on this CPU")
    # a synthesized instance larger than the example's K=4, N=16
    large = {
        "system": {"K": 32, "N": 64, "P": 10.0, "noise_var": 1.0, "s": 0.4},
        "master_seed": 9,
    }
    runs = [
        (f"fig_{name}", name.split("_")[0], str(CONFIGS / f"fig_{name}.json"))
        for name in FIGURE_CSV_SHA256
    ]
    realized = write_json(tmp_path / "realized.json", REALIZED_K_SWEEP)
    runs.append(("realized", "k", realized))
    solves = [
        ("solve_example", "solve", str(CONFIGS / "solve_example.json")),
        ("solve_large", "solve", write_json(tmp_path / "large.json", large)),
    ]
    code = (
        "import sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from aircomp_ris.cli import main\n"
        "out, names, *runs = sys.argv[1:]\n"
        "assert not any(__cpu_features__[name] for name in names.split())\n"
        "for name, kind, config in zip(runs[::3], runs[1::3], runs[2::3]):\n"
        "    if kind == 'solve':\n"
        "        argv = ['solve', '--config', config, '--out', f'{out}/{name}.json']\n"
        "    else:\n"
        "        argv = ['sweep', '--kind', kind, '--config', config]\n"
        "        argv += ['--out', f'{out}/{name}.csv']\n"
        "    assert main(argv) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), NPY_DISABLE_CPU_FEATURES=" ".join(names))
    args = [str(tmp_path), " ".join(names), *sum(runs + solves, ())]
    subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        check=True,
        timeout=300,
    )
    for name, pinned in FIGURE_CSV_SHA256.items():
        got = (tmp_path / f"fig_{name}.csv").read_bytes()
        assert hashlib.sha256(got).hexdigest() == pinned, name
    here = tmp_path / "realized_here.csv"
    argv = ["sweep", "--kind", "k", "--config", runs[-1][2], "--out", str(here)]
    assert main(argv) == 0
    assert (tmp_path / "realized.csv").read_bytes() == here.read_bytes()
    for name, _, config in solves:
        out = tmp_path / f"{name}_here.json"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        baseline = json.loads((tmp_path / f"{name}.json").read_text())
        design = json.loads(out.read_text())
        phases = [np.array(doc.pop("v_phases")) for doc in (baseline, design)]
        assert baseline == design, name
        np.testing.assert_allclose(*phases, rtol=0, atol=1e-15, err_msg=name)


class TestCsvFormat:
    def test_shortest_round_trip_floats(self):
        rec = AggregateRecord(
            kind="snr",
            value=10.0,
            scheme="nonrobust",
            nmse_mean=0.1 + 0.2,
            nmse_std=1e-17,
            trials=3,
            mean_iters=2.5,
        )
        text = records_to_csv([rec])
        row = text.split("\n")[1].split(",")
        assert float(row[3]) == 0.1 + 0.2
        assert float(row[4]) == 1e-17
        assert text.endswith("\n")
        assert "\r" not in text
