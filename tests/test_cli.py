import json
import math

import jsonschema
import numpy as np
import pytest

from aircomp_ris.cli import main, records_to_csv
from aircomp_ris.config import (
    SCHEMA,
    ConfigError,
    load_config,
    parse_config,
    serialize_config,
)
from aircomp_ris.experiments import AggregateRecord


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def golden_solve_config():
    return {
        "system": {"K": 1, "N": 1, "P": 10.0, "noise_var": 1.0, "s": 0.0},
        "solver": {"mode": "exact"},
        "instance": {"h_hat": [[[1.0, 0.0]]], "eps": [0.0]},
        "master_seed": 0,
    }


def sweep_config(trials=1, values=None, schemes=None):
    return {
        "system": {"K": 2, "N": 3, "P": 10.0, "noise_var": 1.0, "s": 0.4},
        "solver": {"mode": "exact", "max_iters": 30},
        "sweep": {
            "values": values or [10.0],
            "trials": trials,
            "schemes": schemes or ["nonrobust"],
        },
        "master_seed": 5,
    }


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

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "design.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        raw = golden_solve_config()
        raw["extra_key"] = 1
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, iterations", [("exact", False), ("paper", True)]
    )
    def test_trace_length(self, tmp_path, mode, iterations):
        raw = golden_solve_config()
        raw["solver"]["mode"] = mode
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        # exact mode is closed form and runs no iterations
        assert (json.loads(out.read_text())["trace_length"] > 0) == iterations

    @pytest.mark.parametrize(
        "key, value", [("starts", 3), ("include_nonrobust_start", True)]
    )
    def test_removed_solver_keys_rejected(self, tmp_path, capsys, key, value):
        raw = golden_solve_config()
        raw["solver"][key] = value
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"'{key}' was unexpected" in capsys.readouterr().err

    def test_solver_error_exit_code(self, tmp_path):
        raw = golden_solve_config()
        raw["instance"] = {"h_hat": [[[0.0, 0.0]]], "eps": [0.0]}
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
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

    def test_sweep_rejects_overflowing_value(self, tmp_path):
        text = json.dumps(sweep_config(values=[10.0]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace("[10.0]", "[1e999]"))
        out = tmp_path / "r.csv"
        argv = ["sweep", "--kind", "snr", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()


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

    def test_missing_sweep_section(self, tmp_path):
        raw = golden_solve_config()
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "r.csv"
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]) == 1

    def test_unwritable_output(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out = tmp_path / "missing-dir" / "r.csv"
        assert main(["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]) == 3


class TestVerifyCommand:
    def test_worstcase_suite_passes(self, capsys):
        assert main(["verify", "--suite", "worstcase", "--trials", "200", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS suite=worstcase")

    def test_kkt_suite_passes(self):
        assert main(["verify", "--suite", "kkt", "--trials", "50", "--seed", "1"]) == 0

    def test_zero_trials_invalid(self):
        assert main(["verify", "--suite", "oracle", "--trials", "0"]) == 1

    def test_kkt_reports_finite_difference_deviation(self, monkeypatch, capsys):
        import aircomp_ris.verify as verify

        real = verify.lagrangian_gradient
        # a wrong analytic gradient fails only the finite-difference check
        monkeypatch.setattr(
            verify, "lagrangian_gradient", lambda *args: real(*args) + 1e-3
        )
        assert main(["verify", "--suite", "kkt", "--trials", "5", "--seed", "1"]) == 4
        out = capsys.readouterr().out
        assert out.startswith("FAIL suite=kkt")
        fields = dict(item.split("=") for item in out.split()[1:])
        assert int(fields["failures"]) == 5
        assert float(fields["worst_deviation"]) > float(fields["tolerance"])


class TestConfigRoundTrip:
    def test_schema_is_valid(self):
        # parse_config validates with a cached validator that skips this check
        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)

    def test_round_trip(self, tmp_path):
        raw = sweep_config(trials=2, values=[1.0, 2.0])
        cfg = parse_config(raw)
        again = parse_config(serialize_config(cfg))
        assert serialize_config(cfg) == serialize_config(again)

    def test_instance_round_trip(self):
        cfg = parse_config(golden_solve_config())
        again = parse_config(serialize_config(cfg))
        h1, e1 = cfg.instance
        h2, e2 = again.instance
        assert np.array_equal(h1, h2) and e1 == e2

    def test_instance_dimension_checks(self):
        raw = golden_solve_config()
        raw["instance"]["eps"] = [0.0, 0.1]
        with pytest.raises(ConfigError):
            parse_config(raw)


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
