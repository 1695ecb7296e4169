import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aircomp_ris.cli import main, records_to_csv
from aircomp_ris.config import (
    SCHEMA,
    ConfigError,
    load_config,
    parse_config,
    serialize_config,
)
from aircomp_ris.experiments import AggregateRecord, snr_to_noise_var


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        # co-phasing -1 - 0j gives a v whose np.angle is -pi
        raw = golden_solve_config()
        raw["instance"]["h_hat"] = [[[-1.0, -0.0]]]
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["v_phases"] == [[math.pi]]


_P = [1.0, -0.5]
_EPS = [0.1, 0.2]


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
        "h_hat, eps",
        [
            ([[[True, 0.0], _P], [_P, _P]], _EPS),
            ([[["1.0", 0.0], _P], [_P, _P]], _EPS),
            ([[[None, 0.0], _P], [_P, _P]], _EPS),
            ([[[[1.0], 0.0], _P], [_P, _P]], _EPS),
            ([[[1.0], _P], [_P, _P]], _EPS),
            ([[[1.0, 0.0, 0.0], _P], [_P, _P]], _EPS),
            ([[], [_P, _P]], _EPS),
            ([[_P, _P], [_P]], _EPS),
            ([[_P, _P]], _EPS),
            ([[_P, _P], [_P, _P], [_P, _P]], _EPS),
            ([[_P, _P, _P], [_P, _P, _P]], _EPS),
            ([_P, _P], _EPS),
            ([[_P, _P], [_P, _P]], [0.1]),
            ([[_P, _P], [_P, _P]], [0.1, -0.2]),
            ([[_P, _P], [_P, _P]], [0.1, True]),
            ([[_P, _P], [_P, _P]], [[0.1], [0.2]]),
            # integers too large for a double
            ([[[10**400, 0.0], _P], [_P, _P]], _EPS),
            ([[_P, _P], [_P, _P]], [0.1, 10**400]),
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
        ],
    )
    def test_solve_rejects_malformed_instance(self, tmp_path, capsys, h_hat, eps):
        raw = golden_solve_config()
        raw["system"].update(K=2, N=2)
        raw["instance"] = {"h_hat": h_hat, "eps": eps}
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "design.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
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

    @pytest.mark.parametrize("key", ["values", "s_values"])
    def test_sweep_rejects_huge_integer(self, tmp_path, capsys, key):
        raw = sweep_config()
        raw["sweep"][key] = [10**400]  # too large for a double
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "r.csv"
        argv = ["sweep", "--kind", "snr", "--config", cfg, "--out", str(out)]
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


class TestConfigRoundTrip:
    def test_schema_is_valid(self):
        # parse_config validates with a cached validator that skips this check
        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)

    @pytest.mark.parametrize("kind, snr_db", [("snr", None), ("n", 0.0), ("k", 10.0)])
    def test_figure_configs(self, kind, snr_db):
        cfg = load_config(CONFIGS / f"fig_{kind}.json")
        spec = cfg.sweep_spec(kind)
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
