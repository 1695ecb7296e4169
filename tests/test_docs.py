"""README examples and tables checked against the code they document."""

import dataclasses
import inspect
import json
import re
from importlib import import_module
from pathlib import Path

import aircomp_ris
from aircomp_ris import cli, verify
from aircomp_ris.cli import main
from aircomp_ris.config import _SHAPE
from aircomp_ris.experiments import SCHEMES
from aircomp_ris.model import SystemConfig
from aircomp_ris.verify import SUITES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def table(header):
    """Rows, as lists of cells, of the markdown table that starts with the
    header line."""
    lines = README.split("\n")
    start = lines.index(header) + 2  # skip the header and its separator
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def table_rows(header):
    """First cells of the markdown table that starts with the header line."""
    return [row[0].strip("`") for row in table(header)]


def verify_examples():
    """The argv of every `aircomp verify` example in README."""
    return [
        ["verify", *args.split()]
        for args in re.findall(r"aircomp verify ((?:--\w+ \w+ ?)+)", README)
    ]


def test_verify_examples_name_real_suites(capsys):
    examples = verify_examples()
    assert sorted(argv[2] for argv in examples) == sorted(SUITES)
    for argv in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.startswith(f"PASS suite={argv[2]} "), argv


def test_worstcase_example_meets_every_regime(monkeypatch):
    """The README's worstcase example designs sensors in each branch of
    t_exact: silenced (a <= eps sqrt(N)), clipped at 1/a, and interior."""
    seen = set()
    real = verify.robust_scalars

    def spy(a, eps_rootN, noise_var, P):
        c = noise_var / P
        for b, gain in zip(a - eps_rootN, a):
            clipped = b > 0 and b / (b * b + c) >= 1.0 / gain
            seen.add("silenced" if b <= 0 else "clipped" if clipped else "interior")
        return real(a, eps_rootN, noise_var, P)

    monkeypatch.setattr(verify, "robust_scalars", spy)
    (argv,) = [argv for argv in verify_examples() if "worstcase" in argv]
    assert main(argv) == 0
    assert seen == {"silenced", "clipped", "interior"}


def test_root_exports_the_table_functions_and_classes():
    """README: the package root exports the function and class names in the
    "What's in the box" table, and no others."""

    def api(names, namespace):
        return {
            name
            for name in names
            if inspect.isfunction(getattr(namespace, name, None))
            or inspect.isclass(getattr(namespace, name, None))
        }

    named = set()
    for modules, contents in table("| Module | Contents |"):
        names = re.findall(r"`(\w+)`", contents)
        for module in re.findall(r"`(?:aircomp_ris\.)?(\w+)`", modules):
            named |= api(names, import_module(f"aircomp_ris.{module}"))
    exported = api([n for n in vars(aircomp_ris) if not n.startswith("_")], aircomp_ris)
    assert exported == named


def test_scheme_table_lists_every_scheme():
    assert sorted(table_rows("| Scheme | Design |")) == sorted(SCHEMES)


def test_config_table_lists_every_key():
    """README's config reference has one row per key of config._SHAPE, with
    its JSON type, "required" exactly for the required keys, and the
    SystemConfig default of each optional system key."""
    rows = table("| Key | Section | Type | Default | Range | Read by |")
    documented = {}
    for key, section, kind, default, *_ in rows:
        section = "config" if section == "top level" else section
        documented[section, key.strip("`")] = (kind, default)
    assert len(documented) == len(rows)
    shape = {
        (section, key): (kind, key in required)
        for section, (required, optional) in _SHAPE.items()
        for key, kind in {**required, **optional}.items()
    }
    assert documented.keys() == shape.keys()
    for name, (kind, required) in shape.items():
        assert documented[name][0] == kind, name
        assert (documented[name][1] == "required") == required, name
    for field in dataclasses.fields(SystemConfig):
        if field.default is not dataclasses.MISSING:
            default = documented["system", field.name][1]
            assert json.loads(default.strip("`")) == field.default, field.name


def test_csv_columns_match_the_code():
    stated = re.search(r"\*\*CSV columns\*\*, in order: `([^`]*)`", README)
    assert stated, "README must list the CSV columns in order"
    assert stated[1].split(", ") == cli.CSV_HEADER


def test_retired_channel_var_is_rejected(tmp_path, capsys):
    """A config that still sets channel_var exits 1 with the unknown-key
    error README's conversion note quotes."""
    message = "invalid config: 'channel_var' was unexpected in system"
    assert f'"{message}"' in " ".join(README.split())
    cfg = tmp_path / "cfg.json"
    system = {"K": 1, "N": 1, "P": 1.0, "noise_var": 1.0, "channel_var": 0.5}
    cfg.write_text(json.dumps({"system": system, "master_seed": 0}))
    out = tmp_path / "design.json"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def exit_codes(text):
    """{code: meaning} of the "Exit codes: 0 ok, 1 ..." sentence in text."""
    sentence = re.search(r"Exit codes: ([^.]*)\.", " ".join(text.split()))
    assert sentence, "the text must state its exit codes"
    return {
        int(code): meaning
        for code, meaning in (part.split(" ", 1) for part in sentence[1].split(", "))
    }


def test_exit_codes_match_the_code():
    """README and the cli docstring give each EXIT_* constant of cli the
    same code and meaning."""
    meanings = {
        "EXIT_OK": "ok",
        "EXIT_CONFIG": "config or usage error",
        "EXIT_SOLVER": "solver error",
        "EXIT_IO": "I/O error",
        "EXIT_VERIFY": "verification failure",
    }
    constants = {name: v for name, v in vars(cli).items() if name.startswith("EXIT_")}
    assert constants.keys() == meanings.keys()
    expected = {constants[name]: meaning for name, meaning in meanings.items()}
    assert exit_codes(README) == expected
    assert exit_codes(cli.__doc__) == expected
