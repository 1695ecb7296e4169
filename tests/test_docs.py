"""README examples and tables checked against the code they document."""

import re
from pathlib import Path

from aircomp_ris.experiments import SCHEMES
from aircomp_ris.model import (
    _DRAW_BLOCK,
    _SPLIT_BLOCK,
    _SPLIT_CALL,
    SystemConfig,
    trials_per_block,
)
from aircomp_ris.verify import SUITES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def table_rows(header):
    """First cells of the markdown table that starts with the header line."""
    lines = README.split("\n")
    start = lines.index(header) + 2  # skip the header and its separator
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    return rows


def test_verify_examples_name_real_suites():
    named = re.findall(r"aircomp verify --suite (\w+)", README)
    assert named and set(named) <= set(SUITES)


def test_scheme_table_lists_every_scheme():
    assert sorted(table_rows("| Scheme | Design |")) == sorted(SCHEMES)


def test_block_size_formula_matches_the_code():
    # README states T_b = max(1, <rows> // K); evaluate it as written
    stated = re.search(r"T_b = max\(1, (\d+) // K\)", README)
    assert stated, "README must state T_b as max(1, <rows> // K)"
    for K, N in ((1, 1), (7, 16), (10, 256), (100, 256), (400, 8), (5000, 64)):
        config = SystemConfig(K=K, N=N, P=1.0, noise_var=0.1)
        assert max(1, int(stated[1]) // K) == trials_per_block(config), (K, N)


def test_draw_chunk_size_and_split_rule_match_the_code():
    chunk = re.search(r"chunks of at most (\d+) doubles", README)
    assert chunk, "README must state the synthesis chunk size"
    assert int(chunk[1]) == _DRAW_BLOCK
    split = re.search(r"its own rows, in chunks of (\d+)\s+doubles", README)
    assert split, "README must state the chunk size of a split block"
    assert int(split[1]) == _SPLIT_BLOCK
    call = re.search(r"each\s+generator call draws at least (\d+)\s+doubles", README)
    assert call, "README must state when a block splits across CPUs"
    assert int(call[1]) == _SPLIT_CALL
