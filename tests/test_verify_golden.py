"""``catpoly verify`` prints exactly what the golden files under
``tests/golden`` hold, with default flags and at the edges of its ranges.

A change to how the suite computes its checks must leave every byte of
its output as it is.  The JSON files hold the ``--format json`` output
without the per-check ``seconds``, the only field that varies from run to
run.
"""

import json
from pathlib import Path

import pytest

from catpoly.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FLAGS = {
    "default": [],
    "max_order_1": ["--max-order", "1"],
    "max_n_0": ["--max-n", "0"],
    "max_n_13": ["--max-n", "13"],
}


def run(capsys, *argv):
    code = main(["verify", *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", FLAGS)
def test_text_output_matches_the_golden_file(capsys, name):
    code, out, err = run(capsys, *FLAGS[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"verify_{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", FLAGS)
def test_json_output_matches_the_golden_file_apart_from_seconds(capsys, name):
    code, out, err = run(capsys, *FLAGS[name], "--format", "json")
    assert (code, err) == (0, "")
    got = json.loads(out)
    for check in got["checks"]:
        assert isinstance(check.pop("seconds"), float)
    assert got == json.loads((GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8"))
