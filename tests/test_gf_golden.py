"""``catpoly gf`` and ``str`` of a series coefficient print exactly what the
golden files under ``tests/golden`` hold.

A coefficient prints its terms in the order of their (p, q, v) exponents,
whatever the layout of the packed key that stores them (``backend``).  The
files pin that order: ``gf_<which>_order_10.txt`` holds the text of
``catpoly gf --which <which> --order 10`` for every builder, and
``coefficients_order_9.json`` the text of every coefficient of the two
masters and of ``cf_C_sper_v`` at order 9, whose terms carry p, q and v
together.
"""

import json
from pathlib import Path

import pytest

from catpoly import gfs
from catpoly.cli import _GF_BUILDERS, main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("which", _GF_BUILDERS)
def test_gf_text_matches_the_golden_file(capsys, which):
    code = main(["gf", "--which", which, "--order", "10"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert out.out == (GOLDEN / f"gf_{which}_order_10.txt").read_text(encoding="utf-8")


COEFFICIENTS = json.loads((GOLDEN / "coefficients_order_9.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", COEFFICIENTS)
def test_coefficient_text_matches_the_golden_file(name):
    series = getattr(gfs, name)(9)
    assert [str(c) for c in series.coeffs] == COEFFICIENTS[name]
