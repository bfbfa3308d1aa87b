import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from catpoly import gfs, tables, verify, words
from catpoly.cli import main
from catpoly.mpoly import MPoly
from catpoly.render import render_svg
from catpoly.series import Series
from catpoly.words import CatalanWord


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(capsys, *argv):
    """Exit 2 with a single ``error:`` line on stderr and nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


# enumerate ------------------------------------------------------------------------


def test_enumerate_length4(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "0010" and lines[-1] == "0123"


def test_enumerate_length0(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "0")
    assert code == 0
    assert out.splitlines() == ["ε"]


def test_enumerate_class_b_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "5", "--class", "b")
    assert code == 0
    assert len(out.splitlines()) == 9


def test_enumerate_json_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "3", "--format", "json")
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert json.dumps(obj, separators=(",", ":")) == line
        assert set(obj) == {"word", "length", "area", "sper", "inter", "last"}


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,length,area,sper,inter,last"
    assert len(lines) == 3


def test_enumerate_resource_limit_exit3(capsys):
    code, _, err = run(capsys, "enumerate", "--length", "30")
    assert code == 3
    assert "limit" in err


def test_enumerate_csv_over_limit_prints_nothing(capsys):
    code, out, err = run(capsys, "enumerate", "--length", "20", "--format", "csv")
    assert code == 3
    assert out == ""
    assert "limit" in err


def test_enumerate_negative_length_exit2(capsys):
    for fmt in ("text", "csv"):
        err = assert_usage_error(capsys, "enumerate", "--length", "-1", "--format", fmt)
        assert "--length" in err


def test_enumerate_bad_class_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--length", "3", "--class", "zzz"])
    assert exc.value.code == 2


# stats ----------------------------------------------------------------------------


def test_stats_flagship(capsys):
    code, out, _ = run(capsys, "stats", "--word", "00123223401011")
    assert code == 0
    assert "area=34" in out and "sper=22" in out and "inter=13" in out


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--word", "0123", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["area"] == 10 and obj["last"] == 3


def test_stats_bad_word_exit2(capsys):
    code, _, err = run(capsys, "stats", "--word", "0021")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["stats", "render", "bijection --which chi"])
def test_superscript_digit_word_exit2(capsys, command):
    err = assert_usage_error(capsys, *command.split(), "--word", "0²")
    assert err == "error: cannot parse word '0²'\n"


# render ---------------------------------------------------------------------------


def test_render_single_cell(capsys):
    code, out, _ = run(capsys, "render", "--word", "0")
    assert code == 0
    assert out.splitlines() == ["+-+", "| |", "+-+"]


def test_render_marks_interior_points(capsys):
    code, out, _ = run(capsys, "render", "--word", "0123", "--mark-interior")
    assert code == 0
    assert out.count("*") == 3


def test_render_empty_word(capsys):
    code, out, _ = run(capsys, "render", "--word", "")
    assert code == 0
    assert out.strip() == "ε"


def test_render_svg(capsys):
    code, out, _ = run(
        capsys, "render", "--word", "0122", "--format", "svg",
        "--cell-size", "10", "--mark-interior",
    )
    assert code == 0
    assert out.startswith('<?xml version="1.0"')
    assert out.count("<rect") == 9  # area of 0122
    assert out.count("<circle") == 3
    assert 'width="40"' in out  # 4 columns x 10 px


@pytest.mark.parametrize("size", ["-4", "0"])
def test_render_nonpositive_cell_size_exit2(capsys, size):
    err = assert_usage_error(
        capsys, "render", "--word", "0122", "--format", "svg", "--cell-size", size
    )
    assert "--cell-size" in err


def test_render_svg_rejects_nonpositive_cell_size():
    # the library guard, for callers that bypass the CLI
    with pytest.raises(ValueError):
        render_svg(CatalanWord.parse("01"), cell_size=0)


# tables ---------------------------------------------------------------------------


def test_table_c_row7(capsys):
    code, out, _ = run(capsys, "table", "--which", "c", "--max-n", "7")
    assert code == 0
    assert out.splitlines()[-1] == "7: 21 30 30 24 15 6 1"


def test_table_u_row5_csv(capsys):
    code, out, _ = run(capsys, "table", "--which", "u", "--max-n", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "5,35,55,63,50,15"


def test_table_p_single_row(capsys):
    code, out, _ = run(capsys, "table", "--which", "p", "--max-n", "1")
    assert code == 0
    assert out.splitlines() == ["1: 0"]


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--which", "s", "--max-n", "4", "--format", "json")
    assert code == 0
    line = out.strip()
    obj = json.loads(line)
    assert json.dumps(obj, separators=(",", ":")) == line
    assert obj["rows"][3] == ["13", "20", "21", "8"]


def test_table_limit_exit3(capsys):
    code, _, _ = run(capsys, "table", "--which", "s", "--max-n", str(tables.DEFAULT_TABLE_LIMIT + 1))
    assert code == 3


def test_table_past_old_limit_succeeds(capsys):
    # a table past n = 60 is within the default limit
    code, out, _ = run(capsys, "table", "--which", "s", "--max-n", "61", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 61


@pytest.mark.parametrize("which", "csup")
def test_table_text_matches_the_golden_file(capsys, which):
    code, out, err = run(capsys, "table", "--which", which, "--max-n", "30")
    assert (code, err) == (0, "")
    golden = Path(__file__).resolve().parent / "golden" / f"table_{which}_max_n_30.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_table_max_n_zero_names_flag(capsys):
    err = assert_usage_error(capsys, "table", "--which", "c", "--max-n", "0")
    assert "--max-n" in err


# gf -------------------------------------------------------------------------------


def test_gf_h_order10(capsys):
    code, out, _ = run(capsys, "gf", "--which", "h", "--order", "10")
    assert code == 0
    assert out.strip() == "0 1 4 12 34 94 258 707 1940 5337"


def test_gf_motzkin_order6(capsys):
    code, out, _ = run(capsys, "gf", "--which", "M", "--order", "6")
    assert code == 0
    assert out.strip() == "1 1 2 4 9 21"


def test_gf_B_order4(capsys):
    code, out, _ = run(capsys, "gf", "--which", "B", "--order", "4")
    assert code == 0
    assert out.splitlines()[-1] == "x^4: q^6+q^7+q^8+q^10"


def test_gf_specialization(capsys):
    code, out, _ = run(
        capsys, "gf", "--which", "Cpv", "--order", "6", "--at", "p=1,v=1"
    )
    assert code == 0
    assert out.strip() == "1 2 4 9 21 51"


def test_gf_json(capsys):
    code, out, _ = run(capsys, "gf", "--which", "S", "--order", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"][3] == "2p^6+6p^7+p^8"


def test_gf_order_limit_exit3(capsys):
    code, _, _ = run(capsys, "gf", "--which", "M", "--order", "8001")
    assert code == 3


# Each builder's default --limit admits order `limit` and refuses the first order past
# the default. The cases are the defaults themselves and the lower defaults that M had
# while every series carried caps, S, Clast and Cpv had before their `Series`
# products, quotients and square roots took the packed path, and Clast and Cpv had
# before their recurrences were timed against the 1 s rule; an order admitted then
# stays admitted.
GF_DEFAULT_LIMITS = {"M": 8000, "S": 200, "Clast": 500, "Cpv": 100, "area": 100}


@pytest.mark.parametrize(
    "which, limit",
    [
        ("M", 1000), ("M", 8000), ("S", 100), ("S", 200), ("Clast", 200), ("Clast", 300),
        ("Clast", 500), ("Cpv", 40), ("Cpv", 60), ("Cpv", 100), ("area", 100),
    ],
)
def test_gf_default_limit_per_builder(capsys, which, limit):
    default = GF_DEFAULT_LIMITS[which]
    code, out, err = run(capsys, "gf", "--which", which, "--order", str(limit))
    assert (code, err) == (0, "")
    assert out
    code, out, err = run(capsys, "gf", "--which", which, "--order", str(default + 1))
    assert (code, out) == (3, "")
    assert f"series order {default + 1} exceeds limit {default}" in err


def test_gf_past_the_key_fields_names_the_order_asked_for(capsys):
    # gf builds area at order + 1, whose area cap passes the key field; the
    # error names the order given
    code, out, err = run(capsys, "gf", "--which", "area", "--order", "1100", "--limit", "2000")
    assert (code, out) == (3, "")
    assert "series order 1100 needs exponents above the key field maximum 524287" in err
    assert "1101" not in err


def test_gf_past_the_int_to_str_limit_exits3_before_building(capsys, monkeypatch):
    # M(9000) has 4289 digits and str() refuses more than 4300; an order
    # whose coefficients may pass that is refused before the series is built
    def refuse(*args):
        raise AssertionError("built past the int-to-str limit")

    monkeypatch.setattr(gfs, "_sqrt_delta", refuse)
    code, out, err = run(capsys, "gf", "--which", "M", "--order", "9500", "--limit", "10000")
    assert (code, out) == (3, "")
    assert err == "error: series order 9500 may print integers past 4300 digits\n"


def test_gf_with_a_slip_in_the_algebraic_table_exits_1(capsys, monkeypatch):
    # the last entry of P one too large leaves odd numerators, which the
    # exact division by -2 refuses
    c, P, Q, k, e = gfs.ALGEBRAIC_FORMS["u"]
    monkeypatch.setitem(gfs.ALGEBRAIC_FORMS, "u", (c, P[:-1] + [P[-1] + 1], Q, k, e))
    code, out, err = run(capsys, "gf", "--which", "u", "--order", "5")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_gf_value_error_of_a_builder_is_not_a_usage_error(capsys, monkeypatch):
    # only the flag checks exit 2; a ValueError raised by a command's work
    # leaves main as an unexpected exception
    def broken(order):
        raise ValueError("broken builder")

    monkeypatch.setattr(gfs, "sum_B", broken)
    with pytest.raises(ValueError, match="^broken builder$"):
        main(["gf", "--which", "B", "--order", "5"])


def test_gf_nonpositive_order_exit2(capsys):
    err = assert_usage_error(capsys, "gf", "--which", "M", "--order", "-1")
    assert "--order" in err


def test_gf_bad_at_exit2(capsys):
    code, _, err = run(capsys, "gf", "--which", "M", "--order", "5", "--at", "p=2")
    assert code == 2
    assert "--at" in err


# --limit ----------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("enumerate", "--length", "0", "--limit", "-1"),
    ("table", "--which", "c", "--max-n", "3", "--limit", "-5"),
    ("gf", "--which", "area", "--order", "3", "--limit", "-1"),
], ids=["enumerate", "table", "gf"])
def test_negative_limit_exit2(capsys, argv):
    err = assert_usage_error(capsys, *argv)
    assert "--limit" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--length", "1", "--limit", "0"),
    ("table", "--which", "c", "--max-n", "3", "--limit", "0"),
    ("gf", "--which", "area", "--order", "3", "--limit", "0"),
], ids=["enumerate", "table", "gf"])
def test_zero_limit_exit3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "exceeds limit 0" in err


# bijection ------------------------------------------------------------------------


def test_bijection_chi_worked_example(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "chi", "--word", "011201123011")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0121012310121"
    assert "sper: 19 -> 21" in lines


def test_bijection_psi(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "psi", "--word", "001")
    assert code == 0
    assert out.splitlines()[0] == "010"


def test_bijection_out_of_domain_exit2(capsys):
    code, _, err = run(capsys, "bijection", "--which", "psi", "--word", "00")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("which", ["chi", "psi"])
def test_bijection_too_deep_a_word_exit3(capsys, which):
    # 0,1,...,599 recurses past the interpreter's recursion limit
    code, out, err = run(capsys, "bijection", "--which", which,
                         "--word", ",".join(map(str, range(600))))
    assert (code, out) == (3, "")
    assert err == (
        f"error: {which} of a word of length 600 recurses past "
        f"the interpreter's recursion limit {sys.getrecursionlimit()}\n"
    )


@pytest.mark.parametrize("which", ["chi", "psi"])
def test_bijection_long_shallow_word(capsys, which):
    code, out, err = run(capsys, "bijection", "--which", which,
                         "--word", ",".join("01" * 300))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == ("length: 600 -> 601" if which == "chi" else "length: 600 -> 600")


# verify ---------------------------------------------------------------------------


def test_verify_small_run_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--max-order", "7")
    assert code == 0
    assert "0 failed" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "4", "--max-order", "6", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["exit_code"] == 0
    assert all(c["status"] != "fail" for c in obj["checks"])
    assert json.dumps(obj, separators=(",", ":")) == out.strip()


def test_verify_json_times_every_check(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "3", "--max-order", "5", "--format", "json"
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 19
    for c in checks:
        assert type(c["seconds"]) is float and c["seconds"] >= 0


def test_verify_degenerate_run_skips(capsys):
    # totals_series_match has neither its series/DP half (max_order < 2)
    # nor its enumeration half (max_n = 0) left, so it skips too
    code, out, _ = run(capsys, "verify", "--max-n", "0", "--max-order", "1")
    assert code == 0
    assert "[SKIPPED] totals_series_match" in out
    assert out.splitlines()[-1] == "8 passed, 0 failed, 11 skipped"


def test_verify_empty_ranges_skip_not_pass(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "1")
    assert code == 0
    assert "[SKIPPED] master_specializations" in out
    assert "[SKIPPED] derivative_identities" in out
    assert "[SKIPPED] base_series" in out
    assert "[SKIPPED] kernel_annihilation" in out
    assert out.splitlines()[-1] == "13 passed, 0 failed, 6 skipped"


def _check(name, max_order):
    checks = verify.run_verify(max_n=0, max_order=max_order).checks
    return next(c for c in checks if c.name == name)


def _derivative_check(max_order):
    return _check("derivative_identities", max_order)


def test_verify_derivative_identities_skip_at_order_1():
    # at max_order 1 the area and interior identities have no n to check
    c = _derivative_check(1)
    assert (c.status, c.detail) == ("skipped", "needs max_order >= 2")


@pytest.mark.parametrize("name", ["base_series", "kernel_annihilation"])
def test_verify_series_checks_skip_at_order_1(name):
    # at max_order 1 base_series would compare only x^0 (1 with 1) and the
    # kernel would be checked mod x^1 only
    c = _check(name, 1)
    assert (c.status, c.detail) == ("skipped", "needs max_order >= 2")


def test_verify_base_series_checks_x1_at_order_2(monkeypatch):
    assert _check("base_series", 2).status == "pass"
    real = gfs.gf_motzkin

    def wrong(order, *args):
        s = real(order, *args)
        coeffs = [c + MPoly.scalar(1) if n == 1 else c for n, c in enumerate(s.coeffs)]
        return Series(s.order, coeffs)

    monkeypatch.setattr(gfs, "gf_motzkin", wrong)
    c = _check("base_series", 2)
    assert (c.status, c.detail) == ("fail", "Motzkin series at 1")


@pytest.mark.parametrize(
    "name, label",
    [
        ("gf_s", "semiperimeter"),
        ("gf_h", "last-letter"),
        ("gf_u", "area"),
        ("gf_p", "interior"),
    ],
)
def test_verify_derivative_identities_check_each_at_order_2(monkeypatch, name, label):
    # at max_order 2 every identity compares n = 1: a wrong x^1 coefficient
    # on the closed-form side of any one of them fails the check
    assert _derivative_check(2).status == "pass"
    real = getattr(gfs, name)

    def wrong(order, *args):
        s = real(order, *args)
        coeffs = [c + MPoly.scalar(1) if n == 1 else c for n, c in enumerate(s.coeffs)]
        return Series(s.order, coeffs)

    monkeypatch.setattr(gfs, name, wrong)
    c = _derivative_check(2)
    assert (c.status, c.detail) == ("fail", f"{label} derivative identity fails at n=1")


def test_verify_default_flags_pass_every_check(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    passed, failed, _ = (int(part.split()[0]) for part in out.splitlines()[-1].split(", "))
    assert passed >= 19 and failed == 0


@pytest.mark.parametrize("flag, value", [("--max-n", "-1"), ("--max-order", "0")])
def test_verify_out_of_range_flag_exit2(capsys, flag, value):
    err = assert_usage_error(capsys, "verify", flag, value)
    assert flag.lstrip("-").replace("-", "_") in err


def test_verify_past_the_key_field_exits3(capsys, monkeypatch):
    # one past the verify limit, and an order whose q exponents would pass
    # the key field, are refused before the census; that is a resource
    # limit, not a failed check
    def refuse(*args):
        raise AssertionError("the census ran past the order limit")

    monkeypatch.setattr(words, "enumerate_words", refuse)
    for max_order in (verify.MAX_ORDER_LIMIT + 1, 1025):
        code, out, err = run(capsys, "verify", "--max-order", str(max_order))
        assert (code, out) == (3, "")
        assert err == (
            f"error: max_order {max_order} exceeds the verify limit "
            f"{verify.MAX_ORDER_LIMIT} (about 1 s of work)\n"
        )


def test_verify_past_the_enumeration_limit_exits3_at_once(capsys):
    # the verify limit (13, about 1 s of work) lies below the enumeration
    # limit (16): both one past it and past the enumeration limit are
    # refused before any check runs
    for max_n in (verify.MAX_N_LIMIT + 1, words.DEFAULT_ENUM_LIMIT + 1):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--max-n", str(max_n))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err == f"error: max_n {max_n} exceeds the verify limit 13 (about 1 s of work)\n"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, catpoly.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# The modules a command does not run: none of them is imported.
_SERIES = ("catpoly.gfs", "catpoly.series", "catpoly.mpoly")
_COMMAND_MODULES = _SERIES + (
    "catpoly.verify", "catpoly.tables", "catpoly.bijections", "catpoly.closedforms", "fractions",
)
_NOT_LOADED = {
    "import catpoly": _COMMAND_MODULES + ("catpoly.words", "catpoly.cli"),
    # the parser is built by main(), not by importing the module
    "import catpoly.cli": _COMMAND_MODULES + ("argparse",),
}
_COMMANDS_NOT_LOADING = [
    (("--help",), _COMMAND_MODULES),
    (("enumerate", "--length", "5"), _COMMAND_MODULES),
    (("stats", "--word", "0123"), _COMMAND_MODULES),
    (("gf", "--which", "B", "--order", "4"),
     ("catpoly.verify", "catpoly.tables", "catpoly.bijections")),
    (("table", "--which", "s", "--max-n", "4"),
     _SERIES + ("catpoly.verify", "catpoly.bijections", "fractions")),
]

_RUN_COMMAND = (
    "import io, sys\n"
    "from catpoly.cli import main\n"
    "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:  # --help\n"
    "    code = exc.code\n"
    "sys.stdout = stdout\n"
    "if code:\n"
    "    sys.exit(code)\n"
)


def _loaded_modules(code, *argv):
    """The module names loaded after running ``code`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + "print(' '.join(sys.modules))", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("statement", sorted(_NOT_LOADED))
def test_import_loads_no_command_module(statement):
    loaded = _loaded_modules(f"import sys\n{statement}\n")
    assert "catpoly" in loaded
    assert loaded.isdisjoint(_NOT_LOADED[statement]), loaded & set(_NOT_LOADED[statement])


@pytest.mark.parametrize("argv, absent", _COMMANDS_NOT_LOADING,
                         ids=[argv[0].lstrip("-") for argv, _ in _COMMANDS_NOT_LOADING])
def test_command_loads_only_what_it_runs(argv, absent):
    loaded = _loaded_modules(_RUN_COMMAND, *argv)
    assert "catpoly.cli" in loaded
    assert loaded.isdisjoint(absent), loaded & set(absent)


# verify forks after its census: what both processes read is loaded before
# the fork, and what one process reads is loaded by its own checks
_VERIFY_CENSUS = (
    "import sys\n"
    "from catpoly import verify\n"
    "ctx = verify._Context(10, 20)\n"
    "checks = verify._build_checks(ctx)\n"
    "ctx.build_census()\n"
)
_RUN_HALF = (
    "results = verify._run_checks([c for c in checks if (c[0] in verify.CHILD_CHECKS) == {}])\n"
    "assert [r.status for r in results] == ['pass'] * len(results), results\n"
)
_VERIFY_HALVES = {
    "census": ("", _SERIES + ("catpoly.backend", "catpoly.bijections", "fractions")),
    "child": (_RUN_HALF.format(True), _SERIES + ("catpoly.backend",)),
    "parent": (_RUN_HALF.format(False), ("catpoly.bijections",)),
}


@pytest.mark.parametrize("half", sorted(_VERIFY_HALVES))
def test_verify_loads_in_each_process_only_what_its_checks_read(half):
    run, absent = _VERIFY_HALVES[half]
    loaded = _loaded_modules(_VERIFY_CENSUS + run)
    assert {"catpoly.verify", "catpoly.tables", "catpoly.closedforms"} <= loaded
    assert loaded.isdisjoint(absent), loaded & set(absent)


def test_default_verify_loads_neither_fractions_nor_decimal():
    # asymptotic_diagnostics decides its expected-value bounds on ints
    loaded = _loaded_modules("import sys\nfrom catpoly import verify\nverify.run_verify()\n")
    assert "catpoly.gfs" in loaded
    assert loaded.isdisjoint({"fractions", "decimal"}), loaded & {"fractions", "decimal"}


def test_text_verify_leaves_out_the_output_formats():
    # json, csv and the renderer are imported by the commands that print
    # with them, not by a text verify run
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\nfrom catpoly.cli import main\n"
         "main(['verify', '--max-n', '2', '--max-order', '3'])\n"
         "print(sorted({'json', 'csv', 'catpoly.render'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_passes_with_asserts_stripped():
    # under -O every assert is gone: a check that leaned on one would
    # change its outcome here
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "catpoly.cli", "verify", "--max-n", "6", "--max-order", "8"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "19 passed, 0 failed, 0 skipped"


def test_no_assert_statement_in_the_library():
    # -O strips every assert, so no check of the library may be one
    src = Path(__file__).resolve().parent.parent / "src" / "catpoly"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("argv", [
    ("enumerate", "--length", "12"),  # 200 kB
    ("table", "--which", "s", "--max-n", "300"),  # 3 MB
], ids=["enumerate", "table"])
def test_closed_pipe_exits_141_quietly(argv):
    # the reader takes one line and closes the pipe, as ``| head -1`` does;
    # the output is larger than a pipe holds, so a later write meets it closed
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "catpoly.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# A fresh process ends at run's last flush, through os._exit ----------------------


def _buffered_env():
    """The environment of a child whose stdout is buffered when not a terminal."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


def _fresh(tmp_path, *args):
    """Exit code, stdout and stderr of ``python *args``, its stdout sent to a
    file, so fully buffered: what ``run`` does not flush never arrives."""
    with open(tmp_path / "stdout", "w+b") as out:
        proc = subprocess.run(
            [sys.executable, *args], stdout=out, stderr=subprocess.PIPE,
            env=_buffered_env(), timeout=120,
        )
        out.seek(0)
        return proc.returncode, out.read().decode(), proc.stderr.decode()


_FRESH_ARGVS = [
    ("enumerate", "--length", "5"),
    ("stats", "--word", "00123223401011"),
    ("gf", "--which", "B", "--order", "6"),
    ("verify", "--max-n", "4", "--max-order", "6"),
    ("enumerate", "--length", "-1"),
    ("verify", "--max-n", "14"),
]


@pytest.mark.parametrize("argv, code", zip(_FRESH_ARGVS, (0, 0, 0, 0, 2, 3)),
                         ids=[" ".join(argv) for argv in _FRESH_ARGVS])
def test_fresh_process_matches_main_in_process(capsys, tmp_path, argv, code):
    expected = run(capsys, *argv)
    assert expected[0] == code
    assert _fresh(tmp_path, "-m", "catpoly.cli", *argv) == expected


_BEFORE_AN_ERROR = (
    "import atexit, sys\n"
    "from catpoly import cli\n"
    "from catpoly.errors import ResourceLimit\n"
    "def stats(args):\n"
    "    print('written before the error')\n"
    "    raise ResourceLimit('stopped')\n"
    "cli._cmd_stats = stats\n"
    "atexit.register(print, 'teardown', file=sys.stderr)\n"
    "cli.run()\n"
)


def test_fresh_process_delivers_output_written_before_an_error(tmp_path):
    # main's own flush is skipped by the error, so run's flush delivers the
    # line; the process then ends at once, and the atexit handler never runs
    assert _fresh(tmp_path, "-c", _BEFORE_AN_ERROR, "stats", "--word", "0") == (
        3, "written before the error\n", "error: stopped\n"
    )


def test_closed_pipe_on_the_last_flush_exits_141_quietly():
    # main returns with its line still buffered, and run's flush meets a
    # pipe whose reader is already gone
    driver = "from catpoly import cli\ncli.main = lambda: print('never read') or 0\ncli.run()\n"
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", driver], stdout=write_fd, stderr=subprocess.PIPE,
            env=_buffered_env(), timeout=60,
        )
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--max-n", "4", "--max-order", "6")
    _, out2, _ = run(capsys, "verify", "--max-n", "4", "--max-order", "6")
    assert out1 == out2
