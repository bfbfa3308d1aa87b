"""The lazy ``catpoly`` namespace: each exported name and submodule is
imported on first access, and behaves as the eager imports did."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catpoly


def _fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this source tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_is_its_home_modules_object():
    for name in catpoly.__all__:
        home = importlib.import_module(f"catpoly.{catpoly._HOME[name]}")
        assert getattr(catpoly, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from catpoly import *", namespace)
    assert set(catpoly.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(catpoly, name) for name in catpoly.__all__)


def test_dir_lists_the_exports_and_submodules_and_loads_nothing():
    listed, loaded = _fresh(
        "import sys, catpoly\n"
        "print(' '.join(dir(catpoly)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('catpoly.')))"
    ).splitlines()
    assert set(catpoly.__all__) <= set(listed.split())
    assert {"gfs", "cli", "verify", "__version__"} <= set(listed.split())
    assert loaded == "[]"


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="nope"):
        catpoly.nope
    with pytest.raises(ImportError, match="nope"):
        exec("from catpoly import nope", {})


def test_a_submodule_is_loaded_on_first_access():
    out = _fresh(
        "import sys, catpoly\n"
        "print('catpoly.gfs' in sys.modules)\n"
        "print(catpoly.gfs.sum_B(3).coeff(2))\n"
        "print('catpoly.gfs' in sys.modules, 'catpoly.verify' in sys.modules)"
    )
    assert out.splitlines() == ["False", "q^3", "True False"]


def test_a_name_loads_only_its_home_module():
    out = _fresh(
        "import sys, catpoly\n"
        "word = catpoly.CatalanWord.parse('0123')\n"
        "print(catpoly.stat_area(word))\n"
        "print(sorted(m for m in sys.modules if m.startswith('catpoly.')))"
    )
    assert out.splitlines() == ["10", "['catpoly.errors', 'catpoly.words']"]
