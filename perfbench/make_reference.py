#!/usr/bin/env python3
"""Regenerate ``reference.json``: the digest of every (constructor, order)
output the ``gf-*`` workloads can draw.

    python3 perfbench/make_reference.py

Run it once, from a commit whose outputs are trusted; every later commit
must reproduce these digests bit for bit.  A digest is written only after
its output passes the independent route the benchmark also checks.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the library on sys.path)
from catpoly import gfs  # noqa: E402


def main():
    checker = workloads.SeriesChecker(reference=None)
    digests = {}
    for names in workloads.CONSTRUCTORS.values():
        for name in names:
            digests[name] = {}
            for order in workloads.ORDERS:
                series = getattr(gfs, name)(order)
                problem = workloads.independent_route(name, order, series)
                if problem:
                    sys.exit(f"{name}({order}): {problem}")
                digests[name][str(order)] = checker.digest(series)
                print(f"{name}({order}) {digests[name][str(order)]}", flush=True)
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    record = {"generated_from": commit or None, "digests": digests}
    workloads.REFERENCE.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
