"""Command-line interface.

Exit codes: 0 success, 1 verification failure (or a failed exactness
guard), 2 usage or parse error, 3 resource limit exceeded, 141 (128 +
SIGPIPE) when the reader of stdout closed it early, as ``head`` does.
Data goes to stdout, diagnostics to stderr.  Big integers are serialized
as decimal strings in JSON output.

A CLI process (``python -m catpoly.cli`` or the installed ``catpoly``)
runs ``run``: it flushes stdout and stderr after ``main`` returns and
ends at that last flush through ``os._exit``, skipping the interpreter
teardown (the final garbage collection and the freeing of every module).
atexit handlers do not run there; catpoly registers none.  ``main`` is
unchanged for tests and embedders that call it in-process: it returns
the exit code.  A usage error, ``--help`` or an unexpected exception
leaves ``main`` by raising and takes the normal exit.
"""

import os
import sys

from . import words
from .errors import CatpolyError, NotCatalan, NotInDomain, ResourceLimit, UsageError
from .words import CatalanWord, WordClass

# Each command imports the modules it runs, so ``enumerate`` or ``stats``
# never loads the series, table or verify code.

_GF_BUILDERS = {
    # name -> (constructor in ``gfs``, first structural index, default order
    # limit): the largest round order whose ``catpoly gf`` process took
    # under 1 s (2 cores, Python 3.11)
    "M": ("gf_motzkin", 0, 8000),
    "T": ("gf_trinomial", 0, 8000),
    "S": ("cf_S", 1, 200),
    "Clast": ("cf_C_last", 1, 500),
    "Cpv": ("cf_C_sper_v", 1, 100),
    "B": ("sum_B", 1, 100),
    "H": ("sum_H", 1, 100),
    "area": ("prod_area", 1, 100),
    "inter": ("prod_interior", 1, 100),
    "h": ("gf_h", 1, 8000),
    "s": ("gf_s", 1, 8000),
    "u": ("gf_u", 1, 8000),
    "p": ("gf_p", 1, 8000),
}


def _require_at_least(value, low, flag):
    """Reject a numeric flag below its minimum as a usage error (exit 2)."""
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


def _dump(obj):
    import json  # only the JSON outputs pay for it

    return json.dumps(obj, separators=(",", ":"))


def _record(w: CatalanWord):
    if len(w) == 0:
        return {"word": "ε", "length": 0, "area": None, "sper": None, "inter": None, "last": None}
    rec = words.stat_record(w)
    return {
        "word": str(w),
        "length": rec.length,
        "area": rec.area,
        "sper": rec.sper,
        "inter": rec.inter,
        "last": rec.last,
    }


def _cmd_enumerate(args):
    _require_at_least(args.length, 0, "--length")
    _require_at_least(args.limit, 0, "--limit")
    if args.length > args.limit:
        raise ResourceLimit(f"enumeration of length {args.length} exceeds limit {args.limit}")
    cls = WordClass.parse(args.word_class)
    stream = words.enumerate_words(args.length, cls, args.limit)
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["word", "length", "area", "sper", "inter", "last"])
        for w in stream:
            r = _record(w)
            writer.writerow([r[k] if r[k] is not None else "" for k in
                             ("word", "length", "area", "sper", "inter", "last")])
    elif args.format == "json":
        for w in stream:
            print(_dump(_record(w)))
    else:
        for w in stream:
            print(str(w))
    return 0


def _cmd_stats(args):
    w = CatalanWord.parse(args.word)
    rec = _record(w)
    if args.format == "json":
        print(_dump(rec))
    else:
        print(" ".join(f"{k}={rec[k]}" for k in ("length", "area", "sper", "inter", "last")))
    return 0


def _cmd_render(args):
    _require_at_least(args.cell_size, 1, "--cell-size")
    from . import render

    w = CatalanWord.parse(args.word)
    if len(w) == 0:
        print("ε")
        return 0
    if args.format == "svg":
        print(render.render_svg(w, args.cell_size, args.mark_interior))
    else:
        print(render.render_ascii(w, args.mark_interior))
    return 0


def _cmd_table(args):
    from . import tables

    name = args.which
    limit = tables.DEFAULT_TABLE_LIMIT if args.limit is None else args.limit
    _require_at_least(args.max_n, 1, "--max-n")
    _require_at_least(limit, 0, "--limit")
    if args.max_n > limit:
        raise ResourceLimit(f"table size {args.max_n} exceeds limit {limit}")
    if name == "c":
        table = tables.table_c(args.max_n)
    else:
        table = tables.table_stat(args.max_n, tables.STAT_OF[name], limit)
    if args.format == "json":
        obj = {
            "which": name,
            "max_n": args.max_n,
            "first_index": table.first_index,
            "rows": [[str(e) for e in row] for row in table.rows],
        }
        print(_dump(obj))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        for n, row in enumerate(table.rows, start=1):
            writer.writerow([n] + row)
    else:
        for n, row in enumerate(table.rows, start=1):
            print(f"{n}: " + " ".join(str(e) for e in row))
    return 0


def _parse_at(spec):
    evals = []
    if not spec:
        return evals
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        var, _, value = part.partition("=")
        if var not in ("p", "q", "v") or value != "1":
            raise UsageError(f"--at accepts p=1, q=1, v=1; got {part!r}")
        evals.append(var)
    return evals


def _cmd_gf(args):
    from . import gfs
    from .backend import MAXCAP

    builder, start, default = _GF_BUILDERS[args.which]
    limit = default if args.limit is None else args.limit
    _require_at_least(args.order, 1, "--order")
    _require_at_least(limit, 0, "--limit")
    if args.order > limit:
        raise ResourceLimit(f"series order {args.order} exceeds limit {limit}")
    # a coefficient of x^n counts words of length n, at most 3^n, or totals a
    # statistic of at most n^2 over them; str() refuses more digits (0: none)
    top = args.order + start - 1
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and top * top * 3**top >= 10**digits:
        raise ResourceLimit(f"series order {args.order} may print integers past {digits} digits")
    try:
        series = getattr(gfs, builder)(args.order + start)
    except ResourceLimit as exc:  # raised at the builder's order, or a padded one
        raise ResourceLimit(
            f"series order {args.order} needs exponents above the key field maximum {MAXCAP}"
        ) from exc
    for var in _parse_at(args.at):
        series = series.eval_one(var)
    coeffs = [series.coeff(n) for n in range(start, args.order + start)]
    texts = [str(c) for c in coeffs]
    if args.format == "json":
        print(_dump({
            "which": args.which,
            "order": args.order,
            "first_power": start,
            "coefficients": texts,
        }))
    elif all(c.is_scalar() for c in coeffs):
        print(" ".join(texts))
    else:
        for n, text in enumerate(texts, start=start):
            print(f"x^{n}: {text}")
    return 0


def _cmd_bijection(args):
    from . import bijections

    w = CatalanWord.parse(args.word)
    fn = bijections.chi if args.which == "chi" else bijections.psi
    image = fn(w)
    stats_in = _record(w)
    stats_out = _record(image)
    if args.format == "json":
        print(_dump({
            "which": args.which,
            "input": stats_in,
            "image": stats_out,
        }))
    else:
        print(str(image))
        for key in ("length", "area", "sper", "inter", "last"):
            print(f"{key}: {stats_in[key]} -> {stats_out[key]}")
    return 0


def _cmd_verify(args):
    from .verify import run_verify

    report = run_verify(args.max_n, args.max_order)
    if args.format == "json":
        print(_dump({
            "max_n": report.max_n,
            "max_order": report.max_order,
            "exit_code": report.exit_code,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail, "seconds": c.seconds}
                for c in report.checks
            ],
        }))
    else:
        for c in report.checks:
            print(f"[{c.status.upper():7s}] {c.name}: {c.detail}")
        counts = report.counts()
        print(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skipped']} skipped"
        )
    return report.exit_code


def build_parser():
    import argparse  # only a command line pays for it, not ``import catpoly.cli``

    parser = argparse.ArgumentParser(
        prog="catpoly",
        description="Exact enumeration and generating functions for "
        "Motzkin-counted Catalan bargraph polyominoes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all words of one length")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--class", dest="word_class", default="geqgeq",
                   choices=[c.value for c in WordClass])
    p.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p.add_argument("--limit", type=int, default=words.DEFAULT_ENUM_LIMIT,
                   help="enumeration size guard (memory/time grows fast)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", help="statistics of one word")
    p.add_argument("--word", required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("render", help="draw the polyomino of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--format", default="ascii-art", choices=["ascii-art", "svg"])
    p.add_argument("--cell-size", type=int, default=20)
    p.add_argument("--mark-interior", action="store_true")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("table", help="triangular count/statistic tables")
    p.add_argument("--which", required=True, choices=["c", "s", "u", "p"])
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--limit", type=int, default=None,
                   help="largest --max-n; guards output size (3 MB of text at 300)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("gf", help="generating function coefficients")
    p.add_argument("--which", required=True, choices=sorted(_GF_BUILDERS))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--at", default="",
                   help="comma-separated specializations, e.g. p=1,q=1,v=1")
    limits = ", ".join(f"{name} {limit}" for name, (_, _, limit) in _GF_BUILDERS.items())
    p.add_argument("--limit", type=int, default=None,
                   help=f"largest --order; by default, about 1 s of work: {limits}")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("bijection", help="apply chi or psi to a word")
    p.add_argument("--which", required=True, choices=["chi", "psi"])
    p.add_argument("--word", required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("verify", help="run the full cross-check suite")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--max-order", type=int, default=20)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_verify)

    return parser


def _quiet_stdout():
    """Point stdout at devnull, so that no later flush meets the closed pipe."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # the last buffered output meets a closed pipe here
        return code
    except BrokenPipeError:
        # leave the signal handling alone: main also runs in-process
        _quiet_stdout()
        return 141
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotCatalan, NotInDomain, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CatpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    """Run ``main`` on the command line and end the process at its last flush.

    What ``main`` left buffered is flushed here; the teardown that
    ``os._exit`` then skips would only free memory the process gives back.
    """
    code = main()
    try:
        sys.stdout.flush()  # text written before an error is still buffered
        sys.stderr.flush()
    except BrokenPipeError:
        _quiet_stdout()
        code = 141
    os._exit(code)


if __name__ == "__main__":
    run()
