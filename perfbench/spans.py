"""In-memory span recorder for the traced benchmark run.

The tracer wraps the library from outside: while installed, every call
into a traced function records a span (name, parent span, job, start,
end) and the term kernel also records how many term pairs it visited and
how many new terms it created.  ``installed()`` restores every original
on exit, so untraced jobs and the output checks run the plain library.

Layers, by span-name prefix:
  kernel       ``backend.mul_into``
  mpoly        ``MPoly`` methods and ``mpoly.invert``
  series       ``Series`` methods
  gfs, words, tables, bijections, closedforms
               the public functions of each module
  verify, cli  ``verify.run_verify`` and ``cli.main``
"""

import contextlib
import gzip
import inspect
import sys
import types
from array import array
from time import perf_counter

from catpoly import (
    backend,
    bijections,
    cli,
    closedforms,
    gfs,
    mpoly,
    series,
    tables,
    verify,
    words,
)

#: Modules whose public functions are traced; a module's short name is
#: the layer its spans belong to.
_FUNCTION_MODULES = (gfs, words, tables, bijections, closedforms)

#: Dunder methods of ``MPoly``/``Series`` that are arithmetic and so traced
#: like the public methods.
_ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__")


def _targets():
    """(owner, attribute, span name) for every traced callable."""
    out = [(backend, "mul_into", "kernel.mul_into"), (mpoly, "invert", "mpoly.invert")]
    for cls, layer in ((mpoly.MPoly, "mpoly"), (series.Series, "series")):
        for attr, value in vars(cls).items():
            if isinstance(value, types.FunctionType) and (
                not attr.startswith("_") or attr in _ARITHMETIC
            ):
                out.append((cls, attr, f"{layer}.{cls.__name__}.{attr}"))
    for module in _FUNCTION_MODULES:
        layer = module.__name__.rpartition(".")[2]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__
            ):
                out.append((module, attr, f"{layer}.{attr}"))
    out.append((verify, "run_verify", "verify.run_verify"))
    out.append((cli, "main", "cli.main"))
    return out


class Tracer:
    """Collects spans and kernel counts across any number of installs."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_job = -1
        self.pair_visits = 0
        self.new_terms = 0
        self.enumerated = 0
        self._stack = [-1]

    # -- recording -----------------------------------------------------------

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        nid = self._nid(name)
        tracer = self
        if name == "kernel.mul_into":

            def traced_kernel(acc, a, b, capkey):
                before = len(acc)
                i = tracer._open(nid)
                try:
                    fn(acc, a, b, capkey)
                finally:
                    tracer._close(i)
                tracer.pair_visits += len(a) * len(b)
                tracer.new_terms += len(acc) - before

            return traced_kernel
        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                # one span per resume, so the consumer's time between
                # items is not charged to the generator
                gen = fn(*args, **kwargs)
                while True:
                    i = tracer._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    if name == "words.enumerate_words":
                        tracer.enumerated += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every traced callable through a span-recording wrapper.

        Besides the defining attribute, every other reference a catpoly
        module holds to the same object (``from .words import ...``) is
        replaced too, so calls are traced whichever name they use.
        """
        wrappers = {}
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            wrappers[id(original)] = (original, self._wrap(name, original))
        patches = []
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "catpoly"]
        for owner in modules + [mpoly.MPoly, series.Series]:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    # -- aggregation ---------------------------------------------------------

    def metrics(self, passes, constructors):
        """Per-layer metrics as (value, unit), each a total over one pass.

        Every pass runs the same multiset of jobs, so the per-pass counts
        are exact and repeat for any number of passes.  Self time is a
        span's duration minus the durations of its direct children; spans
        nest strictly because the run is single-threaded.
        """
        n = len(self.start)
        duration = array("d", (end - start for start, end in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        calls, inclusive, self_s = {}, {}, {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + duration[i]
            layer = name.partition(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + duration[i] - child[i]

        def per_pass(total):
            return total // passes if isinstance(total, int) and total % passes == 0 else total / passes

        def count(name):
            return per_pass(calls.get(name, 0)), "count"

        def seconds(table, key):
            return per_pass(table.get(key, 0.0)), "s"

        out = {
            "kernel.calls": count("kernel.mul_into"),
            "kernel.pair_visits": (per_pass(self.pair_visits), "count"),
            "kernel.new_terms": (per_pass(self.new_terms), "count"),
            "kernel.fill_ratio": (
                self.new_terms / self.pair_visits if self.pair_visits else 0.0,
                "ratio",
            ),
            "kernel.self_s": seconds(self_s, "kernel"),
            "mpoly.mul.calls": count("mpoly.MPoly.mul"),
            "mpoly.subst_v_to_q.calls": count("mpoly.MPoly.subst_v_to_q"),
            "mpoly.invert.calls": count("mpoly.invert"),
            "mpoly.self_s": seconds(self_s, "mpoly"),
            "series.mul.calls": count("series.Series.__mul__"),
            "series.div.calls": count("series.Series.div"),
            "series.sqrt.calls": count("series.Series.sqrt"),
            "series.self_s": seconds(self_s, "series"),
        }
        for name in constructors:
            out[f"gfs.{name}.calls"] = count(f"gfs.{name}")
            out[f"gfs.{name}.s"] = seconds(inclusive, f"gfs.{name}")
        out["gfs.self_s"] = seconds(self_s, "gfs")
        out["words.enumerated"] = (per_pass(self.enumerated), "count")
        for layer in ("words", "bijections", "tables", "closedforms", "verify", "cli"):
            out[f"{layer}.self_s"] = seconds(self_s, layer)
        return out

    def write(self, path):
        """Write every span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.job[i]}\t{names[self.name_id[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
