"""Run one ksum CLI command in this process with every layer traced.

Usage: python3 perfbench/tracer.py TRACE_JSON ARG...

ARG... are the `ksum` command-line arguments.  The ksum package must be
importable (run.py sets PYTHONPATH to the checkout's `src`).  The command's
stdout and exit code are those of `ksum.cli.main`; the trace goes to
TRACE_JSON when the command ends.

Wrappers live here, not in the program.  Each one replaces a public function
in every ksum namespace that binds it (`power_sum` is bound in ff, kloos and
padic, `make_field` in ff, sweeps and cli), so a call is seen whichever
module makes it.  Boundary functions are timed as spans (name, start, end,
parent); the hot inner functions are only counted, since timing them would
cost more than they do.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# module, attribute, span name: timed and counted
TIMED = [
    ("cli", "main", "cli.main"),
    ("sweeps", "run_verification", "sweeps.run_verification"),
    ("sweeps", "emit_report", "sweeps.emit_report"),
    ("ff", "make_field", "ff.make_field"),
    ("ff", "power_sum", "ff.power_sum"),
    ("kloos", "kloosterman", "kloos.kloosterman"),
    ("kloos", "min_poly", "kloos.min_poly"),
    ("kloos", "_counts_by_index", "kloos.rows"),   # one counting row
    ("cyclo", "product_linear", "cyclo.product_linear"),
    ("padic", "teichmuller", "padic.teichmuller"),
    ("padic", "gauss_sum", "padic.gauss_sum"),
    ("padic", "gamma_p", "padic.gamma_p"),
]
# module, class, attribute, counter name: counted only
COUNTED = [
    ("ff", "FieldCtx", "pow", "ff.pow"),
    ("ff", "FieldCtx", "element_at", "ff.element_at"),
    ("cyclo", "CycInt", "__mul__", "cyclo.mul"),
    ("padic", "UnramElem", "__mul__", "padic.unram_mul"),
]
# every public check_* of these modules is a span too, so that the time a
# case spends outside the named calls lands in its own layer's self time
CHECK_MODULES = ("kloos", "padic")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []        # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.installed: dict[str, list[str]] = {}

    def timed(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def replace(self, namespaces, orig, new, name: str) -> None:
        """Rebind every binding of `orig` in `namespaces` to `new`."""
        where = []
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, new)
                    where.append(f"{getattr(ns, '__name__', ns)}.{key}")
        self.installed[name] = where

    def aggregate(self) -> dict:
        """Per-name span totals and per-layer self time."""
        child = [0.0] * len(self.spans)
        span_s: Counter = Counter()
        for name, start, end, parent in self.spans:
            span_s[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name.split(".")[0]] += (end - start) - child[i]
        return {"span_s": dict(span_s), "self_s": dict(self_s)}


class _CountingStream:
    """Forwards writes and counts the bytes written."""

    def __init__(self, stream, counts: Counter, name: str):
        self._stream, self._counts, self._name = stream, counts, name

    def write(self, text: str) -> int:
        self._counts[self._name] += len(text.encode())
        return self._stream.write(text)


def install(tracer: Tracer, ksum) -> None:
    mods = {name: getattr(ksum, name)
            for name in ("ff", "cyclo", "kloos", "padic", "sweeps", "cli")}
    namespaces = [ksum, *mods.values()]
    counts = tracer.counts

    def emit_bytes(fn):
        def wrapper(report, fmt, stream, *args, **kwargs):
            stream = _CountingStream(stream, counts, "sweeps.emit_report.bytes")
            return fn(report, fmt, stream, *args, **kwargs)
        return wrapper

    def gamma_iters(fn):
        def wrapper(x):
            counts["padic.gamma_p.iters"] += x.residue
            return fn(x)
        return wrapper

    inner = {"sweeps.emit_report": emit_bytes, "padic.gamma_p": gamma_iters}
    timed = list(TIMED)
    for mod in CHECK_MODULES:
        timed += [(mod, attr, f"{mod}.{attr}") for attr in vars(mods[mod])
                  if attr.startswith("check_")]
    for mod, attr, name in timed:
        orig = getattr(mods[mod], attr)
        fn = inner[name](orig) if name in inner else orig
        tracer.replace(namespaces, orig, tracer.timed(name, fn), name)

    for mod, cls_name, attr, name in COUNTED:
        cls = getattr(mods[mod], cls_name)
        orig = vars(cls)[attr]
        tracer.replace([cls], orig, tracer.counted(name, orig), name)

    # FieldCtx.tables is a cached_property: time the function it caches
    tables = vars(mods["ff"].FieldCtx)["tables"]
    tables.func = tracer.timed("ff.tables", tables.func)
    tracer.installed["ff.tables"] = ["ksum.ff.FieldCtx.tables"]
    # CycInt.from_power_counts is a classmethod: count the function it binds
    cyc = mods["cyclo"].CycInt
    orig = vars(cyc)["from_power_counts"]
    cyc.from_power_counts = classmethod(
        tracer.counted("cyclo.from_power_counts", orig.__func__))
    tracer.installed["cyclo.from_power_counts"] = ["ksum.cyclo.CycInt.from_power_counts"]


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    t0 = perf_counter()
    import ksum
    import ksum.cli
    import_s = perf_counter() - t0

    rows_cache = ksum.kloos._counts_by_index     # read-only: cache_info()
    tracer = Tracer()
    install(tracer, ksum)
    try:
        rc = ksum.cli.main(args)
    finally:
        sys.stdout.flush()
        rows = rows_cache.cache_info()
        trace = {
            "argv": args,
            "import_s": import_s,
            "counts": dict(tracer.counts),
            "rows": {"computed": rows.misses, "hits": rows.hits},
            "installed": tracer.installed,
            **tracer.aggregate(),
            "spans": tracer.spans,
        }
        with open(out_path, "w") as fh:
            json.dump(trace, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
