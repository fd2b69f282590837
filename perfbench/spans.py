"""In-memory spans around yfpaths' layer boundaries, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces the
module attributes that one layer calls another through (``counts.xi``,
``functions._f_rec``, ``Word.__init__``, ...) with wrappers that record a
span: layer name, start, end, parent span and request id.  Spans stay in
compact arrays until the run ends; :meth:`Recorder.fold` then turns them into
per-layer call counts and self times.  A layer's self time is its spans'
duration minus the time their child spans cover.

A hook whose target no longer exists is skipped and its layer reported as
absent, so the benchmark keeps running while the code under it is refactored.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter_ns

# (layer, module, attribute path).  Every module of the package that holds the
# same object under any name gets the wrapper, so ``from .words import
# predecessors`` copies and the package re-exports are covered too.
HOOKS = [
    ("words.validate", "yfpaths.words", "Word.__init__"),  # runs __post_init__
    ("words.neighbours", "yfpaths.words", "predecessors"),
    ("words.neighbours", "yfpaths.words", "successors"),
    ("functions.f_rec", "yfpaths.functions", "f_rec"),
    ("functions.f_rec", "yfpaths.functions", "_f_rec"),
    ("functions.f_base", "yfpaths.functions", "f_base"),
    ("functions.g_product", "yfpaths.functions", "g_product"),
    ("functions.weight", "yfpaths.functions", "weight"),
    ("counts.xi", "yfpaths.counts", "xi"),
    ("counts.odd_double_factorial", "yfpaths.counts", "odd_double_factorial"),
    ("counts.query", "yfpaths.counts", "count_down"),
    ("counts.query", "yfpaths.counts", "count_trajectory"),
    ("counts.query", "yfpaths.counts", "count_s_paths"),
    ("trajectories.enumerate", "yfpaths.trajectories", "enumerate_trajectories"),
    ("oracle.brute", "yfpaths.oracle", "brute_count_down"),
    ("oracle.brute", "yfpaths.oracle", "brute_count_trajectory"),
    ("oracle.brute", "yfpaths.oracle", "brute_count_s"),
    ("oracle.brute", "yfpaths.oracle", "brute_xi"),
    ("invariants.suites", "yfpaths.invariants", "run_invariant_suites"),
]

# Memo caches read through ``cache_info``; they are never cleared.
MEMOS = {
    "functions.f_memo": ("yfpaths.functions", "_f_rec"),
    "oracle.memo": ("yfpaths.oracle", "_down"),
}

SPANS_MARK = "@perfbench-spans "  # prefixes the per-layer totals a yf child prints
FOLD_AT = 1 << 22  # buffered span fields before they are folded into the totals
FIELDS = 5  # name id, parent offset, request id, start ns, end ns


class Recorder:
    """Span buffer plus the per-layer totals it folds into.

    ``overhead`` is the tracing cost per span, in ns, that lands in the
    parent's self time and in the span's own (see :func:`calibrate`); fold
    subtracts it so that self times approximate the untraced program.
    ``weight`` maps a request id to the factor its spans' self times are
    scaled by when folded: the host-speed scale of ``hostspeed.py``.
    """

    def __init__(self, overhead: tuple[float, float] = (0.0, 0.0)) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buf = array("q")  # FIELDS per span; a span is its offset
        self.stack: list[int] = []
        self.request = 0  # spans are recorded only while a request is open
        self.overhead = overhead
        self.weight: dict[int, float] = {}
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.counters_ok: dict[str, bool] = {}  # layer -> its counters are valid

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0.0
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.buf)
        self.buf.extend((nid, self.stack[-1] if self.stack else -1, self.request,
                         perf_counter_ns(), 0))
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.buf[i + 4] = perf_counter_ns()
        self.stack.pop()

    def begin_request(self, request_id: int, name: str = "request") -> int:
        self.request = request_id
        return self.open(self.name_id(name))

    def end_request(self, span: int) -> None:
        self.close(span)
        self.request = 0
        if len(self.buf) >= FOLD_AT:
            self.fold()

    def count(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def fold(self) -> None:
        """Add every closed span to the per-layer totals and empty the buffer."""
        if self.stack:
            raise RuntimeError("cannot fold while spans are open")
        buf = self.buf
        covered: dict[int, int] = {}
        children: dict[int, int] = {}
        for i in range(0, len(buf), FIELDS):
            p = buf[i + 1]
            if p >= 0:
                covered[p] = covered.get(p, 0) + buf[i + 4] - buf[i + 3]
                children[p] = children.get(p, 0) + 1
        per_child, own = self.overhead
        for i in range(0, len(buf), FIELDS):
            layer = self.names[buf[i]]
            self.calls[layer] += 1
            self.self_ns[layer] += (buf[i + 4] - buf[i + 3] - covered.get(i, 0)
                                    - children.get(i, 0) * per_child - own
                                    ) * self.weight.get(buf[i + 2], 1.0)
        del buf[:]

    def totals(self) -> dict:
        """Per-layer calls and self time, plus the counters still valid."""
        self.fold()
        layers = {
            layer: {"calls": self.calls[layer], "self_ns": self.self_ns[layer]}
            for layer in self.names
        }
        counters = {
            counter: self.counters.get(counter)
            for layer, names in COUNTERS.items() if self.counters_ok.get(layer)
            for counter in names
        }
        return {"layers": layers, "counters": counters}


def _resolve(module: str, path: str):
    """(owner, attribute, object) for a dotted attribute path, or None."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def _count_query(rec: Recorder, args, result) -> None:
    rec.count("counts.queries", 1)
    rec.count("counts.summands", args[0].rank + 1)
    rec.count("counts.answer_bits", result.bit_length())


def _count_checks(rec: Recorder, args, result) -> None:
    rec.count("invariants.checks", sum(checks for _, checks, _ in result))


# Counters read from a layer's arguments and result.  They are kept only while
# both still have the shape read here; otherwise they are reported absent.
AFTER = {"counts.query": _count_query, "invariants.suites": _count_checks}
COUNTERS = {
    "counts.query": ("counts.queries", "counts.summands", "counts.answer_bits"),
    "invariants.suites": ("invariants.checks",),
}


def _wrapper(rec: Recorder, layer: str, fn):
    nid = rec.name_id(layer)
    after = AFTER.get(layer)
    buf, stack = rec.buf, rec.stack
    extend, push, pop, clock = buf.extend, stack.append, stack.pop, perf_counter_ns

    # Recorder.open/close inlined: this runs on every call of a hot layer.
    def traced(*args, **kwargs):
        if not rec.request:
            return fn(*args, **kwargs)
        i = len(buf)
        extend((nid, stack[-1] if stack else -1, rec.request, clock(), 0))
        push(i)
        try:
            result = fn(*args, **kwargs)
        finally:
            buf[i + 4] = clock()
            pop()
        if after is not None and rec.counters_ok.get(layer):
            try:
                after(rec, args, result)
            except (AttributeError, IndexError, TypeError, ValueError):
                rec.counters_ok[layer] = False
        return result

    traced.__wrapped__ = fn
    for attr in ("cache_info", "cache_clear"):  # keep lru_cache objects usable
        if hasattr(fn, attr):
            setattr(traced, attr, getattr(fn, attr))
    return traced


def calibrate(rounds: int = 5, calls: int = 4000) -> tuple[float, float]:
    """Tracing cost per span: (ns added to the parent's self time, ns added to
    the span's own), measured on a function that does nothing."""

    def noop():
        return None

    samples = []
    for _ in range(rounds):
        rec = Recorder()
        traced = _wrapper(rec, "noop", noop)
        span = rec.begin_request(1)
        t0 = perf_counter_ns()
        for _ in range(calls):
            traced()
        t1 = perf_counter_ns()
        rec.end_request(span)
        inside = sum(rec.buf[i + 4] - rec.buf[i + 3]
                     for i in range(FIELDS, len(rec.buf), FIELDS)) / calls
        d0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        direct = (perf_counter_ns() - d0) / calls
        samples.append((max(0.0, (t1 - t0) / calls - inside - direct),
                        max(0.0, inside - direct)))
    samples.sort()
    return samples[len(samples) // 2]


def install(rec: Recorder, hooks=HOOKS) -> dict[str, bool]:
    """Wrap every hook target that exists; return layer -> installed."""
    for _, module, _ in hooks:
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "yfpaths" or name.startswith("yfpaths."))]
    installed: dict[str, bool] = {}
    for layer, module, path in hooks:
        found = _resolve(module, path)
        installed.setdefault(layer, False)
        if found is None:
            continue
        owner, attr, obj = found
        traced = _wrapper(rec, layer, obj)
        setattr(owner, attr, traced)
        if not isinstance(owner, type):
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, name, traced)
        installed[layer] = True
        if layer in COUNTERS:
            rec.counters_ok[layer] = True
            for counter in COUNTERS[layer]:
                rec.counters.setdefault(counter, 0)
    return installed


def memo_stats() -> dict[str, dict | None]:
    """hits, misses and entries of each memo cache, or None where it is gone."""
    out: dict[str, dict | None] = {}
    for name, (module, attr) in MEMOS.items():
        found = _resolve(module, attr)
        info = getattr(found and found[2], "cache_info", None)
        if info is None:
            out[name] = None
            continue
        ci = info()
        out[name] = {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}
    return out
