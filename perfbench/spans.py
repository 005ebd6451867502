"""Span tracing for the benchmark's traced runs.

The tracer times the library's layers from outside: `install` replaces
attributes of the wienercub modules and classes with wrappers, and
`uninstall` puts the originals back. Untraced runs install nothing.

- A function in SPANS records one span per call: name, start, end, parent
  span, thread and the op it belongs to. Every module attribute bound to the
  function is replaced, so calls across module boundaries and calls through
  a module global inside the defining module are both traced.
- A per-row callback (field evaluations, payoff evaluations, the
  benchmark's own field callbacks) adds to per-op counters instead of
  recording a span each; a timed callback also charges its time to the
  innermost open span of its thread, so that span's self time excludes it.

Spans stay in memory until `spans()` collects them at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

perf = time.perf_counter

MODULES = ("tensor_algebra", "lie_structures", "path_signature", "cubature",
           "vector_fields", "operator_calculus", "klv_solver", "cli")

# (module, attribute, span name, extra counters taken from (args, kwargs, result))
SPANS = [
    ("tensor_algebra", "mul", "tensor_algebra.mul",
     lambda a, k, r: {"tensor_algebra.mul.terms": len(a[0]) * len(a[1])}),
    ("tensor_algebra", "exp", "tensor_algebra.exp", None),
    ("tensor_algebra", "log", "tensor_algebra.log", None),
    ("lie_structures", "certify", "lie_structures.certify", None),
    ("lie_structures", "bch", "lie_structures.bch", None),
    ("path_signature", "signature", "path_signature.signature", None),
    ("path_signature", "log_signature", "path_signature.log_signature", None),
    ("path_signature", "concat", "path_signature.concat", None),
    ("path_signature", "brownian_expected_signature",
     "path_signature.expected_signature", None),
    ("path_signature", "monte_carlo_expected_signature",
     "path_signature.mc_signature",
     lambda a, k, r: {"path_signature.mc_signature.paths":
                      k["n_paths"] if "n_paths" in k else a[3]}),
    ("cubature", "validate", "cubature.validate", None),
    ("cubature", "rescale", "cubature.rescale", None),
    ("vector_fields", "flow_exp", "vector_fields.flow_exp",
     lambda a, k, r: {"vector_fields.flow_exp.rows":
                      r.shape[0] if r.ndim == 2 else 1}),
    ("vector_fields", "expm", "vector_fields.expm", None),
    ("klv_solver", "klv_full", "klv_solver.klv_full",
     lambda a, k, r: {"klv_solver.leaves": r.leaves_evaluated}),
    ("klv_solver", "klv_sampled", "klv_solver.klv_sampled",
     lambda a, k, r: {"klv_solver.leaves": r.leaves_evaluated}),
    ("klv_solver", "euler_mc", "klv_solver.euler_mc", None),
    ("cli", "main", "cli.main", None),
]

# (module, class, method, span name): methods traced with a span per call.
# _TreeWalker.run is the unit of work the thread pool of klv_full runs, so
# work done in pool threads outside any other span is still attributed.
METHOD_SPANS = [
    ("vector_fields", "VectorFieldSystem", "combine", "vector_fields.combine"),
    ("klv_solver", "_TreeWalker", "run", "klv_solver.subtree"),
]

# (module, class, method, counter name, timed): per-row callbacks
CALLBACKS = [
    ("vector_fields", "AffineField", "__call__", "vector_fields.field_evals", False),
    ("vector_fields", "GenericField", "__call__", "vector_fields.field_evals", False),
    ("operator_calculus", "MultiPoly", "__call__",
     "operator_calculus.multipoly_eval", True),
]


class Span(NamedTuple):
    id: int
    name: str
    thread: int
    op: int
    parent: int | None
    start: float
    end: float
    callback_s: float


class _ThreadRecord:
    """What one thread recorded; kept after the thread ends."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [id, callback seconds]
        self.spans: list[Span] = []
        self.counters: dict = defaultdict(float)
        self.thread = threading.get_ident()


class Tracer:
    """Records spans and per-op counters; `op` is set by the op loop."""

    def __init__(self):
        self.op = -1
        self._ids = itertools.count()
        self._tls = threading.local()
        self._all: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _local(self) -> _ThreadRecord:
        try:
            return self._tls.record
        except AttributeError:
            record = self._tls.record = _ThreadRecord()
            with self._lock:
                self._all.append(record)
            return record

    # -- wrappers ------------------------------------------------------------

    def wrap_span(self, fn, name, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._local()
            sid = next(tracer._ids)
            parent = st.stack[-1][0] if st.stack else None
            frame = [sid, 0.0]
            st.stack.append(frame)
            op = tracer.op
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                st.stack.pop()
                st.spans.append(
                    Span(sid, name, st.thread, op, parent, t0, t1, frame[1])
                )
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    st.counters[(op, key)] += value
            return result

        return wrapper

    def wrap_callback(self, fn, name, timed=True, rows=False):
        """Count calls as `<name>.calls` (and rows of a batched first argument
        as `<name>.rows`); when `timed`, also sum their time as `<name>.s`
        and charge it to the innermost open span of the thread."""
        tracer = self
        calls, nrows, secs = name + ".calls", name + ".rows", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._local()
            op = tracer.op
            st.counters[(op, calls)] += 1
            if rows:
                x = args[0]
                st.counters[(op, nrows)] += x.shape[0] if x.ndim == 2 else 1
            if not timed:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st.counters[(op, secs)] += dt
                if st.stack:
                    st.stack[-1][1] += dt

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every traced function and method of `package` (wienercub)."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        ]
        mod = dict(zip(MODULES, modules[1:]))
        for mod_name, attr, name, extra in SPANS:
            original = getattr(mod[mod_name], attr)
            wrapper = self.wrap_span(original, name, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        for mod_name, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(mod[mod_name], cls_name)
            self._replace(cls, meth, self.wrap_span(getattr(cls, meth), name))
        for mod_name, cls_name, meth, name, timed in CALLBACKS:
            cls = getattr(mod[mod_name], cls_name)
            self._replace(cls, meth, self.wrap_callback(getattr(cls, meth), name, timed))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def spans(self) -> list[Span]:
        return sorted(
            (s for st in self._all for s in st.spans), key=lambda s: s.start
        )

    def counters(self) -> dict:
        out: dict = defaultdict(float)
        for st in self._all:
            for key, value in st.counters.items():
                out[key] += value
        return dict(out)


# -- analysis ------------------------------------------------------------------


def _merge(intervals) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def _minus(a: float, b: float, merged) -> list[tuple[float, float]]:
    """[a, b] minus a merged interval list."""
    free, cur = [], a
    for x, y in merged:
        if y <= cur or x >= b:
            continue
        if x > cur:
            free.append((cur, x))
        cur = max(cur, y)
    if cur < b:
        free.append((cur, b))
    return free


def _overlap(free, merged) -> float:
    return sum(
        max(0.0, min(b, y) - max(a, x)) for a, b in free for x, y in merged
    )


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Per span id: (self time, wait time).

    Self time is the span's duration minus the part of it covered by child
    spans on the same thread and minus the time of timed callbacks charged to
    it. Children on other threads are not subtracted, so a span that waits
    for a thread pool keeps the wait in its self time. The wait is the part
    of that uncovered time, on the thread that started the op, during which
    spans of the same op ran on other threads.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    tops: dict[int, list[Span]] = defaultdict(list)  # per op, first level of each thread
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[s.parent].append(s)
        else:
            tops[s.op].append(s)
    others: dict[tuple[int, int], list] = {}
    for op, top in tops.items():
        root = min(top, key=lambda s: s.start).thread
        others[(op, root)] = _merge(
            (s.start, s.end) for s in top if s.thread != root
        )
    out = {}
    for s in spans:
        free = _minus(s.start, s.end, _merge((c.start, c.end) for c in children[s.id]))
        busy = others.get((s.op, s.thread))
        wait = _overlap(free, busy) if busy else 0.0
        out[s.id] = (sum(b - a for a, b in free) - s.callback_s, wait)
    return out


LAYERS = ("tensor_algebra", "lie_structures", "path_signature", "cubature",
          "vector_fields", "operator_calculus", "klv_solver", "cli", "user",
          "bench")

# per-layer metrics of one op: (name, unit)
PER_OP = [
    ("tensor_algebra.mul.calls", "count"),
    ("tensor_algebra.mul.self_s", "s"),
    ("tensor_algebra.mul.terms", "count"),
    ("tensor_algebra.exp.calls", "count"),
    ("tensor_algebra.exp.self_s", "s"),
    ("tensor_algebra.log.calls", "count"),
    ("tensor_algebra.log.self_s", "s"),
    ("lie_structures.certify.calls", "count"),
    ("lie_structures.certify.self_s", "s"),
    ("lie_structures.bch.self_s", "s"),
    ("path_signature.signature.calls", "count"),
    ("path_signature.signature.self_s", "s"),
    ("path_signature.mc_signature.self_s", "s"),
    ("path_signature.mc_signature.paths_per_s", "1/s"),
    ("cubature.validate.self_s", "s"),
    ("cubature.rescale.calls", "count"),
    ("cubature.rescale.self_s", "s"),
    ("vector_fields.flow_exp.calls", "count"),
    ("vector_fields.flow_exp.self_s", "s"),
    ("vector_fields.flow_exp.rows", "count"),
    ("vector_fields.flow_exp.rows_per_call", "rows/call"),
    ("vector_fields.field_evals", "count"),
    ("vector_fields.expm.calls", "count"),
    ("vector_fields.combine.calls", "count"),
    ("operator_calculus.multipoly_eval.calls", "count"),
    ("operator_calculus.multipoly_eval.self_s", "s"),
    ("klv_solver.klv_full.self_s", "s"),
    ("klv_solver.leaves", "count"),
    ("klv_solver.leaves_per_s", "1/s"),
    ("klv_solver.klv_sampled.self_s", "s"),
    ("klv_solver.euler_mc.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("user.field.calls", "count"),
    ("user.field.rows", "count"),
    ("user.field.s", "s"),
] + [(f"layer.{layer}.busy_s", "s") for layer in LAYERS]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def op_metrics(spans: list[Span], counters: dict) -> dict[int, dict[str, float]]:
    """The PER_OP metrics of every op that has spans.

    A layer's busy time is the self time of its spans minus pool waits, plus
    the time of its timed callbacks; `<fn>.self_s` keeps the wait.
    """
    times = self_times(spans)
    calls, self_s, incl, busy = (defaultdict(lambda: defaultdict(float))
                                 for _ in range(4))
    for s in spans:
        own, waited = times[s.id]
        calls[s.op][s.name] += 1
        self_s[s.op][s.name] += own
        incl[s.op][s.name] += s.end - s.start
        busy[s.op][s.name.split(".")[0]] += own - waited
    count = defaultdict(lambda: defaultdict(float))
    for (op, key), value in counters.items():
        count[op][key] += value
        if key.endswith(".s"):
            busy[op][key.split(".")[0]] += value
    out = {}
    for op in calls:
        c, t, n = calls[op], self_s[op], count[op]
        solve = incl[op]["klv_solver.klv_full"] + incl[op]["klv_solver.klv_sampled"]
        m = {
            "path_signature.mc_signature.paths_per_s": _ratio(
                n["path_signature.mc_signature.paths"],
                incl[op]["path_signature.mc_signature"]),
            "vector_fields.flow_exp.rows": n["vector_fields.flow_exp.rows"],
            "vector_fields.flow_exp.rows_per_call": _ratio(
                n["vector_fields.flow_exp.rows"], c["vector_fields.flow_exp"]),
            "vector_fields.field_evals": n["vector_fields.field_evals.calls"],
            "operator_calculus.multipoly_eval.calls":
                n["operator_calculus.multipoly_eval.calls"],
            "operator_calculus.multipoly_eval.self_s":
                n["operator_calculus.multipoly_eval.s"],
            "tensor_algebra.mul.terms": n["tensor_algebra.mul.terms"],
            "klv_solver.leaves": n["klv_solver.leaves"],
            "klv_solver.leaves_per_s": _ratio(n["klv_solver.leaves"], solve),
            "user.field.calls": n["user.field.calls"],
            "user.field.rows": n["user.field.rows"],
            "user.field.s": n["user.field.s"],
        }
        for layer in LAYERS:
            m[f"layer.{layer}.busy_s"] = busy[op][layer]
        for name, _ in PER_OP:
            if name not in m:
                fn, _, what = name.rpartition(".")
                m[name] = c[fn] if what == "calls" else t[fn]
        out[op] = m
    return out
