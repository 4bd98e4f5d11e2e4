"""Spans around bellsim's public functions, recorded from outside the package.

The tracer replaces each function in ``LAYERS`` by a timing wrapper
wherever a ``bellsim`` module binds it: the defining module, every module
that imported the name with ``from ... import``, and module-level dicts
that hold the function (``experiments._ESTIMATOR_FUNCS``).  Nothing under
``src/`` is edited.

Spans are kept in memory.  A span's parent is the innermost open span of
its own thread; a span opened on a thread with no open span (a worker of
``experiments.scan``'s thread pool, which does not copy contextvars) is
attached to the innermost open span of the thread that installed the
tracer.  Self time subtracts only children on the same thread, so a scan's
self time still covers the wait for its worker rows.

Only the standard library is imported here: the tracer is loaded before
``bellsim`` when a fresh process times its own import.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

#: (module, function) pairs timed as layer boundaries
LAYERS = (
    ("fock", "get_basis"),
    ("fock", "matrix"),
    ("fock", "evolve"),
    ("fock", "expect_product"),
    ("experiments", "run"),
    ("experiments", "correlation_raw"),
    ("experiments", "correlation_conditioned"),
    ("experiments", "scan"),
    ("adjoint", "conjugate"),
    ("algebra", "verify_structure_constants"),
    ("algebra", "verify_closure"),
)

#: lru caches whose misses are counted (read from ``cache_info()``, not wrapped)
CACHES = (("fock", "get_basis"), ("wick", "commutator_reference"))

#: spans that together make up one scan row when they sit directly under a scan
ROW_LAYERS = ("experiments.run", "experiments.correlation_raw",
              "experiments.correlation_conditioned")


class Span:
    __slots__ = ("id", "name", "tid", "parent", "start", "end")

    def __init__(self, span_id, name, tid, parent, start):
        self.id = span_id
        self.name = name
        self.tid = tid
        self.parent = parent
        self.start = start
        self.end = start


class Tracer:
    """Records spans and counts at the layer boundaries of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.nnz = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._anchor_stack: list[Span] = self._stack()
        self._restore: list = []
        self._misses: dict[str, int] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            anchor = self._anchor_stack
            parent = anchor[-1].id if anchor else None
        span = Span(next(self._ids), name, threading.get_ident(), parent, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def take(self) -> list[Span]:
        """Finished spans since the last call."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "fock.matrix":
                with tracer._lock:
                    tracer.nnz += result.mat.nnz
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(func, attr):
                setattr(wrapper, attr, getattr(func, attr))
        return wrapper

    def install(self) -> None:
        """Patch every binding of each layer function in the loaded bellsim modules."""
        self._misses = cache_misses()
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bellsim" or key.startswith("bellsim."))]
        for mod_name, func_name in LAYERS:
            original = getattr(sys.modules[f"bellsim.{mod_name}"], func_name)
            wrapped = self._wrap(f"{mod_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapped
                                self._restore.append((value, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def report(self) -> dict:
        """:func:`summarize` of the spans so far, plus the matrix nonzeros built and
        the cache misses since :meth:`install`."""
        out = summarize(self.take())
        after = cache_misses()
        out.update(nnz=self.nnz, misses={k: after[k] - self._misses[k] for k in after})
        return out


def cache_misses() -> dict[str, int]:
    """Current miss counts of the lru caches in ``CACHES``."""
    out = {}
    for mod_name, func_name in CACHES:
        # wick is imported lazily, by the first structure-constant check
        module = sys.modules.get(f"bellsim.{mod_name}")
        out[f"{mod_name}.{func_name}"] = (
            getattr(module, func_name).cache_info().misses if module else 0)
    return out


def summarize(spans: list[Span]) -> dict:
    """Per-layer calls and self time, plus the scan row time and scan wall time."""
    by_id = {s.id: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.tid == s.tid:
            child_s[parent.id] += s.end - s.start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    row_s = scan_s = 0.0
    for s in spans:
        duration = s.end - s.start
        calls[s.name] += 1
        self_s[s.name] += duration - child_s[s.id]
        parent = by_id.get(s.parent)
        if s.name in ROW_LAYERS and parent is not None and parent.name == "experiments.scan":
            row_s += duration
        if s.name == "experiments.scan":
            scan_s += duration
    return {"calls": dict(calls), "self_s": dict(self_s), "row_s": row_s, "scan_s": scan_s}
