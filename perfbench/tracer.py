"""In-memory spans around calls into taildep's modules, and their accounting.

A span is (id, parent id, name, start, end, depth, op id). Names are
'<layer>.<what>', where the layer is a taildep module (cli, tail_core,
support_fit, estimators, boot_tests, datagen, statdist). Spans are kept in
a list and written out when the run ends. Times come from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, so spans that
a child interpreter records line up with the op interval its parent timed.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "tail_core", "support_fit", "estimators", "boot_tests", "datagen", "statdist")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []  # (op id, name, amount); list.append is atomic
        self.op = 0
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[tuple[int, int]] = []
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        stack = self._stack()
        # a pool thread's first span hangs under the span the main thread is in
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else (0, -1))
        frame = (next(self._ids), parent[1] + 1)
        stack.append(frame)
        return frame, parent[0], name, perf_counter()

    def close(self, token) -> None:
        end = perf_counter()
        (sid, depth), parent, name, start = token
        self._stack().pop()
        self.spans.append((sid, parent, name, start, end, depth, self.op))

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts.append((self.op, name, amount))

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span around every call; on_result(result) runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if on_result is not None:
                on_result(result)
            return result

        return traced


class CountingGenerator:
    """Delegates to a numpy Generator and counts the index rows it draws."""

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen, self._tracer = gen, tracer

    def integers(self, *args, **kwargs):
        out = self._gen.integers(*args, **kwargs)
        self._tracer.count("boot_tests.draws", out.shape[0] if getattr(out, "ndim", 0) == 2 else 1)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


# (attribute, span name) of the entry points as taildep.cli binds them
ENTRY_POINTS = (
    ("radial_order", "tail_core.radial_order"),
    ("estimate_support", "support_fit.estimate_support"),
    ("strong_dependence_test", "boot_tests.H1"),
    ("full_dependence_test", "boot_tests.H2"),
    ("weak_dependence_test", "boot_tests.H3"),
)


def instrument(tracer: Tracer, namespace) -> None:
    """Span each entry point that namespace binds (taildep.cli, or a caller
    holding the same names), count support-fit evaluations, and span the
    random streams and quantiles inside boot_tests."""
    from taildep import boot_tests

    on_result = {"support_fit.estimate_support":
                 lambda est: tracer.count("support_fit.evaluations", len(getattr(est, "trace", ())))}
    for attr, name in ENTRY_POINTS:
        if hasattr(namespace, attr):
            setattr(namespace, attr, tracer.wrap(name, getattr(namespace, attr), on_result.get(name)))
    instrument_boot_tests(tracer, boot_tests)


def instrument_boot_tests(tracer: Tracer, boot_tests) -> None:
    """Span the random streams and quantiles as boot_tests binds them."""
    stream = boot_tests.stream

    def traced_stream(*entropy):
        token = tracer.open("datagen.stream")
        try:
            gen = stream(*entropy)
        finally:
            tracer.close(token)
        return CountingGenerator(gen, tracer)

    boot_tests.stream = traced_stream
    for name in ("normal_quantile", "chisq_quantile", "f_quantile"):
        setattr(boot_tests, name, tracer.wrap("statdist.quantile", getattr(boot_tests, name)))


def layer_of(name: str) -> str | None:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


def partition(t0: float, t1: float, spans) -> dict:
    """Split the op interval [t0, t1] among layers.

    Each instant goes to the deepest span open at that instant (the latest
    started, among equals), so concurrent spans on pool threads are counted
    once. Instants covered by no layer span go to None, the unattributed
    remainder. The parts sum to t1 - t0 exactly, up to rounding.
    """
    events = []
    for i, (start, end, depth, layer) in enumerate(spans):
        start, end = max(start, t0), min(end, t1)
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()
    out: dict = defaultdict(float)
    heap: list = []
    alive: set = set()
    prev = t0
    for t, is_start, i in events:
        while heap and heap[0][2] not in alive:
            heapq.heappop(heap)
        out[spans[heap[0][2]][3] if heap else None] += t - prev
        prev = t
        if is_start:
            alive.add(i)
            heapq.heappush(heap, (-spans[i][2], -spans[i][0], i))
        else:
            alive.discard(i)
    out[None] += t1 - prev
    return out


def summarize(op_intervals: dict, spans, counts, scale: dict | None = None) -> dict:
    """Per-op means of layer self times, named span times and counts.

    op_intervals maps op id -> (start, end); spans are tracer tuples. Named
    span times are summed over calls and threads (time busy), then averaged
    over ops. scale maps op id -> a factor for every time of that op.
    """
    scale = scale or {}
    n_ops = len(op_intervals)
    by_op: dict = defaultdict(list)
    busy: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for sid, parent, name, start, end, depth, op in spans:
        if op not in op_intervals:
            continue
        by_op[op].append((start, end, depth, layer_of(name)))
        busy[name] += (end - start) * scale.get(op, 1.0)
        calls[name] += 1
    self_s: dict = defaultdict(float)
    wall = 0.0
    for op, (t0, t1) in op_intervals.items():
        wall += (t1 - t0) * scale.get(op, 1.0)
        for layer, seconds in partition(t0, t1, by_op[op]).items():
            self_s[layer] += seconds * scale.get(op, 1.0)
    totals: dict = defaultdict(int)
    for op, name, amount in counts:
        if op in op_intervals:
            totals[name] += amount
    return {
        "ops": n_ops,
        "op_s": wall / n_ops,
        "self_s": {layer: self_s.get(layer, 0.0) / n_ops for layer in LAYERS},
        "unattributed_s": self_s.get(None, 0.0) / n_ops,
        "busy_s": {name: s / n_ops for name, s in busy.items()},
        "calls": {name: c / n_ops for name, c in calls.items()},
        "counts": {name: c / n_ops for name, c in totals.items()},
    }


def counts_by_op(spans, counts) -> dict:
    """op id -> {count name: amount}, with span call counts as 'calls:<name>'."""
    out: dict = defaultdict(lambda: defaultdict(int))
    for sid, parent, name, start, end, depth, op in spans:
        out[op]["calls:" + name] += 1
    for op, name, amount in counts:
        out[op][name] += amount
    return {op: dict(c) for op, c in out.items()}
