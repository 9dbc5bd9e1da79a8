"""Span tracing around the public functions of each fqcover layer.

`Tracer.install` replaces every public module-level function of the six
fqcover modules, and the array operations of `Field`, with a wrapper that
records a span: name, parent span, start and end in nanoseconds.  A
function is replaced on every module attribute that holds it, because
callers look names up where they imported them (`harness` does
`from .covering import cover_verdict`).  Spans stay in memory in flat
arrays and are written out once, when the traced run ends.

A span is named `<layer>.<qualified name>`; the layer is the module that
defines the function.  Other methods are not wrapped, so their time
counts toward the span that called them.  Spans must come from one
thread: the traced run uses --workers 1.

A wrapper costs time of its own, partly before and after the span it
records (charged to the caller's span) and partly inside it.  `install`
measures both parts on empty calls first, and `SpanTree` takes them out of
every span, so that layer self times hold program time only and the
removed time is reported as its own bucket.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("gf", "fourier", "incidence", "covering", "harness", "cli")
FIELD_ARRAY_METHODS = ("add_arrays", "mul_arrays", "pow_arrays", "chi_arrays")
CALL, STEP = 0, 1  # span kinds: a function call, one step of a generator

# Computed counts, taken from the arguments of a call: span name ->
# (counter, pairs formed by the call).
COUNT_HOOKS = {
    "covering.product_set": ("covering.pairs", lambda a: a.count ** 2),
    "covering.sumset": ("covering.pairs", lambda a, b: a.count * b.count),
    "incidence.nu": ("incidence.nu_pairs", lambda e: e.count ** 2),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kinds: list[int] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.cost_ns = np.zeros((2, 2))  # [kind] -> (outside, inside)

    # -- recording ------------------------------------------------------

    def _intern(self, name: str, kind: int) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return self._ids[name]

    def span(self, name: str, kind: int = CALL):
        """Wrap a callable so each call records one span."""
        nid = self._intern(name, kind)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        counter, hook = COUNT_HOOKS.get(name, (None, None))

        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if hook is not None:
                    counts[counter] += hook(*args, **kwargs)
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0)
                stack.append(idx)
                start.append(perf_counter_ns())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = perf_counter_ns()
                    stack.pop()
            return traced
        return decorate

    def generator_span(self, name: str, fn):
        """Wrap a generator function: each step of the outermost generator
        is one span.  Calls the generator makes to itself while it runs
        (colex_subsets recurses) pass through untraced."""
        step = self.span(name, STEP)(next)
        counter = name + ".yields"
        running = [False]

        def steps(gen):
            while True:
                running[0] = True
                try:
                    item = step(gen)
                except StopIteration:
                    return
                finally:
                    running[0] = False
                self.counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return gen if running[0] else steps(gen)
        return traced

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Measure the wrappers' own cost, then wrap the public functions
        of every layer module of `package`."""
        self.cost_ns = calibrate()
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replaced[obj] = (self.generator_span(name, obj)
                                     if inspect.isgeneratorfunction(obj)
                                     else self.span(name)(obj))
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        field_cls = package.gf.Field
        for attr in FIELD_ARRAY_METHODS:
            setattr(field_cls, attr,
                    self.span(f"gf.Field.{attr}")(getattr(field_cls, attr)))

    def save(self, path: str) -> None:
        cost = self.cost_ns[np.array(self.kinds, dtype=np.int64)]
        np.savez(path, names=np.array(self.names),
                 outside_ns=cost[:, 0], inside_ns=cost[:, 1],
                 name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start, np.int64),
                 end=np.frombuffer(self.end, np.int64))


def calibrate(n: int = 10_000, repeats: int = 5) -> np.ndarray:
    """Nanoseconds a wrapper adds to one traced call or generator step.

    Returns cost[kind] = (outside, inside): the part spent before and after
    the span, which lands in the caller's span, and the part spent inside
    it beyond the untraced call.  Both are measured on n calls of an empty
    two-argument function (and n steps of an empty generator) under a root
    span, against the same loop untraced and an empty loop; each is the
    least of `repeats` tries.  Warm, empty calls make this a lower bound:
    trace_overhead_frac shows the whole cost.
    """
    def noop(a, b):
        pass

    def gen(a, b):
        for _ in range(n):
            yield None

    def call_loop(f):
        for _ in range(n):
            f(1, 2)

    def step_loop(g):
        for _ in g(1, 2):
            pass

    def empty_loop():
        for _ in range(n):
            pass

    def timed(loop, *args) -> int:
        t0 = perf_counter_ns()
        loop(*args)
        return perf_counter_ns() - t0

    cost = np.full((2, 2), np.inf)
    for _ in range(repeats):
        empty = timed(empty_loop)
        for kind, loop, fn in ((CALL, call_loop, noop), (STEP, step_loop, gen)):
            plain = timed(loop, fn)
            t = Tracer()
            wrapped = t.span("c.f")(fn) if kind == CALL else t.generator_span("c.f", fn)
            t.span("c.root")(loop)(wrapped)
            dur = np.frombuffer(t.end, np.int64) - np.frombuffer(t.start, np.int64)
            kids, inner = len(dur) - 1, int(dur[1:].sum())  # span 0 is the root
            cost[kind] = np.minimum(cost[kind], [(dur[0] - inner - empty) / kids,
                                                 (inner - (plain - empty)) / kids])
    return np.maximum(cost, 0.0)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

class SpanTree:
    """Aggregates over a saved span file, net of the tracer's own cost."""

    def __init__(self, path: str):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name_id = data["name_id"].astype(np.int64)
            self.parent = data["parent"].astype(np.int64)
            start, end = data["start"], data["end"]
            outside = data["outside_ns"][self.name_id]
            inside = data["inside_ns"][self.name_id]
        dur = end - start
        has_parent = self.parent >= 0
        if np.count_nonzero(~has_parent) != 1:
            raise ValueError("expected a single root span around the run")
        kids = self.parent[has_parent]
        if not (np.all(start[has_parent] >= start[kids])
                and np.all(end[has_parent] <= end[kids])):
            raise ValueError("a span lies outside its parent")
        covered = np.zeros(len(dur), dtype=np.int64)
        np.add.at(covered, kids, dur[has_parent])
        # Children of a span run one after another in one thread, so the
        # part of the parent they cover is the sum of their durations, and
        # the self times of all spans add up to the root's duration.
        if np.any(dur < covered):
            raise ValueError("child spans overlap")
        # Tracer cost charged to each span: its own inside part plus the
        # outside part of each of its children.
        charged = inside.copy()
        np.add.at(charged, kids, outside[has_parent])
        self.self_ns = dur - covered - charged
        self.overhead_ns = float(charged.sum())
        # Spans are recorded in start order, so the spans inside span i are
        # those after it that start before it ends; their charges come out
        # of its duration too.
        cum = np.concatenate(([0.0], np.cumsum(charged)))
        first = np.arange(len(dur))
        last = np.maximum(np.searchsorted(start, end, side="left"), first + 1)
        self.dur_ns = dur - (cum[last] - cum[first])
        self.run_ns = int(dur[~has_parent].sum())
        n_names = len(self.names)
        self._calls = np.bincount(self.name_id, minlength=n_names)
        self._total = np.bincount(self.name_id, weights=self.dur_ns, minlength=n_names)
        name_self = np.bincount(self.name_id, weights=self.self_ns, minlength=n_names)
        self.layer_self_ns = {layer: 0.0 for layer in LAYERS}
        for name, ns in zip(self.names, name_self):
            self.layer_self_ns[name.split(".", 1)[0]] += float(ns)

    @property
    def spans(self) -> int:
        return len(self.dur_ns)

    def _id(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def calls(self, name: str) -> int:
        i = self._id(name)
        return 0 if i is None else int(self._calls[i])

    def total_s(self, *names: str) -> float:
        """Summed net duration of every span with one of these names."""
        ids = [i for i in map(self._id, names) if i is not None]
        return float(sum(self._total[i] for i in ids)) / 1e9

    def percentile_us(self, name: str, pct: float) -> float:
        durations = self.dur_ns[self.name_id == self._id(name)]
        return float(np.percentile(durations, pct)) / 1e3 if len(durations) else 0.0
