"""In-memory spans around the public entry points of each layer.

The traced run patches a timing wrapper over every name that binds a
layer function: a module-level function is replaced in every loaded
``repro`` module that holds it (``simulate`` is bound in both
``repro.eval.experiment`` and ``repro.service.placement``), a method
on its class, and a store codec also inside the ``CODECS`` table.  The
program itself is not edited; :meth:`Tracer.uninstall` puts every
original back.

A span records its name, start, end, parent and thread.  A span that
opens on a thread with no open span takes the benchmark's current op
as parent, so server-side spans of an HTTP request nest under the
client's request.  Self time is a span's duration minus the part of
it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

Count = Callable[[Any, tuple, dict], float] | None


def _len_result(result, args, kwargs) -> float:
    return float(len(result))


def _trg_edges(result, args, kwargs) -> float:
    return float(result.select.num_edges() + result.place.num_edges())


def _graph_edges(result, args, kwargs) -> float:
    return float(result.num_edges())


def _fetches(result, args, kwargs) -> float:
    return float(result.fetches)


def _got_bytes(result, args, kwargs) -> float:
    return float(len(result)) if result is not None else 0.0


def _put_bytes(result, args, kwargs) -> float:
    data = kwargs["data"] if "data" in kwargs else args[3]
    return float(len(data))


#: (span name, module, attribute path, count of work done per call).
#: The span name is the per-layer metric prefix.
LAYER_ENTRY_POINTS: tuple[tuple[str, str, str, Count], ...] = (
    ("trace.callgraph", "repro.trace.callgraph", "random_call_graph", None),
    ("trace.generate", "repro.trace.generator", "generate_trace", _len_result),
    ("profiles.select_popular", "repro.core.popular", "select_popular", None),
    ("profiles.build_wcg", "repro.profiles.wcg", "build_wcg", None),
    ("profiles.build_trgs", "repro.profiles.trg", "build_trgs", _trg_edges),
    ("profiles.perturbed", "repro.profiles.perturb", "perturbed", _graph_edges),
    ("eval.build_context", "repro.eval.experiment", "build_context", None),
    ("core.gbsc.place", "repro.core.gbsc", "GBSCPlacement.place", None),
    ("core.merge_nodes", "repro.core.merge", "merge_nodes", None),
    ("core.linearize", "repro.core.linearize", "linearize", None),
    ("placement.ph.place", "repro.placement.ph", "PettisHansenPlacement.place", None),
    ("placement.hkc.place", "repro.placement.hkc", "HashemiKaeliCalderPlacement.place", None),
    ("cache.simulate", "repro.cache.simulator", "simulate", _fetches),
    ("store.get", "repro.store.store", "ArtifactStore.get", _got_bytes),
    ("store.put", "repro.store.store", "ArtifactStore.put", _put_bytes),
    ("store.encode", "repro.store.codecs", "encode_trace", None),
    ("store.encode", "repro.store.codecs", "encode_wcg", None),
    ("store.encode", "repro.store.codecs", "encode_trgs", None),
    ("store.encode", "repro.store.codecs", "encode_pair_db", None),
    ("store.decode", "repro.store.codecs", "decode_trace", None),
    ("store.decode", "repro.store.codecs", "decode_wcg", None),
    ("store.decode", "repro.store.codecs", "decode_trgs", None),
    ("store.decode", "repro.store.codecs", "decode_pair_db", None),
    ("store.fingerprint", "repro.store.fingerprint", "trace_content_fingerprint", None),
    ("service.run_placement", "repro.service.placement", "run_placement", None),
    ("serve.upload_trace", "repro.serve.app", "PlacementService.upload_trace", None),
    ("serve.place", "repro.serve.app", "PlacementService.place", None),
)

#: Every module that may bind one of the entry points; imported before
#: patching so that each binding exists when the bindings are searched.
MODULES = (
    "repro",
    "repro.cache",
    "repro.core",
    "repro.eval",
    "repro.eval.experiment",
    "repro.eval.randomization",
    "repro.profiles",
    "repro.profiles.fast",
    "repro.service",
    "repro.service.experiments",
    "repro.serve",
    "repro.serve.http",
    "repro.store",
    "repro.runner",
    "repro.workloads",
)


#: The benchmark's own modules that bind layer functions by name.
CLIENT_MODULES = ("workloads",)

#: Root spans the benchmark opens: set-up and one per op.
ROOTS = ("setup", "op")


@dataclass(slots=True)
class Span:
    """One timed call."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    count: float = 0.0


class Tracer:
    """Collects spans in memory; patches and unpatches the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Start a span under the current one (or the current op)."""
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            parent = self.op.sid if self.op is not None else None
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, time.perf_counter(), 0.0, parent, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End *span* and keep it."""
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def begin_op(self, name: str) -> None:
        """Open a benchmark op: the root that layer spans nest under."""
        self.op = self.open(name)

    def end_op(self) -> None:
        """Close the open op."""
        self.close(self.op)
        self.op = None

    def wrap(self, name: str, fn: Callable, count: Count) -> Callable:
        """A wrapper recording one span per call of *fn* made inside the
        set-up or an op (the benchmark's untimed checks also call layer
        functions; those calls are not recorded)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None and not tracer._stack():
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(result, args, kwargs)
                return result
            finally:
                tracer.close(span)

        return traced

    # -- patching ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding of every entry point."""
        for module in MODULES:
            importlib.import_module(module)
        wrapped: dict[int, Callable] = {}
        for name, module_name, path, count in LAYER_ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self.wrap(name, cls.__dict__[method], count))
                continue
            original = getattr(module, path)
            wrapped[id(original)] = self.wrap(name, original, count)
        bound = [m for k, m in sys.modules.items() if k.startswith("repro")]
        for module in bound + [sys.modules[name] for name in CLIENT_MODULES]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and value is not wrapped[id(value)]:
                    self._set(module, attr, wrapped[id(value)])
        codecs = sys.modules["repro.store.codecs"].CODECS
        for kind, (encode, decode) in list(codecs.items()):
            self._undo.append((codecs, kind, codecs[kind]))
            codecs[kind] = (wrapped.get(id(encode), encode), wrapped.get(id(decode), decode))

    def uninstall(self) -> None:
        """Put every patched binding back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of *interval* that *children* cover."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered((span.start, span.end), children.get(span.sid, []))
        for span in spans
    }


def _outermost(spans: list[Span]) -> list[Span]:
    """Spans not nested in a span of the same name (no double count)."""
    by_id = {span.sid: span for span in spans}
    kept = []
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            kept.append(span)
    return kept


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the whole traced run: ``name -> (value, unit)``.

    Layer figures cover set-up and every op; ``ops.*`` cover the ops
    alone, ``ops.unattributed_s`` being the op time no layer span
    accounts for.  Every metric is always reported, with 0 for a layer
    that did not run, so every workload prints the same set.
    """
    selfs = self_times(spans)
    top = _outermost([s for s in spans if s.name not in ROOTS])
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span in top:
        seconds[span.name] = seconds.get(span.name, 0.0) + span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        counts[span.name] = counts.get(span.name, 0.0) + span.count
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[span.sid]

    def s(name):
        return seconds.get(name, 0.0)

    gets = calls.get("store.get", 0)
    hits = sum(
        1 for span in top if span.name == "store.get" and span.count > 0
    )
    sim_s = s("cache.simulate")
    ops = [span for span in spans if span.name == "op"]
    out = {
        "trace.generate.s": (s("trace.generate"), "s"),
        "trace.events": (counts.get("trace.generate", 0.0), "count"),
        "trace.callgraph.s": (s("trace.callgraph"), "s"),
        "profiles.select_popular.s": (s("profiles.select_popular"), "s"),
        "profiles.build_wcg.s": (s("profiles.build_wcg"), "s"),
        "profiles.build_trgs.s": (s("profiles.build_trgs"), "s"),
        "profiles.trg_edges": (counts.get("profiles.build_trgs", 0.0), "count"),
        "profiles.perturbed.s": (s("profiles.perturbed"), "s"),
        "profiles.perturbed.edges": (counts.get("profiles.perturbed", 0.0), "count"),
        "eval.build_context.s": (s("eval.build_context"), "s"),
        "eval.build_context.self_s": (self_s.get("eval.build_context", 0.0), "s"),
        "core.gbsc.place.s": (s("core.gbsc.place"), "s"),
        "core.merge_nodes.calls": (float(calls.get("core.merge_nodes", 0)), "count"),
        "core.merge_nodes.s": (s("core.merge_nodes"), "s"),
        "core.linearize.s": (s("core.linearize"), "s"),
        "placement.ph.place.s": (s("placement.ph.place"), "s"),
        "placement.hkc.place.s": (s("placement.hkc.place"), "s"),
        "cache.simulate.calls": (float(calls.get("cache.simulate", 0)), "count"),
        "cache.simulate.s": (sim_s, "s"),
        "cache.simulate.fetches": (counts.get("cache.simulate", 0.0), "count"),
        "cache.simulate.fetches_per_s": (
            counts.get("cache.simulate", 0.0) / sim_s if sim_s else 0.0,
            "1/s",
        ),
        "store.get.calls": (float(gets), "count"),
        "store.get.s": (s("store.get"), "s"),
        "store.get.bytes": (counts.get("store.get", 0.0), "bytes"),
        "store.get.hit_ratio": (hits / gets if gets else 0.0, "ratio"),
        "store.put.calls": (float(calls.get("store.put", 0)), "count"),
        "store.put.s": (s("store.put"), "s"),
        "store.put.bytes": (counts.get("store.put", 0.0), "bytes"),
        "store.encode.s": (s("store.encode"), "s"),
        "store.decode.s": (s("store.decode"), "s"),
        "store.fingerprint.s": (s("store.fingerprint"), "s"),
        "service.run_placement.s": (s("service.run_placement"), "s"),
        "service.run_placement.self_s": (self_s.get("service.run_placement", 0.0), "s"),
        "serve.upload_trace.s": (s("serve.upload_trace"), "s"),
        "serve.place.s": (s("serve.place"), "s"),
        "ops.s": (sum(span.end - span.start for span in ops), "s"),
        "ops.unattributed_s": (sum(selfs[span.sid] for span in ops), "s"),
    }
    return out


def write_jsonl(spans: list[Span], path) -> None:
    """Write *spans* to *path*, one JSON object per line, by start time."""
    with open(path, "w", encoding="utf-8") as out:
        for span in sorted(spans, key=lambda span: span.start):
            record = {
                "id": span.sid,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "thread": span.thread,
                "count": span.count,
            }
            out.write(json.dumps(record) + "\n")
