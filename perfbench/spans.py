"""In-memory spans and counters recorded around calls into repro's layers.

The benchmark traces the program from the outside: :func:`install`
replaces public functions of each layer (engine, comm, automata, core,
extract, backend) with wrappers that time the call, and
:meth:`Tracer.uninstall` puts the originals back, so an untraced run
executes the program's own code paths untouched.

* A **span** is one call at a layer boundary: name, layer, start, end,
  parent span and a request/job reference.  Spans stay in memory and are
  written out once, by :meth:`Tracer.write`, when the run ends.
* **Backend primitives** are too frequent to keep as spans.  Each call
  adds to per-primitive ``calls``/``s``/``bytes`` totals and charges its
  time to the enclosing span, so that span's self time excludes it.
  ``bytes`` is computed from the widths of the integer masks passed in.
  A kernel returned by a ``make_*`` factory is wrapped too, and its calls
  are charged to the factory's primitive.
* A layer's **self time** is the time inside its spans not covered by
  child spans or backend primitives.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextvars import ContextVar
from typing import Any, Callable

#: The Backend protocol methods, each counted as one primitive.
PRIMITIVES = (
    "popcount",
    "popcount_rows",
    "bit_indices",
    "transpose_masks",
    "fold_rows",
    "make_step_fn",
    "superset_rows",
    "and_reduce",
    "cells_of_rect",
    "hopcroft_split",
    "bareiss_rank",
    "gf2_rank",
    "mat_mul",
    "vec_mat",
    "make_sweep_fn",
    "max_bilinear",
    "make_binary_step",
)
_FACTORIES = ("make_step_fn", "make_sweep_fn", "make_binary_step")

LAYERS = ("serve", "engine", "comm", "automata", "core", "extract", "backend")


def nbytes(value: Any) -> int:
    """Bytes of the integer masks in ``value`` (ints, nested lists/tuples)."""
    if isinstance(value, int):
        return (value.bit_length() + 7) >> 3
    if isinstance(value, (list, tuple)):
        if value and type(value[0]) is int:
            try:
                return (sum(map(int.bit_length, value)) + 7) >> 3
            except TypeError:
                pass
        return sum(nbytes(item) for item in value)
    return 0


def _rows_at(table: Any, mask: int) -> int:
    """Bytes of the rows of ``table`` selected by the set bits of ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        total += table[low.bit_length() - 1].bit_length()
        mask ^= low
    return (total + 7) >> 3


#: Primitives that read only part of a table argument: count what they read.
_READ_BYTES: dict[str, Callable[..., int]] = {
    "fold_rows": lambda table, mask: nbytes(mask) + _rows_at(table, mask),
    "and_reduce": lambda table, mask: nbytes(mask) + _rows_at(table, mask),
    "hopcroft_split": lambda preimage, block_of: nbytes(preimage),
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "ref", "start", "end", "child_s")

    def __init__(self, span_id: int, name: str, layer: str, parent: int | None, ref: Any):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.ref = ref
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "ref": self.ref,
            "start": self.start,
            "end": self.end,
            "self_s": self.duration - self.child_s,
        }


class Tracer:
    """Spans, counters and samples for one traced run (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        #: primitive -> [calls, seconds, bytes]
        self.primitives: dict[str, list[float]] = {}
        #: run_id -> wall_ms of the root job's RunRecord (computed runs only).
        self.exec_ms_by_run: dict[str, float] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: ContextVar[Span | None] = ContextVar("perfbench_span", default=None)
        self._in_primitive = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def call_span(self, layer: str, name: str, fn: Callable, args: tuple, kwargs: dict, ref: Any = None) -> Any:
        """Call ``fn`` inside a new span; counts ``<name>_calls`` and ``<name>_s``."""
        parent = self._current.get()
        span = Span(next(self._ids), name, layer, parent.id if parent else None, ref)
        token = self._current.set(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
                self.counters[f"{name}_calls"] += 1
                self.counters[f"{name}_s"] += span.duration

    def _primitive(self, name: str, fn: Callable, args: tuple, kwargs: dict, data: tuple) -> Any:
        """Call one primitive; ``data`` is its arguments without ``self``."""
        # A backend that falls back to its parent class (super()) would
        # re-enter a wrapped primitive; only the outermost call counts.
        if getattr(self._in_primitive, "active", False):
            return fn(*args, **kwargs)
        self._in_primitive.active = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._in_primitive.active = False
        read = _READ_BYTES.get(name)
        size = read(*data, **kwargs) if read is not None else nbytes(data) + nbytes(list(kwargs.values()))
        parent = self._current.get()
        with self._lock:
            totals = self.primitives.get(name)
            if totals is None:
                totals = self.primitives[name] = [0, 0.0, 0]
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += size
            if parent is not None:
                parent.child_s += elapsed
        return result

    # -- wrappers -------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` (a class, module or instance attribute) until :meth:`uninstall`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def span_wrapper(
        self,
        layer: str,
        name: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` in a span; ``on_result`` sees each result."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer.call_span(layer, name, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def primitive_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        if name in _FACTORIES:

            def factory(*args: Any, **kwargs: Any) -> Any:
                kernel = tracer._primitive(name, fn, args, kwargs, args[1:])
                return lambda *a, **k: tracer._primitive(name, kernel, a, k, a)

            return factory

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer._primitive(name, fn, args, kwargs, args[1:])

        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time not covered by children."""
        totals = {layer: 0.0 for layer in LAYERS}
        with self._lock:
            for span in self.spans:
                totals[span.layer] += span.duration - span.child_s
            totals["backend"] = sum(seconds for _calls, seconds, _bytes in self.primitives.values())
        return totals

    def snapshot(self) -> dict[str, Any]:
        """A copy of everything recorded so far (JSON-ready)."""
        self_s = self.self_seconds()
        with self._lock:
            return {
                "counters": dict(self.counters),
                "primitives": {name: list(totals) for name, totals in self.primitives.items()},
                "self_s": self_s,
                "samples": {name: list(values) for name, values in self.samples.items()},
                "spans": len(self.spans),
            }

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with self._lock, open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json(), separators=(",", ":")) + "\n")


_MISSING = object()


def install(tracer: Tracer, engine: Any = None) -> None:
    """Wrap the public entry points of every layer.

    ``engine`` is the :class:`~repro.engine.Engine` whose cache ``get`` /
    ``put`` calls are counted (the engine-to-cache boundary).
    """
    import importlib

    counting = importlib.import_module("repro.automata.counting")
    automata_ops = importlib.import_module("repro.automata.ops")
    packed = importlib.import_module("repro.automata.packed")
    comm = importlib.import_module("repro.comm")
    comm_cover = importlib.import_module("repro.comm.cover")
    core_cover = importlib.import_module("repro.core.cover")
    discrepancy = importlib.import_module("repro.core.discrepancy")
    lower_bound = importlib.import_module("repro.core.lower_bound")
    scheduler = importlib.import_module("repro.engine.scheduler")
    extract_compile = importlib.import_module("repro.extract.compile")
    from repro.backend import BACKEND_CLASSES
    from repro.engine import Engine
    from repro.engine.registry import Job
    from repro.extract.scan import StreamScanner
    from repro.extract.spec import StreamSpec

    t = tracer

    # -- engine ---------------------------------------------------------
    original_run = Engine.run

    def traced_run(self: Any, requests: Any, *, run_log: Any = None) -> Any:
        log = run_log if run_log is not None else self.run_log
        first = len(log.records)
        result = t.call_span(
            "engine", "engine.run", original_run, (self, requests), {"run_log": run_log}, log.run_id
        )
        for record in log.records[first:]:
            if record.outcome == "ok" and record.cache != "hit":
                t.sample("engine.exec_ms", record.wall_ms)
                t.exec_ms_by_run[log.run_id] = record.wall_ms
        return result

    t.patch(Engine, "run", traced_run)
    t.patch(Job, "key", t.span_wrapper("engine", "engine.key", Job.key))

    class CountingPool(scheduler.ProcessPoolExecutor):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            t.add("engine.pools_started")
            super().__init__(*args, **kwargs)

    t.patch(scheduler, "ProcessPoolExecutor", CountingPool)

    if engine is not None and engine.cache is not None:
        cache = engine.cache

        def on_get(entry: Any) -> None:
            if entry is not None:
                t.add("engine.cache_hits")

        t.patch(cache, "get", t.span_wrapper("engine", "engine.cache_get", cache.get, on_get))
        t.patch(cache, "put", t.span_wrapper("engine", "engine.cache_put", cache.put))

    # -- comm -----------------------------------------------------------
    def on_cover(result: Any) -> None:
        t.add("comm.nodes_expanded", result.nodes_expanded)

    t.patch(comm_cover, "solve_cover", t.span_wrapper("comm", "comm.solve_cover", comm_cover.solve_cover, on_cover))
    for name in ("rank_over_q", "rank_over_gf2"):
        t.patch(comm, name, t.span_wrapper("comm", "comm.rank", getattr(comm, name)))

    # -- automata -------------------------------------------------------
    def on_dfa(dfa: Any) -> None:
        t.add("automata.dfa_states", dfa.n_states)

    determinise = t.span_wrapper("automata", "automata.determinise", packed.packed_determinise, on_dfa)
    minimise = t.span_wrapper("automata", "automata.minimise", packed.packed_minimise)
    for module in (packed, extract_compile):
        t.patch(module, "packed_determinise", determinise)
        t.patch(module, "packed_minimise", minimise)
    t.patch(counting, "count_dfa_words_of_length", t.span_wrapper("automata", "automata.count", counting.count_dfa_words_of_length))
    t.patch(automata_ops, "is_unambiguous_nfa", t.span_wrapper("automata", "automata.ambiguity", automata_ops.is_unambiguous_nfa))

    # -- core -----------------------------------------------------------
    t.patch(discrepancy, "max_discrepancy_over_partition", t.span_wrapper("core", "core.discrepancy", discrepancy.max_discrepancy_over_partition))
    t.patch(discrepancy, "verify_lemma18", t.span_wrapper("core", "core.lemma18", discrepancy.verify_lemma18))
    t.patch(lower_bound, "certificate", t.span_wrapper("core", "core.certificate", lower_bound.certificate))
    t.patch(core_cover, "balanced_rectangle_cover", t.span_wrapper("core", "core.balanced_cover", core_cover.balanced_rectangle_cover))

    # -- extract --------------------------------------------------------
    t.patch(extract_compile, "scanner_for_spec", t.span_wrapper("extract", "extract.compile", extract_compile.scanner_for_spec))
    t.patch(StreamScanner, "feed", t.span_wrapper("extract", "extract.feed", StreamScanner.feed))
    original_chunks = StreamSpec.iter_chunks

    def traced_chunks(self: Any, *args: Any, **kwargs: Any) -> Any:
        chunks = original_chunks(self, *args, **kwargs)
        while True:
            try:
                chunk = t.call_span("extract", "extract.generate", next, (chunks,), {})
            except StopIteration:
                return
            yield chunk

    t.patch(StreamSpec, "iter_chunks", traced_chunks)

    # -- backend --------------------------------------------------------
    for cls in BACKEND_CLASSES.values():
        for name in PRIMITIVES:
            if name in vars(cls):
                t.patch(cls, name, t.primitive_wrapper(name, vars(cls)[name]))
