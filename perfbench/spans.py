"""In-memory spans around calls into the program's public functions.

The benchmark does not rely on spans inside the program.  It wraps the
public entry points of each layer from the outside (:meth:`Recorder.wrap`)
and records one span per call: name, start, end, parent span and the
operation it belongs to.  Spans stay in memory until the run ends.

:func:`stage_table` turns the spans into per-layer self times.  A span's
self time is its duration minus the union of its children's intervals,
and an operation's residual is its wall time minus the union of its
top-level spans, so the self times plus the residual add up to the
operation's wall time exactly.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

from common import median


class Recorder:
    """Span store for one traced run."""

    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent_index, op_index].
        self.spans: list[list] = []
        self.ops: list[tuple[int, int]] = []
        self._local = threading.local()
        self._main: list[int] = []
        self._op: int | None = None
        #: Wrappers record only inside :meth:`operation`, so a traced run
        #: can interleave untraced operations with the wrappers in place.
        self.active = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # A worker thread's first span hangs under the span the operation's
        # own thread has open, so thread hops do not create extra roots.
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def operation(self):
        """Group every span opened inside into one operation."""
        self._op = len(self.ops)
        self._main = self._stack()
        self.active = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.ops.append((start, time.perf_counter_ns()))
            self.active = False
            self._op = None
            self._main = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``owner`` is a module or a class.  Module-level functions are also
        rebound in every loaded ``repro`` module that imported them by
        name, so calls through ``from x import f`` aliases are seen too.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind else raw
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            index = recorder._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(index)

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", attr)
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is function:
                    setattr(module, key, wrapper)


def stage_table(recorder: Recorder) -> dict:
    """Per-layer self time, share of operation wall time, and residual.

    Returns ``{"ops": N, "wall_ms": median op wall, "stages": {name:
    {"calls", "total_ms", "self_ms", "share"}}, "residual_ms", "residual_share",
    "per_op": [{name: (total_ns, self_ns)}]}``.  ``total_ms``/``self_ms``
    are medians over the operations that called the stage; ``share`` is
    its summed self time over the summed wall time of all operations.
    """
    spans = recorder.spans
    children: dict[int | None, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)

    def covered(intervals, lo, hi) -> int:
        total, cursor = 0, lo
        for start, end in sorted(intervals):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                total += end - start
                cursor = end
        return total

    per_op: list[dict[str, list[int]]] = [dict() for _ in recorder.ops]
    for index, (name, start, end, _, op) in enumerate(spans):
        if op is None or end == 0:
            continue
        kids = [(spans[k][1], spans[k][2]) for k in children.get(index, [])]
        self_ns = (end - start) - covered(kids, start, end)
        entry = per_op[op].setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_ns
    residual: list[int] = []
    walls: list[int] = []
    for op, (start, end) in enumerate(recorder.ops):
        roots = [
            (s[1], s[2]) for s in spans if s[4] == op and s[3] is None and s[2]
        ]
        residual.append((end - start) - covered(roots, start, end))
        walls.append(end - start)
    names = sorted({name for op in per_op for name in op})
    total_wall = sum(walls) or 1
    stages = {}
    for name in names:
        rows = [op[name] for op in per_op if name in op]
        stages[name] = {
            "calls": sum(r[0] for r in rows),
            "total_ms": median([r[1] for r in rows]) / 1e6,
            "self_ms": median([r[2] for r in rows]) / 1e6,
            "share": sum(r[2] for r in rows) / total_wall,
        }
    return {
        "ops": len(walls),
        "wall_ms": median(walls) / 1e6 if walls else 0.0,
        "stages": stages,
        "residual_ms": median(residual) / 1e6 if residual else 0.0,
        "residual_share": sum(residual) / total_wall,
        "per_op": [
            {name: (v[1], v[2]) for name, v in op.items()} for op in per_op
        ],
    }


#: Public calls wrapped in every traced run: (module, owner, attribute, span).
#: ``owner`` is None for a module-level function, else a class name.
LAYER_CALLS = [
    ("repro.engine.context", "AnalysisContext", "open", "context.open"),
    ("repro.obs.manifest", None, "fingerprint_context", "context.fingerprint"),
    ("repro.data.groups", None, "load_groups", "groups.load"),
    ("repro.scoring.registry", None, "score_groups", "score_groups"),
    ("repro.scoring.registry", "ScoreTable", "summary", "render.summary"),
    ("repro.analysis.report", None, "render_kv", "render.text"),
    ("repro.analysis.report", None, "render_table", "render.text"),
    ("repro.engine.batch", None, "batch_group_stats_columns", "batch.columns"),
    ("repro.scoring.columnar", None, "score_matrix", "scoring.matrix"),
    ("repro.engine.samplers", None, "sample_matched_sets", "samplers.matched"),
    ("repro.engine.parallel", "ParallelExecutor", "_ensure_pool", "parallel.start"),
    ("repro.engine.parallel", "ParallelExecutor", "score_groups", "parallel.score"),
    ("repro.engine.parallel", "ParallelExecutor", "sample_ids", "parallel.sample"),
    ("repro.engine.parallel", "ParallelExecutor", "close", "parallel.close"),
    ("repro.engine.delta", "ContextDelta", "apply", "delta.apply"),
    ("repro.engine.delta", "ContextDelta", "apply_groups", "delta.apply_groups"),
    ("repro.engine.delta", "ContextDelta", "dirty_names", "delta.dirty"),
    ("repro.engine.delta", None, "rescore_groups_columns", "delta.rescore"),
    ("repro.engine.cache", None, "query_key", "cache.key"),
    ("repro.engine.cache", "ResultCache", "load_score_table", "cache.get"),
    ("repro.engine.cache", "ResultCache", "store_score_table", "cache.put"),
    ("repro.service.registry", "DatasetRegistry", "acquire", "service.attach"),
    ("repro.service.http", "Response", "render", "http.render"),
    ("repro.synth.stream", None, "freeze_stream", "freeze.stream"),
]


def install(recorder: Recorder) -> None:
    """Wrap every layer call of :data:`LAYER_CALLS` (modules imported here)."""
    import importlib

    for module_name, _, _, _ in LAYER_CALLS:
        importlib.import_module(module_name)
    for module_name, owner, attr, name in LAYER_CALLS:
        module = sys.modules[module_name]
        recorder.wrap(getattr(module, owner) if owner else module, attr, name)
