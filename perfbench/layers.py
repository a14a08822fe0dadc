"""Per-layer host-time tracing, installed from outside the program.

:class:`SpanRecorder` wraps public functions of the program's modules for the
duration of one traced run and restores them afterwards, so nothing under
``src/`` changes and every report stays byte-identical.  Each wrapped call is
a span (name, start, end, parent span, run id).  Spans are kept in memory and
written out when the run ends; self time is a span's duration minus the part
its child spans cover.  Hot calls (``HOT`` below) are kept as counts plus
total and self time only, so tracing them costs a counter update, not a
record.

``LAYERS`` maps span-name prefixes to the module names the report uses, and
:func:`layer_tree` prints the self time per layer in the style of a
performance-model quick reference, flagging the top layer as the bottleneck.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Layer key -> the program modules it covers.  A span belongs to the layer
#: named by its prefix (``engine.run`` -> ``engine``), except as remapped by
#: :data:`PREFIX_LAYER`.
LAYERS: dict[str, str] = {
    "workload": "repro.serving.workload",
    "engine": "repro.serving.engine",
    "scheduler": "repro.serving.scheduler",
    "kv_cache": "repro.serving.kv_cache",
    "cluster": "repro.serving.cluster",
    "backend": "repro.runtime.backends + repro.kernels",
    "core": "repro.core + repro.quant",
    "setup": "repro.models + repro.data",
    "serialize": "json + hashlib (report digest)",
}
#: The report builder lives in the engine module; HQQ is part of compression.
PREFIX_LAYER = {"report": "engine", "quant": "core"}


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return PREFIX_LAYER.get(prefix, prefix)


#: Spans recorded as counts and times only (called per sequence per
#: iteration, or per device per iteration).
HOT = frozenset(
    {
        "backend.iteration_latency",
        "backend.check_memory",
        "kv_cache.blocks_deficit",
        "kv_cache.allocate",
        "kv_cache.grow",
        "kv_cache.free",
        "kv_cache.ensure_writable",
        "cluster.block_query",
    }
)

#: Spans kept per run beyond which only counts and times are recorded.
MAX_SPANS = 200_000


class SpanRecorder:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Kept spans: (span_id, run_id, name, start_s, end_s, parent_id).
        self.spans: list[tuple[int, str, str, float, float, int | None]] = []
        self.dropped_spans = 0
        #: name -> [calls, total_s, self_s, calls returning a positive value]
        self.stats: dict[str, list[Any]] = {}
        #: Open frames: [child_s, nearest kept span id (self or ancestor),
        #: parent's kept span id, own kept span id, start].
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._origin = time.perf_counter()

    # -- spans --------------------------------------------------------------------
    def _open(self, name: str) -> list[Any]:
        """Push the frame of a call of ``name`` (layout: see ``_stack``)."""
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span_id = None
        if len(self.spans) < MAX_SPANS:
            span_id = self._next_id
            self._next_id += 1
        else:
            self.dropped_spans += 1
        frame = [0.0, span_id if span_id is not None else parent, parent, span_id, 0.0]
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _close(self, name: str, stats: list[Any], frame: list[Any]) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        start = frame[4]
        duration = end - start
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        if frame[3] is not None:
            self.spans.append(
                (frame[3], self.run_id, name, start - self._origin,
                 end - self._origin, frame[2])
            )

    def traced(
        self, name: str, fn: Callable[..., Any], count_positive: bool = False
    ) -> Callable[..., Any]:
        """``fn`` wrapped so that each call records a span called ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        if name in HOT:
            return self._traced_hot(stats, fn, count_positive)
        open_, close = self._open, self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, stats, frame)
            if count_positive and result > 0:
                stats[3] += 1
            return result

        return wrapper

    def _traced_hot(
        self, stats: list[Any], fn: Callable[..., Any], count_positive: bool
    ) -> Callable[..., Any]:
        """Counts-and-times wrapper: the ``_open``/``_close`` arithmetic inlined.

        Hot calls only ever contain other hot calls, so their frames need no
        span ids.
        """
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, None]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if count_positive and result > 0:
                stats[3] += 1
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span (for the benchmark's own steps)."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(name, stats, frame)

    # -- patching -----------------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, count_positive: bool = False) -> None:
        """Replace ``owner.attr`` (a function or property) with a traced version."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement: Any = property(self.traced(name, original.fget, count_positive))
        else:
            replacement = self.traced(name, original, count_positive)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def positive(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0, 0])[3]

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer key (see :data:`LAYERS`)."""
        out: dict[str, float] = {}
        for name, (_, _, self_s, _) in self.stats.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write(self, path: str) -> None:
        """Write the kept spans and the per-name aggregates as JSON lines."""
        with open(path, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "schema": "perfbench-spans/v1",
                        "dropped_spans": self.dropped_spans,
                        "stats": {
                            name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s, _) in sorted(self.stats.items())
                        },
                    }
                )
                + "\n"
            )
            for span_id, run_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "run": run_id, "name": name,
                         "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def layer_tree(title: str, recorder: SpanRecorder, total_s: float) -> str:
    """Self time per layer as a tree, with the top layer flagged."""
    totals = recorder.layer_self_s()
    rows_by_layer: dict[str, list[tuple[str, float, int]]] = {}
    for name, (calls, _, self_s, _) in recorder.stats.items():
        rows_by_layer.setdefault(layer_of(name), []).append((name, self_s, calls))
    ranked = sorted(totals, key=lambda layer: -totals[layer])
    lines = [f"{title}: {total_s:.3f} s traced host time, self time per layer"]
    for i, layer in enumerate(ranked):
        last = i == len(ranked) - 1
        flag = "  <- BOTTLENECK" if i == 0 else ""
        lines.append(
            f"{'└─' if last else '├─'} {LAYERS[layer]:<40} {totals[layer]:9.3f} s "
            f"({_share(totals[layer], total_s):6.1%}){flag}"
        )
        rows = sorted(rows_by_layer[layer], key=lambda row: -row[1])
        for j, (name, self_s, calls) in enumerate(rows):
            branch = "└─" if j == len(rows) - 1 else "├─"
            lines.append(
                f"{'   ' if last else '│  '}{branch} {name:<34} {self_s:9.3f} s "
                f"({_share(self_s, totals[layer]):6.1%}) {calls:>9} calls"
            )
    outside = total_s - sum(totals.values())
    lines.append(
        f"   (outside wrapped calls: benchmark loop, checks) {outside:9.3f} s "
        f"({_share(outside, total_s):6.1%})"
    )
    return "\n".join(lines)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
