"""In-memory span recorder for the traced benchmark runs.

A span is one call into a layer of the program, timed from outside:
``(name, start, end, parent, op id)``.  The benchmark opens spans itself, and
:meth:`Tracer.patch` swaps a public function of a ``repro`` module for a
timing wrapper for the duration of a ``with`` block, so every call the
program makes through that name is recorded without touching the program.
Spans stay in memory and are written as Chrome trace-event JSON (open the
file in Perfetto or ``chrome://tracing``) when the run ends.

A span's layer is the first dotted component of its name (``server.encode``
belongs to ``server``).  A layer's self time is the time its spans spent
outside their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    thread: int
    args: dict[str, Any] | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans from any thread; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._origin_ns = time.perf_counter_ns()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Tag every span opened in this thread with ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any]]:
        """Time the block as one span; the yielded dict becomes its args."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        extra: dict[str, Any] = dict(args)
        start = time.perf_counter_ns()
        try:
            yield extra
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            record = Span(
                span_id, name, start, end, parent,
                getattr(self._local, "op", None), threading.get_ident(),
                extra or None,
            )
            with self._lock:
                self.spans.append(record)

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[[dict[str, Any], Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result`` may annotate the span."""

        @functools.wraps(fn)
        def traced(*a: Any, **kw: Any) -> Any:
            with self.span(name) as extra:
                result = fn(*a, **kw)
                if on_result is not None:
                    on_result(extra, result)
                return result

        return traced

    @contextlib.contextmanager
    def patch(self, targets: list[tuple]) -> Iterator[None]:
        """Trace ``(owner, attribute, span name[, on_result])`` call sites.

        ``owner`` is a module or class; its attribute is replaced by a timing
        wrapper for the duration of the block and restored on exit, whatever
        happens inside.
        """
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name, *on_result in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, *on_result))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Seconds spent in spans called ``name``."""
        return sum(span.seconds for span in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its spans minus their child spans."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = (
                    child_ns.get(span.parent, 0) + span.end_ns - span.start_ns
                )
        layers: dict[str, float] = {}
        for span in self.spans:
            own = span.end_ns - span.start_ns - child_ns.get(span.span_id, 0)
            layers[span.layer] = layers.get(span.layer, 0.0) + own / 1e9
        return layers

    def write_chrome(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON (complete events)."""
        threads: dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start_ns):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            args: dict[str, Any] = {"id": span.span_id, "parent": span.parent, "op": span.op}
            if span.args:
                args.update(span.args)
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start_ns - self._origin_ns) / 1e3,
                    "dur": (span.end_ns - span.start_ns) / 1e3,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
