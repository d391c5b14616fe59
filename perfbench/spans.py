"""In-memory span tracer that wraps lemscript's public functions from outside.

Each traced function is replaced, for the duration of `Tracer.patched()`,
by a wrapper installed at the module attribute its callers look up, so
the library itself is not modified. A wrapper records one span (name,
start, end, parent, request id) and adds to per-name aggregates: call
count, self time (duration minus the duration of direct child spans) and
any counters its hook derives from the arguments or the result.

Full span records are kept only up to `span_cap`; the aggregates always
cover every call, so the memory a long run needs stays bounded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

NS = 1e-9


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    request: object


@dataclass
class _Frame:
    id: int
    name: str
    start_ns: int
    child_ns: int = 0


@dataclass
class Tracer:
    span_cap: int = 200_000
    spans: list[Span] = field(default_factory=list)
    self_ns: defaultdict = field(default_factory=lambda: defaultdict(int))
    calls: defaultdict = field(default_factory=lambda: defaultdict(int))
    counters: defaultdict = field(default_factory=lambda: defaultdict(int))
    request: object = None
    _stack: list[_Frame] = field(default_factory=list)
    _next_id: int = 0
    _origin_ns: int = field(default_factory=time.perf_counter_ns)

    @property
    def parent_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        on_done: Callable[[tuple, Any, str | None], None] | None = None,
        on_error: Callable[[tuple, BaseException, str | None], None] | None = None,
    ) -> Callable:
        """Return `fn` wrapped in a span; `name` may derive from the arguments.

        Hooks run after the span has closed and receive the arguments, the
        result or exception, and the name of the caller's span.
        """

        def traced(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            parent = self.parent_name
            frame = _Frame(self._next_id, span_name, time.perf_counter_ns())
            self._next_id += 1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame)
                if on_error is not None:
                    on_error(args, exc, parent)
                raise
            self._close(frame)
            if on_done is not None:
                on_done(args, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame.start_ns
        self.self_ns[frame.name] += duration - frame.child_ns
        self.calls[frame.name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += duration
        if len(self.spans) < self.span_cap:
            self.spans.append(
                Span(
                    frame.id,
                    parent.id if parent is not None else None,
                    frame.name,
                    frame.start_ns - self._origin_ns,
                    end - self._origin_ns,
                    self.request,
                )
            )

    @contextmanager
    def patched(self, targets: list[tuple[object, str, object, object, object]]):
        """Install wrappers for (module, attribute, name, on_done, on_error) targets."""
        saved = []
        try:
            for module, attr, name, on_done, on_error in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, on_done, on_error))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) * NS

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span.__dict__, ensure_ascii=False) + "\n")
