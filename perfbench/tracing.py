"""In-memory spans for the traced run.

A span records a name, its start and end (perf_counter seconds), the span
that was open when it started, and the trace it belongs to (a frame, a
pass).  Spans stay in memory and are written out once, when the run ends.
With tracing off, `span` returns one shared no-op context manager, so the
untraced run pays only an attribute lookup and a call per boundary.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        # [id, parent, trace, name, start, end, attrs]
        self.record = [0, None, 0, name, 0.0, 0.0, attrs]

    def __enter__(self):
        tracer = self.tracer
        record = self.record
        record[0] = len(tracer.spans)
        record[1] = tracer.stack[-1] if tracer.stack else None
        record[2] = tracer.trace_id
        tracer.spans.append(record)
        tracer.stack.append(record[0])
        record[4] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[5] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Span recorder; `Tracer(enabled=False)` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = 0
        self.unpatched: list[str] = []

    def new_trace(self) -> None:
        """Start a new trace: the spans that follow share its identifier."""
        self.trace_id += 1

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, attrs)

    @contextmanager
    def patched(self, targets):
        """Wrap module-level functions in spans while the block runs.

        `targets` holds (module, attribute, span name).  This puts spans on
        the calls one package module makes into another (say, pipeline into
        autoencoder) without editing the package.  A target that no longer
        exists is skipped and listed in `unpatched`.
        """
        saved = []
        if self.enabled:
            for module, attr, name in targets:
                original = getattr(module, attr, None)
                if original is None:
                    self.unpatched.append(f"{module.__name__}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, name))
                saved.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    # -- queries ---------------------------------------------------------

    def select(self, name: str, parent: str | None = None, **attrs) -> list[list]:
        """Spans called `name`, opened inside a span called `parent` if one
        is given, whose attributes include `attrs`."""
        return [s for s in self.spans if s[3] == name
                and (parent is None
                     or (s[1] is not None and self.spans[s[1]][3] == parent))
                and all(s[6].get(k) == v for k, v in attrs.items())]

    def durations(self, name: str, parent: str | None = None, **attrs) -> list[float]:
        return [s[5] - s[4] for s in self.select(name, parent, **attrs)]

    def median(self, name: str, parent: str | None = None, **attrs) -> float:
        values = self.durations(name, parent, **attrs)
        if not values:
            raise KeyError(f"no span named {name!r} with {attrs}")
        return statistics.median(values)

    def total(self, name: str, parent: str | None = None, **attrs) -> float:
        return sum(self.durations(name, parent, **attrs))

    def subtree(self, roots: list[list]) -> list[list]:
        """The spans of `roots` and every span below them."""
        children: dict[int, list[list]] = {}
        for s in self.spans:
            if s[1] is not None:
                children.setdefault(s[1], []).append(s)
        out, todo = [], list(roots)
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children.get(s[0], []))
        return out

    def self_times(self, spans: list[list]) -> dict[str, float]:
        """Self time per module (the span name up to its first dot) over
        `spans`, a closed subtree: a span's duration minus its children's."""
        child_time: dict[int, float] = {}
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
        out: dict[str, float] = {}
        for s in spans:
            module = s[3].split(".", 1)[0]
            own = (s[5] - s[4]) - child_time.get(s[0], 0.0)
            out[module] = out.get(module, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace, "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "dur_us": round((end - start) * 1e6, 3), **attrs}) + "\n")
