"""In-memory spans around the library's layer boundaries.

The tracer patches module attributes that the library resolves at call time
(for example ``kernels.population_loads`` inside ``ga``, or the names that
``experiment`` imports), so every call through them records a span without
any change to the library. Spans carry a name, start, end, the index of the
enclosing span and a dict of attributes; they stay in memory until the run
writes them out. ``restore()`` puts every patched attribute back.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = NO_PARENT
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder with call-time patching of module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else NO_PARENT
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    def wrap(self, owner, attr: str, name: str, namer=None, after=None) -> None:
        """Replace owner.attr by a recording wrapper.

        namer(args, kwargs) may refine the span name; after(span, args,
        kwargs, result) runs once the span is closed, to attach counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(namer(args, kwargs) if namer else name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.end(index)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr to replacement until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write one JSON object per span, in the order spans began."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "attrs": span.attrs,
                }, default=str) + "\n")
