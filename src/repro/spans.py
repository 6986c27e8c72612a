"""Wall-clock spans the program marks at its own layer boundaries.

Code marks a region with ``with span("attention"): ...`` inside the real
code body.  Nothing is timed unless a recording is active::

    with record() as rec:
        train_epoch(...)
    rec.seconds(["sample", "attention"])  # stage seconds, nested stages excluded

Outside :func:`record`, :func:`span` returns one shared no-op context, so a
marked site costs one call, a global read and two empty method calls
(about 0.3 µs in CPython).  A recording keeps ``(name, start, end,
parent)`` per span in start order, ``parent`` being the index of the span
open when it started (``-1`` for none).

Recording is process-global and single-threaded: spans opened by another
thread while a recording is active land in the same list.

This module imports nothing from ``repro``, so every layer can mark spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

__all__ = ["Span", "Recording", "span", "record"]


class Span(NamedTuple):
    """One recorded region: ``perf_counter`` seconds and its parent's index."""

    name: str
    start: float
    end: float
    parent: int


class Recording:
    """The spans opened while :func:`record` was active, in start order."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._open: List[int] = []

    def totals(self) -> Dict[str, float]:
        """Seconds per span name, nested spans included."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return dict(out)

    def seconds(self, names: Iterable[str]) -> Dict[str, float]:
        """Seconds per name in *names*: the duration of its spans minus that
        of the spans of *names* nested inside them (the nearest ones, so
        time is attributed once).  A name with no span is absent."""
        names = set(names)
        out: Dict[str, float] = defaultdict(float)
        owner: List[int] = []  # per span: nearest enclosing span in *names*
        for s in self.spans:
            up = -1 if s.parent < 0 else (
                s.parent if self.spans[s.parent].name in names else owner[s.parent])
            owner.append(up)
            if s.name in names:
                out[s.name] += s.end - s.start
                if up >= 0:
                    out[self.spans[up].name] -= s.end - s.start
        return dict(out)


class _Null:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _Null()
_active: Optional[Recording] = None


class _Open:
    __slots__ = ("rec", "name", "index", "parent", "start")

    def __init__(self, rec: Recording, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        rec = self.rec
        self.index = len(rec.spans)
        self.parent = rec._open[-1] if rec._open else -1
        rec.spans.append(None)  # reserve the slot: spans stay in start order
        rec._open.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        self.rec._open.pop()
        self.rec.spans[self.index] = Span(self.name, self.start, end, self.parent)
        return False


def span(name: str):
    """A context that records the enclosed block as one *name* span while a
    recording is active, and does nothing otherwise."""
    rec = _active
    return _NULL if rec is None else _Open(rec, name)


@contextmanager
def record() -> Iterator[Recording]:
    """Record every span opened inside the block; the previous recording,
    if any, resumes afterwards."""
    global _active
    outer, _active = _active, Recording()
    try:
        yield _active
    finally:
        _active = outer
