"""Tests for the span recorder (``repro.spans``)."""

import itertools
import types

import pytest

from repro import spans
from repro.spans import Span, record, span


@pytest.fixture
def ticks(monkeypatch):
    """Each clock read returns the next integer, so durations are exact."""
    clock = itertools.count()
    monkeypatch.setattr(spans, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))


def test_nesting_and_self_time(ticks):
    with record() as rec:
        with span("a"):          # 0 .. 7
            with span("b"):      # 1 .. 4
                with span("c"):  # 2 .. 3
                    pass
            with span("b"):      # 5 .. 6
                pass
    assert rec.spans == [
        Span("a", 0, 7, -1), Span("b", 1, 4, 0), Span("c", 2, 3, 1), Span("b", 5, 6, 0),
    ]
    assert rec.totals() == {"a": 7, "b": 4, "c": 1}
    # each name's spans minus the nearest spans of the set nested inside
    assert rec.seconds(["a", "b", "c"]) == {"a": 3, "b": 3, "c": 1}
    # a span outside the set is transparent: c is charged against a
    assert rec.seconds(["a", "c"]) == {"a": 6, "c": 1}
    assert sum(rec.seconds(["a", "b", "c"]).values()) == rec.totals()["a"]


def test_nothing_recorded_while_inactive():
    assert span("x") is span("y")  # one shared no-op context
    with span("x"):
        pass
    with record() as rec:
        pass
    with span("x"):
        pass
    assert rec.spans == [] and rec.totals() == {}


def test_inner_recording_takes_its_spans_and_the_outer_resumes(ticks):
    with record() as outer:
        with span("a"):
            pass
        with record() as inner:
            with span("b"):
                pass
        with span("c"):
            pass
    assert [s.name for s in outer.spans] == ["a", "c"]
    assert inner.spans == [Span("b", 2, 3, -1)]


def test_span_is_closed_when_its_block_raises(ticks):
    with record() as rec:
        with pytest.raises(ValueError):
            with span("a"):
                with span("b"):
                    raise ValueError
        with span("c"):
            pass
    assert rec.spans == [Span("a", 0, 3, -1), Span("b", 1, 2, 0), Span("c", 4, 5, -1)]
