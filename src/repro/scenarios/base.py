"""Scenario specs, labeled event streams, and the generator registry.

A *scenario* is a deterministic, seedable generator of a streaming
workload that the static JODIE-shaped datasets cannot express: bursts,
floods, cold starts, drift, churn.  Each generator is a function
``(spec) -> LabeledStream`` registered under a name; the stream's events
are a plain :class:`repro.core.TBatch` (directly replayable through
the serving runtime) and every event carries a ground-truth label so
accuracy-under-drift is measurable, not just throughput.

All randomness flows through :func:`repro.data.derive_rng` keyed by
``(seed, "scenario", name, stream)``, so two scenarios sharing a seed —
or a scenario composed with a synthetic dataset — never share or
perturb each other's random streams, and the same spec always yields a
byte-identical stream (tested via :meth:`LabeledStream.digest`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.batch import TBatch
from ..data.synthetic import derive_rng

__all__ = [
    "ScenarioSpec",
    "LabeledStream",
    "register",
    "get_scenario",
    "available_scenarios",
    "make_stream",
    "stream_rng",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one scenario stream.

    Attributes:
        name: registry name of the generator.
        num_nodes: total node-id space (users + items).
        num_events: stream length.
        payload_dim: per-event feature rows of this width (0 = none).
        seed: master seed; all streams derive from it via
            :func:`repro.data.derive_rng`.
        noise_frac: fraction of label-0 background noise events mixed
            into phases that have genuine traffic.
        user_frac: fraction of the node space acting as sources.
        num_groups: user groups == item blocks in the preference world.
        t_max: timestamp span of the stream.
        knobs: generator-specific parameters (burst window, drift mode,
            churn rate, ...); unknown keys are an error in the generator.
    """

    name: str
    num_nodes: int = 160
    num_events: int = 2400
    payload_dim: int = 0
    seed: int = 17
    noise_frac: float = 0.1
    user_frac: float = 0.5
    num_groups: int = 4
    t_max: float = 10_000.0
    knobs: Dict = field(default_factory=dict)

    def knob(self, key: str, default):
        return self.knobs.get(key, default)


@dataclass
class LabeledStream:
    """A scenario's output: events plus per-event ground truth.

    Attributes:
        spec: the spec that generated this stream.
        events: time-sorted :class:`TBatch` with sequential eids.
        labels: int64, 1 = genuine (preference-consistent) interaction,
            0 = noise/spam — the positive class for AP scoring.
        phase: int64 per-event phase id (generator-defined: pre/during/
            post burst, drift stage, churn interval, user wave...).
        meta: generator-specific ground truth for shape assertions
            (burst window, spammer set, preference tables, ...).
    """

    spec: ScenarioSpec
    events: TBatch
    labels: np.ndarray
    phase: np.ndarray
    meta: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.phase = np.asarray(self.phase, dtype=np.int64)
        n = len(self.events)
        if not (len(self.labels) == len(self.phase) == n):
            raise ValueError("labels/phase must match event count")

    def __len__(self) -> int:
        return len(self.events)

    def digest(self) -> str:
        """SHA-256 over every array byte — the determinism fingerprint."""
        h = hashlib.sha256()
        for arr in (
            self.events.eids,
            self.events.src,
            self.events.dst,
            self.events.ts,
            self.labels,
            self.phase,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        if self.events.payload is not None:
            h.update(np.ascontiguousarray(self.events.payload).tobytes())
        return h.hexdigest()

    def take(self, index: np.ndarray) -> "LabeledStream":
        """Sub-stream selected by *index* (mask or positions)."""
        return LabeledStream(
            spec=self.spec,
            events=self.events.take(index),
            labels=self.labels[index],
            phase=self.phase[index],
            meta=self.meta,
        )

    def slice(self, start: int, stop: int) -> "LabeledStream":
        return self.take(np.arange(start, stop))

#: name -> (generator fn, one-line description)
_REGISTRY: Dict[str, Tuple[Callable[[ScenarioSpec], LabeledStream], str]] = {}


def register(name: str, description: str):
    """Decorator: register a ``(spec) -> LabeledStream`` generator."""

    def deco(fn):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = (fn, description)
        fn.scenario_name = name
        return fn

    return deco


def get_scenario(name: str) -> Callable[[ScenarioSpec], LabeledStream]:
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_scenarios() -> Dict[str, str]:
    """``{name: description}`` for every registered generator."""
    return {name: desc for name, (_, desc) in sorted(_REGISTRY.items())}


def make_stream(name: str, spec: Optional[ScenarioSpec] = None, **overrides) -> LabeledStream:
    """Build the named scenario's stream.

    ``make_stream("spam_flood", num_events=500, seed=3)`` constructs a
    default :class:`ScenarioSpec` with the overrides applied; passing an
    explicit *spec* re-targets it to *name* first.
    """
    fn = get_scenario(name)
    if spec is None:
        spec = ScenarioSpec(name=name, **overrides)
    else:
        spec = replace(spec, name=name, **overrides)
    stream = fn(spec)
    _check_stream(stream)
    return stream


def _check_stream(stream: LabeledStream) -> None:
    ev = stream.events
    if len(ev) != stream.spec.num_events:
        raise AssertionError(
            f"{stream.spec.name}: generated {len(ev)} events, "
            f"spec says {stream.spec.num_events}"
        )
    if len(ev) and not (np.diff(ev.ts) >= 0).all():
        raise AssertionError(f"{stream.spec.name}: timestamps not sorted")
    if len(ev) and not np.array_equal(ev.eids, np.arange(len(ev))):
        raise AssertionError(f"{stream.spec.name}: eids not sequential")


def stream_rng(spec: ScenarioSpec, stream: str) -> np.random.Generator:
    """The scenario-local RNG for one named random stream of *spec*."""
    return derive_rng(spec.seed, "scenario", spec.name, stream)
