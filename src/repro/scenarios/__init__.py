"""Streaming scenario suite + train-on-serve-log continual learning.

This package closes ROADMAP item 4's loop between the serving runtime
and the resilient trainer:

* :mod:`~repro.scenarios.base` — :class:`ScenarioSpec`,
  :class:`LabeledStream` (events + ground-truth labels + phases), and
  the generator registry;
* :mod:`~repro.scenarios.generators` — the five built-in scenarios
  (``flash_crowd``, ``spam_flood``, ``cold_start``,
  ``distribution_drift``, ``node_churn``), all deterministic per seed;
* :mod:`~repro.scenarios.score` — windowed average precision,
  accuracy-under-drift summaries, and the frozen/continual/oracle
  gap-recovery metric;
* :mod:`~repro.scenarios.continual` — :class:`ContinualLearner`, which
  tails the serving WAL with prefix-consistent reads
  (:class:`repro.durable.WALCursor`), fine-tunes online through
  :class:`repro.bench.ResilientTrainer`, and hot-swaps the serving
  model under a staleness budget; plus the frozen/continual/oracle
  closed-loop harness :func:`run_closed_loop`.
"""

from .base import (
    LabeledStream,
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    make_stream,
    register,
    stream_rng,
)
from .continual import (
    ContinualLearner,
    EmbeddingLinkModel,
    run_closed_loop,
)
from .generators import (
    PreferenceWorld,
    build_world,
    cold_start,
    distribution_drift,
    flash_crowd,
    node_churn,
    spam_flood,
)
from .score import accuracy_under_drift, gap_recovered, phase_ap, windowed_ap

__all__ = [
    "ScenarioSpec",
    "LabeledStream",
    "register",
    "get_scenario",
    "available_scenarios",
    "make_stream",
    "stream_rng",
    "PreferenceWorld",
    "build_world",
    "flash_crowd",
    "spam_flood",
    "cold_start",
    "distribution_drift",
    "node_churn",
    "windowed_ap",
    "accuracy_under_drift",
    "phase_ap",
    "gap_recovered",
    "ContinualLearner",
    "EmbeddingLinkModel",
    "run_closed_loop",
]
