"""Per-request deadline budgets and the serving degradation ladder.

Each admitted request carries a deadline on the simulated clock.  When
the remaining budget cannot pay for full-quality inference, the ladder
degrades the request one rung at a time instead of missing the deadline:

====================  =====================================================
rung                  what is served
====================  =====================================================
``full``              full-fanout temporal attention neighborhood
``reduced``           same pipeline with the sampler fanout shrunk
``cache``             the engine's per-node table: each node's newest
                      embedding a sampling rung answered, where it is not
                      newer than the query; misses fall back to raw
                      memory rows
``memory``            memory-only cold predictions (no sampling, no cache)
``timeout``           nothing — even the cheapest rung cannot make the
                      deadline; the request is answered with a shed status
====================  =====================================================

The ladder composes with the training-path circuit breaker
(:meth:`TContext.record_kernel_fault`): a context that has degraded
``kernel.cache`` has no trustworthy cache tables, so the ``cache`` rung is
skipped outright (an empty table is no reason to skip it: every lookup
misses and falls back to memory rows); a degraded ``kernel.sample`` makes
sampling rungs pay the slower reference-path cost, which the cost model
surfaces as an inflated estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["LadderDecision", "CostModel", "DegradationLadder", "LEVELS",
           "PER_EVENT", "FIXED", "REFERENCE_PENALTY", "REDUCED_FANOUT"]

#: ladder rungs from least to most degraded.
LEVELS = ("full", "reduced", "cache", "memory")
#: counter-table key of each decision (the rungs plus ``timeout``).
DECIDED = {level: f"ladder:{level}" for level in LEVELS + ("timeout",)}


@dataclass(frozen=True)
class LadderDecision:
    """Outcome of one ladder descent for one request."""

    level: str
    fanout: int
    estimated_cost: float
    reason: str = ""


#: Modeled service cost in simulated seconds: per event at each rung, plus
#: a fixed cost per request.  The values are hand-set, not calibrated from
#: any measurement; they only encode the intended order of the rungs
#: (sampling costs most, cache lookups little, raw memory reads least).
PER_EVENT = {"full": 1.0e-4, "reduced": 4.0e-5, "cache": 1.0e-5, "memory": 2.0e-6}
FIXED = 1.0e-4
#: multiplies the sampling rungs when ``kernel.sample`` is degraded to the
#: loop-reference path.
REFERENCE_PENALTY = 5.0
#: sampler fanout at the ``reduced`` rung.
REDUCED_FANOUT = 2


class CostModel:
    """Modeled service cost of one request on a single runtime."""

    def estimate(self, level: str, n_events: int, ctx=None) -> float:
        """Estimated simulated seconds to serve *n_events* at *level*."""
        cost = FIXED + PER_EVENT[level] * n_events
        if (level in ("full", "reduced") and ctx is not None
                and ctx.is_degraded("kernel.sample")):
            cost *= REFERENCE_PENALTY
        return cost


class DegradationLadder:
    """Deadline-driven rung selection for one serving context.

    Args:
        full_fanout: sampler fanout at the ``full`` rung.
        counters: the counter table to count decisions into, one
            ``ladder:<rung>`` key per rung (plus ``timeout``) once it is
            first decided (a private table when None).

    ``cost_model`` prices each rung; a sharded backend replaces the
    single-runtime :class:`CostModel` with its own.
    """

    def __init__(self, full_fanout: int = 10,
                 counters: Optional[Dict[str, float]] = None):
        if full_fanout < REDUCED_FANOUT:
            raise ValueError(f"need full_fanout >= {REDUCED_FANOUT}")
        self.full_fanout = int(full_fanout)
        self.cost_model = CostModel()
        self.counters = {} if counters is None else counters

    def fanout(self, level: str) -> int:
        if level == "full":
            return self.full_fanout
        if level == "reduced":
            return REDUCED_FANOUT
        return 0

    def decide(self, remaining_budget: float, n_events: int,
               ctx=None) -> LadderDecision:
        """Pick the least-degraded affordable rung for one request."""
        for level in LEVELS:
            if level == "cache" and ctx is not None and ctx.is_degraded("kernel.cache"):
                continue  # no trustworthy cache tables to serve from
            cost = self.cost_model.estimate(level, n_events, ctx)
            if cost <= remaining_budget:
                self._count(level)
                reason = "" if level == "full" else (
                    f"budget {remaining_budget:.3g}s cannot afford "
                    f"{LEVELS[max(0, LEVELS.index(level) - 1)]}"
                )
                return LadderDecision(level, self.fanout(level), cost, reason)
        self._count("timeout")
        return LadderDecision(
            "timeout", 0, 0.0,
            f"budget {remaining_budget:.3g}s below cheapest rung",
        )

    def _count(self, level: str) -> None:
        key = DECIDED[level]
        self.counters[key] = self.counters.get(key, 0) + 1
