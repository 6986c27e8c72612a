"""Simulated RPC channel between the coordinator and shard replicas.

Real clusters lose requests, lose replies, and talk to hosts that are
slow or gone; :class:`SimRpc` models exactly that failure surface on the
shared simulated clock, deterministically:

* the **send** and **reply** legs each consult the ``rpc.send`` /
  ``rpc.recv`` fault sites — a dropped leg means that attempt never
  completes;
* a **stalled** replica multiplies the service time of every call it
  handles (the ``shard.stall`` site sets the factor at the replica);
* an attempt exceeding the **timeout** is retried with exponential
  backoff, up to the retry budget, after which :class:`RpcTimeout`
  surfaces to the coordinator (which degrades to partial results);
* when the primary attempt is predicted to run past the **hedge delay**
  a second copy of the request is sent, and the faster of the two wins —
  hedging converts a dropped packet from a full timeout into roughly one
  extra service time.

No payload actually crosses the "wire": delivery runs ``on_deliver``
(the replica-side effect) and the caller reads results directly after
:meth:`call` returns — the channel models *time and loss*, not
serialization.  Because a delivered request whose *reply* is lost still
executed, replica-side effects must be idempotent (they are: shard
applies dedup on the batch sequence number).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from ..core.stats import declare
from ..resilience.hooks import poke as _poke

__all__ = ["RpcTimeout", "SimRpc"]


class RpcTimeout(RuntimeError):
    """Every attempt (and hedge) at one shard call timed out."""

    def __init__(self, shard: int, elapsed: float):
        super().__init__(
            f"rpc to shard {shard} timed out after {elapsed:.3g}s "
            "(retry budget exhausted)"
        )
        self.shard = int(shard)
        self.elapsed = float(elapsed)


class SimRpc:
    """Deterministic lossy RPC with timeout, retry, backoff, and hedging.

    Args:
        clock: the shared simulated clock (read for stats only; the
            *caller* advances it by the returned elapsed time, so calls
            to several shards can overlap as one scatter-gather wave).
        service: nominal one-way service seconds per call.
        timeout: per-attempt completion deadline.
        retries: extra attempts after the first.
        backoff: base of the exponential retry backoff
            (``backoff * 2**attempt`` idle seconds after each timeout).
        hedge_delay: send a duplicate request when the primary has not
            completed by this long; ``None`` disables hedging.
        counters: the counter table to count the channel's ``rpc:*``
            (cluster-level, all shards) into (a private one when None).
    """

    def __init__(
        self,
        clock,
        service: float = 2.0e-4,
        timeout: float = 2.0e-3,
        retries: int = 2,
        backoff: float = 5.0e-4,
        hedge_delay: Optional[float] = 6.0e-4,
        counters: Optional[Dict[str, float]] = None,
    ):
        if service <= 0 or timeout <= 0:
            raise ValueError("rpc service and timeout must be positive")
        if retries < 0:
            raise ValueError("rpc retries must be >= 0")
        self.clock = clock
        self.service = float(service)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.hedge_delay = None if hedge_delay is None else float(hedge_delay)
        self.counters = declare(
            counters, "rpc:calls", "rpc:attempts", "rpc:retries", "rpc:timeouts",
            "rpc:failures", "rpc:dropped_sends", "rpc:dropped_replies",
            "rpc:hedges", "rpc:hedge_wins", "rpc:ships", "rpc:dropped_ships",
            "rpc:dropped_acks",
        )

    # ---- one leg -------------------------------------------------------------------

    def _leg(self, shard: int, alive: bool, stall: float, extra: int,
             on_deliver: Optional[Callable[[], None]]) -> float:
        """Completion time of one request copy (inf = never completes).

        Executes ``on_deliver`` iff the request physically reached the
        replica — even when the reply is subsequently lost, mirroring the
        acked-but-lost window real RPC has.
        """
        self.counters["rpc:attempts"] += 1
        if _poke("rpc.send", shard=shard, extra=extra) == ("drop",):
            self.counters["rpc:dropped_sends"] += 1
            return math.inf
        if not alive:
            return math.inf  # host down: the request vanishes into the void
        if on_deliver is not None:
            on_deliver()
        service = self.service * max(1.0, float(stall))
        if _poke("rpc.recv", shard=shard, extra=extra + 1) == ("drop",):
            self.counters["rpc:dropped_replies"] += 1
            return math.inf
        return service

    # ---- the call ------------------------------------------------------------------

    def call(self, shard: int, alive: bool = True, stall: float = 1.0,
             extra: int = 0, on_deliver: Optional[Callable[[], None]] = None) -> float:
        """One reliable-ized shard call; returns its elapsed seconds.

        Runs the attempt/hedge/retry state machine against the fault
        sites and returns the total simulated time from first send to
        accepted reply.  Raises :class:`RpcTimeout` when the retry
        budget is exhausted — the caller decides whether that shard's
        contribution is droppable (partial-result scoring) or must be
        queued for redelivery (state application).

        ``extra`` decorrelates the deterministic fault decisions of
        distinct logical calls made at the same injector cursor; attempt
        and hedge legs further offset it internally.
        """
        elapsed = 0.0
        for attempt in range(self.retries + 1):
            key = extra + 1009 * attempt
            completion = self._leg(shard, alive, stall, key, on_deliver)
            if (
                self.hedge_delay is not None
                and completion > self.hedge_delay
                and self.hedge_delay < self.timeout
            ):
                # The primary is slow (or lost): fire a hedged duplicate
                # and take whichever copy answers first.
                self.counters["rpc:hedges"] += 1
                hedge = self.hedge_delay + self._leg(
                    shard, alive, stall, key + 500009, on_deliver
                )
                if hedge < completion:
                    completion = hedge
                    self.counters["rpc:hedge_wins"] += 1
            if completion <= self.timeout:
                self.counters["rpc:calls"] += 1
                return elapsed + completion
            self.counters["rpc:timeouts"] += 1
            elapsed += self.timeout + self.backoff * (2 ** attempt)
            if attempt < self.retries:
                self.counters["rpc:retries"] += 1
        self.counters["rpc:failures"] += 1
        raise RpcTimeout(shard, elapsed)

    # ---- log shipping --------------------------------------------------------------

    def ship(self, shard: int, member: int, alive: bool = True, extra: int = 0,
             on_deliver: Optional[Callable[[], None]] = None) -> "tuple[bool, bool]":
        """One synchronous log-shipping leg to a replica-group follower.

        Returns ``(delivered, acked)``.  The request leg consults the
        ``repl.ship`` site (a drop means the record never reached the
        follower — the group parks it for in-order redelivery) and the
        acknowledgement leg consults ``repl.ack`` (a drop means the
        follower *did* append durably but the primary never learned —
        the commit may fall under quorum without any divergence, and the
        eventual redelivery is absorbed by sequence idempotence).  No
        retry state machine here: ordering across a member's ships is
        owned by the group's per-member queue, which a blind rpc-level
        retry would violate.  Shipping rides the commit fan-out, which
        charges no request latency (mirroring :meth:`call`'s use there),
        so no elapsed time is returned.
        """
        self.counters["rpc:ships"] += 1
        if _poke("repl.ship", shard=shard, member=member, extra=extra) == ("drop",):
            self.counters["rpc:dropped_ships"] += 1
            return False, False
        if not alive:
            return False, False  # host down: the shipment vanishes
        if on_deliver is not None:
            on_deliver()
        if _poke("repl.ack", shard=shard, member=member, extra=extra + 1) == ("drop",):
            self.counters["rpc:dropped_acks"] += 1
            return True, False
        return True, True

    def __repr__(self) -> str:
        return (
            f"SimRpc(service={self.service:g}, timeout={self.timeout:g}, "
            f"retries={self.retries}, hedge={self.hedge_delay})"
        )
