"""Admission control and backpressure for the serving runtime.

Under 16x offered load a runtime that admits everything dies of queueing
delay: every request waits behind an unbounded backlog and *all* of them
miss their deadlines.  Shedding is what keeps the served fraction inside
its SLO.  Three mechanisms compose here, all driven by the simulated
clock:

* a **token bucket** capping the smoothed admission rate (burst-tolerant);
* a **bounded request queue** — the backpressure signal;
* a configurable **shed policy** once the queue is full: ``reject-new``
  (protect queued work, favouring older requests that are closer to
  completion) or ``drop-oldest`` (favour fresh requests, whose deadlines
  are still winnable).

Counters (``admission:*`` in the counter table) obey two identities, under
either policy: a request shed on arrival is never admitted, while a
``drop-oldest`` eviction sheds a request that *was* admitted::

    offered  == admitted + shed_rate_limited + shed_queue_full
    admitted == served + queued + shed_dropped_oldest
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..clock import SimClock
from ..core.stats import declare

__all__ = ["TokenBucket", "AdmissionController"]

SHED_POLICIES = ("reject-new", "drop-oldest")


class TokenBucket:
    """Token-bucket rate limiter on the simulated clock.

    Args:
        rate: sustained tokens/second refill rate.
        burst: bucket capacity (momentary burst allowance).
        clock: the shared :class:`~repro.clock.SimClock`.
    """

    def __init__(self, rate: float, burst: float, clock: SimClock):
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self._last = clock.now()

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take *n* tokens if available; False means rate-limited."""
        now = self.clock.now()
        if now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
            self._last = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class AdmissionController:
    """Bounded request queue with rate limiting and load shedding.

    Args:
        clock: the shared simulated clock.
        max_queue: queue depth bound (the backpressure threshold).
        policy: ``'reject-new'`` sheds the arriving request when full;
            ``'drop-oldest'`` evicts the head of the queue instead.
        rate: optional token-bucket sustained admission rate
            (requests/second); None disables rate limiting.
        burst: token-bucket burst capacity (defaults to ``max_queue``).
        counters: the counter table to count ``admission:*`` into (a
            private one when None).
    """

    def __init__(
        self,
        clock: SimClock,
        max_queue: int = 64,
        policy: str = "reject-new",
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        counters: Optional[Dict[str, float]] = None,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if policy not in SHED_POLICIES:
            raise ValueError(f"unknown shed policy: {policy!r} (expected {SHED_POLICIES})")
        self.clock = clock
        self.max_queue = int(max_queue)
        self.policy = policy
        self.bucket = (
            TokenBucket(rate, burst if burst is not None else float(max_queue), clock)
            if rate is not None
            else None
        )
        self.counters = declare(counters, *(f"admission:{k}" for k in (
            "offered", "admitted", "shed_rate_limited", "shed_queue_full",
            "shed_dropped_oldest")))
        self._queue: Deque = deque()
        #: requests shed on arrival or evicted from the queue this call —
        #: drained by the runtime so it can answer them with a shed status.
        self.shed: List = []

    @property
    def depth(self) -> int:
        return len(self._queue)

    def offer(self, request) -> bool:
        """Try to admit *request*; returns False when it was shed.

        With ``drop-oldest``, the arriving request is admitted and the
        evicted head is appended to :attr:`shed` for the caller to fail
        gracefully (a shed response, not an exception).
        """
        c = self.counters
        c["admission:offered"] += 1
        if self.bucket is not None and not self.bucket.try_acquire():
            c["admission:shed_rate_limited"] += 1
            self.shed.append(request)
            return False
        if len(self._queue) >= self.max_queue:
            if self.policy == "reject-new":
                c["admission:shed_queue_full"] += 1
                self.shed.append(request)
                return False
            oldest = self._queue.popleft()
            c["admission:shed_dropped_oldest"] += 1
            self.shed.append(oldest)
        self._queue.append(request)
        c["admission:admitted"] += 1
        return True

    def poll(self):
        """Dequeue the next admitted request (None when idle)."""
        return self._queue.popleft() if self._queue else None

    def peek(self):
        """The next request :meth:`poll` would return, without dequeuing."""
        return self._queue[0] if self._queue else None

    def drain_shed(self) -> List:
        """Hand back and clear the requests shed since the last drain."""
        out, self.shed = self.shed, []
        return out

    def __repr__(self) -> str:
        return (
            f"AdmissionController(depth={len(self._queue)}/{self.max_queue}, "
            f"policy='{self.policy}')"
        )
