"""Array-based (node, time) -> slot embedding store.

One ring per layer is ``TContext``'s memo cache (``ctx.embed_cache(layer)``,
behind ``op.cache()`` — TGOpt-style memoization), and the manual
baseline keeps one per layer too.  Entries live in a ring of
``capacity`` float32 rows; an open-addressing hash table maps each
(node, time) key to its ring slot.  Both ``lookup`` and ``store`` are
batched: probing advances *all* unresolved queries one bucket per pass
with full-width numpy ops.

Eviction is reuse-distance-aware: each slot tracks when it was last
referenced and an exponential average of its inter-reference gap; a full
cache evicts the slots whose *predicted next reference*
(``last_access + gap``) is farthest in the future — a practical
approximation of Belady's farthest-in-future rule that batches of
temporal-GNN queries reward (hot nodes re-appear with short, stable
gaps).  Deterministic: ties break toward the lower slot index.  The
``k`` victims cost one ``np.partition`` of the resident predictions
(O(capacity)) plus a sort of the candidates at or above the ``k``-th
largest — not a sort of every resident slot.  ``tests/reference.py``'s
``ReuseCacheOracle`` spells the rule out one key at a time.

Each live slot also records the hash bucket holding it, so an eviction
tombstones its bucket directly instead of probing for the evicted key.

Batch-store contract:

1. *Refresh pass* — keys already resident have their value overwritten
   in place (keeping their ring slot).
2. *Allocation pass* — keys not resident are assigned slots in order of
   first occurrence within the batch: never-used slots first, then the
   eviction victims.  Duplicate keys within a batch take their last
   occurrence's value.  A batch of at least ``capacity`` new keys
   rewrites the whole ring from the cursor and keeps its last keys.

Evictions are surfaced explicitly: the ``evictions`` counter counts
every resident entry displaced.

A ``capacity <= 0`` store is disabled: lookups miss, stores are no-ops.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...resilience.hooks import poke as _poke
from ...spans import span
from .dedup import unique_first_last

__all__ = ["NodeTimeCache"]

_EMPTY = -1
_TOMBSTONE = -2


def _hash_keys(nodes: np.ndarray, timebits: np.ndarray) -> np.ndarray:
    """Mix (node id, time bit-pattern) into one 64-bit hash per pair."""
    h = nodes.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= timebits * np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(31)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(29)
    return h


def _canonical_times(times: np.ndarray) -> np.ndarray:
    """float64 times with -0.0 normalized to +0.0 (equal keys, equal bits)."""
    return np.asarray(times, dtype=np.float64) + 0.0


class NodeTimeCache:
    """Bounded (node, time) -> embedding row store with batched kernels.

    Args:
        capacity: ring size in rows; ``<= 0`` disables the cache.  The row
            width is taken from the first ``store``.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.dim: Optional[int] = None
        self.hits = 0
        self.lookups = 0
        self.evictions = 0
        # Reuse-distance bookkeeping: a logical access tick, per-slot
        # last-access tick, per-slot EMA of the inter-access gap, and their
        # sum, the predicted next reference.
        self._tick = 0
        self._last_access: Optional[np.ndarray] = None
        self._gap: Optional[np.ndarray] = None
        self._pred: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._slot_nodes: Optional[np.ndarray] = None
        self._slot_times: Optional[np.ndarray] = None
        self._slot_bucket: Optional[np.ndarray] = None  # hash bucket of each live slot
        self._nslots = 0  # slots written so far (== capacity once wrapped)
        self._cursor = 0
        if self.capacity > 0:
            nbuckets = 8
            while nbuckets < 4 * self.capacity:
                nbuckets <<= 1
            self._nbuckets = nbuckets
        else:
            self._nbuckets = 0
        self._mask = np.int64(self._nbuckets - 1)
        self._table: Optional[np.ndarray] = None
        self._used = 0
        self._tombs = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def num_entries(self) -> int:
        """Slots currently holding a stored row (≤ capacity)."""
        return self._nslots

    # ---- public kernels ---------------------------------------------------------

    def lookup(self, nodes: np.ndarray, times: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Return ``(hit_mask, rows)`` for each (node, time) query pair.

        ``rows`` is ``None`` until the first store (or when disabled);
        otherwise a float32 ``(n, dim)`` array with hit rows filled in.
        """
        _poke("kernel.cache")  # fault-injection site (no-op unless armed)
        with span("kernel:cache_lookup"):
            n = len(nodes)
            self.lookups += n
            hit = np.zeros(n, dtype=bool)
            if self._values is None or n == 0:
                return hit, None
            nodes = np.asarray(nodes, dtype=np.int64)
            times = _canonical_times(times)
            slots = self._probe_find(nodes, times)
            hit = slots >= 0
            rows = np.zeros((n, self.dim), dtype=np.float32)
            rows[hit] = self._values[slots[hit]]
            self.hits += int(hit.sum())
            if hit.any():
                self._touch(np.unique(slots[hit]))
            return hit, rows

    def _touch(self, slots: np.ndarray) -> None:
        """Advance the access tick and fold it into per-slot reuse stats."""
        self._tick += 1
        observed = (self._tick - self._last_access[slots]).astype(np.float64)
        gap = 0.5 * self._gap[slots] + 0.5 * observed
        self._gap[slots] = gap
        self._last_access[slots] = self._tick
        self._pred[slots] = self._tick + gap

    def _reuse_victims(self, k: int) -> np.ndarray:
        """The *k* resident slots referenced farthest in the future.

        Ordered by descending prediction, ties toward the lower slot —
        the first *k* of ``np.lexsort((slot, -pred))`` — at the cost of
        one partition plus a stable sort of the slots at or above the
        k-th largest prediction.
        """
        pred = self._pred[: self._nslots]
        kth = np.partition(pred, len(pred) - k)[len(pred) - k]
        cand = np.flatnonzero(pred >= kth)  # ascending slot order
        return cand[np.argsort(-pred[cand], kind="stable")[:k]]

    def store(self, nodes: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        if not self.enabled or len(nodes) == 0:
            return
        _poke("kernel.cache")  # fault-injection site (no-op unless armed)
        with span("kernel:cache_store"):
            values = np.asarray(values)
            self._ensure(values.shape[1])
            nodes = np.asarray(nodes, dtype=np.int64)
            times = _canonical_times(times)

            # Batch dedupe: unique keys with first/last occurrence positions.
            un, ut, first, last = unique_first_last(nodes, times)

            # Refresh pass: resident keys keep their slot, take the last value.
            home = self._buckets(un, ut)
            slots = self._probe_find(un, ut, home)
            present = slots >= 0
            if present.any():
                self._values[slots[present]] = values[last[present]].astype(np.float32)
                self._touch(slots[present])

            # Allocation pass: absent keys, in first-occurrence order.
            new = np.flatnonzero(~present)
            m = len(new)
            if m == 0:
                _poke("cache.corrupt", cache=self)
                return
            new = new[np.argsort(first[new], kind="stable")]
            kn, kt, kh = un[new], ut[new], home[new]
            kv = values[last[new]].astype(np.float32)
            cap = self.capacity
            if m >= cap:
                # The batch replaces the whole ring: only the last `cap`
                # allocations survive, written from the cursor on.
                self._evicted(np.arange(self._nslots, dtype=np.int64))
                survivors = slice(m - cap, m)
                order = (self._cursor + np.arange(m - cap, m)) % cap
                self._slot_nodes[order] = kn[survivors]
                self._slot_times[order] = kt[survivors]
                self._values[order] = kv[survivors]
                self._nslots = cap
                self._cursor = (self._cursor + m) % cap
                self._rebuild_table()
                self._tick += 1
                self._last_access[:] = self._tick
                self._gap[:] = float(cap)
                self._pred[:] = self._tick + float(cap)
            else:
                if self._used + self._tombs + m > (self._nbuckets * 3) // 5:
                    self._rebuild_table()
                # Fill any never-used slots first; the remainder displaces the
                # resident entries whose predicted next reference is farthest
                # in the future (ties break toward the lower slot index).
                fresh = min(m, cap - self._nslots)
                fresh_slots = np.arange(self._nslots, self._nslots + fresh, dtype=np.int64)
                short = m - fresh
                if short:
                    victims = self._reuse_victims(short)
                    self._evicted(victims)
                    self._table_evict(victims)
                    slots_new = np.concatenate([fresh_slots, victims])
                else:
                    slots_new = fresh_slots
                self._slot_nodes[slots_new] = kn
                self._slot_times[slots_new] = kt
                self._values[slots_new] = kv
                self._nslots += fresh
                self._cursor = self._nslots % cap
                self._table_insert(kh, slots_new)
                self._tick += 1
                self._last_access[slots_new] = self._tick
                self._gap[slots_new] = float(cap)
                self._pred[slots_new] = self._tick + float(cap)
            # A steady-state miss storm on a 100%-occupied ring used to let
            # tombstones pile up toward the global rebuild bound, silently
            # degrading every probe into a long tombstone walk.  Rebuild as
            # soon as dead buckets outnumber live ones, which keeps the
            # table's effective load factor <= ~0.5 at any occupancy.
            if self._tombs > max(self._used, 1):
                self._rebuild_table()
            _poke("cache.corrupt", cache=self)

    def _evicted(self, slots: np.ndarray) -> None:
        """Count displaced resident entries."""
        self.evictions += int(len(slots))

    def clear(self) -> None:
        """Drop all entries and reset hit statistics."""
        self._values = None
        self._slot_nodes = None
        self._slot_times = None
        self._slot_bucket = None
        self._table = None
        self._nslots = 0
        self._cursor = 0
        self._used = 0
        self._tombs = 0
        self.hits = 0
        self.lookups = 0
        self.evictions = 0
        self._tick = 0
        self._last_access = None
        self._gap = None
        self._pred = None

    def reset_stats(self) -> None:
        self.hits = 0
        self.lookups = 0
        self.evictions = 0

    def validate(self) -> list:
        """Self-check table integrity; returns violations (empty = ok).

        Verifies the ring/hash-table agreement a corrupted store would
        break: finite stored rows, cursor and slot counts in range, every
        table bucket pointing at a live slot, every live slot's key
        resolvable back to itself through the probe sequence, and every
        live slot's recorded bucket holding that slot.
        """
        errs = []
        if self.capacity <= 0 or self._values is None:
            return errs
        n = self._nslots
        if not 0 <= n <= self.capacity:
            errs.append(f"slot count {n} outside [0, {self.capacity}]")
            return errs
        if not 0 <= self._cursor < max(1, self.capacity):
            errs.append(f"ring cursor {self._cursor} outside [0, {self.capacity})")
        if n and not np.isfinite(self._values[:n]).all():
            errs.append("non-finite cached embedding rows")
        if self._table is not None:
            live = self._table[self._table >= 0]
            if len(live) and (live.max() >= n):
                errs.append("hash table references an unoccupied slot")
            if n:
                slots = np.arange(n, dtype=np.int64)
                found = self._probe_find(self._slot_nodes[:n], self._slot_times[:n])
                if not np.array_equal(found, slots):
                    errs.append("stored keys are not resolvable through the hash table")
                buckets = self._slot_bucket[:n]
                if ((buckets < 0) | (buckets >= self._nbuckets)).any() or not np.array_equal(
                        self._table[buckets], slots):
                    errs.append("slot->bucket map disagrees with the hash table")
        return errs

    # ---- internals --------------------------------------------------------------

    def _ensure(self, dim: int) -> None:
        if self._values is None:
            self.dim = dim
            self._values = np.zeros((self.capacity, dim), dtype=np.float32)
            self._slot_nodes = np.zeros(self.capacity, dtype=np.int64)
            self._slot_times = np.zeros(self.capacity, dtype=np.float64)
            self._slot_bucket = np.zeros(self.capacity, dtype=np.int64)
            self._table = np.full(self._nbuckets, _EMPTY, dtype=np.int64)
            self._last_access = np.zeros(self.capacity, dtype=np.int64)
            self._gap = np.full(self.capacity, float(self.capacity))
            self._pred = self._last_access + self._gap
        elif dim != self.dim:
            raise ValueError(f"stored rows have dim {self.dim}, got {dim}")

    def _buckets(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Home bucket of each (node, canonical time) key."""
        return (_hash_keys(nodes, times.view(np.uint64)) & np.uint64(self._mask)).astype(np.int64)

    def _probe_find(self, nodes: np.ndarray, times: np.ndarray,
                    h: Optional[np.ndarray] = None) -> np.ndarray:
        """Vectorized linear probing from home buckets *h* (hashed when
        omitted): the slot of each key, -1 on miss."""
        n = len(nodes)
        result = np.full(n, -1, dtype=np.int64)
        if self._table is None or n == 0:
            return result
        table = self._table
        idx = np.arange(n, dtype=np.int64)
        if h is None:
            h = self._buckets(nodes, times)
        qn, qt = nodes, times
        for _ in range(self._nbuckets + 1):
            if idx.size == 0:
                return result
            b = table[h]
            # an empty or dead bucket (< 0) indexes the last slot; `b >= 0` masks it
            match = (b >= 0) & (self._slot_nodes[b] == qn) & (self._slot_times[b] == qt)
            result[idx[match]] = b[match]
            keep = ~match & (b != _EMPTY)
            idx, qn, qt = idx[keep], qn[keep], qt[keep]
            h = (h[keep] + 1) & self._mask
        raise RuntimeError("open-addressing probe did not terminate")  # pragma: no cover

    def _table_evict(self, slots: np.ndarray) -> None:
        """Tombstone the buckets of live *slots*."""
        self._table[self._slot_bucket[slots]] = _TOMBSTONE
        self._used -= len(slots)
        self._tombs += len(slots)

    def _table_insert(self, h: np.ndarray, slots: np.ndarray) -> None:
        """Insert absent keys with home buckets *h* as *slots*, recording
        each slot's bucket.

        Keys that reach one free bucket in the same pass all write it; the
        key whose slot reads back wins and the others probe on.  Which one
        wins moves nothing observable: linear probing fills the same set of
        buckets whatever the insertion order.
        """
        table = self._table
        s = np.asarray(slots, dtype=np.int64)
        for _ in range(self._nbuckets + 1):
            cur = table[h]
            free = np.flatnonzero(cur < 0)
            hf, sf = h[free], s[free]
            table[hf] = sf
            win = free[table[hf] == sf]
            self._tombs -= int(np.count_nonzero(cur[win] == _TOMBSTONE))
            self._used += len(win)
            self._slot_bucket[s[win]] = h[win]
            if len(win) == len(h):
                return
            keep = np.ones(len(h), dtype=bool)
            keep[win] = False
            h = (h[keep] + 1) & self._mask
            s = s[keep]
        raise RuntimeError("open-addressing insert did not terminate")  # pragma: no cover

    def _rebuild_table(self) -> None:
        self._table = np.full(self._nbuckets, _EMPTY, dtype=np.int64)
        self._used = 0
        self._tombs = 0
        n = self._nslots
        if n:
            self._table_insert(self._buckets(self._slot_nodes[:n], self._slot_times[:n]),
                               np.arange(n, dtype=np.int64))
