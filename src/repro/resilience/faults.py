"""Deterministic, seedable fault injection.

A :class:`FaultInjector` simulates the fault classes a production
temporal-GNN trainer must survive — transient kernel exceptions, cache
corruption, NaN gradients, checkpoint writes killed mid-flight, and hard
process kills — by answering :func:`repro.resilience.hooks.poke` calls
placed at the corresponding production code sites.

Two properties make injected runs reproducible and recoverable:

* **Determinism** — whether a fault fires at stream position
  ``(epoch, batch)`` is a pure function of ``(seed, site, epoch, batch)``
  (a splitmix64 hash compared against the site's rate) or an explicit
  schedule.  Two injectors with the same seed and configuration fire
  identically; retries and rollback-replays do not perturb the pattern
  because no RNG stream is consumed.
* **Transience** — each fault fires at most once per injector instance
  per ``(site, epoch, batch[, replica])``, so a retried batch or a
  replayed stream segment passes.  This is the recoverable half of the
  fault model; see DESIGN.md for what counts as fatal.

Use as a context manager to install the hooks::

    inj = FaultInjector(seed=3, kernel_fault_rate=0.05,
                        nan_grad_batches={(0, 4)})
    with inj:
        trainer.train(...)
    print(inj.log)          # every fault that actually fired
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from . import hooks
from .errors import CheckpointWriteAborted, SimulatedProcessKill, TransientKernelError

__all__ = ["DECISIONS", "FaultEvent", "FaultInjector"]

#: Every fault decision the injector can make, mapped to the
#: :data:`repro.resilience.hooks.SITES` entry it fires at.  A site like
#: ``disk.write`` multiplexes several corruption kinds, so decisions are
#: the finer-grained vocabulary; configuration (constructor kwargs plus
#: the generic ``rates=``/``schedules=`` dicts) is validated against this
#: map at construction time.
DECISIONS: Dict[str, str] = {
    "kernel.sample": "kernel.sample",
    "kernel.cache": "kernel.cache",
    "cache.corrupt": "cache.corrupt",
    "nan_grad": "optim.step",
    "checkpoint.kill": "checkpoint.kill",
    "process.kill": "trainer.batch",
    "serve.ingest": "serve.ingest",
    "serve.commit": "serve.commit",
    "serve.poison": "serve.poison",
    "disk.write.torn": "disk.write",
    "disk.write.flip": "disk.write",
    "disk.write.dup": "disk.write",
    "disk.fsync.lost": "disk.fsync",
    "disk.read.flip": "disk.read",
    "rpc.send.drop": "rpc.send",
    "rpc.recv.drop": "rpc.recv",
    "shard.crash": "shard.crash",
    "shard.stall": "shard.stall",
    "heartbeat.drop": "heartbeat.drop",
    "repl.ship.drop": "repl.ship",
    "repl.ack.drop": "repl.ack",
    "repl.promote.delay": "repl.promote",
    "mem.flip": "mem.flip",
    "scrub.skip": "scrub.skip",
}

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 round (pure-python, 64-bit wrapping)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_decision(seed: int, site: str, epoch: int, batch: int, extra: int) -> float:
    """Deterministic uniform in [0, 1) for one (site, position) decision."""
    h = _splitmix64(seed & _MASK64)
    for token in site.encode():
        h = _splitmix64(h ^ token)
    h = _splitmix64(h ^ (epoch & _MASK64))
    h = _splitmix64(h ^ (batch & _MASK64))
    h = _splitmix64(h ^ (extra & _MASK64))
    return h / float(1 << 64)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    site: str
    epoch: int
    batch: int
    detail: str = ""


class FaultInjector:
    """Deterministic fault source consulted by the production hook sites.

    Faults are configured either by *rate* (probability per batch, decided
    by a seed-keyed hash of the stream position — no RNG state, so replays
    are stable) or by explicit *schedules* of stream positions.

    Args:
        seed: keys every rate-based decision.
        kernel_fault_rate: per-batch probability of a transient sampling
            kernel exception (site ``kernel.sample``).
        kernel_fault_batches: explicit ``(epoch, batch)`` positions for
            sampling-kernel faults (unioned with the rate).
        cache_fault_rate: per-batch probability of a transient embedding
            cache kernel exception (site ``kernel.cache``).
        cache_fault_batches: explicit positions for cache-kernel faults.
        cache_corrupt_batches: positions at which a stored cache row is
            silently overwritten with NaN (caught by state validation).
        nan_grad_rate: per-batch probability that gradients turn NaN just
            before the optimizer step (site ``optim.step``).
        nan_grad_batches: explicit positions for NaN gradients.
        checkpoint_kill_batches: positions whose checkpoint write is
            killed mid-flight (tmp file truncated, write aborted).
        process_kill_at: optional ``(epoch, batch)`` at which the whole
            training process is hard-killed (``SimulatedProcessKill``).
        serve_ingest_fault_rate: per-ingest-batch probability of a
            transient fault inside the serving ingestion pipeline (site
            ``serve.ingest``; the serve runtime advances the cursor to
            ``(0, batch_seq)`` per ingest batch).
        serve_ingest_fault_batches: explicit positions for ingest faults.
        serve_commit_fault_rate: per-commit probability of a transient
            fault mid state-commit, after partial application (site
            ``serve.commit``; exercises snapshot rollback).
        serve_commit_fault_batches: explicit positions for commit faults.
        serve_poison_batches: positions at which the in-flight commit
            payload is silently corrupted with NaN (site ``serve.poison``;
            caught by post-commit validation, which rolls back and
            quarantines the batch).
        disk_torn_write_batches: positions at which a write-ahead-log
            record append is torn — only a deterministic byte prefix
            reaches the file before a :class:`SimulatedDiskCrash`
            (site ``disk.write``).
        disk_torn_write_rate: per-position probability of a torn write.
        disk_flip_write_batches: positions at which one bit of an
            appended WAL record is silently flipped on the way to disk
            (no crash; caught by per-record CRC on replay).
        disk_dup_write_batches: positions at which an appended WAL record
            is written twice (duplicated tail; replay must deduplicate).
        disk_lost_fsync_batches: positions at which a WAL fsync is lost:
            bytes buffered since the last durable fsync are dropped and a
            :class:`SimulatedDiskCrash` follows (site ``disk.fsync``).
        disk_flip_read_batches: positions at which one bit of a WAL
            record is flipped while *reading* it back (site ``disk.read``;
            models media corruption discovered at recovery).
        disk_flip_read_rate: per-position probability of a read flip.
        rpc_send_drop_rate / rpc_recv_drop_rate: per-attempt probability
            that a cluster RPC request / reply leg is dropped on the wire
            (sites ``rpc.send`` / ``rpc.recv``; the channel retries and
            hedges around the loss — a dropped reply still executed).
        shard_crash_rate / shard_crashes: probability (or explicit
            ``(epoch, batch)`` / ``(epoch, batch, shard)`` positions) at
            which a serving shard's process dies between requests (site
            ``shard.crash``; triggers heartbeat failover + WAL replay).
        shard_stall_rate / shard_stalls: probability (or positions) at
            which a shard enters a stall window multiplying its RPC
            service time by ``shard_stall_factor`` (site ``shard.stall``).
        shard_stall_factor: slowdown multiplier for stalled shards.
        heartbeat_drop_rate / heartbeat_drops: probability (or positions)
            at which one shard heartbeat is lost (site ``heartbeat.drop``;
            enough accumulated losses make the detector declare a live
            shard dead — a spurious failover the cluster must absorb).
        repl_ship_drop_rate / repl_ship_drops: probability (or positions)
            at which the log-shipping leg from a replica-group primary to
            one follower is dropped (site ``repl.ship``; the record parks
            in that follower's in-order queue and is redelivered).
        repl_ack_drop_rate / repl_ack_drops: probability (or positions)
            at which a follower's append acknowledgement is lost on the
            way back (site ``repl.ack``; the follower *did* append — the
            commit may fall under quorum without ever diverging).
        repl_promote_delay_rate / repl_promote_delays: probability (or
            positions) at which one promotion attempt is delayed by a
            tick (site ``repl.promote``; the supervisor retries, bounding
            the window in which reads fail over to followers).
        mem_flip_rate / mem_flips: probability (or explicit
            ``(epoch, batch)`` / ``(epoch, batch, extra)`` positions,
            ``extra = shard + num_shards * member``) at which one bit of
            a replica member's live state flips *outside* the write path
            (site ``mem.flip``; only the integrity scrubber can catch
            it).  Which state rots is picked by ``mem_flip_tier``.
        mem_flip_tier: what a ``mem.flip`` corrupts — ``"memory"``
            (node-memory table), ``"mailbox"``, ``"wal"`` (a durable
            segment's on-disk bytes), or ``"cold"`` (feature-store cold
            rows).
        scrub_skip_rate / scrub_skips: probability per scrub cycle (or
            explicit cycle numbers) at which one due anti-entropy scrub
            cycle is suppressed (site ``scrub.skip``; widens the window
            a flipped bit can sit undetected, exercising read-repair).
        rates: extra ``{decision name: probability}`` entries (see
            :data:`DECISIONS`); unknown names raise ``ValueError``.
        schedules: extra ``{decision name: positions}`` entries; unknown
            names raise ``ValueError``.
        transient: if True (default), each fault fires at most once per
            position so retries/replays succeed; if False, faults fire on
            every encounter (for testing retry exhaustion).
    """

    def __init__(
        self,
        seed: int = 0,
        kernel_fault_rate: float = 0.0,
        kernel_fault_batches: Iterable[Tuple[int, int]] = (),
        cache_fault_rate: float = 0.0,
        cache_fault_batches: Iterable[Tuple[int, int]] = (),
        cache_corrupt_batches: Iterable[Tuple[int, int]] = (),
        nan_grad_rate: float = 0.0,
        nan_grad_batches: Iterable[Tuple[int, int]] = (),
        checkpoint_kill_batches: Iterable[Tuple[int, int]] = (),
        process_kill_at: Optional[Tuple[int, int]] = None,
        serve_ingest_fault_rate: float = 0.0,
        serve_ingest_fault_batches: Iterable[Tuple[int, int]] = (),
        serve_commit_fault_rate: float = 0.0,
        serve_commit_fault_batches: Iterable[Tuple[int, int]] = (),
        serve_poison_batches: Iterable[Tuple[int, int]] = (),
        disk_torn_write_batches: Iterable[Tuple[int, int]] = (),
        disk_torn_write_rate: float = 0.0,
        disk_flip_write_batches: Iterable[Tuple[int, int]] = (),
        disk_dup_write_batches: Iterable[Tuple[int, int]] = (),
        disk_lost_fsync_batches: Iterable[Tuple[int, int]] = (),
        disk_flip_read_batches: Iterable[Tuple[int, int]] = (),
        disk_flip_read_rate: float = 0.0,
        rpc_send_drop_rate: float = 0.0,
        rpc_recv_drop_rate: float = 0.0,
        shard_crash_rate: float = 0.0,
        shard_crashes: Iterable[Tuple[int, ...]] = (),
        shard_stall_rate: float = 0.0,
        shard_stalls: Iterable[Tuple[int, ...]] = (),
        shard_stall_factor: float = 8.0,
        heartbeat_drop_rate: float = 0.0,
        heartbeat_drops: Iterable[Tuple[int, ...]] = (),
        repl_ship_drop_rate: float = 0.0,
        repl_ship_drops: Iterable[Tuple[int, ...]] = (),
        repl_ack_drop_rate: float = 0.0,
        repl_ack_drops: Iterable[Tuple[int, ...]] = (),
        repl_promote_delay_rate: float = 0.0,
        repl_promote_delays: Iterable[Tuple[int, ...]] = (),
        mem_flip_rate: float = 0.0,
        mem_flips: Iterable[Tuple[int, ...]] = (),
        mem_flip_tier: str = "memory",
        scrub_skip_rate: float = 0.0,
        scrub_skips: Iterable[int] = (),
        rates: Optional[Dict[str, float]] = None,
        schedules: Optional[Dict[str, Iterable[Tuple[int, ...]]]] = None,
        transient: bool = True,
    ):
        self.seed = int(seed)
        self.rates: Dict[str, float] = {
            "kernel.sample": float(kernel_fault_rate),
            "kernel.cache": float(cache_fault_rate),
            "nan_grad": float(nan_grad_rate),
            "serve.ingest": float(serve_ingest_fault_rate),
            "serve.commit": float(serve_commit_fault_rate),
            "disk.write.torn": float(disk_torn_write_rate),
            "disk.read.flip": float(disk_flip_read_rate),
            "rpc.send.drop": float(rpc_send_drop_rate),
            "rpc.recv.drop": float(rpc_recv_drop_rate),
            "shard.crash": float(shard_crash_rate),
            "shard.stall": float(shard_stall_rate),
            "heartbeat.drop": float(heartbeat_drop_rate),
            "repl.ship.drop": float(repl_ship_drop_rate),
            "repl.ack.drop": float(repl_ack_drop_rate),
            "repl.promote.delay": float(repl_promote_delay_rate),
            "mem.flip": float(mem_flip_rate),
            "scrub.skip": float(scrub_skip_rate),
        }
        self.schedules: Dict[str, Set[Tuple[int, ...]]] = {
            "kernel.sample": {tuple(p) for p in kernel_fault_batches},
            "kernel.cache": {tuple(p) for p in cache_fault_batches},
            "cache.corrupt": {tuple(p) for p in cache_corrupt_batches},
            "nan_grad": {tuple(p) for p in nan_grad_batches},
            "checkpoint.kill": {tuple(p) for p in checkpoint_kill_batches},
            "serve.ingest": {tuple(p) for p in serve_ingest_fault_batches},
            "serve.commit": {tuple(p) for p in serve_commit_fault_batches},
            "serve.poison": {tuple(p) for p in serve_poison_batches},
            "disk.write.torn": {tuple(p) for p in disk_torn_write_batches},
            "disk.write.flip": {tuple(p) for p in disk_flip_write_batches},
            "disk.write.dup": {tuple(p) for p in disk_dup_write_batches},
            "disk.fsync.lost": {tuple(p) for p in disk_lost_fsync_batches},
            "disk.read.flip": {tuple(p) for p in disk_flip_read_batches},
            "shard.crash": {tuple(p) for p in shard_crashes},
            "shard.stall": {tuple(p) for p in shard_stalls},
            "heartbeat.drop": {tuple(p) for p in heartbeat_drops},
            "repl.ship.drop": {tuple(p) for p in repl_ship_drops},
            "repl.ack.drop": {tuple(p) for p in repl_ack_drops},
            "repl.promote.delay": {tuple(p) for p in repl_promote_delays},
            "mem.flip": {tuple(p) for p in mem_flips},
        }
        for name, rate in (rates or {}).items():
            self._check_decision(name)
            self.rates[name] = float(rate)
        for name, positions in (schedules or {}).items():
            self._check_decision(name)
            self.schedules.setdefault(name, set()).update(
                tuple(p) for p in positions
            )
        for name in list(self.rates) + list(self.schedules):
            self._check_decision(name)
        if mem_flip_tier not in ("memory", "mailbox", "wal", "cold"):
            raise ValueError(
                f"mem_flip_tier {mem_flip_tier!r} not one of "
                "'memory', 'mailbox', 'wal', 'cold'"
            )
        self.mem_flip_tier = mem_flip_tier
        self.scrub_skips: Set[int] = {int(c) for c in scrub_skips}
        self.shard_stall_factor = float(shard_stall_factor)
        self.process_kill_at = tuple(process_kill_at) if process_kill_at else None
        self.transient = transient
        self.epoch = 0
        self.batch = 0
        #: every fault that actually fired, in order.
        self.log: list = []
        self._fired: Set[Tuple] = set()

    # ---- lifecycle --------------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        hooks.install(self)
        return self

    def __exit__(self, *exc) -> None:
        hooks.uninstall(self)

    def advance(self, epoch: int, batch: int) -> None:
        """Move the stream cursor (called by the trainer at each batch)."""
        self.epoch = int(epoch)
        self.batch = int(batch)

    @staticmethod
    def _check_decision(name: str) -> None:
        """Reject configuration naming an unknown fault decision/site."""
        if name not in DECISIONS:
            known = ", ".join(sorted(DECISIONS))
            raise ValueError(
                f"unknown fault decision {name!r}: it maps to no injection "
                f"site and would silently never fire (known: {known})"
            )
        site = DECISIONS[name]
        if site not in hooks.SITES:
            raise ValueError(
                f"fault decision {name!r} maps to site {site!r} which is "
                "missing from repro.resilience.hooks.SITES (registry drift)"
            )

    # ---- decisions --------------------------------------------------------------

    def would_fire(self, site: str, epoch: int, batch: int, extra: int = 0) -> bool:
        """Pure decision function: does *site* fault at this position?

        Ignores the once-per-position transience bookkeeping — this is
        the underlying deterministic pattern.
        """
        if (epoch, batch) in self.schedules.get(site, ()):
            return True
        if (epoch, batch, extra) in self.schedules.get(site, ()):
            return True
        rate = self.rates.get(site, 0.0)
        return rate > 0.0 and _hash_decision(self.seed, site, epoch, batch, extra) < rate

    def _fires(self, site: str, extra: int = 0, detail: str = "") -> bool:
        """Decide + record one (possibly transient) fault at the cursor."""
        if not self.would_fire(site, self.epoch, self.batch, extra):
            return False
        key = (site, self.epoch, self.batch, extra)
        if self.transient and key in self._fired:
            return False
        self._fired.add(key)
        self.log.append(FaultEvent(site, self.epoch, self.batch, detail))
        return True

    # ---- site handlers ----------------------------------------------------------

    def poke(self, site: str, **info):
        if site == "kernel.sample":
            if self._fires("kernel.sample"):
                raise TransientKernelError(
                    f"injected transient sampling-kernel fault at "
                    f"(epoch {self.epoch}, batch {self.batch})",
                    site="kernel.sample",
                )
        elif site == "kernel.cache":
            if self._fires("kernel.cache"):
                raise TransientKernelError(
                    f"injected transient cache-kernel fault at "
                    f"(epoch {self.epoch}, batch {self.batch})",
                    site="kernel.cache",
                )
        elif site == "cache.corrupt":
            cache = info.get("cache")
            if cache is not None and self._fires("cache.corrupt"):
                self._corrupt_cache(cache)
        elif site == "serve.ingest":
            if self._fires("serve.ingest"):
                raise TransientKernelError(
                    f"injected transient ingestion fault at "
                    f"(epoch {self.epoch}, batch {self.batch})",
                    site="serve.ingest",
                )
        elif site == "serve.commit":
            if self._fires("serve.commit"):
                raise TransientKernelError(
                    f"injected transient state-commit fault at "
                    f"(epoch {self.epoch}, batch {self.batch})",
                    site="serve.commit",
                )
        elif site == "serve.poison":
            values = info.get("values")
            if values is not None and len(values) and self._fires("serve.poison"):
                # Corrupt a full column so the poison survives any
                # last-event-wins coalescing of duplicate rows.
                values[..., 0] = np.nan
        elif site == "disk.write":
            return self._disk_write_directive(
                int(info.get("size", 0)), str(info.get("path", ""))
            )
        elif site == "disk.fsync":
            if self._fires("disk.fsync.lost", detail=str(info.get("path", ""))):
                return ("lost",)
        elif site == "disk.read":
            size = int(info.get("size", 0))
            if size > 0 and self._fires(
                "disk.read.flip", detail=str(info.get("path", ""))
            ):
                return ("flip",) + self._flip_position("disk.read.flip", size)
        elif site == "rpc.send":
            if self._fires(
                "rpc.send.drop", extra=int(info.get("extra", 0)),
                detail=f"shard {info.get('shard')}",
            ):
                return ("drop",)
        elif site == "rpc.recv":
            if self._fires(
                "rpc.recv.drop", extra=int(info.get("extra", 0)),
                detail=f"shard {info.get('shard')}",
            ):
                return ("drop",)
        elif site == "shard.crash":
            shard = int(info.get("shard", 0))
            # The decision key is the caller's `extra` (shard + num_shards
            # * member under replication) so a scheduled kill can target
            # one specific group member; factor-1 callers pass extra=shard.
            extra = int(info.get("extra", shard))
            if self._fires("shard.crash", extra=extra, detail=f"shard {shard}"):
                return True
        elif site == "shard.stall":
            shard = int(info.get("shard", 0))
            extra = int(info.get("extra", shard))
            if self._fires("shard.stall", extra=extra, detail=f"shard {shard}"):
                return self.shard_stall_factor
        elif site == "repl.ship":
            if self._fires(
                "repl.ship.drop", extra=int(info.get("extra", 0)),
                detail=f"shard {info.get('shard')} member {info.get('member')}",
            ):
                return ("drop",)
        elif site == "repl.ack":
            if self._fires(
                "repl.ack.drop", extra=int(info.get("extra", 0)),
                detail=f"shard {info.get('shard')} member {info.get('member')}",
            ):
                return ("drop",)
        elif site == "repl.promote":
            if self._fires(
                "repl.promote.delay", extra=int(info.get("extra", 0)),
                detail=f"shard {info.get('shard')}",
            ):
                return True
        elif site == "mem.flip":
            # Decision key is the caller's `extra` (shard + num_shards *
            # member) so a scheduled flip targets one group member; the
            # caller mods the byte index by the actual state size.
            extra = int(info.get("extra", 0))
            if self._fires(
                "mem.flip", extra=extra,
                detail=f"tier {self.mem_flip_tier} extra {extra}",
            ):
                return ("flip", self.mem_flip_tier) + self._flip_position(
                    "mem.flip", 1 << 30
                )
        elif site == "scrub.skip":
            # Keyed by scrub cycle, not the stream cursor: the scrubber
            # runs on its own cadence and a schedule of cycle numbers
            # must hit regardless of which batch is in flight.
            cycle = int(info.get("cycle", 0))
            rate = self.rates.get("scrub.skip", 0.0)
            hit = cycle in self.scrub_skips or (
                rate > 0.0
                and _hash_decision(self.seed, "scrub.skip", 0, cycle, 0) < rate
            )
            if hit:
                key = ("scrub.skip", 0, cycle, 0)
                if not (self.transient and key in self._fired):
                    self._fired.add(key)
                    self.log.append(
                        FaultEvent(
                            "scrub.skip", self.epoch, self.batch,
                            f"cycle {cycle}",
                        )
                    )
                    return True
        elif site == "heartbeat.drop":
            if self._fires(
                "heartbeat.drop", extra=int(info.get("extra", 0)),
                detail=f"shard {info.get('shard')}",
            ):
                return True
        elif site == "optim.step":
            optimizer = info.get("optimizer")
            if optimizer is not None and self._fires("nan_grad"):
                self._poison_gradients(optimizer)
        elif site == "checkpoint.kill":
            if self._fires("checkpoint.kill", detail=str(info.get("path", ""))):
                self._kill_checkpoint_write(info.get("path"))
        elif site == "trainer.batch":
            if self.process_kill_at == (self.epoch, self.batch):
                key = ("process.kill", self.epoch, self.batch, 0)
                if not (self.transient and key in self._fired):
                    self._fired.add(key)
                    self.log.append(FaultEvent("process.kill", self.epoch, self.batch))
                    raise SimulatedProcessKill(
                        f"simulated process kill at (epoch {self.epoch}, batch {self.batch})",
                        epoch=self.epoch,
                        batch=self.batch,
                    )
        return None

    # ---- fault effects ----------------------------------------------------------

    def _flip_position(self, decision: str, size: int) -> Tuple[int, int]:
        """Deterministic (byte index, bit index) for a one-bit flip."""
        u = _hash_decision(self.seed, decision + "#byte", self.epoch, self.batch, 1)
        v = _hash_decision(self.seed, decision + "#bit", self.epoch, self.batch, 2)
        return min(int(u * size), size - 1), min(int(v * 8), 7)

    def _disk_write_directive(self, size: int, path: str):
        """Decide how (whether) to corrupt one WAL record append.

        Returns ``None`` (write cleanly), ``("torn", nbytes)`` (write only
        a prefix then crash), ``("flip", byte, bit)`` (silent one-bit
        corruption), or ``("dup",)`` (write the record twice).
        """
        if size <= 0:
            return None
        if self._fires("disk.write.torn", detail=path):
            u = _hash_decision(
                self.seed, "disk.write.torn#offset", self.epoch, self.batch, 1
            )
            # Always lose at least the final byte, or the write isn't torn.
            return ("torn", min(int(u * size), size - 1))
        if self._fires("disk.write.flip", detail=path):
            return ("flip",) + self._flip_position("disk.write.flip", size)
        if self._fires("disk.write.dup", detail=path):
            return ("dup",)
        return None

    @staticmethod
    def _corrupt_cache(cache) -> None:
        """Overwrite one resident cache row with NaN (silent corruption)."""
        values = getattr(cache, "_values", None)
        nslots = getattr(cache, "_nslots", 0)
        if values is not None and nslots > 0:
            values[0, :] = np.nan

    @staticmethod
    def _poison_gradients(optimizer) -> None:
        """Turn the first live gradient into NaN, as a bad kernel would."""
        for p in optimizer.params:
            if p.grad is not None:
                grad = np.asarray(p.grad, dtype=np.float64).copy()
                grad[...] = np.nan
                p.grad = grad.astype(p.data.dtype, copy=False)
                return

    @staticmethod
    def _kill_checkpoint_write(tmp_path) -> None:
        """Truncate the half-written tmp file and abort before the rename."""
        if tmp_path and os.path.exists(tmp_path):
            size = os.path.getsize(tmp_path)
            with open(tmp_path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
        raise CheckpointWriteAborted(
            f"checkpoint write killed mid-flight (tmp file {tmp_path!r} truncated)"
        )

    def __repr__(self) -> str:
        active = {k: v for k, v in self.rates.items() if v} or {
            k: sorted(v) for k, v in self.schedules.items() if v
        }
        return f"FaultInjector(seed={self.seed}, {active})"
