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

    inj = FaultInjector(seed=3, rates={"kernel.sample": 0.05},
                        schedules={"nan_grad": {(0, 4)}})
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
#: the finer-grained vocabulary; the ``rates=``/``schedules=`` keys are
#: validated against this map at construction time.
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

    Faults are configured per *decision* (the keys of :data:`DECISIONS`),
    either by rate (probability per position, decided by a seed-keyed hash
    of the stream position — no RNG state, so replays are stable) or by an
    explicit schedule of positions; a decision fires where either says so.

    Args:
        seed: keys every rate-based decision.
        rates: ``{decision: probability}``.
        schedules: ``{decision: positions}``.  A position is ``(epoch,
            batch)`` — or ``(epoch, batch, extra)`` at the sites that pass
            a decision ``extra`` to tell apart several targets at one
            stream position (``shard + num_shards * member`` at the
            member-level cluster sites).  ``process.kill`` hard-kills the
            training process there; ``scrub.skip`` is keyed by scrub cycle
            instead of the stream cursor, as ``(0, cycle)``.
        transient: if True (default), each fault fires at most once per
            position so retries/replays succeed; if False, faults fire on
            every encounter (for testing retry exhaustion).
        mem_flip_tier: what a ``mem.flip`` corrupts — ``"memory"``
            (node-memory table), ``"mailbox"``, or ``"wal"`` (a durable
            segment's on-disk bytes).

    An unknown decision name raises ``ValueError``: it maps to no
    injection site and would silently never fire.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
        schedules: Optional[Dict[str, Iterable[Tuple[int, ...]]]] = None,
        transient: bool = True,
        mem_flip_tier: str = "memory",
    ):
        self.seed = int(seed)
        self.rates: Dict[str, float] = {
            name: float(rate) for name, rate in (rates or {}).items()
        }
        self.schedules: Dict[str, Set[Tuple[int, ...]]] = {
            name: {tuple(p) for p in positions}
            for name, positions in (schedules or {}).items()
        }
        for name in list(self.rates) + list(self.schedules):
            self._check_decision(name)
        if mem_flip_tier not in ("memory", "mailbox", "wal"):
            raise ValueError(
                f"mem_flip_tier {mem_flip_tier!r} not one of "
                "'memory', 'mailbox', 'wal'"
            )
        self.mem_flip_tier = mem_flip_tier
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
        scheduled = self.schedules.get(site, ())
        if (epoch, batch) in scheduled or (epoch, batch, extra) in scheduled:
            return True
        rate = self.rates.get(site, 0.0)
        return rate > 0.0 and _hash_decision(self.seed, site, epoch, batch, extra) < rate

    def _fires(self, site: str, extra: int = 0, detail: str = "",
               at: Optional[Tuple[int, int]] = None) -> bool:
        """Decide + record one (possibly transient) fault.

        The decision is keyed by the stream cursor unless the site runs on
        its own cadence and passes *at*; the log entry always carries the
        cursor, so it says which batch was in flight.
        """
        epoch, batch = at or (self.epoch, self.batch)
        if not self.would_fire(site, epoch, batch, extra):
            return False
        key = (site, epoch, batch, extra)
        if self.transient and key in self._fired:
            return False
        self._fired.add(key)
        self.log.append(FaultEvent(site, self.epoch, self.batch, detail))
        return True

    def _member_fires(self, decision: str, info: dict) -> bool:
        """One decision at a cluster site, keyed by the caller's ``extra``
        (which tells apart the shards, members and attempts that consult
        the site at one stream position)."""
        detail = f"shard {info.get('shard')}"
        if "member" in info:
            detail += f" member {info['member']}"
        return self._fires(decision, extra=int(info.get("extra", 0)), detail=detail)

    # ---- site handlers ----------------------------------------------------------

    def poke(self, site: str, **info):
        if site in ("kernel.sample", "kernel.cache", "serve.ingest", "serve.commit"):
            if self._fires(site):
                raise TransientKernelError(
                    f"injected transient {site} fault at "
                    f"(epoch {self.epoch}, batch {self.batch})",
                    site=site,
                )
        elif site in ("rpc.send", "rpc.recv", "repl.ship", "repl.ack"):
            if self._member_fires(site + ".drop", info):
                return ("drop",)
        elif site in ("shard.crash", "shard.stall", "heartbeat.drop"):
            if self._member_fires(site, info):
                return True
        elif site == "repl.promote":
            if self._member_fires("repl.promote.delay", info):
                return True
        elif site == "cache.corrupt":
            cache = info.get("cache")
            if cache is not None and self._fires("cache.corrupt"):
                self._corrupt_cache(cache)
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
        elif site == "mem.flip":
            # The caller mods the byte index by the actual state size.
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
            if self._fires("scrub.skip", detail=f"cycle {cycle}", at=(0, cycle)):
                return True
        elif site == "optim.step":
            optimizer = info.get("optimizer")
            if optimizer is not None and self._fires("nan_grad"):
                self._poison_gradients(optimizer)
        elif site == "checkpoint.kill":
            if self._fires("checkpoint.kill", detail=str(info.get("path", ""))):
                self._kill_checkpoint_write(info.get("path"))
        elif site == "trainer.batch":
            if self._fires("process.kill"):
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
