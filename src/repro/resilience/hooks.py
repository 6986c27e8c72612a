"""Fault-injection hook registry (dependency-free).

Production hot paths call :func:`poke` at their injection sites; the call
is a no-op unless a :class:`~repro.resilience.faults.FaultInjector` is
installed (normally via ``with injector:``).  Keeping this module free of
any ``repro`` imports lets low-level packages (``repro.core.kernels``,
``repro.nn.optim``) reference it without creating an import cycle with
the resilience subsystem built on top of them.

The sites poked by production code, and where each is poked, are listed
once, in :data:`SITES` (``FaultInjector`` validates its configuration
against it at construction time).

The three ``resilience.chaos`` sites are consulted between requests, from
``ServeCluster._before_request``, and only while an injector is
installed.  ``checkpoint.kill`` is consulted by the shared container
writer only for callers that name it (``save_checkpoint`` does; serving
snapshots pass no site).

A site either returns a value (``None`` when nothing fires; a bool from
the crash/stall/heartbeat/promotion queries; a directive tuple the caller
interprets from the disk, RPC, replication and ``mem.flip`` sites) or
raises one of the :mod:`repro.resilience.errors` exceptions to simulate
the fault.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["SITES", "install", "uninstall", "active", "poke"]

#: Authoritative registry of injection sites compiled into production
#: code, mapping site name -> where it is poked.  ``FaultInjector``
#: rejects configuration naming a site absent from this registry, so a
#: misspelled site fails loudly instead of silently never firing.
SITES: Dict[str, str] = {
    "kernel.sample": "core.kernels.sample.temporal_sample",
    "kernel.cache": "core.kernels.cache.NodeTimeCache.lookup/store",
    "cache.corrupt": "core.kernels.cache.NodeTimeCache.store (end)",
    "optim.step": "nn.optim.Adam.step",
    "checkpoint.kill": (
        "durable.snapshot.write_container (staged file fsynced, before the "
        "rename; named by bench.checkpoint.save_checkpoint)"
    ),
    "trainer.batch": "bench.resilient.ResilientTrainer._run (the train / fine_tune loop)",
    "serve.ingest": "serve.ingest.IngestPipeline.push",
    "serve.commit": "serve.commit.stage_checked (both serving backends)",
    "serve.poison": "serve.commit.stage_checked (staged values)",
    "disk.write": "durable.wal.WriteAheadLog.append",
    "disk.fsync": "durable.wal.WriteAheadLog.sync",
    "disk.read": "durable.wal segment replay",
    "rpc.send": "cluster.rpc.SimRpc.call (request leg)",
    "rpc.recv": "cluster.rpc.SimRpc.call (reply leg)",
    "shard.crash": "resilience.chaos.inject_member_faults",
    "shard.stall": "resilience.chaos.inject_member_faults",
    "heartbeat.drop": "cluster.supervisor.Supervisor.tick",
    "repl.ship": "cluster.replication.ReplicaGroup.ship (follower leg)",
    "repl.ack": "cluster.replication.ReplicaGroup.ship (follower ack leg)",
    "repl.promote": "cluster.supervisor.Supervisor promotion attempt",
    "mem.flip": "resilience.chaos.inject_member_faults (silent state flip)",
    "scrub.skip": "integrity.scrubber.Scrubber.maybe_scrub",
}

_ACTIVE: Optional[Any] = None


def install(injector: Any) -> None:
    """Install *injector* as the process-wide fault source."""
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE is not injector:
        raise RuntimeError("another FaultInjector is already installed")
    _ACTIVE = injector


def uninstall(injector: Any) -> None:
    """Remove *injector* (no-op if it is not the installed one)."""
    global _ACTIVE
    if _ACTIVE is injector:
        _ACTIVE = None


def active() -> Optional[Any]:
    """The currently installed injector, or ``None``."""
    return _ACTIVE


def poke(site: str, **info: Any) -> Any:
    """Consult the installed injector at an injection *site*.

    Returns whatever the injector's handler returns (``None`` when no
    injector is installed); may raise a simulated fault.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.poke(site, **info)
