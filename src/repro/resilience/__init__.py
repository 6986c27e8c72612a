"""Fault tolerance for the training runtime.

This package provides the pieces a production deployment needs to survive
the faults the paper's evaluation assumes away:

* :class:`FaultInjector` — deterministic, seedable fault injection
  (transient kernel exceptions, cache corruption, NaN gradients, killed
  checkpoint writes, hard process kills), installed as a context manager
  over hook points in ``core.kernels``, ``nn.optim``, and the checkpoint
  writer.
* :func:`validate_state` — state-invariant
  validation over memory, mailbox, temporal CSR, and kernel cache tables.
* :mod:`~repro.resilience.chaos` — applying the decided member-level
  faults (crash / stall / silent bit flip) to a cluster's replica groups.
* the exception taxonomy in :mod:`repro.resilience.errors` separating
  transient (retry / rollback) from fatal faults.

The recovery loop itself lives in
:class:`repro.bench.resilient.ResilientTrainer`, which combines these
with atomic checkpoints (state + stream cursor; no RNG state, since a
training step's draws are keyed) for bit-exact retry/rollback/resume.
"""

from .chaos import apply_bitflip, inject_member_faults
from .errors import (
    CheckpointWriteAborted,
    DivergenceError,
    SimulatedDiskCrash,
    SimulatedProcessKill,
    StateValidationError,
    TransientKernelError,
)
from .faults import DECISIONS, FaultEvent, FaultInjector
from .hooks import SITES
from .validate import validate_state

__all__ = [
    "CheckpointWriteAborted",
    "DivergenceError",
    "SimulatedDiskCrash",
    "SimulatedProcessKill",
    "StateValidationError",
    "TransientKernelError",
    "DECISIONS",
    "SITES",
    "FaultEvent",
    "FaultInjector",
    "apply_bitflip",
    "inject_member_faults",
    "validate_state",
]
