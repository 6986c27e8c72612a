"""Crash-consistent durable state layer.

Serving previously lost everything between whole-file checkpoints on a
process crash.  This package closes that gap with an incremental,
crash-consistent persistence stack:

* :mod:`~repro.durable.codec` — self-describing binary payloads
  (``(kind, meta, arrays)``) with clean failure on garbage;
* :mod:`~repro.durable.wal` — the append-only write-ahead log:
  length-prefixed CRC32 record framing, segment rotation, group-commit
  fsync policies, torn-tail repair, and the ``disk.write`` /
  ``disk.fsync`` / ``disk.read`` fault-injection sites;
* :mod:`~repro.durable.snapshot` — atomic CRC-verified snapshot files
  anchoring log compaction;
* :mod:`~repro.durable.store` — :class:`DurableStateStore`, the
  WAL-then-apply commit protocol plus snapshot + log-replay recovery.

The tested guarantee (``tests/test_durable.py``): for a crash injected
at **any byte offset** of the log — torn write, truncation, bit flip,
duplicated tail record, lost fsync — recovery yields state bit-identical
to a clean replay of the committed prefix, no committed record is lost
or applied twice, and re-opening the store is idempotent.

Consumer: the serving path logs each released ``EventBatch`` before
applying it (:class:`repro.serve.StateCommitter`); training persists
through whole-file checkpoints (:mod:`repro.bench.checkpoint`) instead.
"""

from .codec import (
    KIND_BATCH,
    KIND_SNAPSHOT,
    CodecError,
    decode_payload,
    encode_payload,
)
from .snapshot import (
    list_snapshots,
    load_latest,
    prune_snapshots,
    read_container,
    write_container,
    write_snapshot,
)
from .store import DurableRecord, DurableStateStore, RecoveredState
from .tail import CursorInvalidated, WALCursor, read_batch_suffix
from .wal import (
    WriteAheadLog,
    fsync_dir,
)

__all__ = [
    "CodecError",
    "KIND_BATCH",
    "KIND_SNAPSHOT",
    "encode_payload",
    "decode_payload",
    "WriteAheadLog",
    "fsync_dir",
    "write_container",
    "read_container",
    "write_snapshot",
    "load_latest",
    "list_snapshots",
    "prune_snapshots",
    "DurableRecord",
    "DurableStateStore",
    "RecoveredState",
    "CursorInvalidated",
    "WALCursor",
    "read_batch_suffix",
]
