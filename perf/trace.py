"""Span recorder for the traced benchmark run: layer boundaries seen from outside.

The program under test is not edited.  :data:`WRAPS` lists every public
callable the benchmark brackets with a span, at the attribute its callers
resolve (a class method, or the *importing* module's name for a kernel
function bound with ``from x import f``).  :class:`Tracer` swaps each for a
timing wrapper for the duration of one round and restores it afterwards.

A span is ``(layer, start, end, parent, unit)``: ``parent`` is the index of
the span that was open when it started (``-1`` for a root) and ``unit`` the
batch / request id the driver loop announced, so the spans of one request
share an identifier.  A layer's *self time* is its spans' duration minus
the part their child spans cover; summed over all layers it equals the root
span's duration, which :func:`check_sum_invariant` compares with the
driver's independently measured window total.

Counts are taken at the same boundaries, from call arguments and return
values (``Wrap.count``), so ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional

__all__ = [
    "TraceTargetMissing",
    "Wrap",
    "WRAPS",
    "LAYERS",
    "ROOT_LAYER",
    "Tracer",
    "self_times",
    "check_sum_invariant",
]

#: the benchmark's own span around one round's timed region.
ROOT_LAYER = "perf.driver"
#: Σ self time may differ from the driver's window total by this share.
SUM_TOLERANCE = 0.05


class TraceTargetMissing(RuntimeError):
    """A callable in :data:`WRAPS` no longer exists where callers look it up."""


Counter = Callable[[Dict[str, float], tuple, dict, object], None]


class Wrap(NamedTuple):
    """One wrapped callable: where it lives, its layer, what it counts."""

    module: str
    attr: str  # 'function' or 'Class.method'
    layer: str
    #: reads (args, kwargs, return value) after the call.
    count: Optional[Counter] = None
    #: reads (args, kwargs) before the call mutates them.
    pre: Optional[Callable[[Dict[str, float], tuple, dict], None]] = None


# ---- count extractors (c = the round's counter dict) ---------------------------------
# Positional layout follows the public signatures; a signature change trips
# an IndexError/AttributeError here instead of silently counting nothing.


def _rows_of_arg1(name: str) -> Counter:
    def count(c, args, kwargs, ret):
        c[name] += len(args[1])
    return count


def _count_block_gather(c, args, kwargs, ret):
    c["core.block.gather.rows"] += ret.shape[0]


def _count_sample(c, args, kwargs, ret):
    c["core.sampler.sample.nbrs_out"] += ret.num_edges


def _count_sample_rows_in(c, args, kwargs):
    c["core.sampler.sample.rows_in"] += args[1].num_dst


def _count_sample_arrays(c, args, kwargs, ret):
    c["core.sampler.sample_arrays.rows_in"] += len(args[2])
    c["core.sampler.sample_arrays.nbrs_out"] += len(ret.srcnodes)


def _count_dedup_in(c, args, kwargs):
    c["core.op.dedup.rows_in"] += args[0].num_dst


def _count_dedup(c, args, kwargs, ret):
    c["core.op.dedup.rows_out"] += ret.num_dst


def _count_cache_lookup(c, args, kwargs, ret):
    c["core.kernels.cache.lookups"] += len(args[1])
    c["core.kernels.cache.hits"] += int(ret[0].sum())


def _count_offer(c, args, kwargs, ret):
    c["serve.admission.offered"] += 1
    c["serve.admission.shed"] += 0 if ret else 1


def _count_decide(c, args, kwargs, ret):
    c[f"serve.deadline.decide.rung_{ret.level}"] += 1


def _count_commit(c, args, kwargs, ret):
    if ret.applied:
        c["serve.commit.commit.events_applied"] += ret.events
    else:
        c["serve.commit.commit.rollbacks"] += 1


def _count_wal_append(c, args, kwargs, ret):
    c["durable.wal.append.bytes"] += len(args[1])


def _count_record_rows(c, args, kwargs, ret):
    c["integrity.digest.record_rows.chunks"] += len(ret)


def _count_scrub(c, args, kwargs, ret):
    c["integrity.scrubber.maybe_scrub.cycles"] += 1 if ret else 0


_GATHERS = ("dstfeat", "srcfeat", "efeat", "nfeat", "mem_data", "mail")

#: the one declarative table: (module, attribute, layer, count extractor).
WRAPS: List[Wrap] = [
    # --- offline training / inference ---
    Wrap("repro.bench.trainer", "train_epoch", "bench.trainer.train_epoch"),
    Wrap("repro.bench.trainer", "evaluate", "bench.trainer.evaluate"),
    Wrap("repro.models.base", "TGNNModel.forward", "models.forward"),
    Wrap("repro.core.op", "aggregate", "core.op.aggregate"),
    Wrap("repro.tensor.tensor", "Tensor.backward", "tensor.backward"),
    Wrap("repro.nn.optim", "Adam.step", "nn.optim.step"),
    Wrap("repro.core.batch", "TBatch.block", "core.batch.block"),
    Wrap("repro.core.batch", "TBatch.block_adj", "core.batch.block"),
    Wrap("repro.core.block", "TBlock.next_block", "core.batch.block"),
    *[Wrap("repro.core.block", f"TBlock.{name}", "core.block.gather", _count_block_gather)
      for name in _GATHERS],
    Wrap("repro.core.sampler", "TSampler.sample", "core.sampler.sample", _count_sample,
         _count_sample_rows_in),
    Wrap("repro.core.sampler", "TSampler.sample_arrays", "core.sampler.sample_arrays",
         _count_sample_arrays),
    Wrap("repro.core.sampler", "temporal_sample", "core.kernels.sample"),
    Wrap("repro.core.op", "dedup", "core.op.dedup", _count_dedup, _count_dedup_in),
    Wrap("repro.core.op.dedup", "unique_node_times", "core.kernels.dedup"),
    Wrap("repro.store.tiered", "unique_node_times", "core.kernels.dedup"),
    Wrap("repro.core.memory", "last_event_wins", "core.kernels.dedup"),
    Wrap("repro.core.mailbox", "last_event_wins", "core.kernels.dedup"),
    Wrap("repro.core.mailbox", "canonical_event_order", "core.kernels.dedup"),
    Wrap("repro.store.ops", "memoize", "store.ops.memoize"),
    Wrap("repro.core.kernels.cache", "NodeTimeCache.lookup", "core.kernels.cache",
         _count_cache_lookup),
    Wrap("repro.core.kernels.cache", "NodeTimeCache.store", "core.kernels.cache"),
    Wrap("repro.store.ops", "preload", "store.ops.preload"),
    Wrap("repro.core.op", "precomputed_zeros", "core.op.precompute"),
    Wrap("repro.core.op", "precomputed_times", "core.op.precompute"),
    Wrap("repro.core.memory", "Memory.get", "core.memory.get", _rows_of_arg1("core.memory.get.rows")),
    Wrap("repro.core.memory", "Memory.update", "core.memory.update",
         _rows_of_arg1("core.memory.update.rows")),
    Wrap("repro.core.mailbox", "Mailbox.get", "core.mailbox.get",
         _rows_of_arg1("core.mailbox.get.rows")),
    Wrap("repro.core.mailbox", "Mailbox.store", "core.mailbox.store",
         _rows_of_arg1("core.mailbox.store.rows")),
    # --- single-node serving ---
    Wrap("repro.serve.runtime", "ServeRuntime.submit", "serve.runtime.submit"),
    Wrap("repro.serve.runtime", "ServeRuntime.step", "serve.runtime.step"),
    Wrap("repro.serve.runtime", "ServeRuntime.drain", "serve.runtime.drain"),
    Wrap("repro.serve.admission", "AdmissionController.offer", "serve.admission.offer",
         _count_offer),
    Wrap("repro.serve.deadline", "DegradationLadder.decide", "serve.deadline.decide",
         _count_decide),
    Wrap("repro.serve.ingest", "IngestPipeline.push", "serve.ingest.push"),
    Wrap("repro.serve.ingest", "IngestPipeline.flush", "serve.ingest.push"),
    Wrap("repro.serve.commit", "StateCommitter.commit", "serve.commit.commit", _count_commit),
    # --- durability ---
    Wrap("repro.durable.store", "DurableStateStore.log_batch", "durable.store.log_batch"),
    Wrap("repro.durable.wal", "WriteAheadLog.append", "durable.wal.append", _count_wal_append),
    Wrap("repro.durable.wal", "WriteAheadLog.sync", "durable.wal.sync"),
    Wrap("repro.durable.store", "write_snapshot", "durable.snapshot.write"),
    # --- sharded, replicated serving ---
    Wrap("repro.cluster.coordinator", "ServeCluster.submit", "cluster.coordinator.submit"),
    Wrap("repro.cluster.coordinator", "ServeCluster.step", "cluster.coordinator.step"),
    Wrap("repro.cluster.coordinator", "ServeCluster.drain", "cluster.coordinator.drain"),
    Wrap("repro.cluster.partition", "ShardRouter.split_batch", "cluster.partition.split_batch"),
    Wrap("repro.cluster.rpc", "SimRpc.call", "cluster.rpc.call"),
    Wrap("repro.cluster.rpc", "SimRpc.ship", "cluster.rpc.call"),
    Wrap("repro.cluster.replica", "ShardReplica.gather", "cluster.replica.gather",
         _rows_of_arg1("cluster.replica.gather.rows")),
    Wrap("repro.cluster.replication", "ReplicaGroup.ship", "cluster.replication.ship"),
    Wrap("repro.cluster.replica", "ShardReplica.apply", "cluster.replica.apply"),
    Wrap("repro.integrity.digest", "ChunkedDigest.record_rows", "integrity.digest.record_rows",
         _count_record_rows),
    Wrap("repro.integrity.scrubber", "Scrubber.maybe_scrub", "integrity.scrubber.maybe_scrub",
         _count_scrub),
    Wrap("repro.cluster.supervisor", "Supervisor.tick", "cluster.supervisor.tick"),
]

#: every layer with a ``.self_s`` / ``.calls`` pair, in table order.
LAYERS: List[str] = list(dict.fromkeys(w.layer for w in WRAPS))


def _resolve(wrap: Wrap):
    """``(owner, name, original)`` for *wrap*, or raise naming the target."""
    target = f"{wrap.module}:{wrap.attr}"
    try:
        # import_module returns the sys.modules entry, so a package attribute
        # shadowed by a same-named function (repro.core.op.dedup) still
        # resolves to the submodule.
        owner = importlib.import_module(wrap.module)
    except ImportError as err:
        raise TraceTargetMissing(f"{target}: module does not import ({err})") from err
    *path, name = wrap.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            raise TraceTargetMissing(f"{target}: no {part!r} in {wrap.module}")
    original = vars(owner).get(name)
    if not callable(original):
        raise TraceTargetMissing(f"{target}: wrapped callable no longer exists")
    return owner, name, original


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: batch / request id the driver loop is currently serving.
        self.unit = -1
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # ---- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        """Swap every :data:`WRAPS` target for its timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        resolved = [(w, *_resolve(w)) for w in WRAPS]  # all-or-nothing
        for wrap, owner, name, original in resolved:
            setattr(owner, name, self._wrapper(original, wrap))
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.unit = -1
        self._stack = []

    # ---- recording -----------------------------------------------------------------

    def _wrapper(self, fn: Callable, wrap: Wrap) -> Callable:
        layer, count, pre = wrap.layer, wrap.count, wrap.pre
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append(None)  # reserve the slot: spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(index)
            if pre is not None:
                pre(self.counts, args, kwargs)
            start = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.unit)
            if count is not None:
                count(self.counts, args, kwargs, ret)
            return ret

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, layer: str):
        """A span recorded by the benchmark itself (the round's root)."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self.unit)

    def as_dicts(self) -> List[dict]:
        """Spans in the on-disk form ``{name, start, end, parent, id}``."""
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "id": s[4]}
            for s in self.spans
        ]


def self_times(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``self_s`` (duration minus child spans) and ``calls``."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (layer, start, end, _, _) in enumerate(spans):
        row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += (end - start) - covered[i]
        row["calls"] += 1
    return out


def check_sum_invariant(layers: Dict[str, Dict[str, float]], window_total: float) -> float:
    """Σ self time over all layers vs the driver's own window total.

    The two are measured independently (span clocks vs the driver's window
    clocks), so agreement shows no span was dropped, double counted or left
    open.  Returns the relative gap; raises beyond :data:`SUM_TOLERANCE`.
    """
    total = sum(row["self_s"] for row in layers.values())
    gap = abs(total - window_total) / window_total
    if gap > SUM_TOLERANCE:
        raise AssertionError(
            f"trace invariant: layers sum to {total:.4f}s but the driver measured "
            f"{window_total:.4f}s ({gap:.1%} apart, tolerance {SUM_TOLERANCE:.0%})"
        )
    return gap
