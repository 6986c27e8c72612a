"""TGLite core: data abstractions and composable operators for CTDG models.

This package is the reproduction of the paper's primary contribution.  The
public surface mirrors the ``tglite`` module of the original release::

    import repro.core as tg

    g = tg.TGraph(src, dst, ts)
    ctx = tg.TContext(g)
    sampler = tg.TSampler(10, 'recent')
    for batch in tg.iter_batches(g, 600):
        head = batch.block(ctx)
        ...
        tail = tg.op.dedup(tail)
        tail = sampler.sample(tail)
        embs = tg.op.aggregate(head, layers, key='h')
"""

from . import kernels, op
from .batch import TBatch, iter_batches
from .block import TBlock
from .context import TContext
from .graph import TGraph, TemporalCSR
from .kernels import SampleResult
from .mailbox import Mailbox
from .memory import Memory
from .sampler import TSampler
from .snapshot import SnapshotLoader, TSnapshot, snapshots

__all__ = [
    "kernels",
    "op",
    "SampleResult",
    "TBatch",
    "iter_batches",
    "TBlock",
    "TContext",
    "TGraph",
    "TemporalCSR",
    "Mailbox",
    "Memory",
    "TSampler",
    "TSnapshot",
    "SnapshotLoader",
    "snapshots",
]
