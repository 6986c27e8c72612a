"""Slow, obviously-right references the equivalence tests compare ``src/`` against.

They live here, not under ``src/``, so the shipped code has one path:

* :func:`scatter_add_reference` — sequential ``np.add.at``, the contract of
  both the backward scatter kernel (to float tolerance) and the forward
  segment kernels (bit for bit, in float32).
* :func:`per_row_update_memory` / :func:`per_row_compute_embeddings` — TGN's
  memory update the way it ran before node-keyed state went per unique
  node: gather memory, mail and features for every row of ``allnodes()``,
  run the GRU over every (identical) copy, and hand ``Memory.update`` the
  repeats.  ``benchmarks/test_kernels_microbench.py`` times the same helper.
* :func:`composed_attention` — temporal attention as the concat and ~25 tape
  nodes the two attention layers built before ``segment_attention`` fused
  them.
* :func:`sequential_commit` — one event batch committed one endpoint row at
  a time, the state every plan (whole, per shard, replayed) has to reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import Mailbox, Memory, op as tgop
from repro.serve import stage_updates
from repro.tensor import Tensor, cat
from repro.tensor.segment import segment_softmax, segment_sum


def scatter_add_reference(shape, key, values: np.ndarray) -> np.ndarray:
    """``zeros(shape)[key] += values`` one entry after the other."""
    out = np.zeros(shape, dtype=values.dtype)
    np.add.at(out, key, values)
    return out


def _rows(store: Tensor, idx: np.ndarray) -> Tensor:
    return Tensor(store.data[idx], device=store.device)


def per_row_update_memory(model, blk) -> Tensor:
    """``TGN.update_memory`` over every row of ``blk.allnodes()``; returns per-row memory."""
    g = model.g
    nodes = blk.allnodes()
    mail_ts = g.mailbox.time[nodes]
    delta = mail_ts - g.mem.time[nodes]
    tfeat = model.mem_time_encoder(Tensor(delta.astype(np.float32)))
    mem = model.gru_cell(cat([_rows(g.mailbox.mail, nodes), tfeat], dim=1),
                         _rows(g.mem.data, nodes))
    g.mem.update(nodes, mem.detach(), mail_ts)
    return mem


def per_row_compute_embeddings(model, batch) -> Tensor:
    """``TGN.compute_embeddings`` (no optimisation operators) on the per-row update."""
    head = batch.block(model.ctx)
    tail = head
    for i in range(model.num_layers):
        if i > 0:
            tail = tail.next_block()
        tail = model.sampler.sample(tail)
    h_all = per_row_update_memory(model, tail)
    if model.feat_linear is not None:
        h_all = model.feat_linear(_rows(model.g.nfeat, tail.allnodes())) + h_all
    tail.dstdata["h"] = h_all[: tail.num_dst]
    tail.srcdata["h"] = h_all[tail.num_dst:]
    embeds = tgop.aggregate(head, list(model.attn_layers), key="h")
    model.save_raw_msgs(batch)
    return embeds


def composed_attention(q, parts, w_k, w_v, dstindex, num_dst, num_heads) -> Tensor:
    """``segment_attention`` as the tape of small ops both attention layers used to build.

    *parts* holds dense ``(num_src, width)`` tensors (a keyed part is
    expanded by the caller: ``rows[index]``); *w_k* / *w_v* are ``Linear``
    modules.  ``cat -> Linear x2 -> gather-multiply-sum -> segment_softmax
    -> segment_sum``: the oracle for the fused op's outputs and gradients,
    and the composed side of the kernel microbenchmark.
    """
    num_src, d_head = len(dstindex), q.shape[1] // num_heads
    zk = cat(list(parts), dim=1)
    k = w_k(zk).reshape(num_src, num_heads, d_head)
    v = w_v(zk).reshape(num_src, num_heads, d_head)
    q_rows = q.reshape(num_dst, num_heads, d_head)[dstindex]
    scores = (q_rows * k).sum(dim=2) * (1.0 / math.sqrt(d_head))
    attn = segment_softmax(scores, dstindex, num_dst)
    weighted = (v * attn.unsqueeze(2)).reshape(num_src, q.shape[1])
    return segment_sum(weighted, dstindex, num_dst)


def sequential_commit(batch, num_nodes: int, dim: int, slots: int):
    """``(Memory, Mailbox)`` after *batch*, written one staged row after the
    other in (node, time, row bytes) order; out-of-range endpoints write nothing."""
    mem, box = Memory(num_nodes, dim), Mailbox(num_nodes, dim, slots=slots)
    nodes, values, times = stage_updates(batch, dim)
    for node, time, _, i in sorted(
        (int(n), float(t), values[i].tobytes(), i)
        for i, (n, t) in enumerate(zip(nodes, times)) if 0 <= n < num_nodes
    ):
        mem.update(np.array([node]), values[i:i + 1], np.array([time]))
        box.store(np.array([node]), values[i:i + 1], np.array([time]))
    return mem, box
