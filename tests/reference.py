"""Slow, obviously-right references the equivalence tests compare ``src/`` against.

They live here, not under ``src/``, so the shipped code has one path:

* :func:`scatter_add_reference` — sequential ``np.add.at``, the contract of
  both the backward scatter kernel and the forward segment kernels (bit
  for bit).
* :func:`per_row_update_memory` / :func:`per_row_compute_embeddings` — the
  memory models (TGN, JODIE, APAN) the way they ran before node-keyed state
  went per unique node: index memory, mail and features by row lists for
  every row of the block, run the cell over every (identical) copy, hand
  ``Memory.update`` the repeats, and build raw messages from separate own /
  peer memory gathers.  ``benchmarks/test_kernels_microbench.py`` times the
  same helper.
* :func:`composed_attention` — temporal attention as the concat and ~25 tape
  nodes the two attention layers built before ``segment_attention`` fused
  them.
* :func:`sequential_commit` — one event batch committed one endpoint row at
  a time, the state every plan (whole, per shard, replayed) has to reproduce.
* :func:`per_shard_gather` / :func:`per_shard_load` — a cluster request's
  scatter-gather wave and load record the way they ran before each was
  done once per request: a boolean mask per shard, and one ``bincount``
  per shard.
* :class:`ReuseCacheOracle` — ``NodeTimeCache``'s reuse-distance ring, one
  key at a time over a dict, choosing victims with a full ``np.lexsort`` of
  every resident slot.  ``benchmarks/test_kernels_microbench.py`` times its
  store and its lookups.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster import RpcTimeout
from repro.core import Mailbox, Memory, TBlock, op as tgop
from repro.models import APAN, JODIE, TGN
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
    """``update_memory`` over every row of ``blk.allnodes()``; returns per-row memory."""
    g = model.g
    nodes = blk.allnodes()
    mail, mail_ts, mem_ts = _rows(g.mailbox.mail, nodes), g.mailbox.time[nodes], g.mem.time[nodes]
    if isinstance(model, APAN):  # slot mean, delivered at the newest slot's time
        mail, mail_ts = mail.mean(dim=1), mail_ts.max(axis=1)
    tfeat = model.time_encoder(Tensor((mail_ts - mem_ts).astype(np.float32), device=model.ctx.device))
    mem = model.mem_cell(cat([mail, tfeat], dim=1), _rows(g.mem.data, nodes))
    # TGN persists every row; JODIE and APAN only mail newer than the memory.
    keep = np.arange(len(nodes)) if isinstance(model, TGN) else np.flatnonzero(mail_ts > mem_ts)
    if len(keep):
        g.mem.update(nodes[keep], mem.detach()[keep], mail_ts[keep])
    return mem


def _per_row_seed(model, blk) -> Tensor:
    """Updated memory plus projected node features, one row per ``blk.allnodes()`` row."""
    return per_row_update_memory(model, blk) + model.feat_linear(_rows(model.g.nfeat, blk.allnodes()))


def _per_row_raw_msgs(model, adj) -> Tensor:
    """``[own memory,] peer memory, edge features`` per row of an adjacency block."""
    g = model.g
    parts = [] if isinstance(model, JODIE) else [_rows(g.mem.data, adj.dstnodes)]
    return cat(parts + [_rows(g.mem.data, adj.srcnodes), _rows(g.efeat, adj.eids)], dim=1)


def _per_row_save_raw_msgs(model, batch) -> None:
    blk = tgop.coalesce(batch.block_adj(model.ctx), by="latest")
    model.g.mailbox.store(blk.dstnodes, _per_row_raw_msgs(model, blk), blk.etimes)


def _per_row_tgn(model, batch) -> Tensor:
    head = batch.block(model.ctx)
    tail = head
    for i in range(model.num_layers):
        if i > 0:
            tail = tail.next_block()
        tail = model.sampler.sample(tail)
    h_all = _per_row_seed(model, tail)
    tail.dstdata["h"] = h_all[: tail.num_dst]
    tail.srcdata["h"] = h_all[tail.num_dst:]
    embeds = tgop.aggregate(head, list(model.attn_layers), key="h")
    _per_row_save_raw_msgs(model, batch)
    return embeds


def _per_row_jodie(model, batch) -> Tensor:
    blk = batch.block(model.ctx)
    mem = _per_row_seed(model, blk)
    delta = blk.dsttimes - model.g.mem.time[blk.dstnodes]  # from the updated memory time
    tfeat = model.time_encoder(Tensor(delta.astype(np.float32), device=model.ctx.device))
    embeds = model.embed_linear(cat([mem, tfeat], dim=1))
    _per_row_save_raw_msgs(model, batch)
    return embeds


def _per_row_apan(model, batch) -> Tensor:
    g = model.g
    blk = batch.block(model.ctx)
    mem = _per_row_seed(model, blk)
    mail = _rows(g.mailbox.mail, blk.dstnodes)
    deltas = blk.dsttimes[:, None] - g.mailbox.time[blk.dstnodes]
    n, slots = deltas.shape
    heads, d_head = model.num_heads, model.dim_embed // model.num_heads
    tfeat = model.time_encoder(Tensor(deltas.reshape(-1).astype(np.float32), device=model.ctx.device))
    kv_in = cat([mail, tfeat.reshape(n, slots, tfeat.shape[1])], dim=2)
    q = model.w_q(mem).reshape(n, 1, heads, d_head)
    k = model.w_k(kv_in).reshape(n, slots, heads, d_head)
    v = model.w_v(kv_in).reshape(n, slots, heads, d_head)
    attn = ((q * k).sum(dim=3) * (1.0 / np.sqrt(d_head))).softmax(dim=1)
    out = (v * attn.unsqueeze(3)).sum(dim=1).reshape(n, heads * d_head)
    embeds = model.w_out(cat([mem, out], dim=1)).relu()

    # Each endpoint's mail goes to its sampled neighbours and to itself,
    # scatter-meaned per receiving node; delivery times reduced in float64.
    adj = batch.block_adj(model.ctx)
    push = model.sampler.sample(TBlock(model.ctx, 0, adj.dstnodes, adj.dsttimes))
    push.set_nbrs(np.concatenate([push.srcnodes, adj.dstnodes]),
                  np.concatenate([push.eids, adj.eids]),
                  np.concatenate([push.etimes, adj.dsttimes]),
                  np.concatenate([push.dstindex, adj.dstindex]))
    mails = tgop.src_scatter(push, _per_row_raw_msgs(model, adj)[push.dstindex], op="mean")
    uniq, inverse = push.uniq_src()
    times = np.bincount(inverse, weights=push.dsttimes[push.dstindex]) / np.bincount(inverse)
    g.mailbox.store(uniq, mails, times)
    return embeds


def per_row_compute_embeddings(model, batch) -> Tensor:
    """``compute_embeddings`` of a memory model (no optimisation operators), per row."""
    per_row = {TGN: _per_row_tgn, JODIE: _per_row_jodie, APAN: _per_row_apan}
    return per_row[type(model)](model, batch)


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


def per_shard_gather(cluster, nodes, extra: int):
    """``ServeCluster._gather`` with a boolean mask per touched shard:
    ``(rows, ok)``, the same calls in the same order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    rows = np.zeros((len(nodes), cluster.dim), dtype=np.float32)
    ok = np.ones(len(nodes), dtype=bool)
    if not len(nodes):
        return rows, ok
    shards = cluster.router.shard_of(nodes)
    now, c, slowest = cluster.clock.now(), cluster.ctx.counters, 0.0
    strict = cluster.config.staleness_bound == "strict"
    for k, shard in enumerate(np.unique(shards)):
        shard = int(shard)
        group = cluster.groups[shard]
        ridx = group.read_member()
        if strict and ridx is not None and ridx != group.primary_idx:
            if cluster.supervisor.ensure_primary(shard):
                c["cluster:strict_fallbacks"] += 1
            ridx = group.read_member()
        candidates = [] if ridx is None else [ridx] + [
            i for i in range(group.factor) if i != ridx and group.serving(i)]
        idx = shards == shard
        for ridx2 in candidates:
            member = group.members[ridx2]
            try:
                elapsed = cluster.rpc.call(
                    shard, alive=member.alive, stall=member.current_stall(now),
                    extra=extra + 17 * shard + k + 7919 * ridx2)
            except RpcTimeout:
                continue
            cluster.scrubber.guard_read(shard, group, ridx2, nodes[idx])
            rows[idx] = member.gather(nodes[idx])
            slowest = max(slowest, elapsed)
            if ridx2 != group.primary_idx:
                c["cluster:follower_reads"] += 1
                c["cluster:staleness_lag"] += max(0, group.committed_seq - member.last_seq)
            break
        else:
            ok[idx] = False
            c["cluster:zero_rows"] += int(np.count_nonzero(idx))
    cluster.clock.advance(max(0.0, slowest - cluster.rpc.service))
    return rows, ok


def per_shard_load(parts, num_shards: int, num_nodes: int):
    """``(window load, node touches)`` one request's plan adds, recorded one
    shard after the other: each shard's rows, and a ``bincount`` of its nodes."""
    load, touches = np.zeros(num_shards), np.zeros(num_nodes)
    for shard, part in parts.items():
        load[shard] += len(part.nodes)
        if len(part.nodes):
            touches += np.bincount(part.nodes, minlength=num_nodes)
    return load, touches


class ReuseCacheOracle:
    """The reuse-distance eviction rule of ``NodeTimeCache``, spelled out.

    Each slot keeps its key, row, last-access tick and gap (an EMA of the
    ticks between its references); its predicted next reference is
    ``last + gap``.  A store refreshes resident keys in place, then fills
    never-used slots, then evicts the slots with the largest prediction,
    ties going to the lower slot — the first entries of a full
    ``np.lexsort((slot, -pred))``.  A batch of at least ``capacity`` new
    keys rewrites the whole ring from the cursor, keeping its last keys.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.keys: list = []
        self.rows: list = []
        self.index: dict = {}
        self.last = np.zeros(capacity, dtype=np.int64)
        self.gap = np.full(capacity, float(capacity))
        self.tick = self.cursor = 0
        self.hits = self.lookups = self.evictions = 0
        #: stores whose victim cut fell inside a run of equal predictions
        self.boundary_ties = 0

    def _touch(self, slots) -> None:
        self.tick += 1
        for s in slots:
            self.gap[s] = 0.5 * self.gap[s] + 0.5 * float(self.tick - self.last[s])
            self.last[s] = self.tick

    def lookup(self, nodes, times):
        hit = np.zeros(len(nodes), dtype=bool)
        rows = np.zeros((len(nodes), len(self.rows[0]) if self.rows else 0), dtype=np.float32)
        touched = set()
        for i, key in enumerate(zip(nodes.tolist(), (times + 0.0).tolist())):
            slot = self.index.get(key)
            if slot is not None:
                hit[i], rows[i] = True, self.rows[slot]
                touched.add(slot)
        self.lookups += len(nodes)
        self.hits += int(hit.sum())
        if touched:
            self._touch(touched)
        return hit, rows

    def store(self, nodes, times, values) -> None:
        # key -> input row of its last occurrence; dict order is first occurrence
        last_row: dict = {}
        for i, key in enumerate(zip(nodes.tolist(), (times + 0.0).tolist())):
            last_row[key] = i
        resident = [k for k in last_row if k in self.index]
        for k in resident:
            self.rows[self.index[k]] = values[last_row[k]].astype(np.float32)
        if resident:
            self._touch([self.index[k] for k in resident])
        new = [k for k in last_row if k not in self.index]
        if not new:
            return
        cap, n = self.capacity, len(self.keys)
        if len(new) >= cap:
            self.evictions += n
            self.keys, self.rows = [None] * cap, [None] * cap
            for j in range(len(new) - cap, len(new)):
                slot = (self.cursor + j) % cap
                self.keys[slot] = new[j]
                self.rows[slot] = values[last_row[new[j]]].astype(np.float32)
            self.index = {k: s for s, k in enumerate(self.keys)}
            self.cursor = (self.cursor + len(new)) % cap
            self.tick += 1
            self.last[:], self.gap[:] = self.tick, float(cap)
            return
        fresh = min(len(new), cap - n)
        short = len(new) - fresh
        slots = list(range(n, n + fresh))
        if short:
            pred = self.last[:n] + self.gap[:n]
            ranked = np.lexsort((np.arange(n), -pred))
            if short < n and pred[ranked[short - 1]] == pred[ranked[short]]:
                self.boundary_ties += 1
            slots += ranked[:short].tolist()
            self.evictions += short
        self.keys += [None] * fresh
        self.rows += [None] * fresh
        for slot, key in zip(slots, new):
            if self.keys[slot] is not None:
                del self.index[self.keys[slot]]
            self.keys[slot] = key
            self.rows[slot] = values[last_row[key]].astype(np.float32)
            self.index[key] = slot
        self.cursor = len(self.keys) % cap
        self.tick += 1
        for slot in slots:
            self.last[slot], self.gap[slot] = self.tick, float(cap)
