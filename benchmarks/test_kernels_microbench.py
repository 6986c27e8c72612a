"""Microbenchmark: vectorized kernels vs their per-row loop references.

Times each kernel pair on a synthetic temporal graph (~100k edges) with
10k destination pairs per call and reports the speedup table under
``benchmarks/results/kernel_microbench.txt``.  The acceptance bar is a
>= 5x sampling speedup over the loop reference — the per-pair Python
loops are the analog of the paper's single-threaded sampler baseline,
the vectorized kernels of its 32/64-thread C++ sampler.  The cache row
(``cache_store+lookup``: 10k keys stored into a 20 000-slot ring, then
looked up) is timed against ``tests/reference.py``'s ``ReuseCacheOracle``,
the one-key-at-a-time spelling of the ring's reuse-distance rule.

Two rows are one serving request's share of a kernel: a 100-key ``store``
into a full 20 000-slot ``reuse`` ring (against ``tests/reference.py``'s
``ReuseCacheOracle``, which sorts every resident slot), and a 100-query
``recent`` sample on a Zipf(1.0) 2 000-node graph (against the loop
reference).

The state-update kernels ride along at their own shapes: the duplicate
rule ``last_event_wins`` against a brute-force ``sorted(key=(node, time,
row bytes))`` oracle — at the serving shape (100 rows, no ties; >= 5x)
and with every row tied with byte-identical copies (a replayed batch) —
one chunk digest against the spelled-out row-leaf format (a sha256 per
row under a sha256 per chunk), and one apply's ``record_rows`` — 17 written
rows over 10 of a member's 16 chunks, the ``cluster_s4_f3`` shape — against
re-hashing those chunks whole (asserted not slower).

The autograd / node-keyed rows use ``tests/reference.py`` as the
reference: a slice's backward (assignment vs ``np.add.at``), the gradient
scatter-add kernel vs ``np.add.at``, and TGN's memory update at the
``train_tgn_plain`` tail shape (83 252 rows over 549 nodes), per row vs
per unique node (>= 2x on the slice and memory-update rows), with JODIE's
and APAN's at a batch head's shape (900 rows over ~240 nodes; asserted not
slower); and temporal
attention at the ``train_tgat_opt`` tail shape (22 000 source rows of 172
node + 172 edge + 32 time columns over 2 300 destinations), forward +
backward, as the composed concat-and-tape reference vs the fused
``segment_attention`` with dense and with keyed parts (>= 1.5x each).
"""

import hashlib
import os
import sys
import time

import numpy as np

import repro.core as tg
from repro import tensor as T

from repro.core.kernels import (
    NodeTimeCache,
    _reference_sample_arrays,
    _reference_unique_node_times,
    last_event_wins,
    sample_recent,
    sample_uniform,
    unique_node_times,
)
from repro.integrity import ChunkedDigest
from repro.models import APAN, JODIE, TGN
from repro.nn import Linear
from repro.tensor.segment import _scatter_add, segment_attention

from conftest import report_table

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from reference import (  # noqa: E402
    ReuseCacheOracle,
    composed_attention,
    per_row_update_memory,
    scatter_add_reference,
)

NUM_NODES = 5000
NUM_EDGES = 100_000
NUM_QUERIES = 10_000
K = 10


def build_graph(seed=0):
    rng = np.random.default_rng(seed)
    endpoints = rng.integers(0, NUM_NODES, size=NUM_EDGES)
    order = np.lexsort((rng.random(NUM_EDGES), endpoints))
    endpoints = endpoints[order]
    indptr = np.searchsorted(endpoints, np.arange(NUM_NODES + 1)).astype(np.int64)
    indices = rng.integers(0, NUM_NODES, size=NUM_EDGES).astype(np.int64)
    eids = rng.permutation(NUM_EDGES).astype(np.int64)
    etimes = np.empty(NUM_EDGES, dtype=np.float64)
    for node in range(NUM_NODES):
        seg = slice(indptr[node], indptr[node + 1])
        etimes[seg] = np.sort(rng.random(indptr[node + 1] - indptr[node]) * 1e4)
    nodes = rng.integers(0, NUM_NODES, size=NUM_QUERIES).astype(np.int64)
    times = (rng.random(NUM_QUERIES) * 1.2e4).astype(np.float64)
    return indptr, indices, eids, etimes, nodes, times


def timeit(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


#: one serving request at the perf serving stream's shape: nodes, events,
#: endpoints per request, and the default hot-ring rows.
SERVE_NODES, SERVE_EDGES, SERVE_QUERIES, SERVE_CAPACITY = 2000, 20_000, 100, 20_000


def _zipf_nodes(rng, n):
    weights = 1.0 / np.arange(1, SERVE_NODES + 1)
    return rng.permutation(SERVE_NODES)[rng.choice(SERVE_NODES, n, p=weights / weights.sum())]


def time_serve_sample():
    """``(reference, vectorized)`` seconds of one request's ``recent`` sample:
    SERVE_QUERIES Zipf(1.0) queries over SERVE_EDGES events between
    Zipf(1.0)-popular nodes, each event listed under both endpoints."""
    rng = np.random.default_rng(0)
    src, dst = _zipf_nodes(rng, SERVE_EDGES), _zipf_nodes(rng, SERVE_EDGES)
    ts = np.cumsum(rng.exponential(1.0, SERVE_EDGES))
    owner, nbr = np.concatenate([src, dst]), np.concatenate([dst, src])
    times, eids = np.concatenate([ts, ts]), np.tile(np.arange(SERVE_EDGES), 2)
    order = np.lexsort((times, owner))
    indptr = np.searchsorted(owner[order], np.arange(SERVE_NODES + 1)).astype(np.int64)
    csr = (indptr, nbr[order].astype(np.int64), eids[order].astype(np.int64), times[order])
    queries = (_zipf_nodes(rng, SERVE_QUERIES).astype(np.int64), rng.random(SERVE_QUERIES) * ts[-1])
    for want, got in zip(_reference_sample_arrays(*csr, *queries, K, "recent"),
                         sample_recent(*csr, *queries, K)):
        assert np.array_equal(want, got)
    return (timeit(lambda: _reference_sample_arrays(*csr, *queries, K, "recent"), repeat=7),
            timeit(lambda: sample_recent(*csr, *queries, K), repeat=7))


def time_serve_store():
    """``(reference, vectorized)`` seconds of one request's ``store``: 100 new
    keys (distinct endpoints at one fresh time) into a full SERVE_CAPACITY-slot
    ``reuse`` ring whose predictions cache-rung reads have spread out."""
    rng = np.random.default_rng(5)
    requests = [(rng.permutation(SERVE_NODES)[:100], np.full(100, float(t)),
                 rng.random((100, 32)).astype(np.float32)) for t in range(207)]
    fast = NodeTimeCache(SERVE_CAPACITY)
    oracle = ReuseCacheOracle(SERVE_CAPACITY)
    for request in requests[:200]:  # fill the ring the way serving does
        fast.store(*request)
        oracle.store(*request)
    for _ in range(20):
        keys = np.array(oracle.keys)[rng.integers(0, SERVE_CAPACITY, 500)]
        fast.lookup(keys[:, 0].astype(np.int64), keys[:, 1])
        oracle.lookup(keys[:, 0].astype(np.int64), keys[:, 1])
    ref_requests, vec_requests = iter(requests[200:]), iter(requests[200:])
    ref = timeit(lambda: oracle.store(*next(ref_requests)), repeat=7)
    vec = timeit(lambda: fast.store(*next(vec_requests)), repeat=7)
    assert fast._slot_nodes.tolist() == [key[0] for key in oracle.keys]
    return ref, vec


def oracle_last_event_wins(nodes, times, values):
    """Brute force: sort by (node, time, row bytes); each node's last entry wins."""
    order = sorted(range(len(nodes)),
                   key=lambda i: (int(nodes[i]), float(times[i]), values[i].tobytes()))
    last = {int(nodes[i]): i for i in order}
    return np.fromiter(last, np.int64), np.fromiter(last.values(), np.int64)


def test_kernel_microbench():
    indptr, indices, eids, etimes, nodes, times = build_graph()
    rows = []
    speedups = {}

    def record(name, ref_seconds, vec_seconds, shape=None):
        speedups[name] = ref_seconds / vec_seconds
        digits = 1 if vec_seconds >= 1e-4 else 4
        rows.append([name if shape is None else f"{name} ({shape})",
                     f"{ref_seconds * 1e3:.{digits}f}", f"{vec_seconds * 1e3:.{digits}f}",
                     f"{speedups[name]:.1f}x"])

    # -- sampling ----------------------------------------------------------
    ref = timeit(lambda: _reference_sample_arrays(
        indptr, indices, eids, etimes, nodes, times, K, "recent"))
    vec = timeit(lambda: sample_recent(indptr, indices, eids, etimes, nodes, times, K))
    record("sample_recent", ref, vec)

    ref = timeit(lambda: _reference_sample_arrays(
        indptr, indices, eids, etimes, nodes, times, K, "uniform", seed=7))
    vec = timeit(lambda: sample_uniform(
        indptr, indices, eids, etimes, nodes, times, K, seed=7))
    record("sample_uniform", ref, vec)

    # -- dedup -------------------------------------------------------------
    dn = np.random.default_rng(1).integers(0, 2000, size=NUM_QUERIES).astype(np.int64)
    dt = np.random.default_rng(2).integers(0, 50, size=NUM_QUERIES).astype(np.float64)
    ref = timeit(lambda: _reference_unique_node_times(dn, dt))
    vec = timeit(lambda: unique_node_times(dn, dt))
    record("unique_node_times", ref, vec)

    # -- cache -------------------------------------------------------------
    capacity = 20_000
    values = np.random.default_rng(3).random((NUM_QUERIES, 32)).astype(np.float32)

    def run_cache(cls):
        cache = cls(capacity)
        cache.store(dn, dt, values)
        cache.lookup(dn, dt)
        return cache

    fast = run_cache(NodeTimeCache)
    slow = run_cache(ReuseCacheOracle)
    assert fast.hits == slow.hits  # same contract while we are at it
    ref = timeit(lambda: run_cache(ReuseCacheOracle).lookup(dn, dt))
    vec = timeit(lambda: run_cache(NodeTimeCache).lookup(dn, dt))
    record("cache_store+lookup", ref, vec)

    # -- one serving request (its objects are freed before the rows below:
    # the memory-update rows are sensitive to the heap they run on) ------------
    record("cache_store_serve", *time_serve_store(),
           f"100 new keys, full {SERVE_CAPACITY}-slot reuse ring")
    record("sample_recent_serve", *time_serve_sample(),
           f"{SERVE_QUERIES} queries, Zipf(1.0) {SERVE_NODES} nodes / {SERVE_EDGES} edges")

    # -- state update: duplicate rule ---------------------------------------
    rng = np.random.default_rng(4)

    def run_last_event_wins(name, shape, ln, lt, lv):
        un, win = last_event_wins(ln, lt, lv)
        ref_un, ref_win = oracle_last_event_wins(ln, lt, lv)
        assert np.array_equal(un, ref_un) and lv[win].tobytes() == lv[ref_win].tobytes()
        ref = timeit(lambda: oracle_last_event_wins(ln, lt, lv))
        vec = timeit(lambda: last_event_wins(ln, lt, lv), repeat=7)
        record(name, ref, vec, shape)

    # one serving request: 50 events x 2 endpoints, distinct nodes and times
    run_last_event_wins(
        "last_event_wins", "100x32, no ties", rng.permutation(2000)[:100].astype(np.int64),
        rng.random(100), rng.standard_normal((100, 32)).astype(np.float32))
    # a replayed batch: every row tied, copies byte-identical
    tn = rng.integers(0, 450, 82_000).astype(np.int64)
    run_last_event_wins(
        "last_event_wins_tgn", "82000x32, all tied, 450 nodes", tn, tn * 0.5,
        rng.standard_normal((450, 32)).astype(np.float32)[tn])

    # -- state update: one chunk digest, one apply's leaf refresh ---------------
    table = rng.standard_normal((512, 32)).astype(np.float32)
    stamps = rng.random(512)
    cd = ChunkedDigest(lambda: (table, stamps), 512, 32)
    schema = b"<f4|32|<f8||"

    def spelled_out(chunk=3):
        lo, hi = cd.rows_of(chunk)
        h = hashlib.sha256(f"chunk|{chunk}|{lo}|{hi}|".encode() + schema)
        for row in range(lo, hi):
            h.update(hashlib.sha256(table[row].tobytes() + stamps[row].tobytes()).digest())
        return h.hexdigest()

    assert cd.compute([3]) == [spelled_out()]
    ref = timeit(lambda: [spelled_out() for _ in range(1000)], repeat=5) / 1000
    vec = timeit(lambda: cd.compute([3] * 1000), repeat=5) / 1000
    record("chunk_digest", ref, vec, "32 rows x (32 f32 + f64)")

    # what a replica group hashes once per sub-batch on cluster_s4_f3 (and a
    # ring mailbox per member): 17 written rows that fall in 10 of its 16
    # chunks — their leaves, against re-hashing the chunks whole
    chunks = rng.permutation(16)[:10]
    written = np.sort(np.concatenate([chunks, chunks[:7]]) * 32 + rng.integers(0, 32, 17))
    assert len(written) == 17 and len(cd.chunks_of(written)) == 10

    def whole_chunk_rehash():
        for chunk in cd.chunks_of(written).tolist():
            lo, hi = cd.rows_of(chunk)
            h = hashlib.sha256(f"chunk|{chunk}|{lo}|{hi}|".encode())
            for arr in (table[lo:hi], stamps[lo:hi]):
                h.update(f"{arr.dtype.str}|{','.join(map(str, arr.shape))}|".encode())
                h.update(arr)
            h.hexdigest()

    ref = timeit(lambda: [whole_chunk_rehash() for _ in range(1000)], repeat=5) / 1000
    vec = timeit(lambda: [cd.record_rows(written) for _ in range(1000)], repeat=5) / 1000
    assert cd.diverged() == []
    record("record_rows", ref, vec, "17 rows in 10 of 16 chunks")
    # the digest must not fall back to per-chunk cost on the write path
    assert speedups["record_rows"] >= 1.0

    # -- autograd: slice backward, gradient scatter-add ------------------------
    x = T.Tensor(np.zeros((83_252, 32), dtype=np.float32), requires_grad=True)
    head_rows = x[:10_000]
    seed_grad = rng.standard_normal(head_rows.shape).astype(np.float32)

    def slice_backward():
        x.grad = None
        head_rows.backward(seed_grad)

    slice_backward()
    assert (x.grad == scatter_add_reference(x.shape, slice(0, 10_000), seed_grad)).all()
    ref = timeit(lambda: scatter_add_reference(x.shape, slice(0, 10_000), seed_grad), repeat=7)
    record("slice_backward", ref, timeit(slice_backward, repeat=7), "10000 of 83252 x 32")

    sorted_ids = np.sort(rng.integers(0, 10_252, 73_000))
    node_ids = rng.integers(0, 549, 83_252)
    for name, ids, segments, width in [
        ("scatter_add_sorted_w2", sorted_ids, 10_252, 2),
        ("scatter_add_sorted_w32", sorted_ids, 10_252, 32),
        ("scatter_add_unsorted_w32", node_ids, 549, 32),
    ]:
        grads = rng.standard_normal((len(ids), width)).astype(np.float32)
        want = scatter_add_reference((segments, width), ids, grads)
        assert (_scatter_add((segments, width), ids, grads) == want).all()
        ref = timeit(lambda: scatter_add_reference((segments, width), ids, grads), repeat=7)
        vec = timeit(lambda: _scatter_add((segments, width), ids, grads), repeat=7)
        record(name, ref, vec, f"{len(ids)} -> {segments} x {width}")

    # -- memory update: per row vs per unique node ---------------------------------
    # TGN at its tail shape; JODIE / APAN at a 300-edge batch's head (src, dst,
    # neg), about a quarter of whose rows are distinct nodes.
    head_ids = rng.integers(0, 250, 900)
    for name, cls, ids, slots in [("tgn", TGN, node_ids, 1), ("jodie", JODIE, head_ids, 1),
                                  ("apan", APAN, head_ids, 10)]:
        g = tg.TGraph(np.arange(548), np.arange(1, 549), np.arange(1.0, 549.0), num_nodes=549)
        g.set_efeat(np.zeros((548, 172), dtype=np.float32))
        g.set_memory(32)
        g.set_mailbox(cls.required_mailbox_dim(32, 172), slots=slots)
        g.mailbox.mail.data[...] = rng.standard_normal(g.mailbox.mail.shape)
        g.mailbox.time[...] = rng.random(g.mailbox.time.shape) + 1.0
        model = cls(tg.TContext(g), dim_node=0, dim_edge=172, dim_time=32, dim_embed=32, dim_mem=32)
        blk = tg.TBlock(model.ctx, 0, ids, np.full(len(ids), 9.0))

        def update(fn):
            g.mem.reset()
            blk.clear_cache()
            with T.no_grad():
                return fn(model, blk).numpy()

        per_node = update(cls.update_memory)[blk.uniq_nodes()[1]]
        assert (per_node == update(per_row_update_memory)).all()
        ref = timeit(lambda: update(per_row_update_memory), repeat=3 if name == "tgn" else 7)
        vec = timeit(lambda: update(cls.update_memory), repeat=7)
        record(f"{name}_update_memory", ref, vec,
               f"{len(ids)} rows / {len(blk.uniq_nodes()[0])} nodes, d=32"
               + (f", {slots} slots" if slots > 1 else ""))

    # -- temporal attention: composed tape vs the fused op, forward + backward ----
    num_src, num_dst, heads = 22_000, 2_300, 2
    dstindex = np.sort(rng.integers(0, num_dst, num_src))
    randn = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
    node_rows, node_index = T.Tensor(randn(500, 172)), rng.integers(0, 500, num_src)
    edge_rows, edge_index = T.Tensor(randn(5_000, 172)), rng.integers(0, 5_000, num_src)
    tfeat = T.Tensor(randn(num_src, 32), requires_grad=True)
    q = T.Tensor(randn(num_dst, 32), requires_grad=True)
    w_k, w_v = Linear(376, 32), Linear(376, 32)
    dense = [T.Tensor(node_rows.data[node_index]), T.Tensor(edge_rows.data[edge_index]), tfeat]
    keyed = [(node_rows, node_index), (edge_rows, edge_index), tfeat]

    def attention_step(fn, parts):
        for leaf in (q, tfeat, *w_k.parameters(), *w_v.parameters()):
            leaf.grad = None
        out = fn(parts)
        out.sum().backward()
        return out.numpy(), w_v.weight.grad

    composed = lambda parts: composed_attention(  # noqa: E731
        q, parts, w_k, w_v, dstindex, num_dst, heads)
    fused = lambda parts: segment_attention(  # noqa: E731
        q, parts, w_k.weight, w_k.bias, w_v.weight, w_v.bias, dstindex, num_dst, heads)
    want_out, want_grad = attention_step(composed, dense)
    ref = timeit(lambda: attention_step(composed, dense))
    for name, parts in [("segment_attention_dense", dense), ("segment_attention_keyed", keyed)]:
        out, grad = attention_step(fused, parts)
        np.testing.assert_allclose(out, want_out, atol=1e-4)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-3, atol=1e-3)
        record(name, ref, timeit(lambda: attention_step(fused, parts), repeat=7),
               "22000 x 376 over 2300 dst, fwd+bwd")

    report_table(
        f"Kernel microbenchmark: loop reference vs vectorized "
        f"({NUM_EDGES // 1000}k edges, {NUM_QUERIES // 1000}k queries, k={K})",
        ["kernel", "reference (ms)", "vectorized (ms)", "speedup"],
        rows,
        filename="kernel_microbench.txt",
    )

    # Acceptance bar: >= 5x on the sampling hot path.
    assert speedups["sample_recent"] >= 5.0
    assert speedups["sample_uniform"] >= 5.0
    # ...and on the serving-shape duplicate rule (content is never looked at).
    assert speedups["last_event_wins"] >= 5.0
    # One request must not pay for the table: no full sort of the ring, no
    # per-query bisection (measured ~5x and ~10x here).
    assert speedups["cache_store_serve"] >= 1.5
    assert speedups["sample_recent_serve"] >= 3.0
    # Loose floors (measured ~4x and ~70x here): a slice's backward is an assignment,
    # and node-keyed state is updated per node, not per row.
    assert speedups["slice_backward"] >= 2.0
    assert speedups["tgn_update_memory"] >= 2.0
    # At a head's 900 rows the cell is small either way: per node must not cost more.
    assert speedups["jodie_update_memory"] >= 1.0
    assert speedups["apan_update_memory"] >= 1.0
    # One fused attention node instead of a concat and ~25 tape nodes
    # (measured ~3.4x dense, ~5.4x keyed here).
    assert speedups["segment_attention_dense"] >= 1.5
    assert speedups["segment_attention_keyed"] >= 1.5
