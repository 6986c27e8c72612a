"""Equivalence tests: vectorized kernels vs their per-row loop references.

The kernel layer (:mod:`repro.core.kernels`) replaces the original per-pair
Python loops; these tests pin the replacement to be *bit-identical* — same
selections, same ordering, same selection keys — across shapes,
empty neighborhoods, repeated keys, and cache eviction wraparound.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core as tg
from repro import tensor as T
from repro.core import op as tgop
from repro.core.kernels import (
    NodeTimeCache,
    SampleResult,
    _reference_sample_arrays,
    _reference_unique_node_times,
    canonical_event_order,
    last_event_wins,
    sample_recent,
    sample_uniform,
    segment_searchsorted,
    temporal_sample,
    unique_ids,
    unique_node_times,
)
from repro.core.kernels.dedup import _sorted_runs, unique_first_last
from repro.store import StoreConfig
from scipy.stats import chisquare

from reference import ReuseCacheOracle


def make_csr(num_nodes=40, num_edges=400, seed=0, empty_frac=0.25):
    """A synthetic temporal CSR with some nodes left edge-less."""
    rng = np.random.default_rng(seed)
    active = rng.random(num_nodes) >= empty_frac
    active_nodes = np.flatnonzero(active)
    if len(active_nodes) == 0:
        active_nodes = np.array([0])
    endpoints = rng.choice(active_nodes, size=num_edges)
    order = np.lexsort((rng.random(num_edges), endpoints))
    endpoints = endpoints[order]
    indptr = np.searchsorted(endpoints, np.arange(num_nodes + 1)).astype(np.int64)
    indices = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    eids = rng.permutation(num_edges).astype(np.int64)
    # Ascending times within each node's segment; duplicates included.
    etimes = np.empty(num_edges, dtype=np.float64)
    for node in range(num_nodes):
        seg = slice(indptr[node], indptr[node + 1])
        etimes[seg] = np.sort(rng.integers(0, 50, size=indptr[node + 1] - indptr[node]))
    return indptr, indices, eids, etimes


def make_queries(num_nodes, n, seed=1):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, num_nodes, size=n).astype(np.int64)
    times = rng.integers(0, 60, size=n).astype(np.float64)
    return nodes, times


def assert_results_equal(a: SampleResult, b: SampleResult):
    np.testing.assert_array_equal(a.srcnodes, b.srcnodes)
    np.testing.assert_array_equal(a.eids, b.eids)
    np.testing.assert_array_equal(a.etimes, b.etimes)
    np.testing.assert_array_equal(a.dstindex, b.dstindex)


class TestSegmentSearchsorted:
    def test_matches_per_segment_searchsorted(self):
        indptr, _, _, etimes = make_csr(seed=3)
        nodes, times = make_queries(40, 100, seed=4)
        lo, hi = indptr[nodes], indptr[nodes + 1]
        got = segment_searchsorted(etimes, lo, hi, times)
        want = np.array([
            lo[i] + np.searchsorted(etimes[lo[i]:hi[i]], times[i], side="left")
            for i in range(len(nodes))
        ])
        np.testing.assert_array_equal(got, want)

    def test_empty_segments(self):
        values = np.array([1.0, 2.0])
        out = segment_searchsorted(values, np.array([1, 0]), np.array([1, 0]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(out, [1, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 30), max_size=70), min_size=1, max_size=8), st.data())
    def test_property_lower_bound_per_segment(self, segments, data):
        # consecutive segments: whatever lies past hi is another segment's data
        values = np.array([t for seg in segments for t in sorted(seg)], dtype=np.float64)
        indptr = np.cumsum([0] + [len(seg) for seg in segments])
        which = np.array(data.draw(st.lists(st.integers(0, len(segments) - 1), min_size=1,
                                            max_size=40)))
        query = st.one_of(st.sampled_from(values.tolist() or [0.0]),  # equal to an edge time
                          st.floats(-1.0, 32.0), st.sampled_from([np.nan, np.inf, -np.inf]))
        queries = np.array(data.draw(st.lists(query, min_size=len(which), max_size=len(which))))
        lo, hi = indptr[which], indptr[which + 1]
        got = segment_searchsorted(values, lo, hi, queries)
        want = [lo[i] if np.isnan(q)  # a NaN query stays at lo (searchsorted puts it at hi)
                else lo[i] + np.searchsorted(values[lo[i]:hi[i]], q, side="left")
                for i, q in enumerate(queries)]
        np.testing.assert_array_equal(got, want)


class TestSamplerEquivalence:
    @pytest.mark.parametrize("k", [1, 3, 7, 20])
    def test_recent_bit_identical(self, k):
        indptr, indices, eids, etimes = make_csr(seed=k)
        nodes, times = make_queries(40, 200, seed=k + 1)
        got = sample_recent(indptr, indices, eids, etimes, nodes, times, k)
        want = _reference_sample_arrays(indptr, indices, eids, etimes, nodes, times, k, "recent")
        assert_results_equal(got, want)

    @pytest.mark.parametrize("k", [1, 3, 7, 20])
    def test_uniform_bit_identical(self, k):
        indptr, indices, eids, etimes = make_csr(seed=10 + k)
        nodes, times = make_queries(40, 200, seed=k)
        got = sample_uniform(indptr, indices, eids, etimes, nodes, times, k,
                             seed=77, pass_index=k)
        want = _reference_sample_arrays(indptr, indices, eids, etimes, nodes, times, k,
                                        "uniform", seed=77, pass_index=k)
        assert_results_equal(got, want)

    def test_uniform_seeded_determinism(self):
        indptr, indices, eids, etimes = make_csr(seed=5)
        nodes, times = make_queries(40, 150, seed=6)
        a = sample_uniform(indptr, indices, eids, etimes, nodes, times, 5, seed=123)
        b = sample_uniform(indptr, indices, eids, etimes, nodes, times, 5, seed=123)
        assert_results_equal(a, b)

    def test_empty_query_set(self):
        indptr, indices, eids, etimes = make_csr(seed=7)
        empty = np.empty(0, dtype=np.int64)
        for strategy in ("recent", "uniform"):
            res = temporal_sample(indptr, indices, eids, etimes, empty,
                                  empty.astype(np.float64), 5, strategy=strategy)
            assert res.num_rows == 0

    def test_all_empty_neighborhoods(self):
        indptr, indices, eids, etimes = make_csr(seed=8)
        nodes, _ = make_queries(40, 50, seed=9)
        times = np.zeros(len(nodes))  # nothing is strictly earlier than t=0
        for strategy in ("recent", "uniform"):
            got = temporal_sample(indptr, indices, eids, etimes, nodes, times, 5,
                                  strategy=strategy, seed=1)
            want = _reference_sample_arrays(indptr, indices, eids, etimes, nodes, times, 5,
                                            strategy, seed=1)
            assert got.num_rows == 0
            assert_results_equal(got, want)

    def test_strict_time_bound(self):
        # Edges at exactly the query time are excluded (N(i, t) of Eq. 2).
        indptr, indices, eids, etimes = make_csr(seed=11)
        nodes, times = make_queries(40, 100, seed=12)
        res = sample_recent(indptr, indices, eids, etimes, nodes, times, 50)
        assert (res.etimes < times[res.dstindex]).all()

    def test_tsampler_front_end_uses_kernel(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch(tiny_graph, 0, 6).block(tiny_ctx)
        res = tg.TSampler(3).sample_arrays(tiny_graph.csr(), blk.dstnodes, blk.dsttimes)
        assert isinstance(res, SampleResult)
        csr = tiny_graph.csr()
        want = _reference_sample_arrays(csr.indptr, csr.indices, csr.eids, csr.etimes,
                                        blk.dstnodes, blk.dsttimes, 3, "recent")
        assert_results_equal(res, want)


def star_history(length):
    """Node 0 with *length* edges at times ``0..length-1`` (eids in order)."""
    indptr = np.array([0] + [length] * (length + 1), dtype=np.int64)
    return (indptr, np.arange(1, length + 1, dtype=np.int64),
            np.arange(length, dtype=np.int64), np.arange(length, dtype=np.float64))


class TestKeyedUniform:
    """``uniform`` keys are a pure hash of (seed, pass, node, time, eid)."""

    @pytest.mark.parametrize("length, k", [(6, 2), (5, 3), (7, 1)])
    def test_subsets_are_uniform(self, length, k):
        # Every k-subset of a fixed history is equally likely: a chi-square
        # over 200 expected draws per subset, drawn once across query times
        # (one seed) and once across seeds (one query time).
        csr = star_history(length)
        subsets = {s: i for i, s in enumerate(itertools.combinations(range(length), k))}
        n = 200 * len(subsets)
        by_time = sample_uniform(*csr, np.zeros(n, dtype=np.int64),
                                 length + np.arange(n, dtype=np.float64), k, seed=3)
        by_seed = np.concatenate([
            sample_uniform(*csr, np.zeros(1, dtype=np.int64), np.array([length + 0.5]),
                           k, seed=seed).eids
            for seed in range(n)])
        for picks in (by_time.eids, by_seed):
            counts = np.bincount([subsets[tuple(row)] for row in picks.reshape(n, k)],
                                 minlength=len(subsets))
            assert chisquare(counts).pvalue > 1e-3

    def test_a_row_does_not_depend_on_its_batch(self):
        indptr, indices, eids, etimes = make_csr(seed=21)
        nodes, times = make_queries(40, 120, seed=22)
        whole = sample_uniform(indptr, indices, eids, etimes, nodes, times, 4, seed=5)
        perm = np.random.default_rng(0).permutation(len(nodes))[:70]
        part = sample_uniform(indptr, indices, eids, etimes, nodes[perm], times[perm], 4,
                              seed=5)
        for j, i in enumerate(perm):
            np.testing.assert_array_equal(part.eids[part.dstindex == j],
                                          whole.eids[whole.dstindex == i])

    def test_seed_and_pass_resample(self):
        indptr, indices, eids, etimes = make_csr(seed=23)
        nodes, times = make_queries(40, 200, seed=24)
        base = sample_uniform(indptr, indices, eids, etimes, nodes, times, 3)
        for kw in ({"seed": 1}, {"pass_index": 1}):
            other = sample_uniform(indptr, indices, eids, etimes, nodes, times, 3, **kw)
            np.testing.assert_array_equal(other.dstindex, base.dstindex)
            assert not np.array_equal(other.eids, base.eids)

    def test_negative_zero_time_keys_like_zero(self):
        indptr, indices, eids, etimes = star_history(9)
        etimes = etimes - 9.0  # history strictly before t = 0
        nodes = np.zeros(2, dtype=np.int64)
        res = sample_uniform(indptr, indices, eids, etimes, nodes, np.array([0.0, -0.0]), 3)
        np.testing.assert_array_equal(res.eids[:3], res.eids[3:])


class TestSampleResult:
    def test_unpacks_as_four_tuple(self):
        res = SampleResult(np.array([1]), np.array([2]), np.array([3.0]), np.array([0]))
        srcnodes, eids, etimes, dstindex = res
        assert srcnodes[0] == 1 and eids[0] == 2
        assert res.num_rows == 1
        assert res.srcnodes is srcnodes and res.dstindex is dstindex


class TestDedupEquivalence:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, 20, size=300).astype(np.int64)
        times = rng.integers(0, 10, size=300).astype(np.float64)
        un, ut, inv = unique_node_times(nodes, times)
        rn, rt, rinv = _reference_unique_node_times(nodes, times)
        np.testing.assert_array_equal(un, rn)
        np.testing.assert_array_equal(ut, rt)
        np.testing.assert_array_equal(inv, rinv)
        np.testing.assert_array_equal(un[inv], nodes)
        np.testing.assert_array_equal(ut[inv], times)

    def test_repeated_keys_collapse(self):
        nodes = np.array([5, 5, 5, 5])
        times = np.array([1.0, 1.0, 1.0, 1.0])
        un, ut, inv = unique_node_times(nodes, times)
        assert len(un) == 1
        np.testing.assert_array_equal(inv, [0, 0, 0, 0])

    def test_empty(self):
        un, ut, inv = unique_node_times(np.empty(0, dtype=np.int64), np.empty(0))
        assert len(un) == len(ut) == len(inv) == 0

    def test_all_unique_is_identity_permutation(self):
        nodes = np.array([3, 1, 2])
        times = np.array([0.0, 0.0, 0.0])
        un, ut, inv = unique_node_times(nodes, times)
        np.testing.assert_array_equal(un, [1, 2, 3])
        np.testing.assert_array_equal(un[inv], nodes)


@st.composite
def bounded_ids(draw, kind=None):
    """``(ids, bound)``: int32 or int64 ids in ``[0, bound)``, bound 1..100k,
    shaped empty, single, all-equal, ending in ``bound - 1`` or anyhow."""
    bound = draw(st.integers(1, 100_000))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    kind = kind or draw(st.sampled_from(["any", "empty", "single", "all_equal", "top"]))
    ident = st.integers(0, bound - 1)
    if kind == "empty":
        ids = []
    elif kind == "single":
        ids = [draw(ident)]
    elif kind == "all_equal":
        ids = [draw(ident)] * draw(st.integers(2, 40))
    elif kind == "top":
        ids = draw(st.lists(ident, max_size=40)) + [bound - 1]
    else:
        ids = draw(st.lists(st.one_of(ident, st.integers(0, min(bound, 30) - 1)), max_size=200))
    return np.array(ids, dtype=dtype), bound


def assert_same_unique(got, ids):
    """*got* is ``np.unique(ids, return_inverse=True)`` bit for bit."""
    for have, want in zip(got, np.unique(ids, return_inverse=True)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()


class TestUniqueIds:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bounded_ids())
    def test_equals_np_unique(self, case):
        ids, bound = case
        assert_same_unique(unique_ids(ids, bound), ids)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("ids,bound", [
        ([], 1), ([], 100_000), ([0], 1), ([99_999], 100_000), ([7] * 9, 8),
        ([3, 0, 99_999, 3, 0], 100_000),
    ])
    def test_edge_shapes(self, ids, bound, dtype):
        ids = np.array(ids, dtype=dtype)
        assert_same_unique(unique_ids(ids, bound), ids)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(bounded_ids(kind="any"), st.sampled_from(["negative", "at_bound", "past_bound"]),
           st.data())
    def test_out_of_range_raises(self, case, bad, data):
        ids, bound = case
        value = {"negative": -data.draw(st.integers(1, bound)), "at_bound": bound,
                 "past_bound": bound + data.draw(st.integers(1, 1000))}[bad]
        at = data.draw(st.integers(0, len(ids)))
        with pytest.raises(IndexError):
            unique_ids(np.insert(ids, at, value), bound)

    def test_rejects_non_integer_ids(self):
        with pytest.raises(TypeError):
            unique_ids(np.array([True, False]), 2)


def lexsort_first_last(nodes, times):
    """``unique_first_last`` spelled as the stable lexsort it replaces."""
    order = np.lexsort((times, nodes))
    sn, st_ = nodes[order], times[order]
    boundary = np.append(True, (sn[1:] != sn[:-1]) | (st_[1:] != st_[:-1]))
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], len(nodes)) - 1
    inverse = np.empty(len(nodes), dtype=np.int64)
    inverse[order] = np.cumsum(boundary) - 1
    return sn[starts], st_[starts], order[starts], order[ends], inverse


@st.composite
def node_time_keys(draw):
    """(nodes, times) sorted, sorted with duplicates, reversed or shuffled,
    over times that include both signed zeros."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 8),
                                    st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 7.25])),
                          min_size=1, max_size=60))
    arrangement = draw(st.sampled_from(["sorted", "sorted_dups", "reversed", "shuffled"]))
    if arrangement == "sorted":  # strictly increasing: the fast path's input
        pairs = sorted(set(pairs))  # (n, -0.0) and (n, 0.0) are one key here
    else:
        pairs = sorted(pairs)
        if arrangement == "reversed":
            pairs = pairs[::-1]
        elif arrangement == "shuffled":
            pairs = draw(st.permutations(pairs))
    nodes = np.array([n for n, _ in pairs], dtype=np.int64)
    times = np.array([t for _, t in pairs], dtype=np.float64)
    return nodes, times


class TestSortedRunsFastPath:
    """Strictly increasing (node, time) keys skip the lexsort, same bits."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(node_time_keys())
    def test_equals_lexsort_path(self, keys):
        nodes, times = keys
        un, ut, first, last, inverse = lexsort_first_last(nodes, times)
        for have, want in zip(unique_first_last(nodes, times), (un, ut, first, last)):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()
        for have, want in zip(unique_node_times(nodes, times), (un, ut, inverse)):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()

    def test_strictly_increasing_skips_the_sort(self):
        nodes = np.array([0, 0, 1, 4, 4], dtype=np.int64)
        times = np.array([0.0, 1.0, 0.0, -1.0, 3.0])
        order, sn, st_, boundary = _sorted_runs(nodes, times)
        assert sn is nodes and st_ is times  # no gather: the input is its own sort
        np.testing.assert_array_equal(order, np.arange(5))
        assert boundary.all()

    def test_dedup_output_passes(self):
        rng = np.random.default_rng(3)
        un, ut, _ = unique_node_times(rng.integers(0, 50, 400), rng.integers(0, 9, 400) * 1.0)
        assert _sorted_runs(un, ut)[1] is un

    @pytest.mark.parametrize("times", [[0.0, -0.0], [-0.0, 0.0], [1.0, 1.0], [np.nan, 2.0]])
    def test_ties_and_nan_take_the_lexsort(self, times):
        nodes, times = np.array([5, 5], dtype=np.int64), np.array(times)
        assert _sorted_runs(nodes, times)[1] is not nodes
        un, ut, first, last, _ = lexsort_first_last(nodes, times)
        got = unique_first_last(nodes, times)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, (un, ut, first, last)))


def oracle_event_order(nodes, times, values):
    """Brute force: sort row indices by (node, time, the row's raw bytes)."""
    return sorted(range(len(nodes)),
                  key=lambda i: (int(nodes[i]), float(times[i]), values[i].tobytes()))


def assert_canonical(nodes, times, values):
    """Both kernels agree with the oracle on *content* (byte-equal rows are
    interchangeable, so indices inside an all-equal tie group may differ)."""
    ref = oracle_event_order(nodes, times, values)
    order = canonical_event_order(nodes, times, values)
    assert sorted(order.tolist()) == list(range(len(nodes)))
    np.testing.assert_array_equal(nodes[order], nodes[ref])
    np.testing.assert_array_equal(times[order], times[ref])
    assert values[order].tobytes() == values[ref].tobytes()
    last = {int(nodes[i]): i for i in ref}  # oracle winner = last per node
    uniq, winners = last_event_wins(nodes, times, values)
    assert uniq.tolist() == sorted(last)
    np.testing.assert_array_equal(nodes[winners], uniq)
    want = [last[k] for k in uniq.tolist()]
    np.testing.assert_array_equal(times[winners], times[want])
    assert values[winners].tobytes() == values[want].tobytes()
    return values[order].tobytes(), values[winners].tobytes()


@st.composite
def tied_event_rows(draw):
    """(nodes, times, values, seed) with forced (node, time) tie groups whose
    rows are byte-identical, one bit apart, -0.0 vs 0.0, or NaN payloads."""
    n = draw(st.integers(1, 48))
    width = draw(st.sampled_from([1, 3, 8, 32]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, draw(st.integers(1, 6)), n).astype(np.int64)
    times = rng.integers(0, draw(st.integers(1, 4)), n).astype(np.float64)
    # few distinct rows => many byte-identical ties
    pool = rng.standard_normal((draw(st.integers(1, 4)), width)).astype(np.float32)
    values = pool[rng.integers(0, len(pool), n)].copy()
    for i in rng.integers(0, n, draw(st.integers(0, 6))):
        kind = rng.integers(0, 4)
        if kind == 0:  # a single flipped bit somewhere in the row
            raw = values[i].view(np.uint8)
            raw[rng.integers(0, len(raw))] ^= np.uint8(1 << rng.integers(0, 8))
        elif kind == 1:
            values[i, rng.integers(0, width)] = -0.0
        elif kind == 2:
            values[i, rng.integers(0, width)] = 0.0
        else:  # NaNs with different payload bytes
            values[i].view(np.uint32)[rng.integers(0, width)] = (
                0x7FC00000 | int(rng.integers(0, 1 << 20)))
    return nodes, times, values, seed


class TestEventOrderTieBreak:
    """Ties on (node, time) are ordered by the row's raw bytes, exactly."""

    @settings(max_examples=120, deadline=None)
    @given(tied_event_rows())
    def test_matches_oracle_and_is_permutation_invariant(self, case):
        nodes, times, values, seed = case
        canonical = assert_canonical(nodes, times, values)
        rng = np.random.default_rng(seed + 1)
        for _ in range(4):
            perm = rng.permutation(len(nodes))
            assert assert_canonical(nodes[perm], times[perm], values[perm]) == canonical

    def test_tgn_shape_every_row_tied_with_identical_copies(self):
        # blk.allnodes(): few unique nodes, every row inside a tie group,
        # all copies byte-identical, width 32 float32.
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, 45, 4000).astype(np.int64)
        per_node = rng.standard_normal((45, 32)).astype(np.float32)
        values, times = per_node[nodes], nodes * 0.5
        assert_canonical(nodes, times, values)
        uniq, winners = last_event_wins(nodes, times, values)
        np.testing.assert_array_equal(values[winners], per_node[uniq])

    def test_signed_zero_and_nan_payloads_are_distinct_rows(self):
        nodes = np.zeros(4, dtype=np.int64)
        times = np.ones(4)
        values = np.zeros((4, 2), dtype=np.float32)
        values[1, 0] = -0.0
        values[2:, 1].view(np.uint32)[:] = [0x7FC00001, 0x7FC00002]
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            perm = np.array(perm)
            assert_canonical(nodes[perm], times[perm], values[perm])
        # memcmp order on little-endian floats: 0.0 < NaN(…01) < NaN(…02) < -0.0
        order = canonical_event_order(nodes, times, values)
        assert order.tolist() == [0, 2, 3, 1]

    def test_no_values_falls_back_to_input_order_within_ties(self):
        nodes = np.array([1, 0, 1, 0]); times = np.array([2.0, 1.0, 2.0, 1.0])
        assert canonical_event_order(nodes, times).tolist() == [1, 3, 0, 2]


class TestCacheEquivalence:
    """``NodeTimeCache`` against ``ReuseCacheOracle`` on small key spaces
    dense with in-batch duplicates (``TestReuseEviction`` below drives the
    eviction order itself)."""

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    def test_fuzz_against_reference(self, capacity):
        rng = np.random.default_rng(capacity)
        fast = NodeTimeCache(capacity)
        ref = ReuseCacheOracle(capacity)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            nodes = rng.integers(0, 15, size=n).astype(np.int64)
            times = rng.integers(0, 4, size=n).astype(np.float64)
            if rng.random() < 0.5:
                values = rng.random((n, 3)).astype(np.float32)
                fast.store(nodes, times, values)
                ref.store(nodes, times, values)
            else:
                fh, frows = fast.lookup(nodes, times)
                rh, rrows = ref.lookup(nodes, times)
                np.testing.assert_array_equal(fh, rh)
                if frows is None:
                    assert not ref.keys  # nothing stored yet
                else:
                    np.testing.assert_array_equal(frows[fh], rrows[rh])
        assert fast.hits == ref.hits
        assert fast.lookups == ref.lookups
        assert fast.num_entries == len(ref.keys)
        assert fast.evictions == ref.evictions

    def test_in_batch_duplicates_take_last_value(self):
        for cache in (NodeTimeCache(4), ReuseCacheOracle(4)):
            cache.store(np.array([1, 1]), np.array([0.0, 0.0]),
                        np.array([[1.0], [2.0]], dtype=np.float32))
            _, rows = cache.lookup(np.array([1]), np.array([0.0]))
            np.testing.assert_allclose(rows[0], [2.0])

    def test_oversized_batch_wraparound(self):
        # A single store larger than capacity rewrites the whole ring and
        # keeps only the batch's last rows.
        for cache in (NodeTimeCache(3), ReuseCacheOracle(3)):
            nodes = np.arange(8, dtype=np.int64)
            times = np.zeros(8)
            values = np.arange(8, dtype=np.float32).reshape(8, 1)
            cache.store(nodes, times, values)
            hit, rows = cache.lookup(nodes, times)
            np.testing.assert_array_equal(hit, [False] * 5 + [True] * 3)
            np.testing.assert_allclose(rows[5:].ravel(), [5.0, 6.0, 7.0])

    def test_negative_zero_time_is_positive_zero(self):
        cache = NodeTimeCache(4)
        cache.store(np.array([1]), np.array([-0.0]), np.ones((1, 2), dtype=np.float32))
        hit, _ = cache.lookup(np.array([1]), np.array([0.0]))
        assert hit.all()


class TestReuseEviction:
    """The reuse-distance eviction against its rule spelled out with a full
    lexsort."""

    @staticmethod
    def assert_same_ring(fast, oracle):
        n = fast.num_entries
        assert n == len(oracle.keys) and fast.evictions == oracle.evictions
        if n:
            np.testing.assert_array_equal(fast._slot_nodes[:n], [k[0] for k in oracle.keys])
            np.testing.assert_array_equal(fast._slot_times[:n], [k[1] for k in oracle.keys])
            np.testing.assert_array_equal(fast._values[:n], np.stack(oracle.rows))
        assert fast.validate() == []

    @pytest.mark.parametrize("capacity", [1, 7, 64, 20_000])
    def test_fuzz_against_oracle(self, capacity):
        rng = np.random.default_rng(capacity)
        fast, oracle = NodeTimeCache(capacity), ReuseCacheOracle(capacity)
        big = capacity > 64
        universe = 3 * capacity
        if big:  # start full: one oversized batch, every slot tied
            nodes = rng.permutation(universe)[:capacity].astype(np.int64)
            values = rng.random((capacity, 3)).astype(np.float32)
            fast.store(nodes, np.zeros(capacity), values)
            oracle.store(nodes, np.zeros(capacity), values)
        for _ in range(40 if big else 200):
            n = int(rng.integers(1, 400 if big else 2 * capacity + 2))
            # mostly recent keys, so refreshes and lookups touch slots and
            # equal touch histories tie their predictions
            pool = [k[0] for k in oracle.keys] or [0]
            nodes = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                             rng.integers(0, universe, n)).astype(np.int64)
            times = rng.integers(0, 2, n).astype(np.float64)
            if rng.random() < 0.2:
                times[times == 0] = -0.0  # the same key as +0.0
            if rng.random() < 0.6:
                values = rng.random((n, 3)).astype(np.float32)
                fast.store(nodes, times, values)
                oracle.store(nodes, times, values)
            else:
                fh, frows = fast.lookup(nodes, times)
                oh, orows = oracle.lookup(nodes, times)
                np.testing.assert_array_equal(fh, oh)
                if frows is not None:
                    np.testing.assert_array_equal(frows[fh], orows[oh])
            self.assert_same_ring(fast, oracle)
        assert (fast.hits, fast.lookups) == (oracle.hits, oracle.lookups)
        if capacity > 1:  # the cut fell inside a run of tied predictions
            assert oracle.boundary_ties > 0

    def test_ties_go_to_the_lower_slot(self):
        cache = NodeTimeCache(4)
        cache.store(np.arange(4), np.zeros(4), np.ones((4, 1), dtype=np.float32))
        cache.lookup(np.array([0, 2]), np.zeros(2))  # slots 0 and 2 now due sooner
        cache.store(np.array([9]), np.zeros(1), np.ones((1, 1), dtype=np.float32))
        # slots 1 and 3 tie on last_access + gap; the lower one goes
        np.testing.assert_array_equal(cache._slot_nodes, [0, 9, 2, 3])


class TestMissStorm:
    """Regression: a miss storm on a 100%-occupied ring let tombstones
    pile up toward the global rebuild bound, degrading every probe into a
    long tombstone walk.  The table must now rebuild as soon as dead
    buckets outnumber live ones, and every displaced entry must be
    surfaced through the eviction counter."""

    @pytest.mark.parametrize("frac", [1, 4], ids=["full_wave", "quarter_wave"])
    def test_tombstones_stay_bounded_at_full_occupancy(self, frac):
        cap = 32
        cache = NodeTimeCache(cap)
        zeros = np.zeros(cap)
        cache.store(np.arange(cap, dtype=np.int64), zeros,
                    np.ones((cap, 2), dtype=np.float32))
        assert cache.num_entries == cap  # 100% occupancy
        # Storm: 40 batches of entirely fresh keys, every store evicts.  A
        # batch below capacity evicts through the hash table; a batch of
        # `cap` keys rebuilds it whole and leaves no tombstone.
        w = cap // frac
        for wave in range(40):
            fresh = np.arange(1000 + w * wave, 1000 + w * (wave + 1), dtype=np.int64)
            cache.store(fresh, zeros[:w], np.ones((w, 2), dtype=np.float32))
            assert cache._tombs <= max(cache._used, 1)
            assert cache.validate() == []
        assert cache.num_entries == cap
        assert cache.evictions == 40 * w
        # The final wave's keys are resident and resolvable.
        hit, _ = cache.lookup(np.arange(1000 + w * 39, 1000 + w * 40, dtype=np.int64),
                              zeros[:w])
        assert hit.all()

    def test_eviction_counter_matches_displacements(self):
        cache = NodeTimeCache(4)
        zeros = np.zeros(4)
        cache.store(np.arange(4, dtype=np.int64), zeros,
                    np.ones((4, 1), dtype=np.float32))
        assert cache.evictions == 0  # filling empty slots displaces nothing
        cache.store(np.arange(4, 8, dtype=np.int64), zeros,
                    np.ones((4, 1), dtype=np.float32))
        assert cache.evictions == 4


class TestCacheDisabled:
    """Regression: a zero-capacity hot tier crashed with ZeroDivisionError."""

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_store_and_lookup_are_noops(self, capacity):
        cache = NodeTimeCache(capacity)
        assert not cache.enabled
        cache.store(np.array([1]), np.array([0.0]), np.ones((1, 2), dtype=np.float32))
        hit, rows = cache.lookup(np.array([1]), np.array([0.0]))
        assert not hit.any()
        assert rows is None

    def test_context_with_zero_cache_limit_end_to_end(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, store=StoreConfig(hot_capacity=0))
        ctx.eval()
        blk = tg.TBlock(ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(ctx, blk)
        blk.run_hooks(T.tensor([[1.0]]))  # historically raised ZeroDivisionError
        blk2 = tg.TBlock(ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(ctx, blk2)
        assert blk2.num_dst == 1  # nothing was cached, so nothing filtered
