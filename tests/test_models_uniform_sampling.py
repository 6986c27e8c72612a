"""End-to-end coverage of the uniform sampling strategy inside models."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro.data import NegativeSampler, get_dataset
from repro.models import TGAT, OptFlags
from repro.bench import ResilientTrainer, train, train_epoch
from repro.tgl import TGLTGAT


@pytest.fixture(scope="module")
def wiki():
    return get_dataset("wiki")


class TestUniformSampling:
    def test_tgat_trains_with_uniform(self, wiki):
        g = wiki.build_graph()
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                     num_layers=2, num_nbrs=5, sampling="uniform",
                     opt=OptFlags.none())
        opt = nn.Adam(model.parameters(), lr=1e-3)
        neg = NegativeSampler.for_dataset(wiki)
        _, loss = train_epoch(model, g, opt, neg, 300, stop=900)
        assert np.isfinite(loss)

    def test_tgl_tgat_trains_with_uniform(self, wiki):
        g = wiki.build_graph()
        model = TGLTGAT(g, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                        num_layers=2, num_nbrs=5, sampling="uniform")
        opt = nn.Adam(model.parameters(), lr=1e-3)
        neg = NegativeSampler.for_dataset(wiki)
        _, loss = train_epoch(model, g, opt, neg, 300, stop=900)
        assert np.isfinite(loss)

    def test_uniform_differs_from_recent(self, wiki):
        g = wiki.build_graph()
        ctx = tg.TContext(g)
        batch = tg.TBatch(g, 2000, 2100)
        blk_r = batch.block(ctx)
        tg.TSampler(5, "recent").sample(blk_r)
        blk_u = batch.block(ctx)
        tg.TSampler(5, "uniform", seed=9).sample(blk_u)
        # Same temporal constraint...
        assert np.all(blk_u.etimes < blk_u.dsttimes[blk_u.dstindex])
        # ...but different picks somewhere (the stream is long enough that
        # at least one node has more history than the fan-out).
        assert not (
            len(blk_r.eids) == len(blk_u.eids) and np.array_equal(blk_r.eids, blk_u.eids)
        )

    @pytest.mark.parametrize("runner", ["train", "resilient"])
    @pytest.mark.parametrize("framework", ["tglite", "tgl"])
    def test_training_keys_draws_on_the_epoch(self, wiki, framework, runner, tmp_path):
        """Both trainers sample epoch e at pass e and evaluate at pass 0."""
        g = wiki.build_graph()
        dims = dict(dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                    num_layers=1, num_nbrs=5, sampling="uniform")
        if framework == "tgl":
            model = TGLTGAT(g, **dims)
            kernel = model.sampler._kernel
        else:
            model = TGAT(tg.TContext(g), opt=OptFlags.none(), **dims)
            kernel = model.sampler
        seen = set()
        sample_arrays = kernel.sample_arrays

        def recording(*args, **kwargs):
            seen.add((model.training, kernel.pass_index))
            return sample_arrays(*args, **kwargs)

        kernel.sample_arrays = recording
        opt = nn.Adam(model.parameters(), lr=1e-3)
        neg = NegativeSampler.for_dataset(wiki)
        if runner == "train":
            train(model, g, opt, neg, 300, epochs=3, train_end=600, eval_end=900)
        else:
            ResilientTrainer(model, g, opt, neg, 300, str(tmp_path)).train(
                epochs=3, train_end=600, eval_end=900)
        assert seen == {(True, 0), (True, 1), (True, 2), (False, 0)}
        assert model.sampler.pass_index == 0
