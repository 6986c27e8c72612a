"""§5.4 ablation: the hooks mechanism.

The paper removes hooks from TGLite and has users run the post-processing
callables themselves (re-implementing aggregate's scheduling): no
noticeable performance regression, but ~49 extra lines of user-level code
per application.  This benchmark implements exactly that user-side version
of TGAT-with-dedup — manual unique/inverse bookkeeping and a hand-rolled
multi-hop aggregation loop — and checks both the performance parity and
the output equivalence against the hooks-based framework path.
"""

import time

import numpy as np
import pytest

import repro.core as tg
from repro import tensor as T
from repro.core import op as tgop
from repro.core.op.dedup import unique_node_times
from repro.models import TGAT, OptFlags

from conftest import report_table
from helpers import make_config
from repro.bench.experiments import Experiment


class ManualPostprocTGAT(TGAT):
    """TGAT applying dedup + aggregation without the hooks mechanism.

    This is the user-level code the hooks feature makes unnecessary: the
    inverse mappings are tracked by hand and the per-layer delivery of
    outputs (aggregate's job) is re-implemented inline.
    """

    def compute_embeddings(self, batch: tg.TBatch) -> T.Tensor:
        head = batch.block(self.ctx)
        blocks, inverses = [], []
        tail = head
        for i in range(self.num_layers):
            if i > 0:
                tail = tail.next_block()
            # Manual dedup: filter and remember the inverse ourselves.
            un, ut, inv = unique_node_times(tail.dstnodes, tail.dsttimes)
            if len(un) < tail.num_dst:
                tail.set_dst(un, ut)
                inverses.append(inv)
            else:
                inverses.append(None)
            tail = self.sampler.sample(tail)
            blocks.append(tail)
        tgop.preload(head)
        tail.dstdata["h"] = tail.dstfeat()
        tail.srcdata["h"] = tail.srcfeat()
        # Manual multi-hop aggregation (what aggregate() schedules for us).
        output = None
        for depth in range(self.num_layers - 1, -1, -1):
            blk = blocks[depth]
            output = self.attn_layers[self.num_layers - 1 - depth](blk)
            if inverses[depth] is not None:
                output = output[inverses[depth]]  # manual post-processing
            if blk.prev is not None:
                prev = blk.prev
                prev.dstdata["h"] = output[: prev.num_dst]
                prev.srcdata["h"] = output[prev.num_dst :]
        return output


def test_ablation_hooks_mechanism(benchmark):
    from repro.bench.trainer import train_epoch

    def run():
        cfg = make_config("wiki", "tgat", "tglite", "gpu",
                          opt_flags=OptFlags(preload=True, dedup=True), dropout=0.0)
        results = {}

        # Untimed warm-up slice: the first slice in a process pays one-off
        # costs (imports, allocator growth, first-touch pages) worth ~4x a
        # warm slice, which would otherwise land on whichever path runs first.
        T.manual_seed(cfg.seed)
        exp = Experiment(cfg)
        train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler,
                    cfg.batch_size, stop=2200)
        exp.close()

        # Hooks-based framework path.
        T.manual_seed(cfg.seed)
        exp = Experiment(cfg)
        t0 = time.perf_counter()
        train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler,
                    cfg.batch_size, stop=2200)
        results["hooks"] = time.perf_counter() - t0
        exp.close()

        # Manual user-level path: identical weights, same batches.
        T.manual_seed(cfg.seed)
        exp = Experiment(cfg)
        manual = ManualPostprocTGAT(
            exp.ctx, dim_node=exp.dataset.nfeat.shape[1],
            dim_edge=exp.dataset.efeat.shape[1], dim_time=cfg.dim_time,
            dim_embed=cfg.dim_embed, num_layers=cfg.num_layers,
            num_heads=cfg.num_heads, num_nbrs=cfg.num_nbrs,
            dropout=0.0, opt=OptFlags(preload=True, dedup=False),
        ).to("cuda")
        manual.load_state_dict(exp.model.state_dict())

        # Output equivalence on one batch before timing.
        batch = tg.TBatch(exp.g, 0, cfg.batch_size)
        batch.neg_nodes = exp.neg_sampler.sample(len(batch))
        exp.model.eval(); manual.eval(); exp.ctx.eval()
        with T.no_grad():
            a = exp.model.compute_embeddings(batch)
            # run head hooks manually since we bypass aggregate here
            b = manual.compute_embeddings(batch)
        results["max_output_diff"] = float(np.abs(a.numpy() - b.numpy()).max())

        exp.model.train(); manual.train()
        from repro import nn
        opt2 = nn.Adam(manual.parameters(), lr=cfg.lr)
        exp.neg_sampler.reset()
        t0 = time.perf_counter()
        train_epoch(manual, exp.g, opt2, exp.neg_sampler, cfg.batch_size, stop=2200)
        results["manual"] = time.perf_counter() - t0
        exp.close()
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    ratio = results["manual"] / results["hooks"]
    report_table(
        "Ablation (5.4): hooks mechanism vs manual user-level post-processing (TGAT+dedup/wiki)",
        ["path", "epoch-slice (s)", "notes"],
        [
            ["with hooks (framework)", f"{results['hooks']:.2f}", "dedup inversion scheduled by TGLite"],
            ["manual (user code)", f"{results['manual']:.2f}",
             f"{ratio:.2f}x of hooks; ~45 extra user-level lines"],
        ],
        filename="ablation_hooks.txt",
    )

    # Emulation is possible without noticeable regression and produces
    # identical outputs.
    assert results["max_output_diff"] < 1e-4
    assert 0.5 < ratio < 1.5
