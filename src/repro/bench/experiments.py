"""Experiment runner: builds any (framework, model, dataset, placement)
combination from §5 and measures training/inference, so each benchmark
file only declares the grid it sweeps.

Framework settings follow the paper's three bars:

* ``'tgl'``        — the TGL baseline (MFGs, pageable eager loads).
* ``'tglite'``     — TGLite with only ``preload()`` (pinned movement).
* ``'tglite+opt'`` — TGLite with every applicable optimization operator.

Placement modes:

* ``'gpu'``     — all data on the simulated device (all-on-GPU, Fig. 5);
* ``'cpu2gpu'`` — features/memory/mail host-resident, so every batch's
  host-to-device copies add simulated seconds to the transfer tally
  (CPU-to-GPU, Fig. 6).

Bandwidths are calibrated for the numpy substrate: our compute is orders
of magnitude slower than a V100, so the modeled PCIe bandwidth is scaled
down equivalently to keep the compute : transfer ratio in the regime the
paper measures (TGL roughly 3-4x slower when data lives on the host).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .. import core as tg
from ..data import NegativeSampler, get_dataset
from ..models import APAN, JODIE, TGAT, TGN, OptFlags
from ..nn import Adam
from ..store import StoreConfig
from ..tensor import manual_seed
from ..tensor.device import runtime
from ..tgl import TGLAPAN, TGLJODIE, TGLMailBox, TGLTGAT, TGLTGN
from .trainer import TrainResult, evaluate, train, warm_replay

__all__ = ["ExperimentConfig", "Experiment", "FRAMEWORKS", "MODELS", "run_training"]

FRAMEWORKS = ("tgl", "tglite", "tglite+opt")
MODELS = ("jodie", "apan", "tgat", "tgn")

#: Modeled host-to-device bandwidths (bytes/s), scaled to the substrate.
PAGEABLE_BANDWIDTH = 40e6
PINNED_BANDWIDTH = 120e6


@dataclass
class ExperimentConfig:
    """One cell of the evaluation grid."""

    dataset: str = "wiki"
    model: str = "tgat"
    framework: str = "tglite"
    placement: str = "gpu"  # 'gpu' | 'cpu2gpu'
    batch_size: int = 300
    epochs: int = 3
    num_layers: int = 2
    num_nbrs: int = 10
    num_heads: int = 2
    dim_time: int = 32
    dim_embed: int = 32
    dim_mem: int = 32
    mailbox_slots: int = 10
    dropout: float = 0.1
    sampling: str = "recent"
    lr: float = 1e-3
    seed: int = 7
    #: simulated device capacity in bytes (None = unlimited).
    device_capacity: Optional[int] = None
    #: explicit OptFlags for TGLite settings (overrides the framework
    #: presets; used by the single-optimization ablation of Table 6).
    opt_flags: Optional[OptFlags] = None
    #: memo-ring budget in MiB per embedding-cache layer (None = the
    #: context's store default).
    store_hot_mb: Optional[float] = None

    def label(self) -> str:
        return f"{self.model}/{self.dataset}/{self.framework}/{self.placement}"


def _opt_flags(framework: str) -> OptFlags:
    if framework == "tglite":
        return OptFlags.preload_only()
    if framework == "tglite+opt":
        return OptFlags.all()
    raise ValueError(f"not a TGLite framework setting: {framework!r}")


class Experiment:
    """A fully constructed model + graph + samplers, ready to run."""

    def __init__(self, cfg: ExperimentConfig):
        if cfg.framework not in FRAMEWORKS:
            raise ValueError(f"unknown framework {cfg.framework!r}")
        if cfg.model not in MODELS:
            raise ValueError(f"unknown model {cfg.model!r}")
        if cfg.placement not in ("gpu", "cpu2gpu"):
            raise ValueError(f"unknown placement {cfg.placement!r}")
        self.cfg = cfg
        self.dataset = get_dataset(cfg.dataset)
        self.train_end, self.val_end, self.test_end = self.dataset.splits()
        self.neg_sampler = NegativeSampler.for_dataset(self.dataset, seed=cfg.seed)

        # Placement: compute always happens on the simulated device; the
        # placement mode decides where bulk data lives.
        runtime.reset()
        runtime.pageable_bandwidth = PAGEABLE_BANDWIDTH
        runtime.pinned_bandwidth = PINNED_BANDWIDTH
        if cfg.device_capacity is not None:
            runtime.set_capacity("cuda", cfg.device_capacity)
        data_device = "cuda" if cfg.placement == "gpu" else "cpu"

        manual_seed(cfg.seed)
        self.g = self.dataset.build_graph(feature_device=data_device)
        dim_node = self.dataset.nfeat.shape[1]
        dim_edge = self.dataset.efeat.shape[1]

        if cfg.framework == "tgl":
            self.ctx = None
            self.model = self._build_tgl(dim_node, dim_edge, data_device)
        else:
            self.ctx = tg.TContext(self.g, device="cuda",
                                   store=StoreConfig(hot_mb=cfg.store_hot_mb))
            self.model = self._build_tglite(dim_node, dim_edge, data_device)
        self.model.to("cuda")
        self.optimizer = Adam(self.model.parameters(), lr=cfg.lr)

    # ---- builders ---------------------------------------------------------------

    def _build_tglite(self, dim_node: int, dim_edge: int, data_device: str):
        cfg = self.cfg
        opt = cfg.opt_flags if cfg.opt_flags is not None else _opt_flags(cfg.framework)
        common = dict(dim_node=dim_node, dim_edge=dim_edge, dim_time=cfg.dim_time,
                      dim_embed=cfg.dim_embed, opt=opt)
        if cfg.model == "tgat":
            return TGAT(self.ctx, num_layers=cfg.num_layers, num_heads=cfg.num_heads,
                        num_nbrs=cfg.num_nbrs, dropout=cfg.dropout,
                        sampling=cfg.sampling, **common)
        if cfg.model == "tgn":
            self.g.set_memory(cfg.dim_mem, device=data_device)
            self.g.set_mailbox(TGN.required_mailbox_dim(cfg.dim_mem, dim_edge), device=data_device)
            return TGN(self.ctx, dim_mem=cfg.dim_mem, num_layers=cfg.num_layers,
                       num_heads=cfg.num_heads, num_nbrs=cfg.num_nbrs,
                       dropout=cfg.dropout, sampling=cfg.sampling, **common)
        if cfg.model == "jodie":
            self.g.set_memory(cfg.dim_mem, device=data_device)
            self.g.set_mailbox(JODIE.required_mailbox_dim(cfg.dim_mem, dim_edge), device=data_device)
            return JODIE(self.ctx, dim_mem=cfg.dim_mem, **common)
        self.g.set_memory(cfg.dim_mem, device=data_device)
        self.g.set_mailbox(
            APAN.required_mailbox_dim(cfg.dim_mem, dim_edge),
            slots=cfg.mailbox_slots, device=data_device,
        )
        return APAN(self.ctx, dim_mem=cfg.dim_mem, num_heads=cfg.num_heads,
                    num_nbrs=cfg.num_nbrs, mailbox_slots=cfg.mailbox_slots,
                    sampling=cfg.sampling, **common)

    def _build_tgl(self, dim_node: int, dim_edge: int, data_device: str):
        cfg = self.cfg
        common = dict(device="cuda", dim_node=dim_node, dim_edge=dim_edge,
                      dim_time=cfg.dim_time, dim_embed=cfg.dim_embed)
        n = self.dataset.num_nodes
        if cfg.model == "tgat":
            return TGLTGAT(self.g, num_layers=cfg.num_layers, num_heads=cfg.num_heads,
                           num_nbrs=cfg.num_nbrs, dropout=cfg.dropout,
                           sampling=cfg.sampling, **common)
        if cfg.model == "tgn":
            mailbox = TGLMailBox(n, cfg.dim_mem, 2 * cfg.dim_mem + dim_edge, device=data_device)
            return TGLTGN(self.g, mailbox, dim_mem=cfg.dim_mem, num_layers=cfg.num_layers,
                          num_heads=cfg.num_heads, num_nbrs=cfg.num_nbrs,
                          dropout=cfg.dropout, sampling=cfg.sampling, **common)
        if cfg.model == "jodie":
            mailbox = TGLMailBox(n, cfg.dim_mem, cfg.dim_mem + dim_edge, device=data_device)
            return TGLJODIE(self.g, mailbox, dim_mem=cfg.dim_mem, **common)
        mailbox = TGLMailBox(n, cfg.dim_mem, 2 * cfg.dim_mem + dim_edge,
                             slots=cfg.mailbox_slots, device=data_device)
        return TGLAPAN(self.g, mailbox, dim_mem=cfg.dim_mem, num_heads=cfg.num_heads,
                       num_nbrs=cfg.num_nbrs, sampling=cfg.sampling, **common)

    # ---- running -------------------------------------------------------------------

    def run_training(self) -> TrainResult:
        """Train for ``cfg.epochs`` with per-epoch validation AP."""
        return train(
            self.model, self.g, self.optimizer, self.neg_sampler,
            batch_size=self.cfg.batch_size, epochs=self.cfg.epochs,
            train_end=self.train_end, eval_end=self.val_end,
        )

    def run_resilient_training(
        self,
        checkpoint_dir: str,
        checkpoint_every: int = 50,
        resume: bool = False,
        injector=None,
    ):
        """Train under the fault-tolerant runtime (checkpoint + recovery).

        Returns a :class:`~repro.bench.resilient.ResilientResult`; pass
        ``resume=True`` to continue a previous run from its checkpoint.
        """
        from .resilient import ResilientTrainer

        trainer = ResilientTrainer(
            self.model, self.g, self.optimizer, self.neg_sampler,
            batch_size=self.cfg.batch_size, checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every, injector=injector,
        )
        return trainer.train(
            epochs=self.cfg.epochs, train_end=self.train_end,
            eval_end=self.val_end, resume=resume,
        )

    def run_test_inference(self, warm: bool = True) -> Tuple[float, float]:
        """Time test-split inference; returns ``(seconds, AP)``.

        Args:
            warm: replay train+val first (untimed) so memory-based models
                see the stream's history, mirroring §5.3's protocol.
        """
        if warm:
            warm_replay(self.model, self.g, self.neg_sampler,
                        self.cfg.batch_size, stop=self.val_end)
        return evaluate(self.model, self.g, self.neg_sampler,
                        self.cfg.batch_size, start=self.val_end,
                        stop=self.test_end)

    def close(self) -> None:
        """Reset global runtime state (bandwidths, capacities, stats)."""
        runtime.reset()


def run_training(cfg: ExperimentConfig) -> TrainResult:
    """Convenience: build, train, tear down."""
    exp = Experiment(cfg)
    try:
        return exp.run_training()
    finally:
        exp.close()
