"""TGL's configuration-file interface.

The paper's critique of TGL (§1, footnote 1) is that "users interact with
the framework via configuration files" rather than a programming
interface — model architecture, sampling, memory, and training settings
all live in a YAML config per model.  This module reproduces that
interaction style faithfully: a TGL model is *built from a config
mapping*, with the JODIE special-casing the paper calls out (its config
must expose settings no other model needs).

Config schema (mirroring TGL's ``config/*.yml`` structure)::

    {
      "sampling": [{"layer": 2, "neighbor": [10, 10], "strategy": "recent"}],
      "memory":   [{"type": "gru", "dim_memory": 100, "mailbox_size": 1,
                    "deliver_to": "self"}],
      "gnn":      [{"arch": "transformer_attention", "layer": 2, "att_head": 2,
                    "dim_time": 100, "dim_out": 100}],
      "train":    [{"epoch": 10, "batch_size": 600, "lr": 1e-4, "dropout": 0.1}],
    }

Files are JSON (this environment has no YAML parser; the structure is
what matters).  See ``configs/`` for one file per model.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Tuple

from ..core.graph import TGraph
from .memory import TGLMailBox
from .models import TGLAPAN, TGLJODIE, TGLTGAT, TGLTGN

__all__ = ["load_config", "build_from_config", "default_config", "CONFIG_DIR"]

#: bundled per-model config files (one per model, as in TGL's repo).
CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))), "configs")


def load_config(path: str) -> Dict[str, Any]:
    """Read a TGL-style config file (JSON)."""
    with open(path) as fh:
        return json.load(fh)


def _section(config: Dict[str, Any], name: str) -> Dict[str, Any]:
    rows = config.get(name) or [{}]
    return rows[0]


def default_config(model: str) -> Dict[str, Any]:
    """The bundled configuration for one of the four models."""
    path = os.path.join(CONFIG_DIR, f"{model.upper()}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled config for {model!r} at {path}")
    return load_config(path)


def build_from_config(
    config: Dict[str, Any],
    g: TGraph,
    dim_node: int,
    dim_edge: int,
) -> Tuple[object, Dict[str, Any]]:
    """Instantiate a TGL model from a config mapping.

    Returns ``(model, train_settings)`` where the latter is the config's
    ``train`` section (epochs, batch size, lr, ...), which the caller's
    training script consumes — exactly the TGL workflow.
    """
    sampling = _section(config, "sampling")
    memory = _section(config, "memory")
    gnn = _section(config, "gnn")
    train = dict(_section(config, "train"))

    arch = gnn.get("arch", "transformer_attention")
    num_layers = int(gnn.get("layer", sampling.get("layer", 1) or 1))
    neighbors = sampling.get("neighbor") or [10]
    num_nbrs = int(neighbors[0]) if neighbors else 10
    strategy = sampling.get("strategy", "recent")
    dim_time = int(gnn.get("dim_time", 100))
    dim_out = int(gnn.get("dim_out", 100))
    heads = int(gnn.get("att_head", 2))
    dropout = float(train.get("dropout", 0.1))

    mem_type = memory.get("type", "none")
    dim_mem = int(memory.get("dim_memory", dim_out))
    mailbox_size = int(memory.get("mailbox_size", 1))

    common = dict(dim_node=dim_node, dim_edge=dim_edge,
                  dim_time=dim_time, dim_embed=dim_out)

    if arch == "identity":
        # JODIE: no GNN; the config must special-case it (the paper's
        # observation about TGL's generality).
        if mem_type != "rnn":
            raise ValueError("identity arch requires the rnn memory updater (JODIE)")
        mailbox = TGLMailBox(g.num_nodes, dim_mem, dim_mem + dim_edge,
                             slots=mailbox_size)
        return TGLJODIE(g, mailbox, dim_mem=dim_mem, **common), train

    if arch != "transformer_attention":
        raise ValueError(f"unknown gnn arch: {arch!r}")

    if mem_type == "none":
        model = TGLTGAT(g, num_layers=num_layers, num_heads=heads,
                        num_nbrs=num_nbrs, dropout=dropout,
                        sampling=strategy, **common)
        return model, train

    if mem_type == "gru":
        mailbox = TGLMailBox(g.num_nodes, dim_mem, 2 * dim_mem + dim_edge,
                             slots=mailbox_size)
        if memory.get("deliver_to", "self") == "neighbors":
            model = TGLAPAN(g, mailbox, dim_mem=dim_mem, num_heads=heads,
                            num_nbrs=num_nbrs, sampling=strategy, **common)
        else:
            model = TGLTGN(g, mailbox, dim_mem=dim_mem, num_layers=num_layers,
                           num_heads=heads, num_nbrs=num_nbrs, dropout=dropout,
                           sampling=strategy, **common)
        return model, train

    raise ValueError(f"unknown memory type: {mem_type!r}")
