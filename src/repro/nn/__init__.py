"""Neural-network substrate: modules, layers, cells, losses, optimizers.

Stands in for ``torch.nn`` + ``torch.optim``; also hosts the
:class:`TimeEncode` module that the paper ships under ``tg.nn``.
"""

from . import init
from .layers import (
    MLP,
    Dropout,
    LayerNorm,
    Linear,
)
from .loss import bce_with_logits, link_prediction_loss
from .module import Module, ModuleList, Parameter
from .optim import Adam, Optimizer
from .rnn import GRUCell, RNNCell
from .time_encode import TimeEncode

__all__ = [
    "init",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Dropout",
    "MLP",
    "GRUCell",
    "RNNCell",
    "bce_with_logits",
    "link_prediction_loss",
    "Optimizer",
    "Adam",
    "TimeEncode",
]
