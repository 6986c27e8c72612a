"""Neural-network substrate: modules, layers, cells, losses, optimizers.

Stands in for ``torch.nn`` + ``torch.optim``; also hosts the
:class:`TimeEncode` module that the paper ships under ``tg.nn``.
"""

from . import init
from .layers import (
    MLP,
    Dropout,
    Identity,
    LayerNorm,
    LeakyReLU,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from .loss import BCEWithLogitsLoss, MSELoss, bce_with_logits, link_prediction_loss
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, Optimizer
from .rnn import GRUCell, RNNCell
from .time_encode import TimeEncode

__all__ = [
    "init",
    "Module",
    "ModuleList",
    "Sequential",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "LeakyReLU",
    "Identity",
    "MLP",
    "GRUCell",
    "RNNCell",
    "BCEWithLogitsLoss",
    "MSELoss",
    "bce_with_logits",
    "link_prediction_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "TimeEncode",
]
