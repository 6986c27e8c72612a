"""Recurrent cells used by memory-based TGNN models (TGN, JODIE, APAN).

The memory-update function ``mem`` in Eq. (11) of the paper is a GRU cell
for TGN and a vanilla RNN cell for JODIE; both consume a mailbox message as
input and the node's previous memory as hidden state.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor, cat
from . import init
from .module import Module, Parameter

__all__ = ["GRUCell", "RNNCell"]


class GRUCell(Module):
    """Gated recurrent unit cell: ``h' = GRU(x, h)``."""

    def __init__(self, input_size: int, hidden_size: int):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gate order follows torch: reset, update, new.
        self.weight_ih = Parameter(np.empty((3 * hidden_size, input_size), dtype=np.float32))
        self.weight_hh = Parameter(np.empty((3 * hidden_size, hidden_size), dtype=np.float32))
        bound = 1.0 / math.sqrt(hidden_size)
        init.uniform_(self.weight_ih, -bound, bound)
        init.uniform_(self.weight_hh, -bound, bound)
        self.bias_ih = Parameter(np.empty((3 * hidden_size,), dtype=np.float32))
        self.bias_hh = Parameter(np.empty((3 * hidden_size,), dtype=np.float32))
        init.uniform_(self.bias_ih, -bound, bound)
        init.uniform_(self.bias_hh, -bound, bound)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        gi = x.matmul(self.weight_ih.T)
        gh = h.matmul(self.weight_hh.T)
        gi = gi + self.bias_ih
        gh = gh + self.bias_hh
        n = self.hidden_size
        i_r, i_z, i_n = gi[:, :n], gi[:, n : 2 * n], gi[:, 2 * n :]
        h_r, h_z, h_n = gh[:, :n], gh[:, n : 2 * n], gh[:, 2 * n :]
        reset = (i_r + h_r).sigmoid()
        update = (i_z + h_z).sigmoid()
        new = (i_n + reset * h_n).tanh()
        return new + update * (h - new)


class RNNCell(Module):
    """Vanilla tanh RNN cell: ``h' = tanh(W_ih x + W_hh h + b)``."""

    def __init__(self, input_size: int, hidden_size: int):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(np.empty((hidden_size, input_size), dtype=np.float32))
        self.weight_hh = Parameter(np.empty((hidden_size, hidden_size), dtype=np.float32))
        bound = 1.0 / math.sqrt(hidden_size)
        init.uniform_(self.weight_ih, -bound, bound)
        init.uniform_(self.weight_hh, -bound, bound)
        self.bias = Parameter(np.empty((hidden_size,), dtype=np.float32))
        init.uniform_(self.bias, -bound, bound)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        out = x.matmul(self.weight_ih.T) + h.matmul(self.weight_hh.T)
        return (out + self.bias).tanh()
