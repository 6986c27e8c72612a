"""The gradient-descent optimizer: Adam."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..resilience.hooks import poke as _poke
from ..tensor import Tensor

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer holding a list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _pre_step(self) -> None:
        """Fault-injection site: gradients may be poisoned here (no-op
        unless a FaultInjector is armed)."""
        _poke("optim.step", optimizer=self)

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction, no weight decay."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr: float = 1e-3):
        super().__init__(params, lr)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._pre_step()
        self._t += 1
        bc1 = 1.0 - self.BETA1**self._t
        bc2 = 1.0 - self.BETA2**self._t
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = self.BETA1 * m + (1.0 - self.BETA1) * grad
            v = self.BETA2 * v + (1.0 - self.BETA2) * grad * grad
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
