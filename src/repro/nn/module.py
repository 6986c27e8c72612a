"""Module system: parameters, submodule registration, train/eval modes.

A intentionally small re-creation of ``torch.nn.Module`` — enough for the
TGNN models in this repo: automatic parameter/submodule discovery through
attribute assignment, recursive ``parameters()``/``named_parameters()``,
``train()``/``eval()`` mode flags, ``state_dict`` round-tripping, and
device movement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor
from ..tensor.device import Device, get_device

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a Module."""

    def __init__(self, data):
        if isinstance(data, Tensor):
            data = data.data
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, device='{self.device}')"


class Module:
    """Base class for neural network modules.

    Subclasses define ``forward`` and assign :class:`Parameter` and
    sub-:class:`Module` instances as attributes; both are auto-registered.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ---- attribute-based registration -------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, tensor: Optional[Tensor]) -> None:
        """Register a non-trainable tensor that is part of the module state."""
        self._buffers[name] = tensor
        object.__setattr__(self, name, tensor)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ---- traversal ----------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, buf in self._buffers.items():
            if buf is not None:
                yield (f"{prefix}{name}", buf)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ---- modes ---------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ---- gradients & state -----------------------------------------------------

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        own.update(dict(self.named_buffers()))
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if own[name].data.shape != value.shape:
                raise ValueError(f"shape mismatch for {name}: {own[name].data.shape} vs {value.shape}")
            own[name].data[...] = value

    def to(self, device: Union[str, Device]) -> "Module":
        """Move all parameters and buffers to *device* (in place)."""
        target = get_device(device)
        for _, param in self.named_parameters():
            if param.device is not target:
                moved = param.to(target)
                param.data = moved.data
                object.__setattr__(param, "device", target)
        for module in self.modules():
            for name, buf in list(module._buffers.items()):
                if buf is not None and buf.device is not target:
                    module.register_buffer(name, buf.to(target))
        return self

    # ---- call ------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child = ", ".join(self._modules)
        return f"{type(self).__name__}({child})"


class ModuleList(Module):
    """Hold submodules in a list, registering each for parameter discovery."""

    def __init__(self, modules=()):
        super().__init__()
        self._list: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._list)), module)
        self._list.append(module)
        return self

    def __getitem__(self, idx: int) -> Module:
        return self._list[idx]

    def __len__(self) -> int:
        return len(self._list)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)
