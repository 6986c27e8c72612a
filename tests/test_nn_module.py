"""Tests for the Module system: registration, state, modes, movement."""

import numpy as np
import pytest

from repro import nn
from repro import tensor as T
from repro.tensor import CUDA


class Net(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(4, 3)
        self.fc2 = nn.Linear(3, 2)
        self.scale = nn.Parameter(np.ones(1, dtype=np.float32))
        self.register_buffer("running", T.zeros(2))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestRegistration:
    def test_parameters_discovered_recursively(self):
        net = Net()
        names = dict(net.named_parameters())
        assert set(names) == {
            "scale", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
        }

    def test_modules_traversal(self):
        net = Net()
        kinds = [type(m).__name__ for m in net.modules()]
        assert kinds == ["Net", "Linear", "Linear"]

    def test_reassignment_replaces(self):
        net = Net()
        net.fc1 = nn.Linear(4, 3)
        assert len(list(net.parameters())) == 5

    def test_buffers(self):
        net = Net()
        assert dict(net.named_buffers()).keys() == {"running"}

    def test_module_list(self):
        ml = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(ml) == 2
        params = list(ml.parameters())
        assert len(params) == 4


class TestModes:
    def test_train_eval_propagates(self):
        net = Net()
        assert net.training
        net.eval()
        assert not net.training and not net.fc1.training
        net.train()
        assert net.fc2.training

    def test_zero_grad(self):
        net = Net()
        out = net(T.randn(2, 4))
        out.sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert net.fc1.weight.grad is None


class TestState:
    def test_state_dict_roundtrip(self):
        net1, net2 = Net(), Net()
        net2.load_state_dict(net1.state_dict())
        for (n1, p1), (n2, p2) in zip(net1.named_parameters(), net2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_state_dict_includes_buffers(self):
        assert "running" in Net().state_dict()

    def test_load_missing_key_raises(self):
        net = Net()
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_shape_mismatch_raises(self):
        net = Net()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_state_dict_is_a_copy(self):
        net = Net()
        state = net.state_dict()
        state["fc1.weight"][...] = 99.0
        assert not np.all(net.fc1.weight.data == 99.0)


class TestDeviceMovement:
    def test_to_moves_params_and_buffers(self):
        net = Net().to("cuda")
        for p in net.parameters():
            assert p.device is CUDA
        assert net.running.device is CUDA

    def test_forward_on_device(self):
        net = Net().to("cuda")
        out = net(T.Tensor(T.randn(2, 4), device="cuda"))
        assert out.device is CUDA


class TestInit:
    def test_kaiming_nonzero(self):
        t = T.zeros(10, 10)
        nn.init.kaiming_uniform_(t)
        assert np.abs(t.data).sum() > 0
