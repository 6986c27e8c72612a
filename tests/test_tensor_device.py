"""Tests for the simulated device model: placement, transfers, capacity."""

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import CPU, CUDA, Device, DeviceOutOfMemoryError, Tensor
from repro.tensor.device import get_device, runtime


class TestDeviceIdentity:
    def test_interning(self):
        assert Device("cpu") is Device("cpu")
        assert Device("cuda") is Device("cuda")
        assert Device("cpu") is not Device("cuda")

    def test_from_device(self):
        assert Device(CPU) is CPU

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            Device("tpu")

    def test_string_equality(self):
        assert CPU == "cpu"
        assert CUDA == "cuda"
        assert CUDA != "cpu"

    def test_immutability(self):
        with pytest.raises(AttributeError):
            CPU.type = "cuda"

    def test_get_device_none_is_cpu(self):
        assert get_device(None) is CPU

    def test_flags(self):
        assert CPU.is_cpu and not CPU.is_cuda
        assert CUDA.is_cuda and not CUDA.is_cpu


class TestPlacementAndTransfers:
    def test_default_placement_is_cpu(self):
        assert T.tensor([1.0]).device is CPU

    def test_to_same_device_is_noop(self):
        a = T.tensor([1.0])
        assert a.to("cpu") is a

    def test_to_cuda_records_transfer(self):
        a = T.tensor(np.zeros(1000, dtype=np.float32))
        before = runtime.transfer_stats.bytes
        b = a.to("cuda")
        assert b.device is CUDA
        assert runtime.transfer_stats.bytes - before == 4000

    def test_round_trip_preserves_values(self):
        a = T.tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(a.to("cuda").cpu().numpy(), a.numpy())

    def test_pinned_transfer_counted_separately(self):
        a = Tensor(np.zeros(10, dtype=np.float32), pinned=True)
        assert a.pinned
        a.to("cuda")
        assert runtime.transfer_stats.pinned_bytes == 40

    def test_simulated_seconds_use_bandwidths(self):
        runtime.pageable_bandwidth = 1e6
        runtime.pinned_bandwidth = 4e6
        data = np.zeros(250_000, dtype=np.float32)  # 1 MB
        T.tensor(data).to("cuda")
        assert abs(runtime.transfer_stats.simulated_seconds - 1.0) < 1e-6
        Tensor(data, pinned=True).to("cuda")
        assert abs(runtime.transfer_stats.simulated_seconds - 1.25) < 1e-6

    def test_cpu2gpu_copy_is_tallied_not_waited(self):
        import time

        from repro.bench.experiments import (
            PAGEABLE_BANDWIDTH, Experiment, ExperimentConfig)

        exp = Experiment(ExperimentConfig(dataset="wiki", placement="cpu2gpu"))
        try:
            data = np.zeros(1_000_000, dtype=np.float32)  # 4 MB
            modelled = data.nbytes / PAGEABLE_BANDWIDTH  # 0.1 s
            before = runtime.transfer_stats.simulated_seconds
            t0 = time.perf_counter()
            T.tensor(data).to("cuda")
            assert time.perf_counter() - t0 < modelled / 2
            assert runtime.transfer_stats.simulated_seconds == before + modelled
        finally:
            exp.close()

    def test_stats_reset(self):
        T.tensor([1.0]).to("cuda")
        runtime.reset()
        assert runtime.transfer_stats.bytes == 0


class TestCapacityAccounting:
    def test_no_tracking_by_default(self):
        assert not runtime.tracking(CUDA)
        T.tensor(np.zeros(1000, dtype=np.float32), device="cuda")
        assert runtime.used_bytes["cuda"] == 0

    def test_allocation_tracked_under_capacity(self):
        runtime.set_capacity("cuda", 10_000)
        keep = T.tensor(np.zeros(1000, dtype=np.float32), device="cuda")
        assert runtime.used_bytes["cuda"] == 4000
        assert keep.device is CUDA

    def test_oom_raised_when_over_capacity(self):
        runtime.set_capacity("cuda", 1000)
        with pytest.raises(DeviceOutOfMemoryError):
            T.tensor(np.zeros(1000, dtype=np.float32), device="cuda")

    def test_gc_frees_tracked_bytes(self):
        import gc

        runtime.set_capacity("cuda", 100_000)
        t = T.tensor(np.zeros(1000, dtype=np.float32), device="cuda")
        assert runtime.used_bytes["cuda"] == 4000
        del t
        gc.collect()
        assert runtime.used_bytes["cuda"] == 0

    def test_freed_memory_reusable(self):
        import gc

        runtime.set_capacity("cuda", 4096)
        for _ in range(5):
            t = T.tensor(np.zeros(1000, dtype=np.float32), device="cuda")
            del t
            gc.collect()

    def test_set_capacity_none_disables(self):
        runtime.set_capacity("cuda", 100)
        runtime.set_capacity("cuda", None)
        T.tensor(np.zeros(1000, dtype=np.float32), device="cuda")


class TestOpsOnDevice:
    def test_op_result_stays_on_device(self):
        a = T.tensor([1.0, 2.0], device="cuda")
        assert (a + a).device is CUDA
        assert (a * 2).device is CUDA
        assert a.relu().device is CUDA
        assert a.softmax().device is CUDA

    def test_cat_requires_same_device(self):
        a = T.tensor([1.0])
        b = T.tensor([1.0], device="cuda")
        with pytest.raises(RuntimeError):
            T.cat([a, b])

    def test_backward_through_device_tensor(self):
        a = T.Tensor([2.0], requires_grad=True, device="cuda")
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])
