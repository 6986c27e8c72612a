"""Simulated device model for the tensor backend.

The paper's experiments distinguish *where* data lives (GPU device memory vs
CPU host memory) because host-to-device transfers dominate the CPU-to-GPU
training case, and because device memory is finite (TGL runs out of GPU
memory on the largest dataset).  This module provides the minimal device
semantics needed to reproduce both effects on a machine with no GPU:

* two device kinds, ``cpu`` and ``cuda``;
* a transfer-cost model: moving ``n`` bytes between devices tallies
  ``n / bandwidth`` simulated seconds (no wall time) in :class:`TransferTotals`,
  with pinned host memory enjoying a higher bandwidth than pageable memory
  (mirroring PCIe DMA behaviour);
* capacity accounting: when a capacity is configured for a device, every
  byte resident on it is tracked and an allocation that would exceed the
  capacity raises :class:`DeviceOutOfMemoryError`.

Capacity accounting is off by default so unit tests and pure-algorithm
benchmarks pay nothing for it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

__all__ = [
    "Device",
    "DeviceOutOfMemoryError",
    "DeviceRuntime",
    "runtime",
    "get_device",
]


class DeviceOutOfMemoryError(RuntimeError):
    """Raised when an allocation would exceed a device's configured capacity."""


class Device:
    """A compute device identifier, e.g. ``Device('cpu')`` or ``Device('cuda')``.

    Instances are interned: ``Device('cpu') is Device('cpu')``.
    """

    _interned: Dict[str, "Device"] = {}
    _lock = threading.Lock()

    __slots__ = ("type",)

    def __new__(cls, type_: Union[str, "Device"]) -> "Device":
        if isinstance(type_, Device):
            return type_
        name = str(type_)
        if name not in ("cpu", "cuda"):
            raise ValueError(f"unknown device type: {name!r} (expected 'cpu' or 'cuda')")
        with cls._lock:
            dev = cls._interned.get(name)
            if dev is None:
                dev = object.__new__(cls)
                object.__setattr__(dev, "type", name)
                cls._interned[name] = dev
        return dev

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("Device objects are immutable")

    def __repr__(self) -> str:
        return f"Device({self.type!r})"

    def __str__(self) -> str:
        return self.type

    def __eq__(self, other) -> bool:
        if isinstance(other, str):
            return self.type == other
        return self is other

    def __hash__(self) -> int:
        return hash(self.type)

    @property
    def is_cuda(self) -> bool:
        return self.type == "cuda"

    @property
    def is_cpu(self) -> bool:
        return self.type == "cpu"


CPU = Device("cpu")
CUDA = Device("cuda")


def get_device(dev: Union[str, Device, None]) -> Device:
    """Normalize a device argument (``None`` means CPU)."""
    if dev is None:
        return CPU
    return Device(dev)


@dataclass
class TransferTotals:
    """Process-global totals of simulated host/device transfers."""

    count: int = 0
    bytes: int = 0
    pinned_bytes: int = 0
    simulated_seconds: float = 0.0

    def reset(self) -> None:
        self.count = 0
        self.bytes = 0
        self.pinned_bytes = 0
        self.simulated_seconds = 0.0


@dataclass
class DeviceRuntime:
    """Global runtime holding transfer-cost and capacity configuration.

    Attributes:
        pageable_bandwidth: modeled bytes/second for pageable host memory.
        pinned_bandwidth: modeled bytes/second for pinned host memory.
        capacities: optional per-device byte capacities; ``None`` disables
            accounting for that device.
    """

    pageable_bandwidth: float = 2.0e9
    pinned_bandwidth: float = 6.0e9
    capacities: Dict[str, Optional[int]] = field(
        default_factory=lambda: {"cpu": None, "cuda": None}
    )
    used_bytes: Dict[str, int] = field(default_factory=lambda: {"cpu": 0, "cuda": 0})
    peak_bytes: Dict[str, int] = field(default_factory=lambda: {"cpu": 0, "cuda": 0})
    transfer_stats: TransferTotals = field(default_factory=TransferTotals)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ---- capacity accounting -------------------------------------------------

    def tracking(self, device: Device) -> bool:
        """Whether allocations on *device* are being tracked."""
        return self.capacities.get(device.type) is not None

    def set_capacity(self, device: Union[str, Device], capacity: Optional[int]) -> None:
        """Set (or clear, with ``None``) the byte capacity of a device."""
        dev = get_device(device)
        with self._lock:
            self.capacities[dev.type] = capacity
            self.used_bytes[dev.type] = 0

    def allocate(self, device: Device, nbytes: int) -> None:
        """Record *nbytes* of new residency on *device*; may raise OOM."""
        cap = self.capacities.get(device.type)
        if cap is None:
            return
        with self._lock:
            used = self.used_bytes[device.type] + int(nbytes)
            if used > cap:
                raise DeviceOutOfMemoryError(
                    f"simulated {device.type} out of memory: tried to allocate "
                    f"{nbytes} bytes ({used} > capacity {cap})"
                )
            self.used_bytes[device.type] = used
            if used > self.peak_bytes[device.type]:
                self.peak_bytes[device.type] = used

    def free(self, device: Device, nbytes: int) -> None:
        """Release *nbytes* previously recorded on *device*."""
        if self.capacities.get(device.type) is None:
            return
        with self._lock:
            self.used_bytes[device.type] = max(0, self.used_bytes[device.type] - int(nbytes))

    # ---- transfer cost model -------------------------------------------------

    def transfer(self, nbytes: int, pinned: bool = False) -> None:
        """Tally a transfer: its bytes and its modelled seconds."""
        stats = self.transfer_stats
        stats.count += 1
        stats.bytes += int(nbytes)
        if pinned:
            stats.pinned_bytes += int(nbytes)
        bandwidth = self.pinned_bandwidth if pinned else self.pageable_bandwidth
        stats.simulated_seconds += nbytes / bandwidth

    def reset(self) -> None:
        """Reset accounting, bandwidths and capacities."""
        with self._lock:
            self.pageable_bandwidth = 2.0e9
            self.pinned_bandwidth = 6.0e9
            self.capacities = {"cpu": None, "cuda": None}
            self.used_bytes = {"cpu": 0, "cuda": 0}
            self.peak_bytes = {"cpu": 0, "cuda": 0}
            self.transfer_stats.reset()


#: Process-global device runtime configuration.
runtime = DeviceRuntime()
