"""Reproduction of TGLite (ASPLOS 2024) on a pure-numpy substrate.

Subpackages:

* :mod:`repro.tensor` — numpy tensor backend with autograd and a simulated
  CPU/GPU device model (replaces PyTorch).
* :mod:`repro.nn` — neural-network substrate (modules, layers, optimizers,
  the TimeEncode module).
* :mod:`repro.core` — the TGLite framework itself: TGraph/TBatch/TBlock/
  TSampler/Memory/Mailbox plus the block operators.
* :mod:`repro.tgl` — a faithful structural re-implementation of the TGL
  baseline framework (MFG-based) used for all speedup comparisons.
* :mod:`repro.models` — TGAT, TGN, JODIE, and APAN built on TGLite.
* :mod:`repro.data` — synthetic CTDG dataset generators matching the shape
  of the paper's benchmarks, chronological splits, negative sampling.
* :mod:`repro.bench` — training/inference harness, metrics, and the
  experiment runner behind ``benchmarks/``.
* :mod:`repro.spans` — wall-clock spans marked at the program's layer
  boundaries, recorded only inside ``record()`` (Figure 7's breakdown).
"""

__version__ = "0.1.0"

from . import core, nn, tensor

__all__ = ["core", "nn", "tensor", "__version__"]
