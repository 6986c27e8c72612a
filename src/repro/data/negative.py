"""Negative-edge sampling for link-prediction training and evaluation."""

from __future__ import annotations

import numpy as np

from ..splitmix import splitmix64

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Sample negative destination nodes for link prediction.

    For bipartite graphs, negatives are drawn from the item partition
    (matching the JODIE/TGL protocol); otherwise from all nodes.

    Draws are keyed, not streamed: the ``k``-th negative drawn after
    ``reset(at)`` is ``candidates[splitmix64(seed, at + k) mod len]``, so
    the sampler's only state is that integer cursor.  Two samplers with
    the same seed and cursor draw identical negatives (used to score
    different frameworks on identical batches).

    Args:
        candidates: node ids negatives are drawn from.
        seed: the hash key.
    """

    def __init__(self, candidates: np.ndarray, seed: int = 42):
        candidates = np.asarray(candidates, dtype=np.int64)
        if len(candidates) == 0:
            raise ValueError("need at least one negative candidate")
        self.candidates = candidates
        self.seed = seed
        self._cursor = 0

    @classmethod
    def for_dataset(cls, dataset, seed: int = 42) -> "NegativeSampler":
        """Build a sampler with the right candidate set for *dataset*."""
        partition = dataset.bipartite_partition()
        if partition is not None:
            return cls(partition[1], seed=seed)
        return cls(np.arange(dataset.num_nodes, dtype=np.int64), seed=seed)

    def sample(self, n: int) -> np.ndarray:
        """Draw *n* negative node ids (with replacement); advances the cursor."""
        at = np.arange(self._cursor, self._cursor + n, dtype=np.uint64)
        self._cursor += n
        h = splitmix64(splitmix64(self.seed) ^ at)
        return self.candidates[h % np.uint64(len(self.candidates))]

    def reset(self, at: int = 0) -> None:
        """Move the cursor to position *at* (0: the start of an epoch)."""
        self._cursor = int(at)
