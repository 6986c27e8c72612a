"""The state image: the row-indexed tables a ``Memory`` / ``Mailbox`` is made of.

Which arrays make up a component, in which order, under which names is
decided once, by the class that owns them: ``tables()`` returns the
*live* arrays (every one indexed by node row) and ``TABLE_KEYS`` names
them in the same order.  Everything that copies, hashes, persists,
repairs or corrupts state — snapshots, checkpoints, digests, scrub
repairs, bit-flip injection — walks those two
and nothing else, so a new state column is a change to one class.

Table order is part of the digest contract: ``state_digest()`` hashes
the tables in ``tables()`` order, and replicas, the scrubber and the
equivalence gates compare those digests across processes and runs.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["TableState", "state_image", "load_state_image"]


class TableState:
    """Reset / digest / image over a component's ``tables()``."""

    #: image key of each table, in ``tables()`` order (a component may
    #: hold a prefix of them: a one-slot mailbox has no ring cursor).
    TABLE_KEYS: Tuple[str, ...] = ()

    def tables(self) -> Tuple[np.ndarray, ...]:
        """The live backing arrays, each indexed by node row."""
        raise NotImplementedError

    def reset(self) -> None:
        """Zero all state (start of training, or replay from scratch)."""
        for table in self.tables():
            table[...] = 0

    def state_digest(self) -> str:
        """Canonical sha256 of the full state, tables in ``tables()`` order.

        Two components digest equal iff they are bit-identical — the
        equivalence currency used by replica scrubbing and the cluster
        equivalence tests.  Everything in ``tables()`` is covered, so two
        mailboxes that hold the same rows but would write the *next*
        message to different ring slots are not equivalent states.
        """
        from ..integrity.digest import array_digest

        return array_digest(*self.tables())

    def image(self) -> Dict[str, np.ndarray]:
        """Named view of the live tables (no copies)."""
        return dict(zip(self.TABLE_KEYS, self.tables()))

    def check_image(self, arrays: Dict[str, np.ndarray], where: str = "state image") -> None:
        """Raise unless *arrays* holds exactly this component's tables.

        ``KeyError`` when a table is missing from the image; ``ValueError``
        when the image holds a table this component does not, or one whose
        shape or dtype disagrees — so loading the wrong image is never a
        silent no-op or a numpy broadcast.
        """
        image = self.image()
        for key in self.TABLE_KEYS:
            if key in arrays and key not in image:
                raise ValueError(
                    f"{where} holds {key!r} but the target "
                    f"{type(self).__name__} has no such table"
                )
        for key, table in image.items():
            if key not in arrays:
                raise KeyError(f"{where} has no {key!r} but the target expects it")
            value = np.asarray(arrays[key])
            if value.shape != table.shape or value.dtype != table.dtype:
                raise ValueError(
                    f"{where}: {key!r} is {value.dtype}{value.shape}, the "
                    f"target table is {table.dtype}{table.shape}"
                )


def state_image(memory=None, mailbox=None) -> Dict[str, np.ndarray]:
    """One flat named view of the live tables of *memory* and *mailbox*."""
    image: Dict[str, np.ndarray] = {}
    for part in (memory, mailbox):
        if part is not None:
            image.update(part.image())
    return image


def load_state_image(
    arrays: Dict[str, np.ndarray], memory=None, mailbox=None, where: str = "state image"
) -> None:
    """Inverse of :func:`state_image`: in place, strict in both directions.

    State the target expects but *arrays* lacks is a ``KeyError``; state
    *arrays* holds for a component the target does not have (it would be
    silently dropped), or whose shape or dtype disagrees, is a
    ``ValueError``.  Everything is checked before anything is written.
    Keys outside the two components (model parameters, shard ownership,
    …) are ignored.
    """
    from .mailbox import Mailbox
    from .memory import Memory

    for cls, part in ((Memory, memory), (Mailbox, mailbox)):
        if part is not None:
            part.check_image(arrays, where)
        elif any(key in arrays for key in cls.TABLE_KEYS):
            raise ValueError(
                f"{where} contains {cls.__name__.lower()} state but the target "
                f"has no {cls.__name__} attached (it would be silently dropped)"
            )
    for key, table in state_image(memory, mailbox).items():
        table[...] = arrays[key]
