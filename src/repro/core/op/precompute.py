"""Time-precomputation operators (non-block optimization operators).

The cosine time encoder (Eq. 8) frequently re-encodes the same time deltas:
the delta 0 for every destination's self term, and a heavy-tailed but
highly repetitive distribution of neighbor deltas.  These operators
precompute time vectors and reuse them:

* :func:`precomputed_zeros` — specialized for the all-zeros delta case;
* :func:`precomputed_times` — each distinct delta encoded once.

Both are *semantic-preserving only while the encoder weights are fixed*, so
in training mode they transparently fall back to the differentiable encoder
(matching the paper's models, which enable them during inference).  What is
kept between calls keys on the encoder's version counter and is rebuilt
after any weight update.

``precomputed_times`` is vectorised and bounded.  Raw float deltas rarely
repeat *across* calls, so exact deltas are only deduplicated *within* a
call (``np.unique`` -> encode -> gather), and only when the call repeats
itself enough for the gather to pay; otherwise they go straight through the
encoder.  A table that persists across calls exists only for quantised
deltas (``ctx.time_window > 0``), where the key is a small integer bucket:
a dense row array indexed by bucket, capped at :data:`TABLE_BUCKETS` rows,
with out-of-range buckets encoded directly.  Every path returns exactly
``encoder.encode_raw`` of the (quantised) deltas.
"""

from __future__ import annotations

import numpy as np

from ...nn.time_encode import TimeEncode
from ...tensor import Tensor
from ..context import TContext

__all__ = ["precomputed_zeros", "precomputed_times"]

#: within-call dedup engages when distinct deltas are at most 1/UNIQUE_PAYS
#: of the call: the gather of ``dim``-wide rows costs 0.1-0.25 of an encode
#: (more at small ``dim``), so at half the rows it pays at every width.
UNIQUE_PAYS = 2
#: cap on the quantised table: buckets ``[0, TABLE_BUCKETS)`` are kept (as
#: float32 they are exact integers), anything else is encoded per call.
TABLE_BUCKETS = 1 << 16


def precomputed_zeros(ctx: TContext, encoder: TimeEncode, n: int) -> Tensor:
    """Time vectors for *n* zero deltas, ``Phi(0)`` tiled ``n`` times.

    In training mode, computes through the encoder (one broadcast row,
    :meth:`TimeEncode.zero`) so gradients flow.
    """
    if ctx.training:
        return encoder.zero(n, ctx.device)
    slot = ctx.time_zero_slot(id(encoder))
    if slot is None or slot[0] != encoder.version:
        row = encoder.encode_raw(np.zeros(1, dtype=np.float32))[0]
        ctx.set_time_zero_slot(id(encoder), encoder.version, row)
    else:
        row = slot[1]
    return Tensor(np.broadcast_to(row, (n, encoder.dim)).copy(), device=ctx.device)


def precomputed_times(ctx: TContext, encoder: TimeEncode, deltas: np.ndarray) -> Tensor:
    """Time vectors for *deltas*, encoding each distinct delta once.

    Args:
        ctx: context owning the table (``ctx.time_window`` > 0 quantizes
            deltas to that resolution first, trading a bounded
            approximation for reuse across calls; 0 matches exactly).
        encoder: the TimeEncode module.
        deltas: float array of time deltas.

    In training mode, computes through the encoder so gradients flow.
    """
    deltas = np.asarray(deltas, dtype=np.float32).reshape(-1)
    if ctx.training:
        return encoder(Tensor(deltas, device=ctx.device))
    if ctx.time_window > 0:
        return Tensor(_quantised_rows(ctx, encoder, deltas), device=ctx.device)
    # Counting distinct deltas is a sort; the inverse costs a stable argsort
    # more, so it is only taken once the gather is known to pay.
    if len(np.unique(deltas)) * UNIQUE_PAYS > len(deltas):
        return Tensor(encoder.encode_raw(deltas), device=ctx.device)
    uniq, inverse = np.unique(deltas, return_inverse=True)
    return Tensor(encoder.encode_raw(uniq)[inverse], device=ctx.device)


def _quantised_rows(ctx: TContext, encoder: TimeEncode, deltas: np.ndarray) -> np.ndarray:
    """Rows for *deltas* rounded to ``ctx.time_window``, through the bucket table."""
    window = np.float32(ctx.time_window)
    buckets = np.round(deltas / ctx.time_window)  # float32, integer-valued
    table = ctx.time_table(id(encoder))
    if table["version"] != encoder.version:
        table["version"] = encoder.version
        # Reserved, not touched: a row costs memory once its bucket is seen.
        table["rows"] = np.empty((TABLE_BUCKETS, encoder.dim), dtype=np.float32)
        table["filled"] = np.zeros(TABLE_BUCKETS, dtype=bool)
    rows, filled = table["rows"], table["filled"]
    # NaN and infinite deltas fail both comparisons and are encoded directly.
    tabled = (buckets >= 0) & (buckets < TABLE_BUCKETS)
    index = buckets[tabled].astype(np.int64)
    missing = np.unique(index[~filled[index]])
    rows[missing] = encoder.encode_raw(missing.astype(np.float32) * window)
    filled[missing] = True
    if tabled.all():
        return rows[index]
    out = np.empty((len(deltas), encoder.dim), dtype=np.float32)
    out[tabled] = rows[index]
    out[~tabled] = encoder.encode_raw(buckets[~tabled] * window)
    return out
