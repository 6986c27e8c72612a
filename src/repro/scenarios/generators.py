"""The five built-in streaming scenario generators.

All generators share one *preference world*: the node space splits into
users and items, users belong to ``num_groups`` groups (``u % g``), the
items partition into ``g`` contiguous blocks, and in preference state
``s`` group ``k`` favours block ``(k + s) % g``.  A **genuine** event
(label 1) is a user interacting uniformly inside its preferred block; a
**noise** event (label 0) is a uniform random user-item pair.  A model
that has learned the current group→block table separates the two —
which is exactly what drift, floods, and churn disturb, so per-window
average precision over the labels measures accuracy under the scenario,
not just survival of it.

Every random draw comes from a named :func:`~repro.scenarios.base.stream_rng`
stream, so generators are deterministic per seed and mutually
decorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.batch import TBatch
from .base import LabeledStream, ScenarioSpec, register, stream_rng

__all__ = [
    "PreferenceWorld",
    "build_world",
    "flash_crowd",
    "spam_flood",
    "cold_start",
    "distribution_drift",
    "node_churn",
]


@dataclass(frozen=True)
class PreferenceWorld:
    """Users, items, and the group/block structure of one spec."""

    users: np.ndarray
    items: np.ndarray
    num_groups: int
    #: first item id of each block, and each block's length.
    block_start: np.ndarray
    block_len: np.ndarray

    def groups_of(self, users: np.ndarray) -> np.ndarray:
        return users % self.num_groups

    def preferred_block(self, users: np.ndarray, shift) -> np.ndarray:
        """Block index each user favours under preference state *shift*."""
        return (self.groups_of(users) + shift) % self.num_groups


def build_world(spec: ScenarioSpec) -> PreferenceWorld:
    num_users = max(spec.num_groups, int(round(spec.num_nodes * spec.user_frac)))
    num_users = min(num_users, spec.num_nodes - spec.num_groups)
    users = np.arange(num_users, dtype=np.int64)
    items = np.arange(num_users, spec.num_nodes, dtype=np.int64)
    bounds = np.linspace(0, len(items), spec.num_groups + 1).astype(np.int64)
    return PreferenceWorld(
        users=users,
        items=items,
        num_groups=spec.num_groups,
        block_start=items[0] + bounds[:-1],
        block_len=np.diff(bounds),
    )


def _dst_in_blocks(
    rng: np.random.Generator, world: PreferenceWorld, block_idx: np.ndarray
) -> np.ndarray:
    """One uniform item per event from each event's block index."""
    u = rng.random(len(block_idx))
    return (
        world.block_start[block_idx]
        + np.floor(u * world.block_len[block_idx]).astype(np.int64)
    )


def _genuine(
    rng: np.random.Generator,
    world: PreferenceWorld,
    n: int,
    shift,
    users: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """*n* preference-consistent ``(src, dst)`` pairs under state *shift*."""
    pool = world.users if users is None else users
    src = pool[rng.integers(0, len(pool), n)]
    dst = _dst_in_blocks(rng, world, world.preferred_block(src, shift))
    return src, dst


def _noise(
    rng: np.random.Generator, world: PreferenceWorld, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    src = world.users[rng.integers(0, len(world.users), n)]
    dst = world.items[rng.integers(0, len(world.items), n)]
    return src, dst


def _mix_noise(
    rng: np.random.Generator,
    world: PreferenceWorld,
    src: np.ndarray,
    dst: np.ndarray,
    labels: np.ndarray,
    noise_frac: float,
    eligible: Optional[np.ndarray] = None,
) -> None:
    """Overwrite a *noise_frac* subset of events with label-0 noise, in place.

    *eligible* restricts which positions may be turned into noise (e.g.
    spam events stay spam).
    """
    mask = rng.random(len(src)) < noise_frac
    if eligible is not None:
        mask &= eligible
    k = int(mask.sum())
    if not k:
        return
    nsrc, ndst = _noise(rng, world, k)
    src[mask] = nsrc
    dst[mask] = ndst
    labels[mask] = 0


def _assemble(
    spec: ScenarioSpec,
    world: PreferenceWorld,
    src: np.ndarray,
    dst: np.ndarray,
    labels: np.ndarray,
    phase: np.ndarray,
    rate: Optional[np.ndarray] = None,
    meta: Optional[Dict] = None,
) -> LabeledStream:
    """Attach timestamps (+optional payload) and wrap as a LabeledStream.

    *rate* is the per-event arrival intensity: gaps are exponential with
    mean ``1/rate``, then the cumulative time is rescaled to ``t_max``,
    preserving relative rates (a rate-6 window is 6x denser than rate-1
    surroundings).
    """
    n = spec.num_events
    rng_t = stream_rng(spec, "time")
    gaps = rng_t.exponential(1.0, n)
    if rate is not None:
        gaps = gaps / np.maximum(np.asarray(rate, dtype=np.float64), 1e-9)
    ts = np.cumsum(gaps)
    ts = ts / ts[-1] * spec.t_max
    payload = None
    if spec.payload_dim:
        payload = (
            stream_rng(spec, "payload")
            .standard_normal((n, spec.payload_dim))
            .astype(np.float32)
        )
    events = TBatch(np.arange(n, dtype=np.int64), src, dst, ts, payload)
    world_meta = {
        "num_users": len(world.users),
        "items_lo": int(world.items[0]),
        "num_groups": world.num_groups,
    }
    world_meta.update(meta or {})
    return LabeledStream(
        spec=spec,
        events=events,
        labels=labels,
        phase=phase,
        meta=world_meta,
    )


def _window(spec: ScenarioSpec, start_key: str, end_key: str, lo: float, hi: float):
    n = spec.num_events
    start = int(n * float(spec.knob(start_key, lo)))
    end = int(n * float(spec.knob(end_key, hi)))
    if not 0 <= start <= end <= n:
        raise ValueError(f"bad window [{start}, {end}) for {spec.name}")
    return start, end


@register("flash_crowd", "burst of genuine traffic piling onto a hot item set")
def flash_crowd(spec: ScenarioSpec) -> LabeledStream:
    """Arrival rate jumps ``amplitude``-fold inside the burst window and
    burst traffic concentrates on ``hot_items`` destinations (label 1 —
    a flash crowd is genuine demand).  Knobs: ``burst_start`` /
    ``burst_end`` (event fractions), ``amplitude``, ``hot_items``,
    ``hot_share``."""
    world = build_world(spec)
    n = spec.num_events
    start, end = _window(spec, "burst_start", "burst_end", 0.4, 0.6)
    amplitude = float(spec.knob("amplitude", 6.0))
    hot_items = int(spec.knob("hot_items", 8))
    hot_share = float(spec.knob("hot_share", 0.8))

    rng = stream_rng(spec, "events")
    src, dst = _genuine(rng, world, n, shift=0)
    labels = np.ones(n, dtype=np.int64)
    phase = np.zeros(n, dtype=np.int64)
    phase[start:end] = 1
    phase[end:] = 2

    hot = world.items[
        stream_rng(spec, "hot").choice(len(world.items), hot_items, replace=False)
    ]
    in_burst = np.zeros(n, dtype=bool)
    in_burst[start:end] = True
    goes_hot = in_burst & (stream_rng(spec, "hot_pick").random(n) < hot_share)
    k = int(goes_hot.sum())
    if k:
        dst[goes_hot] = hot[stream_rng(spec, "hot_dst").integers(0, hot_items, k)]

    _mix_noise(
        stream_rng(spec, "noise"), world, src, dst, labels, spec.noise_frac,
        eligible=~goes_hot,
    )
    rate = np.where(in_burst, amplitude, 1.0)
    return _assemble(
        spec, world, src, dst, labels, phase, rate=rate,
        meta={"hot": hot, "burst": (start, end), "amplitude": amplitude},
    )


@register("spam_flood", "adversarial spammers flooding random targets")
def spam_flood(spec: ScenarioSpec) -> LabeledStream:
    """Inside the flood window a ``spam_frac`` share of events comes from
    ``num_spammers`` source accounts spraying uniform destinations
    (label 0).  Knobs: ``flood_start`` / ``flood_end``, ``spam_frac``,
    ``num_spammers``."""
    world = build_world(spec)
    n = spec.num_events
    start, end = _window(spec, "flood_start", "flood_end", 0.35, 0.65)
    spam_frac = float(spec.knob("spam_frac", 0.6))
    num_spammers = int(spec.knob("num_spammers", 6))

    rng = stream_rng(spec, "events")
    src, dst = _genuine(rng, world, n, shift=0)
    labels = np.ones(n, dtype=np.int64)
    phase = np.zeros(n, dtype=np.int64)
    phase[start:end] = 1
    phase[end:] = 2

    spammers = world.users[
        stream_rng(spec, "spammers").choice(
            len(world.users), num_spammers, replace=False
        )
    ]
    in_flood = np.zeros(n, dtype=bool)
    in_flood[start:end] = True
    is_spam = in_flood & (stream_rng(spec, "spam_pick").random(n) < spam_frac)
    k = int(is_spam.sum())
    if k:
        rng_s = stream_rng(spec, "spam")
        src[is_spam] = spammers[rng_s.integers(0, num_spammers, k)]
        dst[is_spam] = world.items[rng_s.integers(0, len(world.items), k)]
        labels[is_spam] = 0

    _mix_noise(
        stream_rng(spec, "noise"), world, src, dst, labels, spec.noise_frac,
        eligible=~is_spam,
    )
    return _assemble(
        spec, world, src, dst, labels, phase,
        meta={"spammers": spammers, "flood": (start, end), "spam_frac": spam_frac},
    )


@register("cold_start", "user waves that only begin interacting mid-stream")
def cold_start(spec: ScenarioSpec) -> LabeledStream:
    """Users arrive in ``num_waves`` contiguous cohorts; wave ``w``
    produces no events before its activation point ``w/num_waves`` of
    the stream.  Phase = number of active waves minus one."""
    world = build_world(spec)
    n = spec.num_events
    num_waves = int(spec.knob("num_waves", 4))
    num_users = len(world.users)
    #: contiguous user chunks, orthogonal to the modulo group structure.
    wave_of = (world.users * num_waves) // num_users
    activation = np.array([int(n * w / num_waves) for w in range(num_waves)])

    rng = stream_rng(spec, "events")
    src = np.empty(n, dtype=np.int64)
    phase = np.searchsorted(activation, np.arange(n), side="right") - 1
    for w in range(num_waves):
        lo = activation[w]
        hi = activation[w + 1] if w + 1 < num_waves else n
        active_users = world.users[wave_of <= w]
        src[lo:hi] = active_users[rng.integers(0, len(active_users), hi - lo)]
    dst = _dst_in_blocks(rng, world, world.preferred_block(src, 0))
    labels = np.ones(n, dtype=np.int64)

    _mix_noise_cold(spec, world, wave_of, phase, src, dst, labels)
    return _assemble(
        spec, world, src, dst, labels, phase,
        meta={"wave_of": wave_of, "activation": activation, "num_waves": num_waves},
    )


def _mix_noise_cold(spec, world, wave_of, phase, src, dst, labels) -> None:
    """Noise for cold start must respect activations: a noise event's
    source is drawn from the users already active at that point."""
    rng = stream_rng(spec, "noise")
    mask = rng.random(len(src)) < spec.noise_frac
    idx = np.flatnonzero(mask)
    if not len(idx):
        return
    for i in idx:
        active_users = world.users[wave_of <= phase[i]]
        src[i] = active_users[rng.integers(0, len(active_users))]
        dst[i] = world.items[rng.integers(0, len(world.items))]
    labels[idx] = 0


@register("distribution_drift", "group→block preference flip, abrupt or gradual")
def distribution_drift(spec: ScenarioSpec) -> LabeledStream:
    """The preference table shifts by one block at ``drift_start``.
    ``mode='abrupt'`` flips instantly; ``'gradual'`` ramps the share of
    new-preference events linearly until ``drift_end``.  Phase 0 =
    pre-drift, 1 = transition (empty when abrupt), 2 = post-drift."""
    world = build_world(spec)
    n = spec.num_events
    mode = str(spec.knob("mode", "abrupt"))
    if mode not in ("abrupt", "gradual"):
        raise ValueError(f"drift mode must be 'abrupt' or 'gradual', got {mode!r}")
    start = int(n * float(spec.knob("drift_start", 0.5)))
    end = start if mode == "abrupt" else int(n * float(spec.knob("drift_end", 0.75)))
    if not 0 <= start <= end <= n:
        raise ValueError(f"bad drift window [{start}, {end})")

    idx = np.arange(n)
    if end > start:
        ramp = np.clip((idx - start) / (end - start), 0.0, 1.0)
    else:
        ramp = (idx >= start).astype(np.float64)
    shift = (stream_rng(spec, "ramp").random(n) < ramp).astype(np.int64)

    rng = stream_rng(spec, "events")
    src = world.users[rng.integers(0, len(world.users), n)]
    dst = _dst_in_blocks(rng, world, world.preferred_block(src, shift))
    labels = np.ones(n, dtype=np.int64)
    phase = np.zeros(n, dtype=np.int64)
    phase[(idx >= start) & (idx < end)] = 1
    phase[idx >= end] = 2

    _mix_noise(stream_rng(spec, "noise"), world, src, dst, labels, spec.noise_frac)
    return _assemble(
        spec, world, src, dst, labels, phase,
        meta={"drift": (start, end), "mode": mode, "shift": shift},
    )


@register("node_churn", "per-interval rotation of each block's active items")
def node_churn(spec: ScenarioSpec) -> LabeledStream:
    """Each block exposes an active subset (``active_frac``); every
    interval, ``churn_rate`` of each block's active items rotate out for
    dormant ones.  Genuine traffic targets active preferred items only.
    Phase = interval index; ``meta['active_sets']`` records the sets."""
    world = build_world(spec)
    n = spec.num_events
    num_intervals = int(spec.knob("num_intervals", 8))
    active_frac = float(spec.knob("active_frac", 0.5))
    churn_rate = float(spec.knob("churn_rate", 0.3))

    rng_c = stream_rng(spec, "churn")
    blocks = [
        np.arange(s, s + l, dtype=np.int64)
        for s, l in zip(world.block_start, world.block_len)
    ]
    active: List[np.ndarray] = []
    for block in blocks:
        k = max(1, int(round(len(block) * active_frac)))
        active.append(np.sort(rng_c.choice(block, k, replace=False)))

    rng = stream_rng(spec, "events")
    src = np.empty(n, dtype=np.int64)
    dst = np.empty(n, dtype=np.int64)
    phase = np.empty(n, dtype=np.int64)
    bounds = np.linspace(0, n, num_intervals + 1).astype(int)
    active_sets: List[np.ndarray] = []
    for k in range(num_intervals):
        lo, hi = bounds[k], bounds[k + 1]
        m = hi - lo
        phase[lo:hi] = k
        active_sets.append(np.sort(np.concatenate(active)))
        s = world.users[rng.integers(0, len(world.users), m)]
        pref = world.preferred_block(s, 0)
        src[lo:hi] = s
        for b in range(world.num_groups):
            sel = np.flatnonzero(pref == b)
            if len(sel):
                pool = active[b]
                dst[lo + sel] = pool[rng.integers(0, len(pool), len(sel))]
        # rotate each block's active set for the next interval
        for b, block in enumerate(blocks):
            out_n = int(round(len(active[b]) * churn_rate))
            dormant = np.setdiff1d(block, active[b], assume_unique=False)
            out_n = min(out_n, len(dormant))
            if not out_n:
                continue
            leaving = rng_c.choice(active[b], out_n, replace=False)
            joining = rng_c.choice(dormant, out_n, replace=False)
            active[b] = np.sort(
                np.concatenate([np.setdiff1d(active[b], leaving), joining])
            )
    labels = np.ones(n, dtype=np.int64)
    _mix_noise(stream_rng(spec, "noise"), world, src, dst, labels, spec.noise_frac)
    return _assemble(
        spec, world, src, dst, labels, phase,
        meta={
            "active_sets": active_sets,
            "num_intervals": num_intervals,
            "churn_rate": churn_rate,
        },
    )
