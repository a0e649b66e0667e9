"""Hot-embedding-row caching simulation (RecNMP-style, extension).

Ke et al. (2020) add memory-side caching of frequently accessed embedding
entries; recommendation traffic is heavily Zipf-skewed, so even a small
cache absorbs much of the random-access stream.  This module simulates an
LRU row cache in front of a table and reports hit rates and effective
lookup latency, letting experiments relate traffic skew, cache size, and
the residual benefit of Cartesian merging (merged products dilute per-row
popularity, so caching and merging interact).

The bulk path (:func:`lru_hit_flags`, used by
:meth:`LruRowCache.run_trace`, and :func:`lru_tier_cascade`, used by the
tier simulator in :mod:`repro.memory.tiers`) is vectorised and
exact-first.  It exploits the classic stack-distance characterisation
of LRU: because this cache inserts on miss, an access hits iff the
number of *distinct* keys touched since the key's previous occurrence
is below the capacity.  Most accesses settle in O(n) without that
count: a first touch misses; a reuse at most ``capacity`` accesses
after its previous touch hits; a reuse with at least ``capacity``
first touches (distinct keys by construction) in between misses.  Only
the accesses left undecided pay for the exact distinct count (see
:func:`_distinct_between`): prefix sums cover the short-gap reuses, and
a dominance count over previous-occurrence indices
(:func:`_count_smaller_before`, a bottom-up merge in O(n log n) NumPy
passes) covers only the long-gap reuses inside an undecided window.
The cascade sorts its trace once: each lower tier's miss stream takes
its key order by filtering that one stable argsort.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def _count_smaller_before(values: np.ndarray) -> np.ndarray:
    """For each ``i``: ``#{j < i : values[j] < values[i]}``, exactly.

    Bottom-up merge counting: at each level the array is partitioned
    into blocks sorted by value whose slots still correspond to
    contiguous ranges of original positions, so every (j, i) pair is
    counted exactly once — at the level where j's block and i's block
    become siblings — via one biased ``np.searchsorted`` over all block
    pairs at once.  O(n log n) NumPy work, no per-element Python loop.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    # Pad to a power of two with sentinels larger than every real value:
    # every block is then full, so each level is pure reshaped
    # arithmetic with no ragged-block bookkeeping.  The sentinels sort
    # to the end of their block and contribute only to pad counts,
    # which are sliced off at the end.
    m = 1 << (n - 1).bit_length()
    lo = int(values.min())
    span = int(values.max()) - lo + 2  # +1 head-room for the sentinel
    vals = np.full(m, span - 1, dtype=np.int64)
    vals[:n] = values - lo
    counts = np.zeros(m, dtype=np.int64)
    pos = np.arange(m, dtype=np.int64)  # original index of each slot
    width = 1
    while width < m:
        pair = 2 * width
        n_blocks = m // pair
        # Bias each block by ``block_id * span`` so the concatenated
        # left halves (and right halves) are globally sorted.
        bias = (np.arange(n_blocks, dtype=np.int64) * span)[:, None]
        biased = (vals.reshape(n_blocks, pair) + bias).ravel()
        two = biased.reshape(n_blocks, pair)
        left = np.ascontiguousarray(two[:, :width]).ravel()
        right = np.ascontiguousarray(two[:, width:]).ravel()
        local = np.tile(np.arange(width, dtype=np.int64), n_blocks)
        block_starts = np.repeat(
            np.arange(n_blocks, dtype=np.int64) * width, width
        )
        rank_in_left = (
            np.searchsorted(left, right, side="left") - block_starts
        )
        pos2 = pos.reshape(n_blocks, pair)
        counts[pos2[:, width:].ravel()] += rank_in_left
        # Stable scatter-merge using the two cross-rank arrays: left
        # element k lands at k + (#right <= value), right element k at
        # k + (#left < value) — a consistent tie rule, so the slots
        # form a permutation and each block pair ends up sorted.
        rank_in_right = (
            np.searchsorted(right, left, side="right") - block_starts
        )
        new_slots = np.empty(m, dtype=np.int64)
        pair_base = np.repeat(
            np.arange(n_blocks, dtype=np.int64) * pair, width
        )
        new_slots_2d = new_slots.reshape(n_blocks, pair)
        new_slots_2d[:, :width] = (
            pair_base + local + rank_in_right
        ).reshape(n_blocks, width)
        new_slots_2d[:, width:] = (
            pair_base + local + rank_in_left
        ).reshape(n_blocks, width)
        merged_vals = np.empty(m, dtype=np.int64)
        merged_pos = np.empty(m, dtype=np.int64)
        merged_vals[new_slots] = vals
        merged_pos[new_slots] = pos
        vals = merged_vals
        pos = merged_pos
        width = pair
    return counts[:n]


def _lru_hits_sorted(
    keys: np.ndarray, order: np.ndarray, capacity_rows: int
) -> np.ndarray:
    """:func:`lru_hit_flags` given ``order``, a stable argsort of ``keys``.

    Settles each access in O(n) where it can and merge-counts the rest
    (see :func:`_distinct_between`).
    """
    n = keys.size
    # Previous occurrence of each key: the stable sort groups equal keys
    # in position order.  First touches keep -1.
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    reuse = prev >= 0
    # Fewer than `capacity` accesses since the previous touch cannot
    # hold `capacity` distinct keys: a hit.
    near = reuse & (np.arange(n, dtype=np.int64) - prev <= capacity_rows)
    far = reuse & ~near
    open_ = np.flatnonzero(far)
    if open_.size == 0:
        return near
    # Every global first touch strictly between is a distinct key other
    # than this one; `capacity` of them evict it: a miss.
    first_touches = np.cumsum(~reuse)
    fresh = first_touches[open_] - first_touches[prev[open_]]
    open_ = open_[fresh < capacity_rows]
    hit = near.copy()
    if open_.size:
        hit[open_] = (
            _distinct_between(prev, near, far, first_touches, open_)
            < capacity_rows
        )
    return hit


def _distinct_between(
    prev: np.ndarray,
    near: np.ndarray,
    far: np.ndarray,
    first_touches: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """Distinct keys strictly between ``prev[i]`` and ``i``, per query.

    A key counts once, at its first access inside the window ``(p, i)``:
    a first touch (``first_touches`` is their inclusive running count),
    or a reuse ``j`` with ``prev[j] < p``.  Reuses split by their own
    gap.  A ``near`` one (gap at most ``capacity``) that starts before
    ``p`` and ends after it also ends before ``i``, because a query is
    a ``far`` reuse with a longer gap, so their count is
    ``#{prev[j] < p} - #{j <= p}`` from two prefix sums.  ``far`` ones
    need the dominance count, run
    only over those inside some query's window plus the queries: over
    those kept points ``K``, ``#{j in K, j < i : prev[j] < p}``
    over-counts by exactly the kept points at or before ``p``, each of
    which has ``prev[j] < j <= p``.
    """
    n = prev.size
    starts = prev[queries]
    near_below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(prev[near], minlength=n), out=near_below[1:])
    near_count = near_below[starts] - np.cumsum(near)[starts]
    depth = np.cumsum(
        np.bincount(starts + 1, minlength=n + 1)
        - np.bincount(queries, minlength=n + 1)
    )[:n]
    kept = far & (depth > 0)
    kept[queries] = True
    rank = np.cumsum(kept)
    smaller = _count_smaller_before(prev[kept])[rank[queries] - 1]
    return (
        first_touches[queries] - first_touches[starts]
        + near_count + smaller - rank[starts]
    )


def lru_hit_flags(keys: np.ndarray, capacity_rows: int) -> np.ndarray:
    """Per-access hit flags for an LRU cache starting empty.

    Exact semantics of replaying ``keys`` through
    :meth:`LruRowCache.access` on a fresh cache, but vectorised: access
    ``i`` hits iff the key occurred before and fewer than
    ``capacity_rows`` distinct keys appeared strictly in between.
    """
    return lru_tier_cascade(keys, (capacity_rows,)) == 0


def lru_tier_cascade(
    keys: np.ndarray, capacities_rows: Sequence[int]
) -> np.ndarray:
    """Which LRU cache of a cascade serves each access (caches cold).

    The first cache sees ``keys``; each cache's misses, in order, feed
    the next; ``len(capacities_rows)`` marks an access every cache
    missed.  Equal to chaining :func:`lru_hit_flags` over the miss
    streams, but the trace is argsorted once: a miss stream's stable
    key order is the parent order filtered by the miss mask and
    renumbered through ``cumsum(miss) - 1``.
    """
    for capacity in capacities_rows:
        if capacity <= 0:
            raise ValueError(
                f"capacity_rows must be positive, got {capacity}"
            )
    keys = np.asarray(keys, dtype=np.int64).ravel()
    assigned = np.full(keys.size, len(capacities_rows), dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    pos = np.arange(keys.size, dtype=np.int64)
    for tier, capacity in enumerate(capacities_rows):
        if pos.size == 0:
            break
        hit = _lru_hits_sorted(keys[pos], order, capacity)
        assigned[pos[hit]] = tier
        if tier + 1 < len(capacities_rows):
            miss = ~hit
            order = (np.cumsum(miss) - 1)[order[miss[order]]]
            pos = pos[miss]
    return assigned


class LruRowCache:
    """An LRU cache over embedding-row keys."""

    def __init__(self, capacity_rows: int):
        if capacity_rows <= 0:
            raise ValueError(
                f"capacity_rows must be positive, got {capacity_rows}"
            )
        self.capacity = capacity_rows
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.stats = CacheStats()

    def access(self, key: int) -> bool:
        """Touch one row; returns True on hit."""
        if key in self._lru:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._lru[key] = None
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return False

    def run_trace(self, keys: np.ndarray) -> CacheStats:
        """Replay a whole key trace through the cache, vectorised.

        Matches :meth:`_run_trace_scalar` (a per-key :meth:`access`
        loop) exactly, including on a warm cache: the current contents
        are replayed as a synthetic prefix — one access per resident
        key in LRU order reproduces the cache state — and only the real
        suffix is scored.  The final LRU contents are the last
        ``capacity`` distinct keys ordered by last occurrence, rebuilt
        from the trace without touching the per-key path.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.size == 0:
            return self.stats
        if self._lru:
            prefix = np.fromiter(
                self._lru, dtype=np.int64, count=len(self._lru)
            )
            full = np.concatenate([prefix, keys])
        else:
            full = keys
        flags = lru_hit_flags(full, self.capacity)[full.size - keys.size:]
        hits = int(np.count_nonzero(flags))
        self.stats.hits += hits
        self.stats.misses += keys.size - hits
        # Final contents: the most recent `capacity` distinct keys, in
        # order of last occurrence (oldest first, like the OrderedDict).
        reversed_trace = full[::-1]
        unique, first_in_reversed = np.unique(
            reversed_trace, return_index=True
        )
        last_pos = full.size - 1 - first_in_reversed
        keep = np.argsort(last_pos)[-self.capacity:]
        self._lru = OrderedDict((int(k), None) for k in unique[keep])
        return self.stats

    def _run_trace_scalar(self, keys: np.ndarray) -> CacheStats:
        """The original per-key Python loop.

        Kept as the reference implementation the parity tests compare
        :meth:`run_trace` against.
        """
        for key in np.asarray(keys, dtype=np.int64):
            self.access(int(key))
        return self.stats


def effective_lookup_ns(
    hit_rate: float, hit_ns: float, miss_ns: float
) -> float:
    """Expected per-lookup latency in front of a cache."""
    if not 0 <= hit_rate <= 1:
        raise ValueError(f"hit_rate must be in [0, 1], got {hit_rate}")
    return hit_rate * hit_ns + (1.0 - hit_rate) * miss_ns


def zipf_hit_rate(
    rows: int,
    capacity_rows: int,
    alpha: float,
    accesses: int = 50_000,
    seed: int = 0,
) -> float:
    """Simulated LRU hit rate under Zipf(alpha) traffic over one table."""
    from repro.models.distributions import zipf_indices

    rng = np.random.default_rng(seed)
    cache = LruRowCache(capacity_rows)
    keys = zipf_indices(rng, rows, accesses, alpha)
    return cache.run_trace(keys).hit_rate
