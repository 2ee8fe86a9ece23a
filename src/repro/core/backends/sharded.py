"""Hash-partitioned state: every store split into N lock-guarded shards.

Partitioning the blocking-key space is the classic route to parallel ER at
scale (Kolb et al.'s MapReduce sorted-neighborhood; the blocking surveys).
This backend applies it to *state*: each store routes every operation to
one of ``shards`` sub-stores by a stable hash of its natural partition key —

* block index and blacklist: the blocking key;
* profile map: the entity identifier;
* match store: the canonical pair key;

— and guards each shard with its own re-entrant lock, so writers touching
different shards never contend.  Routing uses ``crc32(repr(key))`` rather
than the built-in ``hash`` because the latter is salted per process; crc32
gives the same shard for the same key in every worker process, which keeps
multiprocess executions deterministic and lets per-shard dumps be merged.

Per-entity computation is untouched — a sharded run produces *exactly* the
same matches as an in-memory run (the differential suite asserts this for
1, 2 and 7 shards, with and without fault injection); what changes is that
independent shards can be owned, locked, persisted and merged separately.
"""

from __future__ import annotations

import threading
import zlib
from typing import Iterator, Mapping

from repro.core.state import (
    Blacklist,
    BlockCollection,
    ERState,
    MatchStore,
    ProfileStore,
)
from repro.errors import ConfigurationError
from repro.metablocking.iwnp import iwnp_counts
from repro.reading.interning import TokenDictionary
from repro.types import EntityId, Match, Profile, pair_key


def shard_index(key: object, shards: int) -> int:
    """Stable shard of ``key``: identical across processes and runs."""
    return zlib.crc32(repr(key).encode()) % shards


class _ShardedStore:
    """Common shard bookkeeping: sub-stores, locks, routing."""

    def __init__(self, shards: int, factory) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self._stores = [factory() for _ in range(shards)]
        self._locks = [threading.RLock() for _ in range(shards)]

    def _route(self, key: object):
        index = shard_index(key, self.shards)
        return self._stores[index], self._locks[index]

    def shard_stores(self) -> list:
        """The underlying sub-stores (for per-shard persistence/merging)."""
        return list(self._stores)


class ShardedBlockCollection(_ShardedStore):
    """A :class:`~repro.core.state.BlockCollection` split by blocking key."""

    def __init__(self, shards: int) -> None:
        super().__init__(shards, BlockCollection)

    def add(self, key: str, eid: EntityId) -> int:
        store, lock = self._route(key)
        with lock:
            return store.add(key, eid)

    def remove_block(self, key: str) -> None:
        store, lock = self._route(key)
        with lock:
            store.remove_block(key)

    def discard(self, key: str, eid: EntityId) -> bool:
        store, lock = self._route(key)
        with lock:
            return store.discard(key, eid)

    def block(self, key: str) -> list[EntityId]:
        store, lock = self._route(key)
        with lock:
            return store.block(key)

    def __contains__(self, key: str) -> bool:
        store, lock = self._route(key)
        with lock:
            return key in store

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def keys(self) -> Iterator[str]:
        for store in self._stores:
            yield from store.keys()

    def items(self) -> Iterator[tuple[str, list[EntityId]]]:
        for store in self._stores:
            yield from store.items()

    def sizes(self) -> Mapping[str, int]:
        merged: dict[str, int] = {}
        for store in self._stores:
            merged.update(store.sizes())
        return merged

    def total_assignments(self) -> int:
        return sum(store.total_assignments() for store in self._stores)

    def total_comparisons(self) -> int:
        return sum(store.total_comparisons() for store in self._stores)


class ShardedBlacklist(_ShardedStore):
    """A :class:`~repro.core.state.Blacklist` split by blocking key."""

    def __init__(self, shards: int) -> None:
        super().__init__(shards, Blacklist)

    def add(self, key: str) -> None:
        store, lock = self._route(key)
        with lock:
            store.add(key)

    def __contains__(self, key: str) -> bool:
        store, lock = self._route(key)
        with lock:
            return key in store

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    @property
    def keys(self) -> set[str]:
        """Union of all shards' keys (a copy, matching ``Blacklist.keys``)."""
        merged: set[str] = set()
        for store in self._stores:
            merged |= store.keys
        return merged


class ShardedProfileStore(_ShardedStore):
    """A :class:`~repro.core.state.ProfileStore` split by entity id."""

    def __init__(self, shards: int) -> None:
        super().__init__(shards, ProfileStore)

    def put(self, profile: Profile) -> None:
        store, lock = self._route(profile.eid)
        with lock:
            store.put(profile)

    def get(self, eid: EntityId) -> Profile | None:
        store, lock = self._route(eid)
        with lock:
            return store.get(eid)

    def __contains__(self, eid: EntityId) -> bool:
        store, lock = self._route(eid)
        with lock:
            return eid in store

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def values(self) -> Iterator[Profile]:
        for store in self._stores:
            yield from store.values()

    def remove(self, eid: EntityId) -> bool:
        store, lock = self._route(eid)
        with lock:
            return store.remove(eid)


class ShardedMatchStore(_ShardedStore):
    """A :class:`~repro.core.state.MatchStore` split by canonical pair key.

    ``matches()`` concatenates the shards, so global discovery order is not
    preserved (per-shard order is); consumers needing a canonical order
    should sort, and set-level views (``pairs()``) are exact.
    """

    def __init__(self, shards: int) -> None:
        super().__init__(shards, MatchStore)

    def add(self, match: Match) -> bool:
        store, lock = self._route(match.key())
        with lock:
            return store.add(match)

    def __contains__(self, pair: tuple[EntityId, EntityId]) -> bool:
        store, lock = self._route(pair_key(*pair))
        with lock:
            return pair in store

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def matches(self) -> list[Match]:
        out: list[Match] = []
        for store in self._stores:
            out.extend(store.matches())
        return out

    def pairs(self) -> set[tuple[EntityId, EntityId]]:
        merged: set[tuple[EntityId, EntityId]] = set()
        for store in self._stores:
            merged |= store.pairs()
        return merged


class ShardedCooccurrenceCounter:
    """CBS tallying with the cumulative statistic partitioned by partner id.

    The per-call grouping is pure (it sees one entity's candidate list);
    only the cumulative ``pairs_counted`` statistic is shared, and it is
    accumulated under per-shard locks so replicated ``f_cc`` workers never
    contend on a single counter.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self._counted = [0] * shards
        self._locks = [threading.RLock() for _ in range(shards)]

    def count(self, candidates: list[EntityId]) -> dict[EntityId, int]:
        counts = iwnp_counts(candidates)
        for j, c in counts.items():
            index = shard_index(j, self.shards)
            with self._locks[index]:
                self._counted[index] += c
        return counts

    @property
    def pairs_counted(self) -> int:
        return sum(self._counted)


class ShardedBackend:
    """All partitionable state components hash-split into ``shards`` shards.

    The token dictionary is deliberately *not* sharded: interned ids must
    be globally consistent (a pair of entities living in different profile
    shards still compares id-to-id), and :class:`~repro.reading.interning.
    TokenDictionary` is append-only with an internal lock, so one shared
    instance is both correct and cheap.
    """

    def __init__(self, shards: int = 4) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.blocks = ShardedBlockCollection(shards)
        self.blacklist = ShardedBlacklist(shards)
        self.profiles = ShardedProfileStore(shards)
        self.matches = ShardedMatchStore(shards)
        self.cooccurrence = ShardedCooccurrenceCounter(shards)
        self.dictionary = TokenDictionary()

    def state(self) -> ERState:
        return ERState(
            blocks=self.blocks,  # type: ignore[arg-type]
            blacklist=self.blacklist,  # type: ignore[arg-type]
            profiles=self.profiles,  # type: ignore[arg-type]
            matches=self.matches,  # type: ignore[arg-type]
        )
