"""A small, exact LRU map.

Used for the clients' item caches (Section 4: "Cached data items are
managed using an LRU replacement policy").  Kept generic so tests can
model-check it against a reference implementation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Bounded mapping evicting the least-recently-used entry on overflow."""

    __slots__ = ("capacity", "_data", "_on_evict", "evictions")

    def __init__(
        self, capacity: int, on_evict: Optional[Callable[[K, V], None]] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._on_evict = on_evict
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def get(self, key: K, touch: bool = True) -> Optional[V]:
        """Return the value for *key* (None if absent); touching marks use."""
        try:
            value = self._data[key]
        except KeyError:
            return None
        if touch:
            self._data.move_to_end(key)
        return value

    def peek(self, key: K) -> Optional[V]:
        """Return the value without refreshing recency (None if absent)."""
        return self._data.get(key)

    def put(self, key: K, value: V) -> None:
        """Insert/replace *key*; evicts the LRU entry when over capacity."""
        if key in self._data:
            self._data[key] = value
            self._data.move_to_end(key)
            return
        self._data[key] = value
        if len(self._data) > self.capacity:
            old_key, old_value = self._data.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(old_key, old_value)

    def isdisjoint(self, keys: Iterable[K]) -> bool:
        """Whether none of *keys* is present (recency untouched)."""
        return self._data.keys().isdisjoint(keys)

    def remove(self, key: K) -> bool:
        """Delete *key* if present; returns whether it was there."""
        return self._data.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (without eviction callbacks)."""
        self._data.clear()

    def keys(self) -> List[K]:
        """Keys in LRU-to-MRU order (a snapshot list)."""
        return list(self._data.keys())

    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate ``(key, value)`` in LRU-to-MRU order."""
        return iter(list(self._data.items()))

    @property
    def lru_key(self) -> Optional[K]:
        """The key next in line for eviction (None when empty)."""
        return next(iter(self._data), None)
