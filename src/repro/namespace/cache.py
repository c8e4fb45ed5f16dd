"""Trie-backed metadata cache with prefix invalidation (§3.3, App. D).

λFS NameNodes cache the metadata of *every* INode along a resolved
path, stored in an in-memory trie.  The trie shape makes subtree
(prefix) invalidations cheap: invalidating "/foo" prunes one subtree
node instead of touching each cached descendant individually.

Capacity is bounded: when the number of cached INodes exceeds
``capacity`` the least-recently-used *entries* are evicted — any trie
node that holds an INode can be the victim, an interior directory as
well as a leaf — which is how the "reduced-cache λFS" configuration of
§5.2.3 is expressed.  Recency is a doubly-linked list threaded through
the nodes that hold entries, so refreshing an entry and choosing a
victim are both O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from repro.namespace.inode import INode
from repro.namespace.paths import components, normalize


@dataclass
class CacheStats:
    """Hit/miss/invalidations counters for one cache.

    This is the *single* source of truth for cache accounting: the
    NameNode request handlers call :meth:`record_lookup` at their
    hit/miss decision points, and every downstream consumer
    (``MetricsRecorder.cache_hit_ratio``, telemetry gauges, reports)
    reads from here instead of keeping parallel counters.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record_lookup(self, hit: bool) -> None:
        """Count one request-level cache decision (hit or miss)."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Add ``other``'s counters into this one (for fleet rollups)."""
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        return self

    @staticmethod
    def aggregate(stats: "Iterable[CacheStats]") -> "CacheStats":
        """A fresh CacheStats summing every element of ``stats``."""
        total = CacheStats()
        for item in stats:
            total.merge(item)
        return total


class _TrieNode:
    __slots__ = ("name", "inode", "children", "parent", "prev", "next")

    def __init__(self, name: str, parent: Optional["_TrieNode"]) -> None:
        self.name = name
        self.inode: Optional[INode] = None
        self.children: Dict[str, "_TrieNode"] = {}
        self.parent = parent
        # Neighbours in the recency list while the node holds an entry.
        self.prev: Optional["_TrieNode"] = None
        self.next: Optional["_TrieNode"] = None


class MetadataCache:
    """An LRU-bounded path trie of INode snapshots."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._root = _TrieNode("", None)
        # Sentinel of the circular recency list of the nodes holding an
        # entry, least recently used first: ``_lru.next`` is the victim.
        self._lru = _TrieNode("", None)
        self._lru.prev = self._lru.next = self._lru
        self._size = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return self._size

    # -- lookups -------------------------------------------------------
    def get(self, path: str) -> Optional[INode]:
        """The cached INode for ``path``, or None on a miss."""
        node = self._find(path)
        if node is None or node.inode is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch(node)
        return node.inode

    def get_path_prefix(self, path: str) -> Dict[str, INode]:
        """All cached INodes along ``path``, keyed by their path.

        Used for path resolution: the NameNode only needs to fetch the
        suffix that is missing from the cache.
        """
        found: Dict[str, INode] = {}
        node = self._root
        current = ""
        if node.inode is not None:
            found["/"] = node.inode
        for part in components(path):
            node = node.children.get(part)
            if node is None:
                break
            current = f"{current}/{part}"
            if node.inode is not None:
                found[current] = node.inode
                self._touch(node)
        return found

    def peek(self, path: str) -> Optional[INode]:
        """The cached INode without touching stats or LRU order.

        Used by the resilience stale-snapshot hook, which inspects an
        entry at invalidation time — not a lookup, so it must not
        perturb hit ratios or eviction behaviour.
        """
        node = self._find(path)
        return node.inode if node is not None else None

    def __contains__(self, path: str) -> bool:
        node = self._find(path)
        return node is not None and node.inode is not None

    # -- mutation ------------------------------------------------------
    def put(self, path: str, inode: INode) -> None:
        """Insert or refresh the cached INode for ``path``."""
        parts = components(path)
        node = self._root
        for part in parts:
            child = node.children.get(part)
            if child is None:
                child = _TrieNode(part, node)
                node.children[part] = child
            node = child
        if node.inode is None:
            self._size += 1
            self.stats.insertions += 1
        node.inode = inode
        self._touch(node)
        self._evict_if_needed()

    def invalidate(self, path: str) -> int:
        """Drop the single entry for ``path``; returns entries removed."""
        node = self._find(path)
        if node is None or node.inode is None:
            return 0
        node.inode = None
        self._unlink(node)
        self._size -= 1
        self.stats.invalidations += 1
        self._prune(node)
        return 1

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop ``prefix`` and everything beneath it (subtree INV).

        This is the trie-powered prefix invalidation from Appendix D:
        the whole subtree is detached in one step.
        """
        normalized = normalize(prefix)
        if normalized == "/":
            removed = self._size
            self.clear()
            self.stats.invalidations += removed
            return removed
        node = self._find(normalized)
        if node is None:
            return 0
        removed = self._forget_subtree(node)
        parent = node.parent
        if parent is not None:
            del parent.children[node.name]
            self._prune(parent)
        self._size -= removed
        self.stats.invalidations += removed
        return removed

    def clear(self) -> None:
        """Drop everything (used when an instance restarts cold)."""
        self._root = _TrieNode("", None)
        self._lru.prev = self._lru.next = self._lru
        self._size = 0

    # -- iteration -------------------------------------------------------
    def paths(self) -> Iterator[str]:
        """Yield every cached path (for tests and debugging)."""

        def walk(node: _TrieNode, path: str) -> Iterator[str]:
            if node.inode is not None:
                yield path or "/"
            for name, child in node.children.items():
                yield from walk(child, f"{path}/{name}")

        yield from walk(self._root, "")

    # -- internals -------------------------------------------------------
    def _find(self, path: str) -> Optional[_TrieNode]:
        node = self._root
        for part in components(path):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _touch(self, node: _TrieNode) -> None:
        """Move ``node`` to the most recently used end of the list."""
        head = self._lru
        last = head.prev
        if last is node:
            return
        if node.prev is not None:
            self._unlink(node)
        node.prev = last
        node.next = head
        last.next = node
        head.prev = node

    @staticmethod
    def _unlink(node: _TrieNode) -> None:
        prev, after = node.prev, node.next
        prev.next = after
        after.prev = prev
        node.prev = node.next = None

    def _forget_subtree(self, node: _TrieNode) -> int:
        """Unlink every entry under ``node`` from the LRU; returns the count."""
        removed = 0
        stack = [node]
        while stack:
            node = stack.pop()
            if node.inode is not None:
                self._unlink(node)
                removed += 1
            stack.extend(node.children.values())
        return removed

    def _prune(self, node: _TrieNode) -> None:
        """Remove empty trie branches bottom-up."""
        while (
            node.parent is not None
            and node.inode is None
            and not node.children
        ):
            parent = node.parent
            del parent.children[node.name]
            node = parent

    def _evict_if_needed(self) -> None:
        while self._size > self.capacity:
            victim = self._lru_victim()
            victim.inode = None
            self._unlink(victim)
            self._size -= 1
            self.stats.evictions += 1
            self._prune(victim)

    def _lru_victim(self) -> _TrieNode:
        """The least-recently-used node holding an entry."""
        return self._lru.next
