"""Property test: the O(1) LRU picks the same victims as a full-trie scan.

``ScanOracle`` keeps the eviction rule the cache used before its
recency list: stamp every touch with a clock and, at each eviction,
walk the whole trie for the entry with the oldest stamp.  Driving both
caches through the same interleavings of lookups and mutations must
evict the same paths in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.namespace import INode, MetadataCache

component = st.sampled_from(["a", "b", "c"])
path_strategy = st.builds(
    lambda parts: "/" + "/".join(parts),
    st.lists(component, min_size=0, max_size=3),
)

# Weighted towards puts and lookups so most examples fill the cache
# and evict, with the occasional mutation in between.
kinds = st.sampled_from(
    ["put"] * 4 + ["get"] * 2 + ["get_path_prefix"] * 2
    + ["invalidate", "invalidate_prefix", "clear"]
)
operation = st.tuples(kinds, path_strategy, st.integers(2, 10_000))

def path_of(node) -> str:
    parts = []
    while node.parent is not None:
        parts.append(node.name)
        node = node.parent
    return "/" + "/".join(reversed(parts))


class RecordingCache(MetadataCache):
    """The production cache, recording each eviction victim's path."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.victims = []

    def _lru_victim(self):
        victim = super()._lru_victim()
        self.victims.append(path_of(victim))
        return victim


class ScanOracle(RecordingCache):
    """The full-trie scan for the least-recently-touched entry."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._clock = 0
        self._last_used = {}

    def _touch(self, node) -> None:
        super()._touch(node)
        self._clock += 1
        self._last_used[node] = self._clock

    def _lru_victim(self):
        best = None
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.inode is not None and (
                best is None or self._last_used[node] < self._last_used[best]
            ):
                best = node
            stack.extend(node.children.values())
        self.victims.append(path_of(best))
        return best


def apply(cache: MetadataCache, kind: str, path, value):
    if kind == "put":
        cache.put(path, INode(id=value, parent_id=1, name="n", is_dir=False))
        return None
    if kind == "get":
        inode = cache.get(path)
        return None if inode is None else inode.id
    if kind == "get_path_prefix":
        return {p: inode.id for p, inode in cache.get_path_prefix(path).items()}
    if kind == "clear":
        return cache.clear()
    return getattr(cache, kind)(path)


@settings(max_examples=300, deadline=None)
@given(st.lists(operation, min_size=20, max_size=80), st.integers(1, 5))
def test_lru_victims_match_full_trie_scan(ops, capacity):
    fast, oracle = RecordingCache(capacity), ScanOracle(capacity)
    for kind, path, value in ops:
        assert apply(fast, kind, path, value) == apply(oracle, kind, path, value)
        assert fast.victims == oracle.victims
        assert len(fast) == len(oracle) <= capacity
        assert sorted(fast.paths()) == sorted(oracle.paths())
    assert fast.stats == oracle.stats


def test_interior_entry_can_be_evicted():
    cache = RecordingCache(capacity=1)
    cache.put("/a", INode(id=2, parent_id=1, name="a", is_dir=True))
    cache.put("/a/b", INode(id=3, parent_id=2, name="b", is_dir=False))
    assert cache.victims == ["/a"]
    assert list(cache.paths()) == ["/a/b"]
