"""Consistent-hash sharding for the classifier/storage grid.

The paper's grid promises scale-out management; the sharded deployment
partitions the classifier/storage lane by *device key* so each shard owns
a stable subset of the managed devices.  The partition function is a
classic consistent-hash ring (Karger et al.): every shard contributes
``vnodes`` virtual points on a 64-bit ring, a key is owned by the first
point clockwise from its hash, and adding a shard only moves the keys
that fall between the new points and their predecessors -- about
``1/n`` of the key space instead of nearly all of it (the failure mode
of ``hash(key) % n``).  A deployment builds its ring once, from its
shard count; shards never join or leave mid-run.

Design notes:

* Hashing is :func:`stable_hash` (md5-derived), NOT the builtin
  ``hash()``: string hashing is randomized per process
  (``PYTHONHASHSEED``), and shard ownership must be deterministic across
  runs for the reproduction's byte-identity discipline.
* ``lookup`` memoizes key -> node in a flat dict (O(1) for the steady
  state where the same device keys recur every poll cycle); the memo is
  invalidated when a node is added.
"""

import bisect
import hashlib


def stable_hash(key):
    """Deterministic 64-bit hash of a key (process/run independent)."""
    if not isinstance(key, bytes):
        key = str(key).encode("utf-8")
    return int.from_bytes(hashlib.md5(key).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring with virtual nodes and an O(1) lookup memo.

    Args:
        nodes: initial node names (shard identifiers, e.g. storage host
            names).
        vnodes: virtual points per node; more points = better balance at
            the cost of a larger (still tiny) sorted point table.
    """

    def __init__(self, nodes=(), vnodes=64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._nodes = []          # sorted node names
        self._points = []         # sorted vnode hashes
        self._owners = []         # owner node per point (parallel to _points)
        self._lookup_memo = {}
        for node in nodes:
            self.add_node(node)

    # -- membership -------------------------------------------------------

    def __len__(self):
        return len(self._nodes)

    def _node_points(self, node):
        return [stable_hash("%s#%d" % (node, index))
                for index in range(self.vnodes)]

    def add_node(self, node):
        """Add a node; O(vnodes log points).  Invalidates the memo."""
        if node in self._nodes:
            raise ValueError("node %r already on the ring" % node)
        for point in self._node_points(node):
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)
        bisect.insort(self._nodes, node)
        self._lookup_memo = {}

    # -- lookup -----------------------------------------------------------

    def lookup(self, key):
        """The node owning ``key`` (memoized; O(log points) on a miss)."""
        node = self._lookup_memo.get(key)
        if node is None:
            if not self._points:
                raise LookupError("hash ring is empty")
            index = bisect.bisect_right(self._points, stable_hash(key))
            if index == len(self._points):
                index = 0  # wrap around the ring
            node = self._owners[index]
            self._lookup_memo[key] = node
        return node

    def __repr__(self):
        return "HashRing(nodes=%d, vnodes=%d, points=%d)" % (
            len(self._nodes), self.vnodes, len(self._points),
        )

