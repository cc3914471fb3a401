"""A classic in-memory B-tree with duplicate keys and cursor scans.

This is the index structure behind :mod:`repro.substrate.bdb`, our
BerkeleyDB stand-in for the Phys-Bdb baseline (paper Section 5, Table 1).
BerkeleyDB's default access method is a B-tree that permits duplicate keys;
lineage capture under Phys-Bdb performs one ``put(out_rid, in_rid)`` per
lineage edge and lineage queries iterate duplicates with a cursor, so both
operations are implemented here with the same asymptotics (log-time descent
per put, amortized constant-time cursor steps).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

#: Maximum number of keys a node may hold before splitting (order 2t = 64).
MAX_KEYS = 63


class _Node:
    __slots__ = ("keys", "values", "children")

    def __init__(self, leaf: bool):
        self.keys: List = []
        self.values: List = []
        self.children: Optional[List["_Node"]] = None if leaf else []

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class BTree:
    """B-tree mapping comparable keys to values, duplicates allowed.

    Duplicate keys are stored as independent entries in insertion order,
    matching BerkeleyDB's ``DB_DUP`` behaviour that Phys-Bdb relies on: one
    entry per lineage edge.
    """

    def __init__(self):
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # -- insertion -------------------------------------------------------------

    def insert(self, key, value) -> None:
        root = self._root
        if len(root.keys) >= MAX_KEYS:
            new_root = _Node(leaf=False)
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            self._height += 1
        self._insert_nonfull(self._root, key, value)
        self._size += 1

    def _split_child(self, parent: _Node, index: int) -> None:
        child = parent.children[index]
        mid = len(child.keys) // 2
        sibling = _Node(leaf=child.is_leaf)
        # Move upper half to the new sibling; median moves up to the parent.
        sibling.keys = child.keys[mid + 1 :]
        sibling.values = child.values[mid + 1 :]
        if not child.is_leaf:
            sibling.children = child.children[mid + 1 :]
            child.children = child.children[: mid + 1]
        parent.keys.insert(index, child.keys[mid])
        parent.values.insert(index, child.values[mid])
        parent.children.insert(index + 1, sibling)
        child.keys = child.keys[:mid]
        child.values = child.values[:mid]

    def _insert_nonfull(self, node: _Node, key, value) -> None:
        while not node.is_leaf:
            # Descend right of equal keys so duplicates keep insertion order.
            idx = bisect.bisect_right(node.keys, key)
            child = node.children[idx]
            if len(child.keys) >= MAX_KEYS:
                self._split_child(node, idx)
                if key >= node.keys[idx]:
                    idx += 1
                child = node.children[idx]
            node = child
        idx = bisect.bisect_right(node.keys, key)
        node.keys.insert(idx, key)
        node.values.insert(idx, value)

    # -- lookup ----------------------------------------------------------------

    def get_first(self, key):
        """Return the first value stored under ``key`` or ``None``."""
        for value in self.iter_duplicates(key):
            return value
        return None

    def iter_duplicates(self, key) -> Iterator:
        """Iterate all values stored under ``key`` in insertion order."""
        for k, v in self.scan_from(key):
            if k != key:
                break
            yield v

    def scan_from(self, key) -> Iterator[Tuple]:
        """Cursor positioned at the first entry with ``entry.key >= key``."""
        stack: List[Tuple[_Node, int]] = []
        node = self._root
        while True:
            idx = bisect.bisect_left(node.keys, key)
            stack.append((node, idx))
            if node.is_leaf:
                break
            node = node.children[idx]
        yield from self._walk(stack)

    def scan_all(self) -> Iterator[Tuple]:
        """Full in-order cursor scan of (key, value) pairs."""
        stack: List[Tuple[_Node, int]] = []
        node = self._root
        while True:
            stack.append((node, 0))
            if node.is_leaf:
                break
            node = node.children[0]
        yield from self._walk(stack)

    def _walk(self, stack: List[Tuple[_Node, int]]) -> Iterator[Tuple]:
        # In-order traversal resuming from an (ancestor-chain, index) stack.
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                while idx < len(node.keys):
                    yield node.keys[idx], node.values[idx]
                    idx += 1
                continue
            if idx < len(node.keys):
                # Emit separator key idx after its left subtree; when we pop
                # back we continue from child idx+1.
                stack.append((node, idx + 1))
                yield node.keys[idx], node.values[idx]
                child = node.children[idx + 1]
                while True:
                    stack.append((child, 0))
                    if child.is_leaf:
                        break
                    child = child.children[0]

    # -- validation (used by property tests) -----------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""

        def recurse(node: _Node, depth: int, lo, hi) -> int:
            assert len(node.keys) == len(node.values)
            assert all(
                node.keys[i] <= node.keys[i + 1] for i in range(len(node.keys) - 1)
            ), "keys not sorted within node"
            for k in node.keys:
                assert lo is None or k >= lo
                assert hi is None or k <= hi
            if node.is_leaf:
                return depth
            assert len(node.children) == len(node.keys) + 1
            depths = set()
            bounds = [lo] + node.keys + [hi]
            for i, child in enumerate(node.children):
                assert len(child.keys) >= 1, "non-root node underflow"
                depths.add(recurse(child, depth + 1, bounds[i], bounds[i + 1]))
            assert len(depths) == 1, "leaves at unequal depth"
            return depths.pop()

        recurse(self._root, 1, None, None)
