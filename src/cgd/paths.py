"""Port-pair words naming vertices relative to a graph's origin.

A path is a finite word over pairs of ports.  Each pair (p, q) is one hop:
leave the current vertex through port p, arrive at the next vertex on port
q.  The empty word names the origin itself.

Paths are trie nodes: a word is its prefix (`parent`) plus one last pair.
There is one node per word in a process: `child` looks (parent, pair) up in
one table, `_NODES`, and builds a node only on a miss, and every way of
building a word (`Path(pairs)`, `concat`, `reversed`, `parse_path`, pickle
and copy) goes through `child`.  So equal words are one object, and a path
hashes and compares by identity, in O(1) however long it is.  A name costs
O(1) to build from its parent's, and the names of every graph share their
nodes.  The table never forgets a word, so a node lives as long as the
process; it holds no text.  A graph writes its names' texts itself, each
from its parent's (`CanonicalGraph.name_texts`).
"""
from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

PortPair = Tuple[str, str]


class Path:
    """An immutable word of (exit port, entry port) hops.

    A node holds the word without its last hop (`parent`), that hop
    (`last`) and the word's `length`.  The empty word, EPSILON, is the one
    root; its parent and last hop are None.  Build paths with `child` or
    the operations below, never directly, so that each word keeps its one
    node.  A path never equals a plain tuple.
    """

    __slots__ = ("parent", "last", "length")

    def __new__(cls, pairs: Tuple[PortPair, ...] = ()) -> "Path":
        node = EPSILON
        for p, q in pairs:
            node = node.child((p, q))
        return node

    def child(self, pair: PortPair) -> "Path":
        """This word followed by one more hop, in O(1): the word's one node."""
        key = (self, pair)
        node = _NODES.get(key)
        if node is None:
            node = _new_node(Path)
            _set_parent(node, self)
            _set_last(node, pair)
            _set_length(node, self.length + 1)
            # A thread that built the same word first keeps its node.
            node = _NODES.setdefault(key, node)
        return node

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Rebuild from the pairs, so an unpickled or copied path is this
        # process's node for the word.
        return (Path, (self.pairs,))

    def __len__(self) -> int:
        return self.length

    @property
    def pairs(self) -> Tuple[PortPair, ...]:
        """The word as a tuple of pairs, read off the parent chain."""
        out = []
        node = self
        while node.length:
            out.append(node.last)
            node = node.parent
        out.reverse()
        return tuple(out)

    def __iter__(self) -> Iterator[PortPair]:
        return iter(self.pairs)

    def concat(self, other: "Path") -> "Path":
        """This word followed by `other`; shares this word's nodes."""
        node = self
        for pair in other.pairs:
            node = node.child(pair)
        return node

    def reversed(self) -> "Path":
        """The word that undoes this walk: swap every pair, reverse the order."""
        node, walk = EPSILON, self
        while walk.length:
            p, q = walk.last
            node = node.child((q, p))
            walk = walk.parent
        return node

    def __repr__(self) -> str:
        return f"Path({format_path(self)!r})"


# Slot writers for child(), past the __setattr__ that keeps paths immutable.
_new_node = object.__new__
_set_parent, _set_last, _set_length = (
    getattr(Path, name).__set__ for name in Path.__slots__)

# (parent, last pair) -> the node of that word; EPSILON is the one root.
_NODES: Dict[Tuple[Path, PortPair], Path] = {}

EPSILON = _new_node(Path)
_set_parent(EPSILON, None)
_set_last(EPSILON, None)
_set_length(EPSILON, 0)


def format_path(path: Path) -> str:
    """Render as dot-separated concatenated port pairs; the empty path is "eps"."""
    return ".".join(p + q for p, q in path.pairs) if path.length else "eps"


def parse_path(text: str, ports: Tuple[str, ...]) -> Path:
    """Parse the output of :func:`format_path` against a known port alphabet.

    Each dot-separated token must split into exactly one (exit, entry) pair
    of alphabet ports; anything else is rejected.
    """
    if text == "eps":
        return EPSILON
    if not text:
        raise ValueError("empty path token (the origin is written 'eps')")
    node = EPSILON
    for token in text.split("."):
        matches = [(p, q) for p in ports for q in ports if p + q == token]
        if not matches:
            raise ValueError(f"cannot split {token!r} into two ports from {ports}")
        if len(matches) > 1:
            raise ValueError(f"ambiguous port pair {token!r} under alphabet {ports}")
        node = node.child(matches[0])
    return node
