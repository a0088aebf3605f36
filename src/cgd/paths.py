"""Port-pair words naming vertices relative to a graph's origin.

A path is a finite word over pairs of ports.  Each pair (p, q) is one hop:
leave the current vertex through port p, arrive at the next vertex on port
q.  The empty word names the origin itself.
"""
from __future__ import annotations

from typing import Any, Iterator, Tuple

PortPair = Tuple[str, str]


class Path:
    """An immutable word of (exit port, entry port) hops.

    Hashed once, at construction, so a dict or set operation on a name costs
    O(1) however long it is.  A path never equals a plain tuple.
    """

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs: Tuple[PortPair, ...] = ()):
        _set_pairs(self, pairs)
        _set_hash(self, hash(pairs))

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ between processes.
        return (Path, (self.pairs,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._hash == other._hash and self.pairs == other.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[PortPair]:
        return iter(self.pairs)

    def concat(self, other: "Path") -> "Path":
        return Path(self.pairs + other.pairs)

    def reversed(self) -> "Path":
        """The word that undoes this walk: swap every pair, reverse the order."""
        return Path(tuple((q, p) for (p, q) in reversed(self.pairs)))

    def __repr__(self) -> str:
        return f"Path({format_path(self)!r})"


# Slot writers for __init__, past the __setattr__ that keeps paths immutable.
_set_pairs, _set_hash = Path.pairs.__set__, Path._hash.__set__

EPSILON = Path(())


def format_path(path: Path) -> str:
    """Render as dot-separated concatenated port pairs; the empty path is "eps"."""
    if not path.pairs:
        return "eps"
    return ".".join(map("".join, path.pairs))


def parse_path(text: str, ports: Tuple[str, ...]) -> Path:
    """Parse the output of :func:`format_path` against a known port alphabet.

    Each dot-separated token must split into exactly one (exit, entry) pair
    of alphabet ports; anything else is rejected.
    """
    if text == "eps":
        return EPSILON
    if not text:
        raise ValueError("empty path token (the origin is written 'eps')")
    pairs = []
    for token in text.split("."):
        matches = [(p, q) for p in ports for q in ports if p + q == token]
        if not matches:
            raise ValueError(f"cannot split {token!r} into two ports from {ports}")
        if len(matches) > 1:
            raise ValueError(f"ambiguous port pair {token!r} under alphabet {ports}")
        pairs.append(matches[0])
    return Path(tuple(pairs))
