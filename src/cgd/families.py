"""Constructors for the structured graph families the built-in rules act on."""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .modulo import CanonicalGraph, canonicalize, shift
from .portgraph import Alphabets, PointedRawGraph, RawGraph, make_edge

# Tape cells are chained by {cell:a, next:b} edges; a head hangs off a cell
# through a cc edge when travelling forward (a-wards) and dd when backward.
TAPE_ALPHABETS = Alphabets.make("abcd", vertex_labels=("0",))

# Grid cells use port a upward, b rightward, c downward, d leftward.
GRID_ALPHABETS = Alphabets.make("abcd", vertex_labels=("white", "black"))

TURTLE_ALPHABETS = Alphabets.make("ab", vertex_labels=("0",))


def bare_tape(length: int, alphabets: Alphabets = TAPE_ALPHABETS) -> CanonicalGraph:
    """A line of `length` cells joined by ab edges, pointed at the first cell."""
    if length < 1:
        raise ValueError("tape length must be >= 1")
    cells = tuple(range(length))
    edges = frozenset(make_edge(i, "a", i + 1, "b") for i in range(length - 1))
    sigma = alphabets.vertex_labels[0]
    raw = RawGraph(alphabets=alphabets, vertices=cells, edges=edges,
                   vertex_labels={c: sigma for c in cells})
    return canonicalize(PointedRawGraph(raw, 0))


def single_head_tape(length: int, position: int, attach: str = "cc") -> CanonicalGraph:
    """A tape with one head hanging off cell `position` (0-based).

    attach="cc" is a forward-travelling head, "dd" a backward one.  The
    graph is pointed at the first tape cell.
    """
    if attach not in ("cc", "dd"):
        raise ValueError("attach must be 'cc' or 'dd'")
    if not 0 <= position < length:
        raise ValueError(f"position {position} outside tape of length {length}")
    port = attach[0]
    cells = tuple(range(length))
    head = "head"
    edges = {make_edge(i, "a", i + 1, "b") for i in range(length - 1)}
    edges.add(make_edge(position, port, head, port))
    sigma = TAPE_ALPHABETS.vertex_labels[0]
    raw = RawGraph(alphabets=TAPE_ALPHABETS, vertices=cells + (head,),
                   edges=frozenset(edges),
                   vertex_labels={v: sigma for v in cells + (head,)})
    return canonicalize(PointedRawGraph(raw, 0))


def single_head_tapes(max_length: int) -> List[CanonicalGraph]:
    """Every single-head tape with 1..max_length cells.

    One member per (length, head position, attachment); all pointed at the
    first tape cell, so lengths 1..L contribute 2*(1+...+L) members.
    """
    return [single_head_tape(length, position, attach)
            for length in range(1, max_length + 1)
            for position in range(length) for attach in ("cc", "dd")]


def bare_tapes(max_length: int) -> List[CanonicalGraph]:
    return [bare_tape(length) for length in range(1, max_length + 1)]


def shift_closure(graphs: Iterable[CanonicalGraph]) -> List[CanonicalGraph]:
    """Close a collection under re-pointing at every vertex, deduplicated."""
    return list(dict.fromkeys(shift(X, v) for X in graphs for v in X.vertices))


def grid_graph(rows: int, cols: int,
               labels: Optional[Dict[Tuple[int, int], str]] = None) -> CanonicalGraph:
    """A rows x cols grid pointed at the top-left cell.

    Vertical edges join a cell's upward port a to the cell above on its
    downward port c; horizontal edges join b rightward to d.  `labels` maps
    each (row, col) to its label; None gives every cell the first label in
    the alphabet.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    cells = tuple((i, j) for i in range(rows) for j in range(cols))
    if labels is None:
        labels = dict.fromkeys(cells, GRID_ALPHABETS.vertex_labels[0])
    edges = set()
    for (i, j) in cells:
        if i + 1 < rows:
            edges.add(make_edge((i + 1, j), "a", (i, j), "c"))
        if j + 1 < cols:
            edges.add(make_edge((i, j), "b", (i, j + 1), "d"))
    raw = RawGraph(alphabets=GRID_ALPHABETS, vertices=cells, edges=frozenset(edges),
                   vertex_labels={c: labels[c] for c in cells})
    return canonicalize(PointedRawGraph(raw, (0, 0)))


def turtle_graphs() -> Tuple[CanonicalGraph, CanonicalGraph]:
    """The oscillating pair: a self-looped singleton and a doubled 2-cycle.

    The two vertices of the second graph are shift-equivalent, so collapsing
    them back to the singleton is well-defined on pointed graphs modulo.
    """
    sigma = TURTLE_ALPHABETS.vertex_labels[0]
    solo = RawGraph(alphabets=TURTLE_ALPHABETS, vertices=(0,),
                    edges=frozenset((make_edge(0, "a", 0, "b"),)),
                    vertex_labels={0: sigma})
    pair = RawGraph(alphabets=TURTLE_ALPHABETS, vertices=(0, 1),
                    edges=frozenset((make_edge(0, "a", 1, "b"),
                                     make_edge(0, "b", 1, "a"))),
                    vertex_labels={0: sigma, 1: sigma})
    return (canonicalize(PointedRawGraph(solo, 0)),
            canonicalize(PointedRawGraph(pair, 0)))

