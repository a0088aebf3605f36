"""Concrete labelled port graphs with named vertices, and their text format.

Vertices attach edges through named ports; each port hosts at most one edge
end, which bounds the degree by the number of ports.  Vertex ids are opaque
local tokens: all externally meaningful identity lives in the canonical
path names computed by :mod:`cgd.modulo`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Hashable, Iterable, List, Mapping,
                    Optional, Tuple)

VertexId = Hashable
HalfEdge = Tuple[VertexId, str]
Edge = FrozenSet[HalfEdge]


class GraphError(Exception):
    """Base class for graph construction and use errors."""


class InvalidGraphError(GraphError):
    """A raw graph violates a structural constraint."""


class GraphFormatError(GraphError):
    """The text format could not be parsed strictly."""


@dataclass(frozen=True)
class Alphabets:
    """The full signature a graph is written over: a non-empty ordered set
    of port symbols, whose order drives all tie-breaking, and vertex and
    edge label sets, either of which may be empty."""

    ports: Tuple[str, ...]
    vertex_labels: Tuple[str, ...] = ()
    edge_labels: Tuple[str, ...] = ()
    _index: Dict[str, int] = field(init=False, repr=False, compare=False)
    _header: str = field(init=False, repr=False, compare=False)   # the text's alphabet lines

    def __post_init__(self) -> None:
        if not self.ports:
            raise ValueError("port alphabet must be non-empty")
        if len(set(self.ports)) != len(self.ports):
            raise ValueError(f"duplicate port symbols in {self.ports}")
        for group in (self.vertex_labels, self.edge_labels):
            if len(set(group)) != len(group):
                raise ValueError(f"duplicate labels in {group}")
        labels = self.vertex_labels + self.edge_labels
        # Text splits at whitespace and '#', half-edges at ':', paths at '.',
        # a rule file's fresh vertex at '~' and a line's label at "label=";
        # alphanumeric ports of one length write each path hop one way.
        if not ("".join(self.ports + labels).isalnum() and all(self.ports + labels)
                and len(set(map(len, self.ports))) == 1):
            for what, tokens, chars in (("port", self.ports, "#:.~"), ("label", labels, "#")):
                for t in (t for t in tokens if t.split() != [t] or set(chars) & set(t)):
                    raise GraphFormatError(f"{what} {t!r} not writable")
            pairs = [p + q for p in self.ports for q in self.ports] + ["eps"]
            for t in (t for i, t in enumerate(pairs)
                      if t in pairs[i + 1:] or t.startswith("label=")):
                raise GraphFormatError(f"port pair {t!r} not writable")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.ports)})
        heads = ("ports", self.ports), ("vlabels", self.vertex_labels), ("elabels", self.edge_labels)
        object.__setattr__(self, "_header", "\n".join(f"{h} {' '.join(w)}" for h, w in heads if w))

    @staticmethod
    def make(ports: Iterable[str], vertex_labels: Iterable[str] = (),
             edge_labels: Iterable[str] = ()) -> "Alphabets":
        return Alphabets(tuple(ports), tuple(vertex_labels), tuple(edge_labels))

    def port_index(self, port: str) -> int:
        try:
            return self._index[port]
        except KeyError:
            raise KeyError(f"unknown port {port!r} (alphabet {self.ports})") from None

    def path_key(self, path) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """Length-then-lexicographic sort key for a path under the port order."""
        idx = self.port_index
        return (len(path.pairs), tuple((idx(p), idx(q)) for (p, q) in path.pairs))


def make_edge(u: VertexId, p: str, v: VertexId, q: str) -> Edge:
    """Build the unordered edge {u:p, v:q}."""
    return frozenset(((u, p), (v, q)))


@dataclass(frozen=True, eq=True)
class RawGraph:
    """A finite labelled port graph over explicit vertex ids.

    Labellings are partial: absence from the map means unlabelled, which is
    distinct from every alphabet label.  Values are immutable by convention;
    do not mutate the label dicts after construction.  Construction checks
    nothing: `validate` does, where a graph enters from outside.
    """

    alphabets: Alphabets
    vertices: Tuple[VertexId, ...]
    edges: FrozenSet[Edge] = frozenset()
    vertex_labels: Mapping[VertexId, str] = field(default_factory=dict)
    edge_labels: Mapping[Edge, str] = field(default_factory=dict)

    def adjacency(self) -> Dict[VertexId, Dict[str, HalfEdge]]:
        """Map each vertex to {port: far half-edge}; requires port uniqueness.
        Built afresh on each call; it also serves a CanonicalGraph."""
        adj: Dict[VertexId, Dict[str, HalfEdge]] = {v: {} for v in self.vertices}
        for e in self.edges:
            (u, p), (w, q) = e
            adj[u][p] = (w, q)
            adj[w][q] = (u, p)
        return adj


def _half_edge_token(h: HalfEdge) -> Tuple[str, str]:
    return (repr(h[0]), repr(h[1]))


def _edge_token(e: Edge) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(_half_edge_token(h) for h in e))


def validate(g: RawGraph) -> Optional[str]:
    """Check structural constraints; return None if ok, else the first violation.

    Checked in order: distinct vertex ids, edge shape (two distinct
    half-edges on known vertices and ports), label membership, then port
    uniqueness across edges.  The message always names the same violation
    for the same graph regardless of set iteration order.
    """
    if _scan(g, sort=False) is None:
        return None
    return _scan(g, sort=True)


def _scan(g: RawGraph, sort: bool) -> Optional[str]:
    ports = g.alphabets.ports
    vertex_set = set(g.vertices)
    if len(vertex_set) != len(g.vertices):
        return f"duplicate vertex ids in {g.vertices}"
    edges = sorted(g.edges, key=_edge_token) if sort else g.edges
    for e in edges:
        if len(e) != 2:
            return f"edge {set(e)} does not join two distinct half-edges"
        halves = sorted(e, key=_half_edge_token) if sort else e
        for (v, p) in halves:
            if v not in vertex_set:
                return f"edge endpoint {v!r} is not a declared vertex"
            if p not in ports:
                return f"port {p!r} on vertex {v!r} is not in the port alphabet"
    for v in g.vertices:
        if v in g.vertex_labels and g.vertex_labels[v] not in g.alphabets.vertex_labels:
            return f"vertex {v!r} carries unknown label {g.vertex_labels[v]!r}"
    labelled = sorted(g.vertex_labels, key=repr) if sort else g.vertex_labels
    for v in labelled:
        if v not in vertex_set:
            return f"label attached to unknown vertex {v!r}"
    edge_labelled = sorted(g.edge_labels, key=_edge_token) if sort else g.edge_labels
    for e in edge_labelled:
        if e not in g.edges:
            return f"label attached to unknown edge {set(e)}"
        if g.edge_labels[e] not in g.alphabets.edge_labels:
            return f"edge {set(e)} carries unknown label {g.edge_labels[e]!r}"
    seen: Dict[HalfEdge, Edge] = {}
    for e in edges:
        halves = sorted(e, key=_half_edge_token) if sort else e
        for h in halves:
            if h in seen and seen[h] != e:
                return f"port {h[0]!r}:{h[1]} used twice"
            seen[h] = e
    return None


def ensure_valid(g: RawGraph) -> None:
    problem = validate(g)
    if problem is not None:
        raise InvalidGraphError(problem)


def relabel(g, ids: Optional[Mapping] = None,
            ports: Optional[Mapping[str, str]] = None,
            labels: Optional[Mapping[str, str]] = None,
            alphabets: Optional[Alphabets] = None) -> RawGraph:
    """Rebuild a graph with its vertex ids, ports and vertex labels mapped.

    Each map is a lookup table; None keeps that part, and `alphabets`
    replaces the signature.  Vertex order is kept and edge labels follow
    their edges.  `g` may be a RawGraph or a CanonicalGraph.
    """
    vid = (lambda v: v) if ids is None else ids.__getitem__
    port = (lambda p: p) if ports is None else ports.__getitem__
    label = (lambda l: l) if labels is None else labels.__getitem__
    edges = {e: frozenset((vid(v), port(p)) for (v, p) in e) for e in g.edges}
    return RawGraph(
        alphabets=g.alphabets if alphabets is None else alphabets,
        vertices=tuple(vid(v) for v in g.vertices),
        edges=frozenset(edges.values()),
        vertex_labels={vid(v): label(l) for v, l in g.vertex_labels.items()},
        edge_labels={edges[e]: l for e, l in g.edge_labels.items()},
    )


def ordered_edges(g) -> List[Tuple[HalfEdge, HalfEdge, Edge]]:
    """Every edge as (first half, second half, edge), in the text format's order.

    A half-edge ranks by (position of its vertex in `g.vertices`, port
    index); each edge's halves come in that order, and edges sort by their
    ordered halves.  `g` may be a RawGraph or a CanonicalGraph.
    """
    index = g.alphabets._index
    width = len(index)
    # A half-edge's (rank, port index) as one int, and an edge's two as one.
    rank = {v: i * width for i, v in enumerate(g.vertices)}
    span = len(g.vertices) * width
    keyed = []
    for e in g.edges:
        h1, h2 = e
        k1 = rank[h1[0]] + index[h1[1]]
        k2 = rank[h2[0]] + index[h2[1]]
        keyed.append((k1 * span + k2, h1, h2, e) if k1 < k2 else (k2 * span + k1, h2, h1, e))
    keyed.sort()    # keys are unique, so no half-edge is ever compared
    return [k[1:] for k in keyed]


def induced_subgraph(g, vertices: Iterable[VertexId]) -> RawGraph:
    """The `vertices`, in g's order, with every edge between them, labels
    restricted.  `g` may be a RawGraph or a CanonicalGraph."""
    kept = set(vertices)
    edges = frozenset(e for e in g.edges if all(v in kept for (v, _p) in e))
    return RawGraph(
        alphabets=g.alphabets,
        vertices=tuple(v for v in g.vertices if v in kept),
        edges=edges,
        vertex_labels={v: l for v, l in g.vertex_labels.items() if v in kept},
        edge_labels={e: l for e, l in g.edge_labels.items() if e in edges},
    )


@dataclass(frozen=True)
class PointedRawGraph:
    """A raw graph together with a distinguished origin vertex."""

    graph: RawGraph
    origin: VertexId


# ---------------------------------------------------------------------------
# Text format
#
#   ports a b c d
#   vlabels 0 1
#   elabels x
#   vertex <id> [label=<sigma>]
#   edge <id>:<port> <id>:<port> [label=<delta>]
#   pointer <id>
#
# '#' starts a comment; tokens are whitespace-separated.  Parsing is strict.
# ---------------------------------------------------------------------------


def _parse_half_edge(token: str, line_no: int) -> Tuple[str, str]:
    head, sep, port = token.rpartition(":")
    if not sep or not head or not port:
        raise GraphFormatError(f"line {line_no}: malformed half-edge {token!r}")
    return head, port


def _distinct(args: List[str], what: str, line_no: int) -> Tuple[str, ...]:
    if len(set(args)) < len(args):
        t = next(t for i, t in enumerate(args) if t in args[:i])
        raise GraphFormatError(f"line {line_no}: duplicate {what} {t!r}")
    return tuple(args)


def parse_graph(text: str) -> PointedRawGraph:
    """Parse the text format into a pointed raw graph; all errors are hard
    and name their line of `text`, counted from 1."""
    return parse_rows([(n, tokens) for n, line in enumerate(text.splitlines(), 1)
                       if (tokens := line.split("#", 1)[0].split())], {})


def parse_rows(rows: Iterable[Tuple[int, List[str]]], headers: Dict[tuple, Alphabets],
               token=None, block_line: Optional[int] = None) -> PointedRawGraph:
    """`parse_graph` over rows (line number, tokens) of non-blank lines with
    comments cut.  `headers` maps each (ports, vlabels, elabels) read so far
    to its alphabets.  `token(text, ports)`, run after every check, turns a
    vertex's text into its id; its errors name the vertex's line.  A missing
    ports or pointer line names `block_line`."""
    ports: Optional[Tuple[str, ...]] = None
    pointer: Optional[str] = None
    vlabels = elabels = ()
    vertices: Dict[str, int] = {}   # each vertex's line
    vertex_labels: Dict[str, str] = {}
    edges: List[Edge] = []
    edge_rows: List[Tuple[int, Tuple[HalfEdge, HalfEdge]]] = []   # as written
    edge_labels: Dict[Edge, str] = {}
    once: set = set()    # the keywords allowed on one line only

    for line_no, tokens in rows:
        keyword = tokens[0]
        if keyword == "vertex" or keyword == "edge":
            n, label = (2 if keyword == "vertex" else 3), None
            if tokens[-1].startswith("label="):
                label, tokens = tokens[-1][len("label="):], tokens[:-1]
            elif len(tokens) != n or tokens[1].startswith("label="):   # else none can
                if any(t.startswith("label=") for t in tokens):
                    raise GraphFormatError(f"line {line_no}: label= must come last")
            if len(tokens) != n:
                raise GraphFormatError(f"line {line_no}: {keyword} wants "
                                       f"{'one id' if n == 2 else 'two half-edges'}")
            if n == 2:
                if tokens[1] in vertices:
                    raise GraphFormatError(f"line {line_no}: duplicate vertex {tokens[1]!r}")
                vertices[tokens[1]] = line_no
                if label is not None:
                    vertex_labels[tokens[1]] = label
                continue
            h1 = _parse_half_edge(tokens[1], line_no)
            h2 = _parse_half_edge(tokens[2], line_no)
            if h1 == h2:
                raise GraphFormatError(f"line {line_no}: degenerate edge {tokens[1]}")
            edges.append(e := frozenset((h1, h2)))
            edge_rows.append((line_no, (h1, h2)))
            if label is not None:
                edge_labels[e] = label
        elif keyword not in ("ports", "vlabels", "elabels", "pointer"):
            raise GraphFormatError(f"line {line_no}: unknown keyword {keyword!r}")
        elif keyword in once:
            raise GraphFormatError(f"line {line_no}: duplicate {keyword} line")
        else:
            once.add(keyword)
            if keyword == "ports":
                if len(tokens) == 1:
                    raise GraphFormatError(f"line {line_no}: empty port alphabet")
                ports, ports_line = _distinct(tokens[1:], "port", line_no), line_no
            elif keyword == "vlabels":
                vlabels = _distinct(tokens[1:], "vertex label", line_no)
            elif keyword == "elabels":
                elabels = _distinct(tokens[1:], "edge label", line_no)
            elif len(tokens) != 2:
                raise GraphFormatError(f"line {line_no}: pointer wants one id")
            else:
                pointer, pointer_line = tokens[1], line_no

    if ports is None or pointer is None:
        raise GraphFormatError(("" if block_line is None else f"line {block_line}: ")
                               + f"missing {'pointer' if ports else 'ports'} line")
    alphabets = headers.get((ports, vlabels, elabels))
    if alphabets is None:
        try:
            alphabets = headers[ports, vlabels, elabels] = Alphabets(ports, vlabels, elabels)
        except GraphFormatError as err:     # a port that a path cannot hold
            raise GraphFormatError(f"line {ports_line}: {err}") from None
    used: Dict[HalfEdge, int] = {}
    for line_no, halves in edge_rows:
        for h in halves:    # in written order, not a frozenset's
            if h[0] not in vertices:
                raise GraphFormatError(f"line {line_no}: undeclared vertex {h[0]!r}")
            if h[1] not in ports:
                raise GraphFormatError(f"line {line_no}: unknown port {h[1]!r}")
            if h in used:
                raise GraphFormatError(
                    f"line {line_no}: half-edge {h[0]}:{h[1]} already used on line {used[h]}")
            used[h] = line_no
    for v, l in vertex_labels.items():
        if l not in vlabels:
            raise GraphFormatError(f"line {vertices[v]}: unknown vertex label {l!r} on {v!r}")
    for e, (line_no, _) in zip(edges, edge_rows):
        if e in edge_labels and edge_labels[e] not in elabels:
            raise GraphFormatError(f"line {line_no}: unknown edge label {edge_labels[e]!r}")
    if pointer not in vertices:
        raise GraphFormatError(
            f"line {pointer_line}: pointer {pointer!r} is not a declared vertex")

    # The checks above cover every rule of `validate`, with line numbers.
    if token is not None:
        ids = {}
        for v in vertices:
            try:
                ids[v] = token(v, ports)
            except GraphFormatError as err:
                raise GraphFormatError(f"line {vertices[v]}: {err}") from None
        named = {e: frozenset(((ids[u], p), (ids[w], q)))
                 for e in edges for (u, p), (w, q) in [e]}
        vertices, pointer, edges = ids.values(), ids[pointer], named.values()
        vertex_labels = {ids[v]: l for v, l in vertex_labels.items()}
        edge_labels = {named[e]: l for e, l in edge_labels.items()}
    g = RawGraph(alphabets, tuple(vertices), frozenset(edges), vertex_labels, edge_labels)
    return PointedRawGraph(g, pointer)


def serialize_graph(pg: PointedRawGraph, token=str) -> str:
    """`write_graph` with each vertex written as `token(vertex)`, once the
    tokens are checked distinct and writable and the origin a vertex."""
    tokens = {v: token(v) for v in pg.graph.vertices}
    if len(set(tokens.values())) != len(pg.graph.vertices):    # a repeated id too
        raise GraphFormatError("vertex id tokens collide")
    if pg.origin not in tokens:
        raise InvalidGraphError(f"origin {pg.origin!r} is not a vertex")
    for t in tokens.values():
        if t.split() != [t] or ":" in t or "#" in t or t.startswith("label="):
            raise GraphFormatError(f"vertex token {t!r} not writable")
    return write_graph(pg.graph, tokens, pg.origin)


def write_graph(g, tokens: Mapping[VertexId, str], origin: VertexId) -> str:
    """Write the text format of (g, origin) deterministically, each vertex
    as its `tokens` entry.  It trusts the tokens to be distinct and
    writable, as `serialize_graph` checks and as `Alphabets` makes every
    canonical name (`CanonicalGraph.to_text`).

    Vertices appear in g's order; edges are sorted by their half-edge pairs
    under (vertex order, port order).  `g` may be a RawGraph or a
    CanonicalGraph.
    """
    lines = [g.alphabets._header]
    for v in g.vertices:
        label = g.vertex_labels.get(v)
        lines.append(f"vertex {tokens[v]}" if label is None
                     else f"vertex {tokens[v]} label={label}")
    for (u, p), (w, q), e in ordered_edges(g):
        label = g.edge_labels.get(e)
        lines.append(f"edge {tokens[u]}:{p} {tokens[w]}:{q}" if label is None
                     else f"edge {tokens[u]}:{p} {tokens[w]}:{q} label={label}")
    lines.append(f"pointer {tokens[origin]}\n")
    return "\n".join(lines)
