"""Pointed graphs modulo isomorphism, held in canonical form.

Every vertex is named by the least of its shortest port-pair paths from the
origin (length first, then lexicographic under the declared port order).
Because each port carries at most one edge, a path resolves to at most one
vertex, so these names are unique and two pointed graphs are isomorphic
exactly when their canonical forms are structurally identical.  Canonical
equality is the only graph equality this package ever needs.
"""
from __future__ import annotations

from itertools import takewhile
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from .paths import EPSILON, Path, format_path
from .portgraph import (
    Alphabets,
    Edge,
    GraphError,
    InvalidGraphError,
    PointedRawGraph,
    RawGraph,
    connected_component,
    ensure_valid,
    induced_subgraph,
    make_edge,
    write_graph,
)

NameEdge = FrozenSet[Tuple[Path, str]]


class PathResolutionError(GraphError):
    """A path does not resolve to a vertex of the graph."""


class CanonicalGraph:
    """A pointed graph modulo isomorphism, with path names for vertices.

    Instances are immutable and hashable; build them with
    :func:`canonicalize` (or the operations below), not directly: the
    constructor trusts its vertices to come in canonical order, and owns
    the maps it is handed, copying none: builders hand fresh maps, or maps
    nobody mutates.
    """

    __slots__ = ("alphabets", "vertices", "vertex_labels", "edges",
                 "edge_labels", "_hash", "_adj_cache", "_text")

    def __init__(self, alphabets: Alphabets, vertices: Iterable[Path],
                 vertex_labels: Dict[Path, str], edges: Iterable[NameEdge],
                 edge_labels: Dict[NameEdge, str]):
        self.alphabets = alphabets
        self.vertices: Tuple[Path, ...] = tuple(vertices)
        self.vertex_labels = vertex_labels
        self.edges: FrozenSet[NameEdge] = frozenset(edges)
        self.edge_labels = edge_labels
        self._adj_cache: Optional[Dict[Path, Dict[str, Tuple[Path, str]]]] = None
        self._text: Optional[str] = None
        self._hash = hash((
            alphabets,
            self.vertices,
            tuple(map(vertex_labels.get, self.vertices)),
            self.edges,
            frozenset(edge_labels.items()) if edge_labels else (),
        ))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ between processes.
        return (CanonicalGraph, (self.alphabets, self.vertices,
                                 self.vertex_labels, self.edges, self.edge_labels))

    def __eq__(self, other: Any) -> bool:
        # A name is one node per word (`paths`), so this compares names by
        # identity.
        if not isinstance(other, CanonicalGraph):
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.alphabets == other.alphabets
            and self.vertices == other.vertices
            and self.vertex_labels == other.vertex_labels
            and self.edges == other.edges and self.edge_labels == other.edge_labels)

    def __repr__(self) -> str:
        return (f"<CanonicalGraph |V|={len(self.vertices)} "
                f"names={[format_path(v) for v in self.vertices]}>")

    def __contains__(self, name: Path) -> bool:
        return name in self.adjacency

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def adjacency(self) -> Dict[Path, Dict[str, Tuple[Path, str]]]:
        """Per-vertex map {port: (far vertex, far port)}."""
        if self._adj_cache is None:
            self._adj_cache = RawGraph.adjacency(self)
        return self._adj_cache

    def resolve(self, path: Path, start: Path = EPSILON) -> Optional[Path]:
        """Follow a port-pair word from `start` (by default the origin);
        None if some hop is missing."""
        here = start
        adj = self.adjacency
        for (p, q) in path:
            hop = adj[here].get(p)
            if hop is None or hop[1] != q:
                return None
            here = hop[0]
        return here

    def to_pointed_raw(self) -> PointedRawGraph:
        """Present the canonical form as a raw graph whose ids are the names;
        the two share their label maps, which neither ever mutates."""
        return PointedRawGraph(RawGraph(self.alphabets, self.vertices, self.edges,
                                        self.vertex_labels, self.edge_labels),
                               EPSILON)

    def name_texts(self) -> Dict[Path, str]:
        """Each vertex's `format_path` text, in vertex order, in one walk:
        a name's prefix is an earlier vertex's name, so its text is that
        name's text plus one pair."""
        texts: Dict[Path, str] = {}
        for v in self.vertices:
            base = texts.get(v.parent)
            if base is None:
                texts[v] = format_path(v)
            else:
                p, q = v.last
                texts[v] = f"{base}.{p}{q}" if v.length > 1 else p + q
        return texts

    def to_text(self) -> str:
        """The graph text format with path-name vertex tokens, built once."""
        if self._text is None:
            self._text = write_graph(self, self.name_texts(), EPSILON)
        return self._text


def _canonical_names(adjacency: Mapping[Any, Mapping[str, Tuple[Any, str]]],
                     origin: Any, alphabets: Alphabets,
                     depth: Optional[int] = None) -> Dict[Any, Path]:
    """Assign every vertex within `depth` hops (default: every reachable
    vertex) its least shortest path name.

    A BFS that walks each layer in order, and each vertex's ports in
    `alphabets.ports` order, names a vertex (parent name).(exit, entry) when
    it first reaches it.  A row holds one hop per port, so (parent's place
    in its layer, exit) orders a layer's candidates totally, and the first
    to reach a vertex is its least.  Stopping early leaves the layers
    already built unchanged.  Each name is a child of its parent's node.
    """
    # Origin first, then each layer in discovery order: `Alphabets.path_key`
    # order, which CanonicalGraph trusts and never sorts.
    ports = alphabets.ports
    names: Dict[Any, Path] = {origin: EPSILON}
    frontier = [origin]
    layers = len(adjacency) if depth is None else depth
    while frontier and layers > 0:
        layers -= 1
        reached = []
        for v in frontier:
            base, row = names[v], adjacency[v]
            for p in ports:
                hop = row.get(p)
                if hop is not None and hop[0] not in names:
                    names[hop[0]] = base.child((p, hop[1]))
                    reached.append(hop[0])
        frontier = reached
    return names


def canonicalize_with_names(pg: PointedRawGraph
                            ) -> Tuple[CanonicalGraph, Dict[Any, Path]]:
    """Canonicalize and also return the id -> canonical name assignment.

    Trusts the graph to be valid and checks only that the origin is one of
    its vertices and that it is connected.
    """
    g = pg.graph
    adjacency = g.adjacency()
    if pg.origin not in adjacency:
        raise InvalidGraphError(f"origin {pg.origin!r} is not a vertex")
    names = _canonical_names(adjacency, pg.origin, g.alphabets)
    if len(names) != len(g.vertices):
        missing = [v for v in g.vertices if v not in names]
        raise InvalidGraphError(
            f"graph is not connected to the origin: unreachable {missing!r}")
    canonical = _rename(g.alphabets, names, g.vertex_labels, g.edges,
                        g.edge_labels)
    return canonical, names


def canonicalize_component(pg: PointedRawGraph
                           ) -> Tuple[CanonicalGraph, Dict[Any, Path]]:
    """`canonicalize_with_names` of the origin's connected component, off
    the one BFS that finds and names it; the graph may be disconnected."""
    g = pg.graph
    adjacency = g.adjacency()
    if pg.origin not in adjacency:
        raise InvalidGraphError(f"origin {pg.origin!r} is not a vertex")
    names = _canonical_names(adjacency, pg.origin, g.alphabets)
    if len(names) != len(g.vertices):
        g = induced_subgraph(g, names)
    canonical = _rename(g.alphabets, names, g.vertex_labels, g.edges,
                        g.edge_labels)
    return canonical, names


def canonicalize(pg: PointedRawGraph) -> CanonicalGraph:
    """The canonical form of a connected pointed raw graph.

    The result is independent of the vertex id choices: any two isomorphic
    presentations yield the same value.  The graph is validated first.
    """
    ensure_valid(pg.graph)
    return canonicalize_with_names(pg)[0]


def _rename(alphabets: Alphabets, names: Mapping[Any, Path],
            vertex_labels: Mapping[Any, str], edges: Iterable[Edge],
            edge_labels: Mapping[Edge, str]) -> CanonicalGraph:
    # Not portgraph.relabel: on this hottest path that was about 5% slower.
    # Names are interned (`paths`): an edge whose ends keep their names stays.
    new_edges = {}
    for e in edges:
        (u, p), (w, q) = e
        nu, nw = names[u], names[w]
        new_edges[e] = e if nu is u and nw is w else frozenset(((nu, p), (nw, q)))
    return CanonicalGraph(alphabets, names.values(),
                          {names[v]: l for v, l in vertex_labels.items()},
                          new_edges.values(),
                          {new_edges[e]: l for e, l in edge_labels.items()})


def shift_with_names(X: CanonicalGraph, path: Path
                     ) -> Tuple[CanonicalGraph, Dict[Path, Path]]:
    """Re-point X at the vertex named by `path`; also map old names to new."""
    target = X.resolve(path)
    if target is None:
        raise PathResolutionError(
            f"path {format_path(path)} does not resolve in {X!r}")
    names = _canonical_names(X.adjacency, target, X.alphabets)
    shifted = _rename(X.alphabets, names, X.vertex_labels, X.edges,
                      X.edge_labels)
    return shifted, names


def shift(X: CanonicalGraph, path: Path) -> CanonicalGraph:
    """The same graph pointed at the vertex named by `path`."""
    return shift_with_names(X, path)[0]


def disk(X: CanonicalGraph, radius: int) -> CanonicalGraph:
    """The disk of the given radius around the origin.

    Vertices up to distance radius+1 survive with all induced edges; vertex
    labels survive only up to distance radius, edge labels only on edges
    whose two endpoints are within distance radius.  Shortest paths to kept
    vertices stay inside the disk, so it inherits X's names and their order.
    """
    kept = takewhile(lambda v: len(v) <= radius + 1, X.vertices)
    return _cut(X, {v: v for v in kept}, radius)


def disk_at(X: CanonicalGraph, u: Path, radius: int) -> CanonicalGraph:
    """`disk(shift(X, u), radius)` for a vertex u of X, read off the
    vertices near u alone."""
    return disk_at_with_names(X, u, radius)[0]


def disk_at_with_names(X: CanonicalGraph, u: Path, radius: int
                       ) -> Tuple[CanonicalGraph, Dict[Path, Path]]:
    """`disk_at`, and the map from X's names of the kept vertices to their
    names in the disk, which are their paths from u.

    A BFS from u that stops at distance radius+1 names the kept vertices
    exactly as the shifted graph would, in the same order.
    """
    if u not in X.adjacency:
        raise PathResolutionError(f"{format_path(u)} is not a vertex of {X!r}")
    names = _canonical_names(X.adjacency, u, X.alphabets, depth=radius + 1)
    return _cut(X, names, radius), names


def _cut(X: CanonicalGraph, names: Dict[Path, Path], radius: int) -> CanonicalGraph:
    """The disk on the vertices `names` renames, in its order, read off their
    adjacency alone: the cost is that of the disk, not of X."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    adj = X.adjacency
    vertex_labels, edges, edge_labels = {}, set(), {}
    for v, name in names.items():
        inner = len(name) <= radius
        if inner and v in X.vertex_labels:
            vertex_labels[name] = X.vertex_labels[v]
        for p, (w, q) in adj[v].items():
            far = names.get(w)
            if far is None:
                continue
            e = frozenset(((name, p), (far, q)))
            edges.add(e)
            if inner and len(far) <= radius and X.edge_labels:
                label = X.edge_labels.get(frozenset(((v, p), (w, q))))
                if label is not None:
                    edge_labels[e] = label
    return CanonicalGraph(X.alphabets, names.values(), vertex_labels, edges,
                          edge_labels)


def ball(X: CanonicalGraph, center: Path, radius: int) -> Set[Path]:
    """Vertices within `radius` hops of `center`, a vertex of X."""
    if center not in X.adjacency:
        raise PathResolutionError(f"{format_path(center)} is not a vertex of {X!r}")
    return set(_canonical_names(X.adjacency, center, X.alphabets, depth=radius))


def shift_class_ids(X: CanonicalGraph, orbit: Dict[CanonicalGraph, Tuple[int, ...]]
                    ) -> Tuple[int, ...]:
    """Each vertex's shift-equivalence class id, in X's vertex order.  A missing
    X fills in `orbit` for all its pointings: X_u, names_u = shift_with_names(X,
    u), and X_u re-pointed at names_u[w] is X_w, whose index is that id; at the
    origin, X_u is X itself."""
    if X not in orbit:
        shifts = {w: shift_with_names(X, w) if w.length else (X, {v: v for v in X.vertices})
                  for w in X.vertices}
        index: Dict[CanonicalGraph, int] = {}
        of = {w: index.setdefault(Xw, len(index)) for w, (Xw, _) in shifts.items()}
        for Xu, names in shifts.values():   # names: in X_u's vertex order
            orbit.setdefault(Xu, tuple(map(of.__getitem__, names)))
    return orbit[X]


def shift_equivalence_classes(X: CanonicalGraph) -> Tuple[Tuple[Path, ...], ...]:
    """Partition the vertices into groups that re-point to the same graph."""
    groups: Dict[int, list] = {}
    for v, i in zip(X.vertices, shift_class_ids(X, {})):
        groups.setdefault(i, []).append(v)
    # X.vertices is in canonical order, so each group and the groups'
    # first members already are too.
    return tuple(tuple(g) for g in groups.values())


def is_asymmetric(X: CanonicalGraph) -> bool:
    """True when every shift-equivalence class is a singleton."""
    return all(len(c) == 1 for c in shift_equivalence_classes(X))


def smallest_prime_above(n: int) -> int:
    """The least prime strictly greater than n."""
    candidate = max(n + 1, 2)
    while True:
        if all(candidate % d for d in range(2, int(candidate ** 0.5) + 1)):
            return candidate
        candidate += 1


def primal_extension(X: CanonicalGraph, force: bool = False) -> CanonicalGraph:
    """Attach a line of fresh vertices to break every shift symmetry.

    The line brings the vertex count up to the least prime strictly greater
    than |V|+2, which together with the degree-1 line end forces trivial
    shift-equivalence classes.  The host is the vertex farthest from the
    origin (least name on ties); if it has no free port, its
    lexicographically greatest non-bridge incident edge is removed first.

    Requires at least two ports and a nontrivial symmetry unless `force`.
    """
    if len(X.alphabets.ports) < 2:
        raise ValueError("primal extension needs at least two ports")
    if not force and is_asymmetric(X):
        raise ValueError(
            "graph is already asymmetric; pass force=True to extend anyway")

    n = len(X.vertices)
    p = smallest_prime_above(n + 2)
    fresh = p - n

    # Host: farthest from the origin, ties broken by least name.
    far = len(X.vertices[-1])
    host = next(v for v in X.vertices if len(v) == far)

    vertices = list(X.vertices)
    edges = set(X.edges)
    vertex_labels = dict(X.vertex_labels)
    edge_labels = dict(X.edge_labels)

    free = [q for q in X.alphabets.ports if q not in X.adjacency[host]]
    if not free:
        # Each host edge but the one to its BFS parent lies on a cycle: it
        # goes to a second parent, to a same-layer vertex with a parent of its
        # own, or is a self-loop.  With two ports or more, a host whose only
        # edge is to its parent has a free port; so `removable` is not empty.
        removable = [e for e in X.edges
                     if any(v == host for (v, _p) in e) and _is_cycle_edge(X, e)]
        key = X.alphabets.path_key
        victim = max(removable, key=lambda e: sorted(
            (key(v), X.alphabets.port_index(prt)) for (v, prt) in e))
        edges.discard(victim)
        edge_labels.pop(victim, None)
        free = sorted((prt for (v, prt) in victim if v == host),
                      key=X.alphabets.port_index)
    attach_port = free[0]

    a, b = X.alphabets.ports[0], X.alphabets.ports[1]
    sigma = X.alphabets.vertex_labels[0] if X.alphabets.vertex_labels else None
    line = [("line", i) for i in range(fresh)]
    vertices.extend(line)
    if sigma is not None:
        vertex_labels.update(dict.fromkeys(line, sigma))
    edges.add(make_edge(host, attach_port, line[0], b))
    for i in range(fresh - 1):
        edges.add(make_edge(line[i], a, line[i + 1], b))

    extended = RawGraph(X.alphabets, tuple(vertices), frozenset(edges),
                        vertex_labels, edge_labels)
    return canonicalize_with_names(PointedRawGraph(extended, EPSILON))[0]


def _is_cycle_edge(X: CanonicalGraph, e: NameEdge) -> bool:
    """True when removing e keeps the graph connected (e lies on a cycle)."""
    (u, _p), (w, _q) = tuple(e)
    rest = RawGraph(alphabets=X.alphabets, vertices=X.vertices,
                    edges=X.edges - {e})
    return w in connected_component(rest, u).vertices
