"""Exhaustive finite families and desk-scale reversibility verification.

Invertibility quantifies over all graphs; here it is checked over explicit
finite families closed under the dynamics.  When a dynamics permutes a
family, its inverse is tabulated with reversed correspondences that also
invert the per-graph vertex maps, and the table is read as a local rule
that applies to graphs of any size.
"""
from __future__ import annotations

import functools
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .dynamics import Dynamics, DynamicsError, VertexCorrespondence
from .modulo import (
    CanonicalGraph,
    DiskGraph,
    canonicalize,
    canonicalize_with_names,
    disk_at_with_names,
    shift_equivalence_classes,
)
from .patches import (
    LocalRuleDynamics,
    Patch,
    RuleLookupError,
    RuleTable,
    glue_rule,
)
from .paths import Path, format_path
from .portgraph import (
    Alphabets,
    GraphError,
    PointedRawGraph,
    RawGraph,
    connected_component,
    make_edge,
)

FAMILY_CAP_ENV = "CGD_FAMILY_CAP"
DEFAULT_FAMILY_CAP = 200_000
# The largest radius `InverseTable.local_rule` tries.
MAX_INVERSE_RADIUS = 4


class FamilyCapError(GraphError):
    """Enumeration hit the configured resource cap."""


class OutOfFamilyError(GraphError):
    """A dynamics mapped a family member outside the family."""


class InverseConstructionError(GraphError):
    """The dynamics is not invertible over the supplied family."""


@dataclass(frozen=True, eq=False)
class GraphFamily:
    """An explicit, duplicate-free, ordered set of canonical graphs."""

    members: Tuple[CanonicalGraph, ...]
    alphabets: Alphabets
    _index: Dict[CanonicalGraph, int] = field(repr=False, default_factory=dict)

    @staticmethod
    def from_graphs(graphs: Iterable[CanonicalGraph],
                    alphabets: Optional[Alphabets] = None) -> "GraphFamily":
        members: List[CanonicalGraph] = []
        seen = set()
        for g in graphs:
            if g not in seen:
                seen.add(g)
                members.append(g)
        if not members and alphabets is None:
            raise ValueError("empty family needs explicit alphabets")
        return GraphFamily(tuple(members), alphabets or members[0].alphabets)

    def __post_init__(self) -> None:
        self._index.update({g: i for i, g in enumerate(self.members)})
        if len(self._index) != len(self.members):
            raise ValueError("family contains duplicates")

    def __contains__(self, g: CanonicalGraph) -> bool:
        return g in self._index

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"<GraphFamily of {len(self.members)}>"


def _family_cap(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    value = os.environ.get(FAMILY_CAP_ENV, str(DEFAULT_FAMILY_CAP))
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise FamilyCapError(
            f"{FAMILY_CAP_ENV}={value!r} is not an integer of at least 1")
    return cap


def _sorted_members(graphs: Iterable[CanonicalGraph]) -> Tuple[CanonicalGraph, ...]:
    return tuple(sorted(graphs, key=lambda g: (len(g.vertices), g.to_text())))


def enumerate_family(alphabets: Alphabets, max_vertices: int,
                     predicate: Optional[Callable[[CanonicalGraph], bool]] = None,
                     raw_prune: Optional[Callable[[RawGraph], bool]] = None,
                     cap: Optional[int] = None) -> GraphFamily:
    """All connected canonical graphs with at most `max_vertices` vertices.

    Search by canonical extension: grow one fresh pendant vertex or one new
    edge between free ports at a time, deduplicating canonical forms, which
    reaches every pointed connected graph from its origin seed.  Vertices
    are labelled totally when the vertex alphabet is non-empty (likewise
    edges), matching how the finite families are counted.

    `predicate` filters the output.  `raw_prune`, when given, gates the
    search: it discards candidate presentations, seeds included, before
    they are canonicalized.  The search stays complete when `raw_prune`
    is closed under removing a pendant vertex or an edge (mark
    consistency is; "has a head" is not).
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    cap_n = _family_cap(cap)
    vlabels: Tuple[Optional[str], ...] = alphabets.vertex_labels or (None,)
    elabels: Tuple[Optional[str], ...] = alphabets.edge_labels or (None,)

    seen = set()
    queue: deque = deque()
    # The one-vertex seeds first, then the extensions of each queued graph.
    candidates: Iterable[RawGraph] = [
        RawGraph(alphabets=alphabets, vertices=(0,),
                 vertex_labels={} if sigma is None else {0: sigma})
        for sigma in vlabels]
    while True:
        for raw in candidates:
            if raw_prune is not None and not raw_prune(raw):
                continue
            h = canonicalize_with_names(PointedRawGraph(raw, raw.vertices[0]))[0]
            if h in seen:
                continue
            seen.add(h)
            if len(seen) > cap_n:
                raise FamilyCapError(
                    f"family exceeds cap of {cap_n} graphs "
                    f"(set {FAMILY_CAP_ENV} to raise it)")
            queue.append(h)
        if not queue:
            break
        candidates = _extensions(queue.popleft(), max_vertices, vlabels, elabels)
    members = [g for g in seen if predicate is None or predicate(g)]
    return GraphFamily(_sorted_members(members), alphabets)


def _extensions(X: CanonicalGraph, max_vertices: int,
                vlabels: Tuple[Optional[str], ...],
                elabels: Tuple[Optional[str], ...]) -> Iterable[RawGraph]:
    """Candidate one-step extensions, as raw graphs pointed at their first id."""
    alphabets = X.alphabets
    adj = X.adjacency
    free = [(v, p) for v in X.vertices for p in alphabets.ports
            if p not in adj[v]]
    base = X.to_pointed_raw().graph
    fresh = "fresh"
    if len(X.vertices) < max_vertices:
        for (v, p) in free:
            for q in alphabets.ports:
                for sigma in vlabels:
                    for delta in elabels:
                        e = make_edge(v, p, fresh, q)
                        vertex_labels = dict(base.vertex_labels)
                        if sigma is not None:
                            vertex_labels[fresh] = sigma
                        edge_labels = dict(base.edge_labels)
                        if delta is not None:
                            edge_labels[e] = delta
                        yield RawGraph(alphabets=alphabets,
                                       vertices=base.vertices + (fresh,),
                                       edges=base.edges | {e},
                                       vertex_labels=vertex_labels,
                                       edge_labels=edge_labels)
    for i, (v, p) in enumerate(free):
        for (w, q) in free[i + 1:]:
            for delta in elabels:
                e = make_edge(v, p, w, q)
                edge_labels = dict(base.edge_labels)
                if delta is not None:
                    edge_labels[e] = delta
                yield RawGraph(alphabets=alphabets, vertices=base.vertices,
                               edges=base.edges | {e},
                               vertex_labels=dict(base.vertex_labels),
                               edge_labels=edge_labels)


def brute_force_family(alphabets: Alphabets, max_vertices: int,
                       predicate: Optional[Callable[[CanonicalGraph], bool]] = None,
                       cap: Optional[int] = None) -> GraphFamily:
    """Independent generator: every partial port matching, every pointing.

    Exponential in vertices times ports; used only to cross-validate the
    extension search at very small sizes.
    """
    cap_n = _family_cap(cap)
    vlabels: Tuple[Optional[str], ...] = alphabets.vertex_labels or (None,)
    elabels: Tuple[Optional[str], ...] = alphabets.edge_labels or (None,)
    out = set()
    for n in range(1, max_vertices + 1):
        half_edges = [(v, p) for v in range(n) for p in alphabets.ports]
        for matching in _partial_matchings(half_edges):
            edges = frozenset(frozenset(pair) for pair in matching)
            if any(len(e) != 2 for e in edges):
                continue
            bare = RawGraph(alphabets=alphabets, vertices=tuple(range(n)),
                            edges=edges)
            if len(connected_component(bare, 0).vertices) != n:
                continue
            for labelling in iter_product(vlabels, repeat=n):
                vertex_labels = {v: l for v, l in enumerate(labelling)
                                 if l is not None}
                for edge_labelling in iter_product(elabels, repeat=len(edges)):
                    edge_labels = {e: l for e, l in
                                   zip(sorted(edges, key=repr), edge_labelling)
                                   if l is not None}
                    raw = RawGraph(alphabets=alphabets,
                                   vertices=tuple(range(n)),
                                   edges=edges, vertex_labels=vertex_labels,
                                   edge_labels=edge_labels)
                    for origin in range(n):
                        g = canonicalize(PointedRawGraph(raw, origin))
                        if predicate is None or predicate(g):
                            out.add(g)
                            if len(out) > cap_n:
                                raise FamilyCapError(
                                    f"family exceeds cap of {cap_n}")
    return GraphFamily(_sorted_members(out), alphabets)


def _partial_matchings(items: List) -> Iterable[List[Tuple]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for m in _partial_matchings(rest):
        yield m
    for i in range(len(rest)):
        for m in _partial_matchings(rest[:i] + rest[i + 1:]):
            yield m + [(first, rest[i])]


# ---------------------------------------------------------------------------
# Checks over families
# ---------------------------------------------------------------------------


def check_bijective_on_family(D: Dynamics, fam: GraphFamily) -> Optional[str]:
    """None when D permutes the family; else the first collision.

    Raises OutOfFamilyError when an image leaves the family, since then
    bijectivity over the family is not even well-posed.
    """
    return tabulate(D, fam).bijectivity_problem()


def check_vertex_preserving(D: Dynamics, X: CanonicalGraph) -> Optional[str]:
    """None when the correspondence is a bijection onto the image's vertices."""
    return _vertex_problem(X, *D.apply(X))


def vertex_preservation_exceptions(D: Dynamics, fam: GraphFamily
                                   ) -> List[CanonicalGraph]:
    """The family members on which the correspondence fails to be bijective."""
    return tabulate(D, fam).vertex_exceptions()


def check_class_preservation(D: Dynamics, X: CanonicalGraph) -> Optional[str]:
    """Shift-equivalence must transfer along the correspondence, both ways."""
    return _class_problem(X, *D.apply(X), _class_ids)


def _vertex_problem(X: CanonicalGraph, Y: CanonicalGraph,
                    R: VertexCorrespondence) -> Optional[str]:
    values = list(R.values())
    image = set(values)
    if len(image) != len(values):
        return "correspondence is not injective"
    missing = [w for w in Y.vertices if w not in image]
    if missing:
        return f"correspondence misses image vertex {format_path(missing[0])}"
    if len(image) != len(Y.vertices):
        stray = next(v for v in X.vertices if R.get(v) not in Y)
        return f"correspondence sends {format_path(stray)} outside the image"
    return None


def _class_problem(X: CanonicalGraph, Y: CanonicalGraph,
                   R: VertexCorrespondence,
                   class_ids: Callable[[CanonicalGraph], Dict[Path, int]]
                   ) -> Optional[str]:
    class_x = class_ids(X)
    class_y = class_ids(Y)
    verts = X.vertices
    for i, u in enumerate(verts):
        for v in verts[i:]:
            same_source = class_x[u] == class_x[v]
            same_image = class_y[R[u]] == class_y[R[v]]
            if same_source != same_image:
                return (f"vertices {format_path(u)} and {format_path(v)}: "
                        f"equivalent in source={same_source}, "
                        f"in image={same_image}")
    return None


def _class_ids(X: CanonicalGraph) -> Dict[Path, int]:
    ids = {}
    for i, cls in enumerate(shift_equivalence_classes(X)):
        for v in cls:
            ids[v] = i
    return ids


def tabulate(D: Dynamics, fam: GraphFamily) -> Tabulation:
    """Apply D once to each member, in family order."""
    return Tabulation(D.name, fam, {X: D.apply(X) for X in fam})


@dataclass(frozen=True, eq=False)
class Tabulation:
    """The forward table X -> (F(X), R_X) of a dynamics over a family.

    Every family-level check and the inverse table read it, so a dynamics
    is applied once per member however many checks run.
    """

    name: str
    family: GraphFamily
    images: Dict[CanonicalGraph, Tuple[CanonicalGraph, VertexCorrespondence]]

    def bijectivity_problem(self) -> Optional[str]:
        """None when the table permutes the family; else the first collision.

        Raises OutOfFamilyError at the first image outside the family.
        """
        reached = set()
        for X, (Y, _R) in self.images.items():
            if Y not in self.family:
                raise OutOfFamilyError(
                    f"{self.name} maps a {len(X.vertices)}-vertex member to a "
                    f"{len(Y.vertices)}-vertex graph outside the family")
            if Y in reached:
                return (f"not injective: two members share the image "
                        f"{Y!r}")
            reached.add(Y)
        # An injective map of a finite, duplicate-free family into itself
        # is onto, so there is no surjectivity check.
        return None

    def vertex_exceptions(self) -> List[CanonicalGraph]:
        """The members on which the correspondence fails to be bijective."""
        return [X for X, (Y, R) in self.images.items()
                if _vertex_problem(X, Y, R) is not None]

    def class_problem(self) -> Optional[str]:
        """The first member, in family order, that breaks class preservation."""
        class_ids = functools.cache(_class_ids)
        for X, (Y, R) in self.images.items():
            problem = _class_problem(X, Y, R, class_ids)
            if problem is not None:
                return problem
        return None

    def inverse(self) -> InverseTable:
        """Invert the table, correspondences included."""
        problem = self.bijectivity_problem()
        if problem is not None:
            raise InverseConstructionError(problem)
        forward = {X: Y for X, (Y, _R) in self.images.items()}
        forward_corr = {X: R for X, (_Y, R) in self.images.items()}
        backward = {Y: X for X, Y in forward.items()}
        corr_inverse: Dict[CanonicalGraph, VertexCorrespondence] = {}
        exception_bound = 0
        for X, (Y, R) in self.images.items():
            if _vertex_problem(X, Y, R) is None:
                corr_inverse[Y] = {w: v for v, w in R.items()}
            else:
                exception_bound = max(exception_bound, len(X.vertices),
                                      len(Y.vertices))
                class_y = _class_ids(Y)
                inverse: VertexCorrespondence = {}
                for w in Y.vertices:
                    candidates = [v for v in X.vertices
                                  if class_y[R[v]] == class_y[w]]
                    if not candidates:
                        raise InverseConstructionError(
                            f"no source vertex maps into the class of an "
                            f"image vertex of {Y!r}")
                    inverse[w] = candidates[0]
                corr_inverse[Y] = inverse
        return InverseTable(family=self.family, forward=forward,
                            backward=backward, forward_corr=forward_corr,
                            corr_inverse=corr_inverse,
                            name=f"{self.name}-inverse",
                            exception_bound=exception_bound)


@dataclass(frozen=True, eq=False)
class InverseTable:
    """Lookup realization of the inverse of a family-permuting dynamics.

    `corr_inverse[Y]` inverts the forward correspondence when that is a
    bijection; on the finitely many members where it is not, every image
    vertex is sent to the least-named source vertex whose forward image is
    shift-equivalent to it.  `exception_bound` is the largest vertex count
    among those members and their images, 0 when there are none.
    """

    family: GraphFamily
    forward: Dict[CanonicalGraph, CanonicalGraph]
    backward: Dict[CanonicalGraph, CanonicalGraph]
    forward_corr: Dict[CanonicalGraph, VertexCorrespondence]
    corr_inverse: Dict[CanonicalGraph, VertexCorrespondence]
    name: str = "inverse-table"
    exception_bound: int = 0

    def local_rule(self) -> RuleTable:
        """The inverse as a disk-to-patch table read off the image members.

        At a vertex u of an image member Y the patch is u's preimage
        vertex, with its label and its incident edges; every endpoint is
        named by its path from u in Y.  The radius is the least r >= 1, up
        to MAX_INVERSE_RADIUS, at which each patch lies in, and depends only
        on, the radius-r disk around u.  Members of at most
        `exception_bound` vertices are left out: their correspondences need
        not invert.
        """
        for radius in range(1, MAX_INVERSE_RADIUS + 1):
            entries = self._patches(radius)
            if entries is not None:
                return RuleTable(radius, entries, name=self.name)
        raise InverseConstructionError(
            f"{self.name}: no radius up to {MAX_INVERSE_RADIUS} reads the "
            f"inverse off the disks of the family")

    def _patches(self, radius: int) -> Optional[Dict[DiskGraph, Patch]]:
        """The radius-`radius` entries, or None when some disk is too small."""
        entries: Dict[DiskGraph, Patch] = {}
        for Y, X in self.backward.items():
            if len(Y.vertices) <= self.exception_bound:
                continue
            back, to_y = self.corr_inverse[Y], self.forward_corr[X]
            for u in Y.vertices:
                view, names = disk_at_with_names(Y, u, radius)
                patch = _patch_of(X, back[u], to_y, names)
                if patch is None or entries.setdefault(view, patch) != patch:
                    return None
        return entries

    def as_dynamics(self) -> "LocalInverse":
        return LocalInverse(self, self.local_rule())


def _patch_of(X: CanonicalGraph, x: Path, to_y: VertexCorrespondence,
              names: Dict[Path, Path]) -> Optional[Patch]:
    """Vertex x of X and its incident edges, each vertex named by `names`
    of its image in Y; None if an endpoint's image has no name."""
    ids = {x: frozenset((names[to_y[x]],))}
    edges, edge_labels = set(), {}
    for p, (w, q) in sorted(X.adjacency[x].items(),
                            key=lambda hop: X.alphabets.port_index(hop[0])):
        name = names.get(to_y[w])
        if name is None:
            return None
        ids.setdefault(w, frozenset((name,)))
        e = make_edge(ids[x], p, ids[w], q)
        edges.add(e)
        label = X.edge_labels.get(make_edge(x, p, w, q))
        if label is not None:
            edge_labels[e] = label
    label = X.vertex_labels.get(x)
    graph = RawGraph(alphabets=X.alphabets, vertices=tuple(ids.values()),
                     edges=frozenset(edges),
                     vertex_labels={} if label is None else {ids[x]: label},
                     edge_labels=edge_labels)
    return Patch(graph, ids[x])


class LocalInverse(LocalRuleDynamics):
    """The inverse as a local rule.  Members of the table's family are
    looked up in the table; every other graph goes through the rule, which
    was read off the members larger than `exception_bound`.

    The glued graph is not validated: each patch is a vertex of a valid
    member with its edges, named by paths of a disk equal to X's, so the
    names resolve to distinct vertices of X and the patches glue into a
    valid graph.  Graphs are validated where they enter the library.
    """

    def __init__(self, table: InverseTable, rule: RuleTable):
        super().__init__(rule.as_rule(), table.family.alphabets)
        self.table = table

    def apply(self, X):
        self._check_signature(X)
        Y = self.table.backward.get(X)
        if Y is not None:
            return Y, dict(self.table.corr_inverse[X])
        if len(X.vertices) <= self.table.exception_bound:
            raise DynamicsError(
                f"{self.name}: graph not tabulated "
                f"({len(X.vertices)} vertices)")
        try:
            glued, successors = glue_rule(self.rule, X)
        except RuleLookupError:
            raise DynamicsError(
                f"{self.name}: a disk of the graph is not in the rule "
                f"({len(X.vertices)} vertices)") from None
        Y, names = canonicalize_with_names(glued)
        return Y, {u: names[s] for u, s in successors.items()}


def serialize_inverse_table(table: InverseTable) -> str:
    """Write the table as paired graph blocks in family order.

    Each member's text is followed by its image's text and one `corr` line
    per image vertex giving the inverse correspondence.
    """
    chunks = []
    for X in table.family:
        Y = table.forward[X]
        chunks.append("source")
        chunks.append(X.to_text().rstrip("\n"))
        chunks.append("image")
        chunks.append(Y.to_text().rstrip("\n"))
        inverse = table.corr_inverse[Y]
        for w in Y.vertices:
            chunks.append(f"corr {format_path(w)} {format_path(inverse[w])}")
    return "\n".join(chunks) + "\n"


def build_inverse(D: Dynamics, fam: GraphFamily) -> InverseTable:
    """Tabulate D over the family and invert it, correspondences included."""
    return tabulate(D, fam).inverse()
