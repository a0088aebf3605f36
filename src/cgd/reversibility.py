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
from dataclasses import dataclass, field
from itertools import product as iter_product
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .dynamics import Dynamics, DynamicsError, VertexCorrespondence
from .modulo import (
    CanonicalGraph,
    canonicalize,
    canonicalize_with_names,
    disk_at_with_names,
    shift_class_ids,
)
from .patches import (
    LocalRuleDynamics,
    RuleLookupError,
    RuleTable,
    glue_rule,
)
from .paths import EPSILON, Path, format_path
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
    _index: Dict[CanonicalGraph, int] = field(init=False, repr=False, default_factory=dict)

    @staticmethod
    def from_graphs(graphs: Iterable[CanonicalGraph],
                    alphabets: Optional[Alphabets] = None) -> "GraphFamily":
        members = tuple(dict.fromkeys(graphs))
        if not members and alphabets is None:
            raise ValueError("empty family needs explicit alphabets")
        return GraphFamily(members, alphabets or members[0].alphabets)

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

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    1998; Read, "Every one a winner", 1978) builds each graph once, from
    its parent: the graph less its last vertex in canonical order, with
    that vertex's edges.  That vertex is a farthest one, last in its layer,
    so the parent is connected and keeps every name.  A child is its
    parent plus a vertex w with a label, self-loops and at least one edge
    to a free parent port; the seeds, children of the empty graph, are one
    vertex with any label and any self-loops.  Ports fix every vertex once
    the origin is fixed, so no graph has a non-trivial automorphism and
    there is no orbit test.

    A child is accepted exactly when w comes last in it.  w's name is the
    least name u.(p, q) over its edges w:q -- u:p, so w comes last when
    each follows the parent's last name in `_canonical_names` order: (u's
    place in the vertex order, exit).  Only such edges are offered, so
    only ports on the parent's last two layers are.  The child's canonical
    form is the parent's plus w's name: no BFS runs and no duplicate is
    built.  Labelling is total when an alphabet is non-empty.

    `predicate` filters the output.  `raw_prune` gates the search and must
    be closed under taking subgraphs: when a graph passes, so does the graph
    less an edge, or less a vertex with its edges (mark consistency is; "has
    a head" is not).  No new edge or self-loop whose one-edge graph fails it
    is offered; each child is then tested whole.  The cap counts the graphs
    that pass it.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    cap_n = _family_cap(cap)
    vlabels: Tuple[Optional[str], ...] = alphabets.vertex_labels or (None,)
    elabels: Tuple[Optional[str], ...] = alphabets.edge_labels or (None,)
    ports = alphabets.ports
    pidx = {p: i for i, p in enumerate(ports)}
    found: List[CanonicalGraph] = []

    @functools.cache
    def edge_passes(loop, u_label, p, w_label, q, delta) -> bool:
        """`raw_prune` of one edge u:p -- w:q, or self-loop w:p -- w:q."""
        u = 1 if loop else 0
        e = make_edge(u, p, 1, q)
        return raw_prune is None or raw_prune(RawGraph(
            alphabets, (1,) if loop else (0, 1), frozenset((e,)),
            {v: l for v, l in ((u, u_label), (1, w_label)) if l is not None},
            {} if delta is None else {e: delta}))

    def w_edges(todo, options, used):
        """Every way to give each of w's ports in `todo` a self-loop or an
        edge from `options` whose far end is not `used`, or nothing: lists
        of (key of the name u.(p, q) it offers w, q, u:p, label), or (None,
        q, q2, label) for a self-loop."""
        if not todo:
            yield []
            return
        q, rest = todo[0], todo[1:]
        yield from w_edges(rest, options, used)
        if q not in used:
            for key, far, delta in options[q]:
                if far not in used:
                    for tail in w_edges(rest, options, used | {far}):
                        yield [(key, q, far, delta)] + tail

    def grow(parent: CanonicalGraph) -> None:
        """Keep the accepted children of `parent`."""
        vertices, labels = parent.vertices, parent.vertex_labels
        offered = []
        if vertices:
            last, first, last_key = vertices[-1], 0, (-1,)
            if last.length:
                first = vertices.index(last.parent)
                last_key = (first, pidx[last.last[0]])
            offered = [((i, pidx[p]), vertices[i], p)
                       for i in range(first, len(vertices)) for p in ports
                       if p not in parent.adjacency[vertices[i]]
                       and (i, pidx[p]) > last_key]
        for sigma in vlabels:
            # A self-loop's far end is w's port q2, an edge's is u:p.
            options = {q: [(None, q2, delta) for q2 in ports[i + 1:] for delta in elabels
                           if edge_passes(True, sigma, q, sigma, q2, delta)]
                       + [(key, (u, p), delta) for key, u, p in offered
                          for delta in elabels
                          if edge_passes(False, labels.get(u), p, sigma, q, delta)]
                       for i, q in enumerate(ports)}
            for choice in w_edges(ports, options, frozenset()):
                keyed = [c for c in choice if c[0] is not None]
                if keyed:
                    _key, q, (u, p), _delta = min(keyed, key=itemgetter(0))
                    w = u.child((p, q))
                elif not vertices:
                    w = EPSILON
                else:
                    continue
                new = {frozenset(((w, q), far if key else (w, far))): delta
                       for key, q, far, delta in choice}
                vs, es = vertices + (w,), parent.edges.union(new)
                vl = labels if sigma is None else {**labels, w: sigma}
                el = {**parent.edge_labels, **{e: d for e, d in new.items() if d is not None}
                      } if alphabets.edge_labels else parent.edge_labels
                if raw_prune is None or raw_prune(RawGraph(alphabets, vs, es, vl, el)):
                    found.append(CanonicalGraph(alphabets, vs, vl, es, el))
                if len(found) > cap_n:
                    raise FamilyCapError(f"family exceeds cap of {cap_n} graphs "
                                         f"(set {FAMILY_CAP_ENV} to raise it)")

    grow(CanonicalGraph(alphabets, (), {}, (), {}))
    for X in found:     # `found` grows as it is walked: breadth first
        if len(X.vertices) < max_vertices:
            grow(X)
    return GraphFamily(_sorted_members(
        g for g in found if predicate is None or predicate(g)), alphabets)


def brute_force_family(alphabets: Alphabets, max_vertices: int,
                       predicate: Optional[Callable[[CanonicalGraph], bool]] = None,
                       cap: Optional[int] = None) -> GraphFamily:
    """Independent generator: every partial port matching, every pointing.

    Exponential in vertices times ports; used only to cross-validate
    `enumerate_family` at very small sizes.
    """
    cap_n = _family_cap(cap)
    vlabels: Tuple[Optional[str], ...] = alphabets.vertex_labels or (None,)
    elabels: Tuple[Optional[str], ...] = alphabets.edge_labels or (None,)
    out = set()
    for n in range(1, max_vertices + 1):
        half_edges = [(v, p) for v in range(n) for p in alphabets.ports]
        for matching in _partial_matchings(half_edges):
            edges = frozenset(frozenset(pair) for pair in matching)
            bare = RawGraph(alphabets=alphabets, vertices=tuple(range(n)),
                            edges=edges)
            if len(connected_component(bare, 0).vertices) != n:
                continue
            for labelling, edge_labelling in iter_product(
                    iter_product(vlabels, repeat=n),
                    iter_product(elabels, repeat=len(edges))):
                raw = RawGraph(
                    alphabets, bare.vertices, edges,
                    {v: l for v, l in enumerate(labelling) if l is not None},
                    {e: l for e, l in zip(sorted(edges, key=repr),
                                          edge_labelling) if l is not None})
                for origin in range(n):
                    g = canonicalize(PointedRawGraph(raw, origin))
                    if predicate is None or predicate(g):
                        out.add(g)
                        if len(out) > cap_n:
                            raise FamilyCapError(f"family exceeds cap of {cap_n}")
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
    return _class_problem(X, *D.apply(X), {})


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


def _class_problem(X: CanonicalGraph, Y: CanonicalGraph, R: VertexCorrespondence,
                   orbit: Dict[CanonicalGraph, Tuple[int, ...]]) -> Optional[str]:
    class_x = dict(zip(X.vertices, shift_class_ids(X, orbit)))
    class_y = dict(zip(Y.vertices, shift_class_ids(Y, orbit)))
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

    def apply(self, X: CanonicalGraph) -> Tuple[CanonicalGraph, VertexCorrespondence]:
        """(F(X), R_X) read off the table; OutOfFamilyError off the family."""
        if X not in self.images:
            raise OutOfFamilyError(f"{self.name}: graph not tabulated")
        return self.images[X]

    def bijectivity_problem(self) -> Optional[str]:
        """None when the table permutes the family; else the first collision.

        Raises OutOfFamilyError at the first image outside the family.
        """
        return self._collision

    @functools.cached_property
    def _collision(self) -> Optional[str]:
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
        orbit: Dict[CanonicalGraph, Tuple[int, ...]] = {}
        problems = (_class_problem(X, Y, R, orbit) for X, (Y, R) in self.images.items())
        return next((p for p in problems if p is not None), None)

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
                class_y = dict(zip(Y.vertices, shift_class_ids(Y, {})))
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
        on, the radius-r disk around u.  Members of at most `exception_bound`
        vertices, whose correspondences need not invert, are left out; u is
        every vertex of every other member, so that two equal disks with two
        patches, as a dynamics that is not shift-invariant shows, conflict.
        """
        for radius in range(1, MAX_INVERSE_RADIUS + 1):
            entries: Dict[CanonicalGraph, PointedRawGraph] = {}
            if all(patch is not None and entries.setdefault(view, patch) == patch
                   for view, patch in self._read(radius)):
                return RuleTable(radius, entries, name=self.name)
        raise InverseConstructionError(
            f"{self.name}: no radius up to {MAX_INVERSE_RADIUS} reads the "
            f"inverse off the disks of the family")

    def _read(self, radius: int
              ) -> Iterator[Tuple[CanonicalGraph, Optional[PointedRawGraph]]]:
        """(disk, patch) at each vertex read; None for a disk too small."""
        for Y, X in self.backward.items():
            if len(Y.vertices) > self.exception_bound:
                back, to_y = self.corr_inverse[Y], self.forward_corr[X]
                for u in Y.vertices:
                    view, names = disk_at_with_names(Y, u, radius)
                    yield view, _patch_of(X, back[u], to_y, names)

    def as_dynamics(self) -> "LocalInverse":
        return LocalInverse(self, self.local_rule())


def _patch_of(X: CanonicalGraph, x: Path, to_y: VertexCorrespondence,
              names: Dict[Path, Path]) -> Optional[PointedRawGraph]:
    """Vertex x of X and its incident edges, each vertex named by `names`
    of its image in Y; None if an endpoint's image has no name."""
    ids = {x: names[to_y[x]]}
    edges, edge_labels = set(), {}
    for p, (w, q) in sorted(X.adjacency[x].items(),
                            key=lambda hop: X.alphabets.port_index(hop[0])):
        name = names.get(to_y[w])
        if name is None:
            return None
        ids.setdefault(w, name)
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
    return PointedRawGraph(graph, ids[x])


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
        inverse = table.corr_inverse[Y]
        source, image = X.name_texts(), Y.name_texts()
        chunks += ["source", X.to_text().rstrip("\n"), "image", Y.to_text().rstrip("\n")]
        chunks += [f"corr {text} {source[inverse[w]]}" for w, text in image.items()]
    return "\n".join(chunks) + "\n"


def build_inverse(D: Dynamics, fam: GraphFamily) -> InverseTable:
    """Tabulate D over the family and invert it, correspondences included."""
    return tabulate(D, fam).inverse()
