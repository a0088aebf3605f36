"""Marked graphs and the decomposition of a reversible step into local gates.

The label and port alphabets are doubled with a mark bit.  A vertex's mark
lives in its label; every port at the far end of one of its edges carries
the same bit, so marks can be read off locally from either side.  On top of
this sit: the mark gate (toggle one vertex's mark), the reversible
extension of a dynamics to marked graphs (act on unmarked regions, freeze
marked ones), its conjugate mark gate, and anchored products of gates.
One global step then factors into a product of conjugate marks followed by
a product of unmarks, each acting only inside a bounded disk.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from .dynamics import (
    Dynamics,
    FuncDynamics,
    VertexCorrespondence,
    identity_correspondence,
)
from .modulo import (
    CanonicalGraph,
    ball,
    canonicalize_component,
    canonicalize_with_names,
    disk_at,
    shift_with_names,
)
from .paths import EPSILON, Path, format_path
from .patches import glue
from .portgraph import (
    Alphabets,
    GraphError,
    PointedRawGraph,
    RawGraph,
    induced_subgraph,
    make_edge,
    relabel,
)
from .reversibility import GraphFamily, build_inverse

# The largest radius `find_locality_radius` tries unless told otherwise.
MAX_LOCALITY_RADIUS = 4


class MarkError(GraphError):
    """Mark structure is missing or inconsistent."""


class UnionInconsistencyError(GraphError):
    """A transformed region conflicts with the frozen part it borders."""


class _MarkTable(dict):
    """A token table whose misses raise MarkError, never KeyError."""

    def __missing__(self, token):
        raise MarkError(f"not a marked port or label token: {token!r}")


@dataclass(frozen=True)
class MarkSpace:
    """The doubled alphabets and the bookkeeping between them.

    A marked token is a base token with a 0/1 suffix.  Four tables built
    once from the base own that format: `split` maps each marked port and
    label token to (base token, bit), `toggled` to the token with the other
    bit, `dropping` to its base token, and `lifting` maps each base token
    to its bit-0 token; the split is syntactic, so one table of each kind
    serves ports and labels.  Mark bits live on labels, so graphs must be
    fully labelled and the base vertex alphabet non-empty.
    """

    base: Alphabets
    marked: Alphabets
    split: Dict[str, Tuple[str, int]] = field(init=False, compare=False, repr=False)
    toggled: Dict[str, str] = field(init=False, compare=False, repr=False)
    lifting: Dict[str, str] = field(init=False, compare=False, repr=False)
    dropping: Dict[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        split, toggled, lifting, dropping = (_MarkTable() for _ in range(4))
        for t in self.base.ports + self.base.vertex_labels:
            zero, one = t + "0", t + "1"
            split[zero], split[one] = (t, 0), (t, 1)
            toggled[zero], toggled[one] = one, zero
            lifting[t], dropping[zero], dropping[one] = zero, t, t
        for name, table in (("split", split), ("toggled", toggled),
                            ("lifting", lifting), ("dropping", dropping)):
            object.__setattr__(self, name, table)

    @staticmethod
    def for_base(base: Alphabets) -> "MarkSpace":
        if not base.vertex_labels:
            raise MarkError("mark bits live on vertex labels; "
                            "the base vertex alphabet is empty")
        ports = tuple(p + bit for p in base.ports for bit in "01")
        vlabels = tuple(x + bit for x in base.vertex_labels for bit in "01")
        marked = Alphabets.make(ports, vlabels, base.edge_labels)
        return MarkSpace(base=base, marked=marked)

    @staticmethod
    def from_marked(marked: Alphabets) -> "MarkSpace":
        """The space whose doubled alphabets are exactly `marked`."""
        def roots(tokens):      # a token too short to have a root fails below
            return tuple(dict.fromkeys(t[:-1] or t for t in tokens))
        space = MarkSpace.for_base(Alphabets.make(
            roots(marked.ports), roots(marked.vertex_labels), marked.edge_labels))
        if space.marked != marked:
            raise MarkError("alphabets are not produced by doubling a base")
        return space

    # -- reading marks -----------------------------------------------------

    def vertex_mark(self, X: CanonicalGraph, v: Path) -> int:
        label = X.vertex_labels.get(v)
        if label is None:
            raise MarkError(f"vertex {format_path(v)} is unlabelled; "
                            f"its mark is undefined")
        return self.split[label][1]

    def uniform_mark(self, X: CanonicalGraph) -> Optional[int]:
        """The bit every label and port of X carries; None if they differ."""
        split = self.split
        bits = {split[label][1] for label in X.vertex_labels.values()}
        bits.update(split[p][1] for e in X.edges for (_v, p) in e)
        return bits.pop() if len(bits) == 1 else None

    # -- moving between the spaces ---------------------------------------

    def lift(self, X: CanonicalGraph) -> CanonicalGraph:
        """The same graph over the doubled alphabets, every bit zero."""
        if X.alphabets != self.base:
            raise MarkError("lift expects a graph over the base alphabets")
        raw = relabel(X, ports=self.lifting, labels=self.lifting,
                      alphabets=self.marked)
        return canonicalize_with_names(PointedRawGraph(raw, EPSILON))[0]

    def drop(self, X: CanonicalGraph) -> CanonicalGraph:
        """Strip all bits.  Raises MarkError when a vertex uses a port both
        ways, with bit 0 and bit 1: the two would merge into one port."""
        if X.alphabets != self.marked:
            raise MarkError("drop expects a graph over the marked alphabets")
        for v, hops in X.adjacency.items():
            for p in self.marked.ports:
                if p in hops and self.toggled[p] in hops:
                    raise MarkError(
                        f"drop: vertex {format_path(v)} uses port "
                        f"{self.split[p][0]} both ways, as {p} and "
                        f"{self.toggled[p]}")
        raw = relabel(X, ports=self.dropping, labels=self.dropping,
                      alphabets=self.base)
        return canonicalize_with_names(PointedRawGraph(raw, EPSILON))[0]

    # -- structural predicates -------------------------------------------

    def _first_bad_edge(self, g) -> Optional[Tuple[frozenset, object]]:
        """The first edge of g, raw or canonical and fully labelled, with a
        far bit that disagrees with the near vertex's mark: (edge, vertex)."""
        labels, split = g.vertex_labels, self.split
        for e in g.edges:
            (u, p), (w, q) = tuple(e)
            if split[q][1] != split[labels[u]][1]:
                return e, u
            if split[p][1] != split[labels[w]][1]:
                return e, w
        return None

    def mark_consistency_violation(self, X: CanonicalGraph) -> Optional[str]:
        """Every far port bit must equal the mark of the near vertex."""
        if X.alphabets != self.marked:
            return "graph is not over the marked alphabets"
        for v in X.vertices:
            if v not in X.vertex_labels:
                return f"vertex {format_path(v)} is unlabelled"
        bad = self._first_bad_edge(X)
        if bad is None:
            return None
        (u, p), (w, q) = tuple(bad[0])
        return (f"edge {{{format_path(u)}:{p}, {format_path(w)}:{q}}}: "
                f"far bit disagrees with the mark of {format_path(bad[1])}")

    def is_mark_consistent(self, X: CanonicalGraph) -> bool:
        return self.mark_consistency_violation(X) is None

    def raw_mark_consistent(self, g: RawGraph) -> bool:
        """Cheap raw-level mark consistency, for pruning enumeration."""
        return (all(map(g.vertex_labels.__contains__, g.vertices))
                and self._first_bad_edge(g) is None)


def mark_with_names(X: CanonicalGraph, space: MarkSpace, anchor: Path = EPSILON
                    ) -> Tuple[CanonicalGraph, Dict[Path, Path]]:
    """Toggle the anchor's mark and the far halves of its edges, then
    canonicalize once, at X's origin.  If a toggled far port is already in
    use the gate backs off and returns X unchanged, so it is total and,
    away from that conflict case, an involution."""
    adj = X.adjacency
    toggled = space.toggled
    for far_vertex, far_port in adj[anchor].values():
        if toggled[far_port] in adj[far_vertex]:
            return X, identity_correspondence(X)

    label = X.vertex_labels.get(anchor)
    if label is None:
        raise MarkError("anchor is unlabelled; its mark is undefined")
    # The far half of each anchor edge toggles; a self-loop's halves are
    # both far, and adj[anchor] lists the loop once from each of them.
    edge_map = {make_edge(anchor, p, w, q):
                make_edge(anchor, toggled[p] if w == anchor else p, w, toggled[q])
                for p, (w, q) in adj[anchor].items()}
    raw = RawGraph(
        alphabets=X.alphabets,
        vertices=X.vertices,
        edges=X.edges.difference(edge_map).union(edge_map.values()),
        vertex_labels={**X.vertex_labels, anchor: toggled[label]},
        edge_labels={edge_map.get(e, e): l for e, l in X.edge_labels.items()},
    )
    return canonicalize_with_names(PointedRawGraph(raw, EPSILON))


def mark(X: CanonicalGraph, space: MarkSpace) -> CanonicalGraph:
    return mark_with_names(X, space)[0]


class MarkDynamics(Dynamics):
    """The mark gate as a dynamics (identity correspondence up to renaming)."""

    def __init__(self, space: MarkSpace):
        self.space = space
        self.name = "mark"
        self.alphabets = space.marked

    def apply(self, X, anchor: Path = EPSILON):
        self._check_signature(X)
        return mark_with_names(X, self.space, anchor)


# ---------------------------------------------------------------------------
# Shifted gates and products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedDynamics:
    """A dynamics re-anchored at a path; identity where the path is absent.

    Shift to the anchor, apply, then shift back to where the old origin
    went.  The correspondence threads all three renamings.  No gate here
    needs it; it stays as the tests' reference and for traced bench runs.
    """

    base: Dynamics
    anchor: Path

    def apply(self, X: CanonicalGraph
              ) -> Tuple[CanonicalGraph, VertexCorrespondence]:
        if X.resolve(self.anchor) is None:
            return X, identity_correspondence(X)
        shifted, to_shifted = shift_with_names(X, self.anchor)
        image, corr = self.base.apply(shifted)
        origin_image = corr[to_shifted[EPSILON]]
        result, to_result = shift_with_names(image, origin_image)
        return result, {v: to_result[corr[to_shifted[v]]] for v in X.vertices}


def apply_product(gate: Callable[..., Tuple[CanonicalGraph, VertexCorrespondence]],
                  anchors: Sequence[Path], X: CanonicalGraph,
                  corr: Optional[VertexCorrespondence] = None,
                  observer: Optional[Callable[[Path, CanonicalGraph], None]] = None
                  ) -> Tuple[CanonicalGraph, VertexCorrespondence]:
    """Fold the gate over the anchors, each located through the running map.

    `gate(G, a)` acts at the vertex a of G and keeps G's origin.  Anchors
    name vertices of the graph the accumulated correspondence starts from
    (X itself when `corr` is omitted); anchors it does not cover are skipped.
    """
    G, T = X, (dict(corr) if corr is not None else identity_correspondence(X))
    for u in anchors:
        a = T.get(u)
        if a is None:
            continue
        G, S = gate(G, a)
        T = {v: S[w] for v, w in T.items()}
        if observer is not None:
            observer(u, G)
    return G, T


# ---------------------------------------------------------------------------
# Reversible extension
# ---------------------------------------------------------------------------


class ReversibleExtension(Dynamics):
    """Lift a dynamics to marked graphs: act where unmarked, freeze the rest.

    X must be mark-consistent.  It is fixed if all marked, or if marked and
    of at most `exception_bound` vertices.  Otherwise the marked vertices and
    the edges with a marked end stay frozen; each unmarked component (all of
    X when nothing is marked) has its bits dropped, is stepped by the base,
    lifted back, glued to the frozen part at the boundary vertices, the
    unmarked ends of frozen edges, and pointed at the origin's image.  A step
    leaving a vertex unlabelled raises MarkError; one merging two boundary
    vertices or using a frozen port of one, UnionInconsistencyError.
    """

    def __init__(self, base: Dynamics, exception_bound: int, space: MarkSpace,
                 name: Optional[str] = None):
        if exception_bound < 0:
            raise ValueError("exception bound must be >= 0")
        self.base = base
        self.exception_bound = exception_bound
        self.space = space
        self.name = name or f"marked[{base.name}]"
        self.alphabets = space.marked

    def apply(self, X):
        self._check_signature(X)
        space = self.space
        problem = space.mark_consistency_violation(X)
        if problem is not None:
            raise MarkError(f"{self.name}: input not mark-consistent: {problem}")
        split, labels, adj = space.split, X.vertex_labels, X.adjacency
        marked = {v for v in X.vertices if split[labels[v]][1]}
        n = len(X.vertices)
        if len(marked) == n or marked and n <= self.exception_bound:
            return X, identity_correspondence(X)
        # The frozen edges have a marked end.  No glue can clash: a frozen
        # half-edge at a boundary vertex has bit 1, a stepped one bit 0; only
        # marked vertices keep labels here; no two regions share ids.  Nor can
        # it break marks: this piece keeps X's bits, stepped ones bit 0 on every
        # label and port, so the result is consistent iff every vertex is labelled.
        frozen = frozenset(e for e in X.edges for (u, _p), (w, _q) in (e,)
                           if u in marked or w in marked)
        boundary = {v for e in frozen for (v, _p) in e}.difference(marked)
        # A step must not use base port q at v if v holds q1 and not q0.
        freed = {(v, space.dropping[p]) for e in frozen for (v, p) in e
                 if v in boundary and space.toggled[p] not in adj[v]}
        pieces = [RawGraph(
            alphabets=space.marked, edges=frozen,
            vertices=tuple(v for v in X.vertices if v in marked or v in boundary),
            vertex_labels={v: labels[v] for v in marked},
            edge_labels={e: l for e, l in X.edge_labels.items() if e in frozen})]
        final_id: Dict[Path, object] = {v: v for v in marked}
        rest = relabel(induced_subgraph(X, (v for v in X.vertices if v not in marked)),
                       ports=space.dropping, labels=space.dropping, alphabets=space.base)

        # An unseen vertex is the least of its region: X's order is rest's.
        for anchor in rest.vertices:
            if anchor in final_id:
                continue
            comp_graph, to_comp = canonicalize_component(PointedRawGraph(rest, anchor))
            image, corr = self.base.apply(comp_graph)
            bare = next((w for w in image.vertices if w not in image.vertex_labels), None)
            if bare is not None:
                raise MarkError(f"{self.name}: the step leaves vertex "
                                f"{format_path(bare)} unlabelled")
            img = {v: corr[to_comp[v]] for v in rest.vertices if v in to_comp}
            seam: Dict[Path, Path] = {}
            for v in filter(boundary.__contains__, img):
                if seam.setdefault(img[v], v) is not v:
                    raise UnionInconsistencyError(
                        f"{self.name}: boundary vertices {format_path(seam[img[v]])} "
                        f"and {format_path(v)} collide in the image")
            held = {(img[v], q): v for (v, q) in freed if v in img}
            taken = {(held[h], h[1]) for e in image.edges for h in e if h in held}
            if taken:
                v, q = min(taken, key=lambda h: (X.vertices.index(h[0]), h[1]))
                raise UnionInconsistencyError(
                    f"{self.name}: the step puts an edge on a frozen port of "
                    f"boundary vertex {format_path(v)} (port {q})")
            piece_id = {w: seam.get(w, ("fresh", anchor, w)) for w in image.vertices}
            pieces.append(relabel(image, ids=piece_id, ports=space.lifting,
                                  labels=space.lifting, alphabets=space.marked))
            final_id.update((v, piece_id[w]) for v, w in img.items())

        result, names = canonicalize_with_names(
            PointedRawGraph(glue(pieces), final_id[EPSILON]))
        return result, {v: names[final_id[v]] for v in X.vertices}


# ---------------------------------------------------------------------------
# Conjugate marks, the block pipeline, locality
# ---------------------------------------------------------------------------


@dataclass
class TraceStage:
    label: str
    graph: CanonicalGraph


class BlockKit:
    """Everything needed to run one step as a circuit of local gates."""

    def __init__(self, dynamics: Dynamics, inverse: Dynamics,
                 exception_bound: int, space: MarkSpace):
        self.space = space
        self.dynamics = dynamics
        self.inverse = inverse
        self.exception_bound = exception_bound
        self.forward_ext = ReversibleExtension(dynamics, exception_bound, self.space)
        self.backward_ext = ReversibleExtension(
            inverse, exception_bound, self.space,
            name=f"marked-inverse[{dynamics.name}]")
        self.mark_gate = MarkDynamics(self.space)

    @staticmethod
    def from_family(dynamics: Dynamics, family: GraphFamily) -> "BlockKit":
        """Read the inverse as a local rule off a family that `dynamics`
        permutes.

        The rule is read at every vertex of every member, and applies to
        graphs of any size whose disks the family shows.  The table also
        fixes the marks, doubling the family's alphabets, and the exception
        bound.
        """
        table = build_inverse(dynamics, family)
        return BlockKit(dynamics, table.as_dynamics(), table.exception_bound,
                        MarkSpace.for_base(family.alphabets))

    @property
    def conjugate(self) -> FuncDynamics:
        """Acts at the anchor `apply` takes; new on each use, so the kit holds no cycle."""
        return FuncDynamics(f"conjugate-mark[{self.dynamics.name}]",
                            self.conjugate_mark, self.space.marked)

    def conjugate_mark(self, X: CanonicalGraph, anchor: Path = EPSILON
                       ) -> Tuple[CanonicalGraph, VertexCorrespondence]:
        """Apply the extension, mark the anchor's image, then undo the
        extension; X's origin stays the origin."""
        return next(self.conjugate_marks(X, (anchor,)))

    def conjugate_marks(self, X: CanonicalGraph, anchors: Iterable[Path]
                        ) -> Iterator[Tuple[CanonicalGraph, VertexCorrespondence]]:
        """`conjugate_mark(X, a)` at each anchor, off one forward extension."""
        Y, R = self.forward_ext.apply(X)
        for anchor in anchors:
            Z, M = self.mark_gate.apply(Y, R[anchor])
            W, B = self.backward_ext.apply(Z)
            yield W, {v: B[M[w]] for v, w in R.items()}

    def decompose_step(self, X: CanonicalGraph,
                       trace: Optional[List[TraceStage]] = None
                       ) -> CanonicalGraph:
        """One global step as conjugate marks at every vertex, then unmarks.

        The result must equal the direct image; callers assert that.
        """
        space = self.space
        lifted = space.lift(X)
        if trace is not None:
            trace.append(TraceStage("lift", lifted))

        def watch(phase):
            if trace is None:
                return None
            return lambda u, G: trace.append(
                TraceStage(f"{phase} @ {format_path(u)}", G))

        anchors = lifted.vertices
        staged, running = apply_product(self.conjugate_mark, anchors, lifted,
                                        observer=watch("conjugate-mark"))
        cleared, _ = apply_product(self.mark_gate.apply, anchors, staged,
                                   corr=running, observer=watch("unmark"))
        if space.uniform_mark(cleared) != 0:
            raise MarkError("marks survived the unmark sweep")
        final = space.drop(cleared)
        if trace is not None:
            trace.append(TraceStage("final", final))
        return final


def _unwitnessed(X: CanonicalGraph, Y: CanonicalGraph, S: VertexCorrespondence,
                 disks: Optional[Dict[Path, CanonicalGraph]] = None) -> List[Path]:
    """The vertices of Y, a gate's image of X under the correspondence S,
    that are no verbatim copy of a source vertex, in Y's order.

    A witness of y is a preimage u of y with the same radius-0 disk whose
    whole disk the correspondence maps by plain path extension, so each
    source vertex is tried once, against its own image.  Nothing here
    depends on a radius or on where Y is pointed, so every radius reads
    the same scan, and X's radius-0 `disks` serve the gate at every anchor.
    """
    witnessed = set()
    for u, disk in (disks or {u: disk_at(X, u, 0) for u in X.vertices}).items():
        y = S[u]
        if y not in witnessed and y in Y and disk == disk_at(Y, y, 0) and all(
                (uv := X.resolve(v, start=u)) is not None
                and S[uv] == Y.resolve(v, start=y) for v in disk.vertices):
            witnessed.add(y)
    return [y for y in Y.vertices if y not in witnessed]


def check_locality(L: Dynamics, radius: int, fam: GraphFamily) -> Optional[str]:
    """Is every image vertex farther than `radius` from the origin a
    verbatim copy of some source vertex?  None if so, else the first that
    is not."""
    for X in fam:
        for y in _unwitnessed(X, *L.apply(X)):
            if len(y) > radius:
                return (f"image vertex {format_path(y)} of a "
                        f"{len(X.vertices)}-vertex member has no source "
                        f"witness at radius {radius}")
    return None


def find_locality_radius(L: Dynamics, fam: GraphFamily,
                         max_radius: int = MAX_LOCALITY_RADIUS) -> Optional[int]:
    """Least radius at which check_locality passes, or None up to the bound:
    the longest unwitnessed name, read off one application per member."""
    radius = 0
    for X in fam:
        radius = max([radius, *map(len, _unwitnessed(X, *L.apply(X)))])
        if radius > max_radius:
            return None
    return radius


def anchored_locality_radius(gates: Iterable[Tuple[CanonicalGraph, list]]) -> Optional[int]:
    """`find_locality_radius` over every pointing of each X, read off an
    anchored gate's (W, T) at each vertex a of X, in X's order: W pointed at
    T[a] is the image of X pointed at a, so distances count from T[a]."""
    radius = 0
    for X, results in gates:
        disks = {u: disk_at(X, u, 0) for u in X.vertices}
        for a, (W, T) in zip(X.vertices, results):
            far = _unwitnessed(X, W, T, disks)
            while not ball(W, T[a], radius).issuperset(far):
                if (radius := radius + 1) > MAX_LOCALITY_RADIUS:
                    return None
    return radius


def footprint(X: CanonicalGraph, Y: CanonicalGraph, T: VertexCorrespondence) -> Set[Path]:
    """Source vertices whose label or incident edges the step X -> Y alters."""
    if len(set(T.values())) != len(T) or set(T.values()) != set(Y.vertices):
        raise MarkError("gate correspondence is not a bijection; "
                        "footprint undefined")
    moved = relabel(X, ids=T)
    altered = {w for w in Y.vertices
               if moved.vertex_labels.get(w) != Y.vertex_labels.get(w)}
    edges = moved.edges ^ Y.edges
    edges |= {e for e in moved.edges & Y.edges
              if moved.edge_labels.get(e) != Y.edge_labels.get(e)}
    altered.update(w for e in edges for (w, _p) in e)
    back = {w: v for v, w in T.items()}
    return {back[w] for w in altered}


def gate_footprint(gate: Dynamics, X: CanonicalGraph, anchor: Path) -> Set[Path]:
    """The `footprint` of `gate.apply(X, anchor)`; the gate must take the anchor."""
    return footprint(X, *gate.apply(X, anchor))
