"""Earlier gluing code, kept as slow references for differential tests.

`apply_local_rule_pairwise` checks every pair of patches with `consistent`
and then folds them together with `union_pair`, the two-patch union as it
was written before `patches.glue`.  `FoldingExtension` is the reversible
extension as it was, on `SlicingMarks`: an all-unmarked graph took a path
of its own (drop, step, lift, each canonicalized), and the mixed case
froze each component of the marked vertices and their neighbours (keeping
only the marked vertices' labels and the edges with a marked end),
canonicalized each unmarked component, dropped, stepped and lifted it,
built each evolved piece by hand and folded `consistent` and `union_pair`
over the pieces.  The library now evolves every unmarked region on one
path, lifts it inside the `portgraph.relabel` that names its piece, and
glues with one call to `patches.glue`.

`export_dot_by_path_key` is the DOT renderer as it was when it ordered
half-edges by `Alphabets.path_key`; `dot.export_dot` now orders them by the
vertex's rank in the canonical vertex order.

`check_bijective_on_family`, `check_vertex_preserving`,
`vertex_preservation_exceptions`, `check_class_preservation` and
`build_inverse` are the family checkers as they were when each ran its own
loop of applies; `reversibility` now applies a dynamics once per member
(`tabulate`) and every check reads that table.

`disk_by_canonicalization` is `disk` as it was when it pruned the graph to
a raw graph and canonicalized that; `modulo.disk` now keeps the input's
names and their order.

`ball_by_bfs` is `ball` as it was in `blocks`, a BFS of its own, and
`check_boundedness_by_bfs` is `check_boundedness` as it was when it ran one
multi-source BFS from the reached vertices; both now read
`modulo._canonical_names`.  The oracle `build_inverse` derives the
exception bound from `vertex_preservation_exceptions`.

`TableDynamics` is the inverse as the block kit applied it before
`InverseTable.local_rule`: a whole-graph lookup in the table, which knows
only the family's members.  The kit's inverse now reads a local rule off
the table and applies it to graphs of any size.

`disk_by_shift` is the disk around a vertex as local rules and
`check_locality` took it before `modulo.disk_at`: re-point the whole graph
at the vertex, then cut.  `translate_patch_from_origin` resolves each patch
token as anchor.token walked from the origin; `_translate_patch` now walks
the token from the anchor.  `apply_local_rule_pairwise` uses both.

`consistent`, `glue`, `_translate_patch` and `glue_rule` are the gluing
code as it was when a local rule's patch vertex ids were sets of tokens,
each a singleton in practice: `_ids_clash` rejected two ids that overlap
without being equal, and `glue` indexed every token of every id.  Patch
ids are now the tokens themselves.  The two references above fold with
this `consistent`, which also serves plain ids.

`TuplePath` is a vertex name as `paths.Path` held it before it became a
trie node, one tuple per word, with `format_tuple_path` its old text and
`tuple_canonical_names` the old canonical naming that copied the parent's
word into every child.  `equal_by_names` is `CanonicalGraph.__eq__` as it
was, comparing every name as its whole word; the graph now pairs the two
vertex tuples position by position.

`SlicingMarks` is `MarkSpace`'s token bookkeeping as it was: seven parsers
(`port`, `port_base`, `port_bit`, `toggle_port`, `label`, `label_base`,
`toggle_label`) that slice a bit off a token or append one on every call,
the consistency predicates built on them, and the two scans `all_marked`
and `all_unmarked`.  `mark_with_names_by_slicing` is the mark gate built on
them.  `MarkSpace` now reads and toggles bits through its `split` and
`toggled` tables, built once; one `uniform_mark` scan replaces the two
scans, and the raw and canonical predicates share one first-bad-edge scan.

`enumerate_family` is the enumerator as it was before canonical
augmentation: it grows every queued graph by one pendant vertex or one
edge between free ports (`_extensions`), canonicalizes each candidate by
BFS and drops the ones already in its `seen` set.
`reversibility.enumerate_family` now builds each member once, from its
parent, and runs no BFS.

`shift_equivalence_classes` and `_class_ids` are the symmetry classes as
they were computed for every graph on its own, with one shift per vertex;
`modulo.shift_class_ids` now fills in the classes of every pointing of a
graph from one pass over one of them.  `check_shift_invariance` is the
axiom checker as it was when it resolved u.v in X and R(u).R_Xu(v) in F(X)
by walking paths; it now reads both off the maps its two shifts return.

`disk_scanning_edges` is `disk` as it was when it kept X's names but
scanned every edge and label of X; `modulo.disk` now reads the adjacency
of the kept vertices alone.

`inverse_rule_at_every_vertex` reads the inverse's local rule as
`InverseTable.local_rule` did on every family: one disk and one patch at
each vertex of each image member.  On a shift-closed family the library
now reads each member's origin alone.

`check_locality`, `find_locality_radius` and `gate_footprint` are the
locality checks as they were in `blocks`: the radius search called
`check_locality` at r = 0, 1, ... and so applied the gate once per member
per radius tried, and the footprint mapped every edge of the source by hand.
`blocks` now reads the radius off one application per member and compares
edges through `portgraph.relabel`, and keeps no `check_locality`: a bound r
passes there exactly when `find_locality_radius(L, fam, r)` is not None.

`parse_graph`, `parse_rule_file` and `_parse_patch` are the text parsers as
they were before rule files loaded in one pass: the rule-file scan kept
each section's raw lines, `parse_graph` split them again and built one
`Alphabets` per block, and each patch was copied through `relabel` to turn
its ids into tokens, each id parsed by `parse_path` on its own.  Some of
their errors name no line, and a `disk` section followed by another `disk`
was read as the first disk's patch.  `portgraph.parse_rows` now parses
rows split once, shares one alphabet per header, and turns patch ids into
tokens as the block is built.

`serialize_graph_by_stringio`, `ordered_edges_by_tuples` and
`format_path_cached` are the text writer as it was before a canonical
graph wrote its text in one pass: `CanonicalGraph.to_text` was
`serialize_graph(X.to_pointed_raw(), token=format_path)`, which wrote into
a `StringIO`, sorted edges by tuple keys built with `Alphabets.port_index`,
and rendered each name with a `format_path` that kept every name's text on
its node (here, in `_TEXTS`) and built it from its parent's.
`text_by_cached_names`, `export_dot_per_name` and
`serialize_inverse_table_per_name` are the canonical text, the DOT renderer
and the inverse-table writer built on them.  The library now builds a
graph's name texts once per graph (`CanonicalGraph.name_texts`) and writes
every text through one line list (`portgraph.write_graph`).

`checked_write_graph` is `portgraph.write_graph` as it was when every text
checked its tokens: a collision set, the origin and a scan of each token
for whitespace, ':' and '#', and the alphabet lines joined again for each
graph.  The checks now live in `serialize_graph`, the one entry for
caller-chosen tokens; `write_graph` trusts its tokens, and a canonical
graph's names are writable by its `Alphabets`, which also keeps the
alphabet lines.

`CompositeDynamics` applies several dynamics in sequence and composes
their correspondences.  It lived in `dynamics` until nothing in the library
called it; tests use it for two moving-head steps at once and as the
whole-graph conjugate mark that the anchored gates are checked against.

`tabulated_origin_gate` is the gate `cgd check-blocks` read before its
gates acted at their anchor: the origin conjugate mark tabulated over the
shift closure of the lifted tapes.  `find_locality_radius` searched the
table, and `gate_footprint` re-pointed the whole graph at each anchor and
back (`ShiftedDynamics`).  The command now applies the anchored gate at
every vertex of each plain lifted tape, off one forward extension per
tape, and reads the radius and the footprints off those results.

`layered_canonical_names` is `modulo._canonical_names` as it was, depth
bound included: each BFS layer kept one (parent's rank, exit index, entry
index) key per half-edge in a candidate table, sorted the next layer by
those keys and then built its names in a second loop.  The library now
walks each layer's ports in `alphabets.ports` order and names a vertex
when it first reaches it.

`rename_every_edge` is `modulo._rename` as it was when it rebuilt every
edge record under the new names, and `canonicalize_rebuilding_edges` is
`canonicalize_with_names` on it.  The library now keeps, as the same
object, every edge whose two ends already carry their canonical names.
`connected_component` is the reachability walk that `portgraph` kept for
the reversibility brute force and the primal extension's cycle test; it is
the reference for `modulo.canonicalize_component` and for `_components`.
`primal_extension_by_cycle_test` is `modulo.primal_extension` as it was
when a host with no free port lost its greatest incident edge among those
that `_is_cycle_edge` found on a cycle, one `connected_component` per edge.
The library now takes the greatest host edge, which is never a bridge.
"""
import io
from collections import deque
from itertools import combinations
from typing import (Callable, Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from cgd.blocks import (
    MarkError,
    MarkSpace,
    ShiftedDynamics,
    UnionInconsistencyError,
)
from cgd.dynamics import (
    Dynamics,
    DynamicsError,
    FuncDynamics,
    VertexCorrespondence,
    identity_correspondence,
)
from cgd.families import shift_closure
from cgd.modulo import (
    CanonicalGraph,
    _canonical_names,
    canonicalize,
    canonicalize_with_names,
    disk,
    disk_at,
    disk_at_with_names,
    is_asymmetric,
    shift,
    shift_with_names,
    smallest_prime_above,
)
from cgd.patches import (LocalRule, PatchError, PatchInconsistencyError,
                         RuleTable)
from cgd.paths import EPSILON, Path, format_path, parse_path
from cgd.portgraph import (
    Alphabets,
    Edge,
    GraphFormatError,
    InvalidGraphError,
    PointedRawGraph,
    RawGraph,
    ensure_valid,
    induced_subgraph,
    make_edge,
    ordered_edges,
    relabel,
)
from cgd.reversibility import (
    FAMILY_CAP_ENV,
    FamilyCapError,
    GraphFamily,
    InverseConstructionError,
    InverseTable,
    MAX_INVERSE_RADIUS,
    OutOfFamilyError,
    _family_cap,
    _sorted_members,
    tabulate,
)


def union_pair(G: RawGraph, H: RawGraph) -> RawGraph:
    """Unions of vertices, edges and labels; the caller checked consistency."""
    g_set = set(G.vertices)
    vertices = G.vertices + tuple(v for v in H.vertices if v not in g_set)
    vertex_labels = dict(G.vertex_labels)
    vertex_labels.update(H.vertex_labels)
    edge_labels = dict(G.edge_labels)
    edge_labels.update(H.edge_labels)
    return RawGraph(alphabets=G.alphabets, vertices=vertices,
                    edges=G.edges | H.edges, vertex_labels=vertex_labels,
                    edge_labels=edge_labels)


def _ids_clash(x: Hashable, y: Hashable) -> bool:
    """Distinct ids that nevertheless overlap; only token sets can overlap."""
    if x == y:
        return False
    if isinstance(x, frozenset) and isinstance(y, frozenset):
        return bool(x & y)
    return False


def consistent(G: RawGraph, H: RawGraph) -> Optional[str]:
    """None when the two patches nowhere disagree, else the first conflict.

    Four conditions: overlapping vertex ids must be equal; a shared
    half-edge must carry the same edge; shared edges and shared vertices
    must agree on labels wherever both sides define one.
    """
    if G.alphabets != H.alphabets:
        return "patches use different alphabets"
    for x in sorted(G.vertices, key=repr):
        for y in sorted(H.vertices, key=repr):
            if _ids_clash(x, y):
                return f"vertex ids {x!r} and {y!r} overlap without being equal"
    adj_g = G.adjacency()
    adj_h = H.adjacency()
    shared = set(G.vertices) & set(H.vertices)
    for x in sorted(shared, key=repr):
        for port in sorted(set(adj_g[x]) & set(adj_h[x])):
            if adj_g[x][port] != adj_h[x][port]:
                return (f"half-edge {x!r}:{port} leads to "
                        f"{adj_g[x][port]!r} in one patch and "
                        f"{adj_h[x][port]!r} in the other")
    for e in G.edge_labels:
        if e in H.edge_labels and G.edge_labels[e] != H.edge_labels[e]:
            return f"edge {set(e)!r} labelled both {G.edge_labels[e]!r} and {H.edge_labels[e]!r}"
    for x in sorted(shared, key=repr):
        lg, lh = G.vertex_labels.get(x), H.vertex_labels.get(x)
        if lg is not None and lh is not None and lg != lh:
            return f"vertex {x!r} labelled both {lg!r} and {lh!r}"
    return None


def glue(pieces: Sequence[RawGraph]) -> RawGraph:
    """The union of vertices (in order of first appearance), edges and labels;
    the lexicographically first pair that `consistent` rejects is raised."""
    alphabets = pieces[0].alphabets
    owner: Dict[Hashable, Hashable] = {}    # id token -> first id holding it
    far = {}
    seen_labels: Dict[Hashable, str] = {}   # labels of listed vertices only
    vertices: Dict[Hashable, None] = {}     # an ordered set
    vertex_labels, edge_labels, edges = {}, {}, set()
    clash = False
    for piece in pieces:
        clash |= piece.alphabets != alphabets
        for v in piece.vertices:
            if isinstance(v, frozenset):
                for t in v:
                    clash |= owner.setdefault(t, v) != v
            label = piece.vertex_labels.get(v)
            if label is not None:
                clash |= seen_labels.setdefault(v, label) != label
        for e in piece.edges:
            if len(e) == 2:
                h1, h2 = e
                clash |= far.setdefault(h1, h2) != h2
                clash |= far.setdefault(h2, h1) != h1
        for e, label in piece.edge_labels.items():
            clash |= edge_labels.setdefault(e, label) != label
        vertices.update(dict.fromkeys(piece.vertices))
        edges.update(piece.edges)
        vertex_labels.update(piece.vertex_labels)
    if clash:
        for i, j in combinations(range(len(pieces)), 2):
            problem = consistent(pieces[i], pieces[j])
            if problem is not None:
                raise PatchInconsistencyError(problem, pair=(i, j))
    return RawGraph(alphabets=alphabets, vertices=tuple(vertices),
                    edges=frozenset(edges), vertex_labels=vertex_labels,
                    edge_labels=edge_labels)


def _translate_token(token, X: CanonicalGraph, anchor: Path):
    if isinstance(token, Path):
        target = X.resolve(token, start=anchor)
        if target is None:
            raise PatchError(
                f"patch at {format_path(anchor)} names {format_path(token)}, "
                f"which does not resolve")
        return target
    if isinstance(token, tuple) and len(token) == 2 and isinstance(token[0], Path):
        return (_translate_token(token[0], X, anchor), token[1])
    raise PatchError(f"unsupported patch token {token!r}")


def _translate_id(vid, X, anchor):
    if not isinstance(vid, frozenset):
        raise PatchError(f"patch vertex id {vid!r} is not a token set")
    return frozenset(_translate_token(t, X, anchor) for t in vid)


def _translate_patch(patch: PointedRawGraph, X: CanonicalGraph,
                     anchor: Path) -> PointedRawGraph:
    mapping = {vid: _translate_id(vid, X, anchor) for vid in patch.graph.vertices}
    if len(set(mapping.values())) != len(patch.graph.vertices):
        raise PatchError(
            f"patch at {format_path(anchor)} has two vertices that resolve "
            f"to the same host vertex")
    if patch.origin not in mapping:
        raise PatchError(f"patch at {format_path(anchor)} has a successor "
                         f"{patch.origin!r} that is not one of its vertices")
    return PointedRawGraph(relabel(patch.graph, ids=mapping), mapping[patch.origin])


def glue_rule(rule: LocalRule, X: CanonicalGraph
              ) -> Tuple[PointedRawGraph, Dict[Path, Hashable]]:
    """Run the rule on every vertex's disk and glue the translated patches:
    the glued graph, pointed at the origin's successor, and each vertex's
    successor; a conflict names its two anchors."""
    patches: Dict[Path, PointedRawGraph] = {
        u: _translate_patch(rule.rule(disk_at(X, u, rule.radius)), X, u)
        for u in X.vertices}
    try:
        merged = glue([p.graph for p in patches.values()])
    except PatchInconsistencyError as err:
        u, w = (X.vertices[k] for k in err.pair)
        raise PatchInconsistencyError(
            f"patches at {format_path(u)} and {format_path(w)} "
            f"conflict: {err}", anchors=(u, w)) from None
    return (PointedRawGraph(merged, patches[EPSILON].origin),
            {u: p.origin for u, p in patches.items()})


def disk_by_shift(X: CanonicalGraph, u: Path, radius: int) -> CanonicalGraph:
    return disk(shift(X, u), radius)


def _translate_token_from_origin(token, X: CanonicalGraph, anchor: Path):
    if isinstance(token, Path):
        target = X.resolve(anchor.concat(token))
        if target is None:
            raise PatchError(
                f"patch at {format_path(anchor)} names {format_path(token)}, "
                f"which does not resolve")
        return target
    if isinstance(token, tuple) and len(token) == 2 and isinstance(token[0], Path):
        return (_translate_token_from_origin(token[0], X, anchor), token[1])
    raise PatchError(f"unsupported patch token {token!r}")


def translate_patch_from_origin(patch: PointedRawGraph, X: CanonicalGraph,
                                anchor: Path) -> PointedRawGraph:
    mapping = {vid: _translate_token_from_origin(vid, X, anchor)
               for vid in patch.graph.vertices}
    return PointedRawGraph(relabel(patch.graph, ids=mapping), mapping[patch.origin])


def apply_local_rule_pairwise(rule, X):
    patches: List[Tuple[Path, object]] = []
    for u in X.vertices:
        local_view = disk_by_shift(X, u, rule.radius)
        patches.append((u, translate_patch_from_origin(rule.rule(local_view), X, u)))
    for i, (u, pu) in enumerate(patches):
        for (w, pw) in patches[i + 1:]:
            problem = consistent(pu.graph, pw.graph)
            if problem is not None:
                raise PatchInconsistencyError(
                    f"patches at {format_path(u)} and {format_path(w)} "
                    f"conflict: {problem}", anchors=(u, w))
    merged = patches[0][1].graph
    for (_u, p) in patches[1:]:
        merged = union_pair(merged, p.graph)
    ensure_valid(merged)
    origin = next(p.origin for (u, p) in patches if u == EPSILON)
    Y, names = canonicalize_with_names(PointedRawGraph(merged, origin))
    corr = {u: names[p.origin] for (u, p) in patches}
    return Y, corr


def connected_component(g: RawGraph, v) -> RawGraph:
    """The induced subgraph on everything reachable from v, labels restricted."""
    if v not in set(g.vertices):
        raise InvalidGraphError(f"unknown vertex id {v!r}")
    neighbours: Dict[Hashable, set] = {u: set() for u in g.vertices}
    for e in g.edges:
        (a, _), (b, _) = tuple(e)
        neighbours[a].add(b)
        neighbours[b].add(a)
    reached = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbours[u]:
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    return induced_subgraph(g, reached)


def _components(X: CanonicalGraph, keep: Set[Path]) -> List[List[Path]]:
    """The connected components of X induced on `keep`, each in X's order."""
    sub, out, seen = induced_subgraph(X, keep), [], set()
    for v in filter(lambda v: v not in seen, sub.vertices):
        comp = set(connected_component(sub, v).vertices)
        seen |= comp
        out.append([u for u in sub.vertices if u in comp])
    return out


class FoldingExtension(Dynamics):
    """The reversible extension as it was: an all-unmarked graph took a
    path of its own, and the mixed case was glued by a fold."""

    def __init__(self, base: Dynamics, exception_bound: int, space: MarkSpace,
                 name: Optional[str] = None):
        self.base = base
        self.exception_bound = exception_bound
        self.marks = SlicingMarks(space)
        self.name = name or f"marked[{base.name}]"
        self.alphabets = space.marked

    def apply(self, X):
        self._check_signature(X)
        marks = self.marks
        problem = marks.mark_consistency_violation(X)
        if problem is not None:
            raise MarkError(f"{self.name}: input not mark-consistent: {problem}")
        if marks.all_unmarked(X):
            return self._base_step(X)
        if marks.all_marked(X) or len(X.vertices) <= self.exception_bound:
            return X, identity_correspondence(X)
        return self._mixed(X)

    def _base_step(self, X):
        """Drop the bits of an all-unmarked X, apply the base, lift back."""
        base_graph, to_base = self.marks.drop_with_names(X)
        image, corr = self.base.apply(base_graph)
        lifted, to_lifted = self.marks.lift_with_names(image)
        return lifted, {v: to_lifted[corr[to_base[v]]] for v in X.vertices}

    def _mixed(self, X):
        marks = self.marks
        marked = {v for v in X.vertices if marks.vertex_mark(X, v) == 1}
        unmarked = {v for v in X.vertices if v not in marked}
        boundary = {v for v in unmarked
                    if any(marks.port_bit(p) == 1 for p in X.adjacency[v])}
        upper_keep = marked | boundary

        pieces: List[RawGraph] = []
        final_id: Dict[Path, object] = {}

        # A frozen piece keeps the edges with a marked end, and the labels
        # of the marked vertices only.
        for comp in _components(X, upper_keep):
            piece = induced_subgraph(X, comp)
            edges = frozenset(e for e in piece.edges
                              if any(v in marked for (v, _p) in e))
            pieces.append(RawGraph(
                alphabets=piece.alphabets, vertices=piece.vertices, edges=edges,
                vertex_labels={v: l for v, l in piece.vertex_labels.items()
                               if v in marked},
                edge_labels={e: l for e, l in piece.edge_labels.items()
                             if e in edges}))
        for v in upper_keep:
            final_id[v] = v

        for comp in _components(X, unmarked):
            anchor = comp[0]
            comp_graph, to_comp = canonicalize_with_names(
                PointedRawGraph(induced_subgraph(X, comp), anchor))
            lifted, to_lifted = self._base_step(comp_graph)
            img = {v: to_lifted[to_comp[v]] for v in comp}
            seam: Dict[Path, Path] = {}
            for v in comp:
                if v not in boundary:
                    continue
                w = img[v]
                if w in seam:
                    raise UnionInconsistencyError(
                        f"{self.name}: boundary vertices {format_path(seam[w])} "
                        f"and {format_path(v)} collide in the image")
                seam[w] = v

            # A stepped edge on base port q of a boundary vertex that holds q
            # only as the frozen q1 would make it use q both ways; the first
            # such vertex in X's order, and its least such port, are named.
            stepped = {(seam[w], marks.port_base(p)[0])
                       for e in lifted.edges for (w, p) in e if w in seam}
            for v in comp:
                hops = X.adjacency[v]
                for q in sorted(marks.base.ports):
                    if ((v, q) in stepped and marks.port(q, 1) in hops
                            and marks.port(q, 0) not in hops):
                        raise UnionInconsistencyError(
                            f"{self.name}: the step puts an edge on a frozen port "
                            f"of boundary vertex {format_path(v)} (port {q})")

            def piece_id(w, _anchor=anchor, _seam=seam):
                return _seam.get(w, ("fresh", _anchor, w))

            edges = {}
            for e in lifted.edges:
                (u, p), (w, q) = tuple(e)
                edges[e] = frozenset(((piece_id(u), p), (piece_id(w), q)))
            pieces.append(RawGraph(
                alphabets=marks.marked,
                vertices=tuple(piece_id(w) for w in lifted.vertices),
                edges=frozenset(edges.values()),
                vertex_labels={piece_id(w): l
                               for w, l in lifted.vertex_labels.items()},
                edge_labels={edges[e]: l
                             for e, l in lifted.edge_labels.items()},
            ))
            for v in comp:
                final_id[v] = piece_id(img[v])

        merged = pieces[0]
        for piece in pieces[1:]:
            problem = consistent(merged, piece)
            if problem is not None:
                raise UnionInconsistencyError(
                    f"{self.name}: transformed region conflicts with the frozen part: "
                    f"{problem}")
            merged = union_pair(merged, piece)

        result, names = canonicalize_with_names(
            PointedRawGraph(merged, final_id[EPSILON]))
        problem = marks.mark_consistency_violation(result)
        if problem is not None:
            raise MarkError(
                f"{self.name}: produced a mark-inconsistent graph: {problem}")
        return result, {v: names[final_id[v]] for v in X.vertices}


def export_dot_by_path_key(X, space: Optional[MarkSpace] = None) -> str:
    lines = ["graph cgd {", "  node [shape=circle];"]
    for v in X.vertices:
        name = format_path(v)
        text = name
        label = X.vertex_labels.get(v)
        if label is not None:
            text += f"\\n{label}"
        attrs = [f'label="{text}"']
        if v == EPSILON:
            attrs.append("peripheries=2")
        if space is not None:
            filled = space.vertex_mark(X, v) == 1
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{"gray70" if filled else "white"}"')
        lines.append(f'  "{name}" [{", ".join(attrs)}];')

    def half_key(h):
        return (X.alphabets.path_key(h[0]), X.alphabets.port_index(h[1]))

    for e in sorted(X.edges, key=lambda e: tuple(sorted(half_key(h) for h in e))):
        (u, p), (w, q) = sorted(e, key=half_key)
        attrs = [f'taillabel="{p}"', f'headlabel="{q}"']
        label = X.edge_labels.get(e)
        if label is not None:
            attrs.append(f'label="{label}"')
        lines.append(
            f'  "{format_path(u)}" -- "{format_path(w)}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_bijective_on_family(D: Dynamics, fam: GraphFamily) -> Optional[str]:
    """None when D permutes the family; else the first collision or gap.

    Raises OutOfFamilyError when an image leaves the family, since then
    bijectivity over the family is not even well-posed.
    """
    images: Dict[CanonicalGraph, CanonicalGraph] = {}
    for X in fam:
        Y = D.apply(X)[0]
        if Y not in fam:
            raise OutOfFamilyError(
                f"{D.name} maps a {len(X.vertices)}-vertex member to a "
                f"{len(Y.vertices)}-vertex graph outside the family")
        if Y in images:
            return (f"not injective: two members share the image "
                    f"{Y!r}")
        images[Y] = X
    for X in fam:
        if X not in images:
            return f"not surjective: member {X!r} is never reached"
    return None


def check_vertex_preserving(D: Dynamics, X: CanonicalGraph) -> Optional[str]:
    """None when the correspondence is a bijection onto the image's vertices."""
    Y, R = D.apply(X)
    values = list(R.values())
    if len(set(values)) != len(values):
        return "correspondence is not injective"
    if set(values) != set(Y.vertices):
        missing = sorted(set(Y.vertices) - set(values),
                         key=Y.alphabets.path_key)
        return f"correspondence misses image vertex {format_path(missing[0])}"
    return None


def vertex_preservation_exceptions(D: Dynamics, fam: GraphFamily
                                   ) -> List[CanonicalGraph]:
    """The family members on which the correspondence fails to be bijective."""
    return [X for X in fam if check_vertex_preserving(D, X) is not None]


def check_class_preservation(D: Dynamics, X: CanonicalGraph) -> Optional[str]:
    """Shift-equivalence must transfer along the correspondence, both ways."""
    Y, R = D.apply(X)
    class_x = _class_ids(X)
    class_y = _class_ids(Y)
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


def shift_equivalence_classes(X: CanonicalGraph) -> Tuple[Tuple[Path, ...], ...]:
    """Partition the vertices into groups that re-point to the same graph."""
    groups: Dict[CanonicalGraph, list] = {}
    for v in X.vertices:
        groups.setdefault(shift(X, v), []).append(v)
    return tuple(tuple(g) for g in groups.values())


def _class_ids(X: CanonicalGraph) -> Dict[Path, int]:
    ids = {}
    for i, cls in enumerate(shift_equivalence_classes(X)):
        for v in cls:
            ids[v] = i
    return ids


def check_shift_invariance(D: Dynamics, X: CanonicalGraph) -> Optional[str]:
    """Same causes, same effects: re-pointing commutes with the dynamics."""
    FX, R = D.apply(X)
    for u in X.vertices:
        Xu, _ren = shift_with_names(X, u)
        FXu, Ru = D.apply(Xu)
        expected = shift(FX, R[u])
        if FXu != expected:
            return (f"F(X_u) != F(X)_R(u) at u={format_path(u)}")
        for v in Xu.vertices:
            uv = X.resolve(u.concat(v))
            if uv is None:
                return (f"path {format_path(u.concat(v))} does not resolve in X")
            lhs = R[uv]
            rhs = FX.resolve(R[u].concat(Ru[v]))
            if rhs is None or lhs != rhs:
                return (f"R(u.v) != R(u).R_Xu(v) at u={format_path(u)}, "
                        f"v={format_path(v)}")
    return None


def build_inverse(D: Dynamics, fam: GraphFamily) -> InverseTable:
    """Tabulate D over the family and invert it, correspondences included."""
    problem = check_bijective_on_family(D, fam)
    if problem is not None:
        raise InverseConstructionError(problem)
    forward: Dict[CanonicalGraph, CanonicalGraph] = {}
    forward_corr: Dict[CanonicalGraph, VertexCorrespondence] = {}
    for X in fam:
        Y, R = D.apply(X)
        forward[X] = Y
        forward_corr[X] = R
    backward = {Y: X for X, Y in forward.items()}
    exception_bound = max(
        (max(len(X.vertices), len(forward[X].vertices))
         for X in vertex_preservation_exceptions(D, fam)), default=0)
    corr_inverse: Dict[CanonicalGraph, VertexCorrespondence] = {}
    for X, Y in forward.items():
        R = forward_corr[X]
        if check_vertex_preserving(D, X) is None:
            corr_inverse[Y] = {w: v for v, w in R.items()}
        else:
            class_y = _class_ids(Y)
            inverse: VertexCorrespondence = {}
            for w in Y.vertices:
                candidates = [v for v in X.vertices
                              if class_y[R[v]] == class_y[w]]
                if not candidates:
                    raise InverseConstructionError(
                        f"no source vertex maps into the class of an image "
                        f"vertex of {Y!r}")
                inverse[w] = candidates[0]
            corr_inverse[Y] = inverse
    return InverseTable(family=fam, forward=forward, backward=backward,
                        forward_corr=forward_corr, corr_inverse=corr_inverse,
                        name=f"{D.name}-inverse",
                        exception_bound=exception_bound)


class TableDynamics(Dynamics):
    """Apply a tabulated inverse: lookup the source graph and correspondence."""

    def __init__(self, table: InverseTable, name: Optional[str] = None):
        self.table = table
        self.name = name or table.name
        self.alphabets = table.family.alphabets

    def apply(self, X):
        self._check_signature(X)
        try:
            Y = self.table.backward[X]
        except KeyError:
            raise DynamicsError(
                f"{self.name}: graph not tabulated "
                f"({len(X.vertices)} vertices)") from None
        return Y, dict(self.table.corr_inverse[X])


def ball_by_bfs(X: CanonicalGraph, center: Path, radius: int) -> Set[Path]:
    """Vertices within `radius` hops of `center`."""
    dist = {center: 0}
    frontier = [center]
    while frontier:
        nxt = []
        for v in frontier:
            if dist[v] == radius:
                continue
            for (w, _q) in X.adjacency[v].values():
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return set(dist)


def check_boundedness_by_bfs(D: Dynamics, X: CanonicalGraph,
                             bound: int) -> Optional[str]:
    """Every image vertex within bound + 1 steps of a reached vertex."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    Y, corr = D.apply(X)
    dist = {v: 0 for v in set(corr.values())}
    frontier = list(dist)
    while frontier:
        nxt = []
        for v in frontier:
            for (w, _q) in Y.adjacency[v].values():
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    for w in Y.vertices:
        if dist.get(w, bound + 2) > bound + 1:
            return (f"image vertex {format_path(w)} is more than {bound + 1} "
                    f"steps from every reached vertex")
    return None


def disk_by_canonicalization(X: CanonicalGraph, radius: int) -> CanonicalGraph:
    """The disk of the given radius around the origin.

    Vertices up to distance radius+1 survive with all induced edges; vertex
    labels survive only up to distance radius, edge labels only on edges
    whose two endpoints are within distance radius.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    keep = {v for v in X.vertices if len(v) <= radius + 1}
    edges = [e for e in X.edges if all(v in keep for (v, _p) in e)]
    vertex_labels = {v: l for v, l in X.vertex_labels.items()
                     if len(v) <= radius}
    edge_labels = {e: l for e, l in X.edge_labels.items()
                   if all(len(v) <= radius for (v, _p) in e)}
    pruned = RawGraph(
        alphabets=X.alphabets,
        vertices=tuple(v for v in X.vertices if v in keep),
        edges=frozenset(edges),
        vertex_labels=vertex_labels,
        edge_labels=edge_labels,
    )
    return canonicalize(PointedRawGraph(pruned, EPSILON))


def disk_scanning_edges(X: CanonicalGraph, radius: int) -> CanonicalGraph:
    """The disk around the origin, sliced from X's vertex order, with every
    edge and label of X scanned."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    vertices = tuple(v for v in X.vertices if len(v) <= radius + 1)
    keep = set(vertices)
    edges = [e for e in X.edges if all(v in keep for (v, _p) in e)]
    vertex_labels = {v: l for v, l in X.vertex_labels.items()
                     if len(v) <= radius}
    edge_labels = {e: l for e, l in X.edge_labels.items()
                   if all(len(v) <= radius for (v, _p) in e)}
    return CanonicalGraph(X.alphabets, vertices, vertex_labels, edges,
                          edge_labels)


def inverse_rule_at_every_vertex(table: InverseTable) -> RuleTable:
    """The inverse's disk-to-patch table, read at every vertex of every
    image member larger than the exception bound, at the least radius that
    works."""
    for radius in range(1, MAX_INVERSE_RADIUS + 1):
        entries = _patches_at_every_vertex(table, radius)
        if entries is not None:
            return RuleTable(radius, entries, name=table.name)
    raise InverseConstructionError(
        f"{table.name}: no radius up to {MAX_INVERSE_RADIUS} reads the "
        f"inverse off the disks of the family")


def _patches_at_every_vertex(table: InverseTable, radius: int
                             ) -> Optional[Dict[CanonicalGraph, PointedRawGraph]]:
    entries: Dict[CanonicalGraph, PointedRawGraph] = {}
    for Y, X in table.backward.items():
        if len(Y.vertices) <= table.exception_bound:
            continue
        back, to_y = table.corr_inverse[Y], table.forward_corr[X]
        for u in Y.vertices:
            view, names = disk_at_with_names(Y, u, radius)
            patch = _inverse_patch(X, back[u], to_y, names)
            if patch is None or entries.setdefault(view, patch) != patch:
                return None
    return entries


def _inverse_patch(X: CanonicalGraph, x: Path, to_y: VertexCorrespondence,
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


class TuplePath:
    """A vertex name as `paths.Path` held it before it became a trie node:
    the whole word as one tuple of pairs, hashed once."""

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs: Tuple[Tuple[str, str], ...] = ()):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_hash", hash(pairs))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (TuplePath, (self.pairs,))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, TuplePath):
            return NotImplemented
        return self._hash == other._hash and self.pairs == other.pairs

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def concat(self, other: "TuplePath") -> "TuplePath":
        return TuplePath(self.pairs + other.pairs)

    def reversed(self) -> "TuplePath":
        return TuplePath(tuple((q, p) for (p, q) in reversed(self.pairs)))


def format_tuple_path(path: TuplePath) -> str:
    """`paths.format_path` as it was: join every pair of the word."""
    if not path.pairs:
        return "eps"
    return ".".join(map("".join, path.pairs))


def tuple_canonical_names(adjacency, origin, alphabets) -> Dict[object, TuplePath]:
    """`modulo._canonical_names` as it was, with no depth bound: each name
    a copy of its parent's word plus one pair."""
    pidx = {p: i for i, p in enumerate(alphabets.ports)}
    names = {origin: ()}
    frontier = [origin]
    while frontier:
        best = {}
        for rank, v in enumerate(frontier):
            base_name = names[v]
            for p, (w, q) in adjacency[v].items():
                if w in names:
                    continue
                cand_key = (rank, pidx[p], pidx[q])
                prev = best.get(w)
                if prev is None or cand_key < prev[0]:
                    best[w] = (cand_key, base_name + ((p, q),))
        frontier = sorted(best, key=lambda w: best[w][0])
        for w in frontier:
            names[w] = best[w][1]
    return {v: TuplePath(word) for v, word in names.items()}


def name_words(G: CanonicalGraph):
    """Everything `equal_by_names` compares, each name as its whole word."""
    def edge(e):
        return frozenset((v.pairs, p) for (v, p) in e)
    return (G.alphabets,
            tuple(v.pairs for v in G.vertices),
            {v.pairs: l for v, l in G.vertex_labels.items()},
            frozenset(map(edge, G.edges)),
            {edge(e): l for e, l in G.edge_labels.items()})


def equal_by_names(X: CanonicalGraph, Y: CanonicalGraph) -> bool:
    """`CanonicalGraph.__eq__` as it was: compare the vertex tuples, the
    label maps, the edge sets and the edge-label maps name by name."""
    return name_words(X) == name_words(Y)


class SlicingMarks:
    """`MarkSpace`'s token bookkeeping as it was: every call slices a bit
    off a token, or appends one, and checks the base alphabets again."""

    def __init__(self, space: MarkSpace):
        self.base = space.base
        self.marked = space.marked

    def port(self, base_port: str, bit: int) -> str:
        self.base.port_index(base_port)
        return base_port + str(bit)

    def port_base(self, marked_port: str) -> Tuple[str, int]:
        base, bit = marked_port[:-1], marked_port[-1]
        if bit not in "01" or base not in self.base.ports:
            raise MarkError(f"not a marked port token: {marked_port!r}")
        return base, int(bit)

    def port_bit(self, marked_port: str) -> int:
        return self.port_base(marked_port)[1]

    def toggle_port(self, marked_port: str) -> str:
        base, bit = self.port_base(marked_port)
        return self.port(base, 1 - bit)

    def label(self, base_label: str, bit: int) -> str:
        if base_label not in self.base.vertex_labels:
            raise MarkError(f"unknown base label {base_label!r}")
        return base_label + str(bit)

    def label_base(self, marked_label: str) -> Tuple[str, int]:
        base, bit = marked_label[:-1], marked_label[-1]
        if bit not in "01" or base not in self.base.vertex_labels:
            raise MarkError(f"not a marked label token: {marked_label!r}")
        return base, int(bit)

    def toggle_label(self, marked_label: str) -> str:
        base, bit = self.label_base(marked_label)
        return self.label(base, 1 - bit)

    def vertex_mark(self, X: CanonicalGraph, v: Path) -> int:
        label = X.vertex_labels.get(v)
        if label is None:
            raise MarkError(f"vertex {format_path(v)} is unlabelled; "
                            f"its mark is undefined")
        return self.label_base(label)[1]

    def lift_with_names(self, X: CanonicalGraph):
        raw = relabel(X, ports={p: self.port(p, 0) for p in self.base.ports},
                      labels={l: self.label(l, 0) for l in self.base.vertex_labels},
                      alphabets=self.marked)
        return canonicalize_with_names(PointedRawGraph(raw, EPSILON))

    def drop_with_names(self, X: CanonicalGraph):
        raw = relabel(
            X, ports={p: self.port_base(p)[0] for p in self.marked.ports},
            labels={l: self.label_base(l)[0] for l in self.marked.vertex_labels},
            alphabets=self.base)
        return canonicalize_with_names(PointedRawGraph(raw, EPSILON))

    def mark_consistency_violation(self, X: CanonicalGraph) -> Optional[str]:
        if X.alphabets != self.marked:
            return "graph is not over the marked alphabets"
        for v in X.vertices:
            if v not in X.vertex_labels:
                return f"vertex {format_path(v)} is unlabelled"
        for e in X.edges:
            (u, p), (w, q) = tuple(e)
            if self.port_bit(q) != self.vertex_mark(X, u):
                return (f"edge {{{format_path(u)}:{p}, {format_path(w)}:{q}}}: "
                        f"far bit disagrees with the mark of {format_path(u)}")
            if self.port_bit(p) != self.vertex_mark(X, w):
                return (f"edge {{{format_path(u)}:{p}, {format_path(w)}:{q}}}: "
                        f"far bit disagrees with the mark of {format_path(w)}")
        return None

    def is_mark_consistent(self, X: CanonicalGraph) -> bool:
        return self.mark_consistency_violation(X) is None

    def raw_mark_consistent(self, g: RawGraph) -> bool:
        marks = {}
        for v in g.vertices:
            label = g.vertex_labels.get(v)
            if label is None:
                return False
            marks[v] = self.label_base(label)[1]
        for e in g.edges:
            (u, p), (w, q) = tuple(e)
            if self.port_bit(q) != marks[u] or self.port_bit(p) != marks[w]:
                return False
        return True

    def all_unmarked(self, X: CanonicalGraph) -> bool:
        return (all(self.vertex_mark(X, v) == 0 for v in X.vertices)
                and all(self.port_bit(p) == 0 for e in X.edges for (_v, p) in e))

    def all_marked(self, X: CanonicalGraph) -> bool:
        return (all(self.vertex_mark(X, v) == 1 for v in X.vertices)
                and all(self.port_bit(p) == 1 for e in X.edges for (_v, p) in e))


def mark_with_names_by_slicing(X: CanonicalGraph, marks: SlicingMarks):
    """The mark gate as it was: a list of the origin's incident edges, a
    conflict check per orientation and a three-way toggle per edge."""
    adj = X.adjacency
    incident = [e for e in X.edges if any(v == EPSILON for (v, _p) in e)]
    for e in incident:
        h1, h2 = tuple(e)
        for (near, far) in ((h1, h2), (h2, h1)):
            if near[0] != EPSILON:
                continue
            far_vertex, far_port = far
            if marks.toggle_port(far_port) in adj[far_vertex]:
                return X, identity_correspondence(X)

    label = X.vertex_labels.get(EPSILON)
    if label is None:
        raise MarkError("origin is unlabelled; its mark is undefined")
    edge_map = {}
    for e in X.edges:
        if e not in incident:
            edge_map[e] = e
            continue
        (u, p), (w, q) = tuple(e)
        if u == EPSILON and w == EPSILON:
            new = frozenset(((u, marks.toggle_port(p)),
                             (w, marks.toggle_port(q))))
        elif u == EPSILON:
            new = frozenset(((u, p), (w, marks.toggle_port(q))))
        else:
            new = frozenset(((u, marks.toggle_port(p)), (w, q)))
        edge_map[e] = new
    vertex_labels = dict(X.vertex_labels)
    vertex_labels[EPSILON] = marks.toggle_label(label)
    raw = RawGraph(
        alphabets=X.alphabets,
        vertices=X.vertices,
        edges=frozenset(edge_map.values()),
        vertex_labels=vertex_labels,
        edge_labels={edge_map[e]: l for e, l in X.edge_labels.items()},
    )
    return canonicalize_with_names(PointedRawGraph(raw, EPSILON))


def enumerate_family(alphabets: Alphabets, max_vertices: int,
                     raw_prune: Optional[Callable[[RawGraph], bool]] = None
                     ) -> GraphFamily:
    """All connected canonical graphs with at most `max_vertices` vertices.

    Search by canonical extension: grow one fresh pendant vertex or one new
    edge between free ports at a time, deduplicating canonical forms, which
    reaches every pointed connected graph from its origin seed.  Vertices
    are labelled totally when the vertex alphabet is non-empty (likewise
    edges), matching how the finite families are counted.

    `raw_prune`, when given, gates the search: it discards candidate
    presentations, seeds included, before they are canonicalized.  The
    search stays complete when `raw_prune` is closed under removing a
    pendant vertex or an edge (mark consistency is; "has a head" is not).
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    cap_n = _family_cap()
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
    return GraphFamily(_sorted_members(seen), alphabets)


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


class CompositeDynamics(Dynamics):
    """Apply several dynamics in sequence, composing their correspondences."""

    def __init__(self, steps: Tuple[Dynamics, ...], name: Optional[str] = None):
        if not steps:
            raise ValueError("composite needs at least one step")
        self.steps = tuple(steps)
        self.name = name or "*".join(s.name for s in steps)
        self.alphabets = steps[0].alphabets

    def apply(self, X):
        corr = identity_correspondence(X)
        G = X
        for step in self.steps:
            G, S = step.apply(G)
            corr = {v: S[w] for v, w in corr.items()}
        return G, corr


def tabulated_origin_gate(kit, lifted: Sequence[CanonicalGraph]
                          ) -> Tuple[Dynamics, GraphFamily]:
    """The kit's conjugate mark at the origin, tabulated over the shift
    closure of the lifted tapes, and that closure: the gate `cgd
    check-blocks` searched the radius over and re-pointed for each
    footprint.  The gate looks its argument up in the table."""
    closure = GraphFamily.from_graphs(shift_closure(lifted), kit.space.marked)
    images = tabulate(kit.conjugate, closure).images
    return FuncDynamics(kit.conjugate.name, images.__getitem__,
                        kit.space.marked), closure


def check_locality(L: Dynamics, radius: int, fam: GraphFamily) -> Optional[str]:
    for X in fam:
        Y, S = L.apply(X)
        source_disks = {u: disk_at(X, u, 0) for u in X.vertices}
        for far_vertex in Y.vertices:
            if len(far_vertex) <= radius:
                continue
            image_disk = disk_at(Y, far_vertex, 0)
            witnessed = False
            for u in X.vertices:
                if S[u] != far_vertex or source_disks[u] != image_disk:
                    continue
                ok = True
                for v in source_disks[u].vertices:
                    uv = X.resolve(v, start=u)
                    if uv is None or S[uv] != Y.resolve(v, start=far_vertex):
                        ok = False
                        break
                if ok:
                    witnessed = True
                    break
            if not witnessed:
                return (f"image vertex {format_path(far_vertex)} of a "
                        f"{len(X.vertices)}-vertex member has no source "
                        f"witness at radius {radius}")
    return None


def find_locality_radius(L: Dynamics, fam: GraphFamily,
                         max_radius: int = 4) -> Optional[int]:
    for r in range(max_radius + 1):
        if check_locality(L, r, fam) is None:
            return r
    return None


def gate_footprint(gate: Dynamics, X: CanonicalGraph, anchor: Path) -> Set[Path]:
    Y, T = ShiftedDynamics(gate, anchor).apply(X)
    if len(set(T.values())) != len(T) or set(T.values()) != set(Y.vertices):
        raise MarkError("gate correspondence is not a bijection; "
                        "footprint undefined")
    back = {w: v for v, w in T.items()}
    changed: Set[Path] = set()
    for v in X.vertices:
        if X.vertex_labels.get(v) != Y.vertex_labels.get(T[v]):
            changed.add(v)
    mapped = {}
    for e in X.edges:
        (u, p), (w, q) = tuple(e)
        e2 = frozenset(((T[u], p), (T[w], q)))
        mapped[e2] = e
        if e2 not in Y.edges or X.edge_labels.get(e) != Y.edge_labels.get(e2):
            changed.update((u, w))
    for e2 in Y.edges:
        if e2 not in mapped:
            changed.update(back[w] for (w, _p) in e2)
    return changed


def _parse_half_edge(token: str, line_no: int) -> Tuple[str, str]:
    head, sep, port = token.rpartition(":")
    if not sep or not head or not port:
        raise GraphFormatError(f"line {line_no}: malformed half-edge {token!r}")
    return head, port


def parse_graph(text: str, first_line: int = 1) -> PointedRawGraph:
    ports: Optional[Tuple[str, ...]] = None
    vlabels: Tuple[str, ...] = ()
    elabels: Tuple[str, ...] = ()
    vertices: list = []
    vertex_set: set = set()
    vertex_labels: Dict[str, str] = {}
    edges: list = []
    edge_labels: Dict[Edge, str] = {}
    pointer: Optional[str] = None
    once: set = set()    # the keywords allowed on one line only

    def take_label(tokens: list, line_no: int) -> Optional[str]:
        if tokens and tokens[-1].startswith("label="):
            return tokens.pop()[len("label="):]
        if any(t.startswith("label=") for t in tokens):
            raise GraphFormatError(f"line {line_no}: label= must come last")
        return None

    def distinct(tokens: list, what: str, line_no: int) -> Tuple[str, ...]:
        for i, t in enumerate(tokens):
            if t in tokens[:i]:
                raise GraphFormatError(f"line {line_no}: duplicate {what} {t!r}")
        return tuple(tokens)

    for line_no, raw_line in enumerate(text.splitlines(), start=first_line):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword in ("ports", "vlabels", "elabels", "pointer"):
            if keyword in once:
                raise GraphFormatError(f"line {line_no}: duplicate {keyword} line")
            once.add(keyword)
        if keyword == "ports":
            if not args:
                raise GraphFormatError(f"line {line_no}: empty port alphabet")
            ports, ports_line = distinct(args, "port", line_no), line_no
        elif keyword == "vlabels":
            vlabels = distinct(args, "vertex label", line_no)
        elif keyword == "elabels":
            elabels = distinct(args, "edge label", line_no)
        elif keyword == "vertex":
            label = take_label(args, line_no)
            if len(args) != 1:
                raise GraphFormatError(f"line {line_no}: vertex wants one id")
            vid = args[0]
            if vid in vertex_set:
                raise GraphFormatError(f"line {line_no}: duplicate vertex {vid!r}")
            vertices.append(vid)
            vertex_set.add(vid)
            if label is not None:
                vertex_labels[vid] = label
        elif keyword == "edge":
            label = take_label(args, line_no)
            if len(args) != 2:
                raise GraphFormatError(f"line {line_no}: edge wants two half-edges")
            h1 = _parse_half_edge(args[0], line_no)
            h2 = _parse_half_edge(args[1], line_no)
            if h1 == h2:
                raise GraphFormatError(f"line {line_no}: degenerate edge {args[0]}")
            e = frozenset((h1, h2))
            edges.append((e, line_no, (h1, h2)))
            if label is not None:
                edge_labels[e] = label
        elif keyword == "pointer":
            if len(args) != 1:
                raise GraphFormatError(f"line {line_no}: pointer wants one id")
            pointer = args[0]
        else:
            raise GraphFormatError(f"line {line_no}: unknown keyword {keyword!r}")

    if ports is None:
        raise GraphFormatError("missing ports line")
    if pointer is None:
        raise GraphFormatError("missing pointer line")

    try:
        alphabets = Alphabets.make(ports, vlabels, elabels)
    except GraphFormatError as err:     # a port that a path cannot hold
        raise GraphFormatError(f"line {ports_line}: {err}") from None
    used: Dict[Tuple[str, str], int] = {}
    for _, line_no, halves in edges:
        for (v, p) in halves:
            if v not in vertex_set:
                raise GraphFormatError(f"line {line_no}: undeclared vertex {v!r}")
            if p not in alphabets.ports:
                raise GraphFormatError(f"line {line_no}: unknown port {p!r}")
            if (v, p) in used:
                raise GraphFormatError(
                    f"line {line_no}: half-edge {v}:{p} already used on line {used[(v, p)]}")
            used[(v, p)] = line_no
    for v, l in vertex_labels.items():
        if l not in alphabets.vertex_labels:
            raise GraphFormatError(f"unknown vertex label {l!r} on {v!r}")
    for e, l in edge_labels.items():
        if l not in alphabets.edge_labels:
            raise GraphFormatError(f"unknown edge label {l!r}")
    if pointer not in vertex_set:
        raise GraphFormatError(f"pointer {pointer!r} is not a declared vertex")

    g = RawGraph(
        alphabets=alphabets,
        vertices=tuple(vertices),
        edges=frozenset(e for e, *_ in edges),
        vertex_labels=vertex_labels,
        edge_labels=edge_labels,
    )
    return PointedRawGraph(g, pointer)


def _patch_token_of_text(text: str, ports) -> Hashable:
    body, sep, tag = text.partition("~")
    try:
        path = parse_path(body, ports)
    except ValueError as exc:
        raise GraphFormatError(f"bad patch vertex {text!r}: {exc}") from None
    if not sep:
        return path
    if not tag.isdecimal():
        raise GraphFormatError(f"bad fresh-vertex tag in {text!r}")
    return (path, int(tag))


def parse_rule_file(text: str) -> RuleTable:
    radius: Optional[int] = None
    # (kind, line number of the section's first content line, content lines)
    sections: List[Tuple[str, int, List[str]]] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        parts = stripped.split()
        if parts[:1] == ["radius"] and not sections:
            if len(parts) != 2 or not parts[1].isdecimal() or radius is not None:
                raise GraphFormatError(f"line {line_no}: bad radius line {raw_line!r}")
            radius = int(parts[1])
        elif stripped == "disk":
            sections.append(("disk", line_no + 1, []))
        elif stripped == "maps-to":
            if not sections or sections[-1][0] != "disk":
                raise GraphFormatError(
                    f"line {line_no}: maps-to without a preceding disk")
            sections.append(("patch", line_no + 1, []))
        else:
            if sections:
                sections[-1][2].append(raw_line)
            elif stripped:
                raise GraphFormatError(
                    f"line {line_no}: content before the radius line: {raw_line!r}")
    if radius is None:
        raise GraphFormatError("missing radius line")
    if len(sections) % 2 != 0:
        raise GraphFormatError("unpaired disk section")

    entries: Dict[CanonicalGraph, PointedRawGraph] = {}
    for i in range(0, len(sections), 2):
        _kind, disk_line, disk_lines = sections[i]
        view = canonicalize_with_names(
            parse_graph("\n".join(disk_lines), first_line=disk_line))[0]
        patch = _parse_patch(sections[i + 1][2], sections[i + 1][1])
        if view in entries:
            raise GraphFormatError(
                f"line {disk_line - 1}: duplicate disk entry in rule file")
        entries[view] = patch
    return RuleTable(radius=radius, entries=entries)


def _parse_patch(lines: List[str], first_line: int) -> PointedRawGraph:
    pg = parse_graph("\n".join(lines), first_line=first_line)
    ports = pg.graph.alphabets.ports
    ids: Dict[str, Hashable] = {}
    by_token: Dict[Hashable, str] = {}
    for v in pg.graph.vertices:
        token = _patch_token_of_text(v, ports)
        if token in by_token:
            line_no = first_line + next(
                k for k, line in enumerate(lines)
                if line.split("#", 1)[0].split()[:2] == ["vertex", v])
            raise GraphFormatError(
                f"line {line_no}: patch vertices {by_token[token]!r} and {v!r} "
                f"name the same token")
        by_token[token] = v
        ids[v] = token
    return PointedRawGraph(relabel(pg.graph, ids=ids), ids[pg.origin])


# (path -> its text), kept for the life of the process, as on the nodes.
_TEXTS: Dict[Path, str] = {EPSILON: "eps"}


def format_path_cached(path: Path) -> str:
    pending = []
    node = path
    while node not in _TEXTS:
        pending.append(node)
        node = node.parent
    text = _TEXTS[node]
    for node in reversed(pending):
        p, q = node.last
        text = f"{p}{q}" if node.length == 1 else f"{text}.{p}{q}"
        _TEXTS[node] = text
    return text


def ordered_edges_by_tuples(g):
    rank = {v: i for i, v in enumerate(g.vertices)}
    port_index = g.alphabets.port_index
    keyed = []
    for e in g.edges:
        h1, h2 = e
        k1 = (rank[h1[0]], port_index(h1[1]))
        k2 = (rank[h2[0]], port_index(h2[1]))
        keyed.append(((k1, k2), h1, h2, e) if k1 < k2 else ((k2, k1), h2, h1, e))
    keyed.sort(key=lambda k: k[0])
    return [(h1, h2, e) for _key, h1, h2, e in keyed]


def serialize_graph_by_stringio(pg: PointedRawGraph, token=str) -> str:
    g = pg.graph
    tokens = {v: token(v) for v in g.vertices}
    if len(set(tokens.values())) != len(g.vertices):
        raise GraphFormatError("vertex id tokens collide")
    if pg.origin not in tokens:
        raise InvalidGraphError(f"origin {pg.origin!r} is not a vertex")
    for t in tokens.values():
        if t.split() != [t] or ":" in t or "#" in t:
            raise GraphFormatError(f"vertex token {t!r} not writable")
    out = io.StringIO()
    out.write("ports " + " ".join(g.alphabets.ports) + "\n")
    if g.alphabets.vertex_labels:
        out.write("vlabels " + " ".join(g.alphabets.vertex_labels) + "\n")
    if g.alphabets.edge_labels:
        out.write("elabels " + " ".join(g.alphabets.edge_labels) + "\n")
    for v in g.vertices:
        line = f"vertex {tokens[v]}"
        if v in g.vertex_labels:
            line += f" label={g.vertex_labels[v]}"
        out.write(line + "\n")
    for h1, h2, e in ordered_edges_by_tuples(g):
        line = f"edge {tokens[h1[0]]}:{h1[1]} {tokens[h2[0]]}:{h2[1]}"
        if e in g.edge_labels:
            line += f" label={g.edge_labels[e]}"
        out.write(line + "\n")
    out.write(f"pointer {tokens[pg.origin]}\n")
    return out.getvalue()


def text_by_cached_names(X: CanonicalGraph) -> str:
    return serialize_graph_by_stringio(X.to_pointed_raw(), token=format_path_cached)


def checked_write_graph(g, tokens: Mapping[Hashable, str], origin: Hashable) -> str:
    if len(set(tokens.values())) != len(g.vertices):    # a repeated id too
        raise GraphFormatError("vertex id tokens collide")
    if origin not in tokens:
        raise InvalidGraphError(f"origin {origin!r} is not a vertex")
    for t in tokens.values():
        if t.split() != [t] or ":" in t or "#" in t:
            raise GraphFormatError(f"vertex token {t!r} not writable")
    a = g.alphabets
    lines = [f"{head} {' '.join(words)}" for head, words in (
        ("ports", a.ports), ("vlabels", a.vertex_labels), ("elabels", a.edge_labels)) if words]
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


def export_dot_per_name(X: CanonicalGraph, space: Optional[MarkSpace] = None) -> str:
    lines = ["graph cgd {", "  node [shape=circle];"]
    for v in X.vertices:
        name = format_path_cached(v)
        text = name
        label = X.vertex_labels.get(v)
        if label is not None:
            text += f"\\n{label}"
        attrs = [f'label="{text}"']
        if v == EPSILON:
            attrs.append("peripheries=2")
        if space is not None:
            filled = space.vertex_mark(X, v) == 1
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{"gray70" if filled else "white"}"')
        lines.append(f'  "{name}" [{", ".join(attrs)}];')
    for (u, p), (w, q), e in ordered_edges_by_tuples(X):
        attrs = [f'taillabel="{p}"', f'headlabel="{q}"']
        label = X.edge_labels.get(e)
        if label is not None:
            attrs.append(f'label="{label}"')
        lines.append(f'  "{format_path_cached(u)}" -- "{format_path_cached(w)}" '
                     f'[{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_inverse_table_per_name(table: InverseTable) -> str:
    chunks = []
    for X in table.family:
        Y = table.forward[X]
        inverse = table.corr_inverse[Y]
        chunks += ["source", text_by_cached_names(X).rstrip("\n"),
                   "image", text_by_cached_names(Y).rstrip("\n")]
        chunks += [f"corr {format_path_cached(w)} {format_path_cached(inverse[w])}"
                   for w in Y.vertices]
    return "\n".join(chunks) + "\n"


def layered_canonical_names(adjacency, origin, alphabets,
                            depth: Optional[int] = None) -> Dict[object, Path]:
    pidx = {p: i for i, p in enumerate(alphabets.ports)}
    names: Dict[object, Path] = {origin: EPSILON}
    frontier = [origin]
    layers = len(adjacency) if depth is None else depth
    while frontier and layers > 0:
        layers -= 1
        best = {}
        for rank, v in enumerate(frontier):
            base = names[v]
            for p, (w, q) in adjacency[v].items():
                if w in names:
                    continue
                cand_key = (rank, pidx[p], pidx[q])
                prev = best.get(w)
                if prev is None or cand_key < prev[0]:
                    best[w] = (cand_key, base, (p, q))
        frontier = sorted(best, key=lambda w: best[w][0])
        for w in frontier:
            _key, base, pair = best[w]
            names[w] = base.child(pair)
    return names


def rename_every_edge(alphabets: Alphabets, names: Mapping, vertex_labels: Mapping,
                      edges: Iterable[Edge], edge_labels: Mapping) -> CanonicalGraph:
    new_edges = {}
    for e in edges:
        (u, p), (w, q) = tuple(e)
        new_edges[e] = frozenset(((names[u], p), (names[w], q)))
    return CanonicalGraph(
        alphabets=alphabets,
        vertices=tuple(names.values()),
        vertex_labels={names[v]: l for v, l in vertex_labels.items()},
        edges=frozenset(new_edges.values()),
        edge_labels={new_edges[e]: l for e, l in edge_labels.items()},
    )


def canonicalize_rebuilding_edges(pg: PointedRawGraph
                                  ) -> Tuple[CanonicalGraph, Dict[Hashable, Path]]:
    g = pg.graph
    names = _canonical_names(g.adjacency(), pg.origin, g.alphabets)
    return rename_every_edge(g.alphabets, names, g.vertex_labels, g.edges,
                             g.edge_labels), names


def primal_extension_by_cycle_test(X: CanonicalGraph, force: bool = False) -> CanonicalGraph:
    """`modulo.primal_extension` as it was, with the cycle test per host edge.

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


def _is_cycle_edge(X: CanonicalGraph, e: Edge) -> bool:
    """True when removing e keeps the graph connected (e lies on a cycle)."""
    (u, _p), (w, _q) = tuple(e)
    rest = RawGraph(alphabets=X.alphabets, vertices=X.vertices,
                    edges=X.edges - {e})
    return w in connected_component(rest, u).vertices
