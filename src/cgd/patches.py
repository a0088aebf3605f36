"""Patch graphs, consistency-checked unions, and locally generated dynamics.

A patch is a raw graph whose vertex ids are tokens: a vertex that persists
from the host graph is its name, a fresh vertex is a (name, index) tag.
Two patches may be glued exactly when they nowhere disagree, and a local
rule builds a whole image graph as the union of one patch per vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .dynamics import Dynamics, VertexCorrespondence
from .modulo import CanonicalGraph, canonicalize_with_names, disk_at
from .paths import EPSILON, Path, format_path, parse_path
from .portgraph import (
    Alphabets,
    GraphError,
    GraphFormatError,
    HalfEdge,
    InvalidGraphError,
    PointedRawGraph,
    RawGraph,
    ensure_valid,
    parse_rows,
    relabel,
    serialize_graph,
)


class PatchError(GraphError):
    """Patches could not be combined."""


class PatchInconsistencyError(PatchError):
    """`pair` indexes two glued pieces; `anchors` names two local-rule anchors."""

    def __init__(self, message: str, anchors: Optional[Tuple[Path, Path]] = None,
                 pair: Optional[Tuple[int, int]] = None):
        super().__init__(message)
        self.anchors = anchors
        self.pair = pair


def consistent(G: RawGraph, H: RawGraph) -> Optional[str]:
    """None when the two patches nowhere disagree, else the first conflict.

    Three conditions: a shared half-edge must carry the same edge; shared
    edges and shared vertices must agree on labels wherever both sides
    define one.
    """
    if G.alphabets != H.alphabets:
        return "patches use different alphabets"
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
    """The union of vertices (in order of first appearance), edges and labels.

    Pieces share a vertex where they hold equal ids.  One pass indexes the
    half-edges and labels of the pieces seen so far, so each piece is
    compared only where it overlaps earlier ones.  A conflict is what
    `consistent` calls one; the error names the lexicographically first
    pair (i, j) that `consistent` rejects, with its message.  A mismatch
    inside one piece, such as a duplicate half-edge, is no conflict: it is
    left to the validation of the glued graph.
    """
    alphabets = pieces[0].alphabets
    far: Dict[HalfEdge, HalfEdge] = {}
    seen_labels: Dict[Hashable, str] = {}   # labels of listed vertices only
    vertices: Dict[Hashable, None] = {}     # an ordered set
    vertex_labels, edge_labels, edges = {}, {}, set()
    clash = False
    for piece in pieces:
        clash |= piece.alphabets != alphabets
        for v in piece.vertices:
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


@dataclass(frozen=True)
class LocalRule:
    """A radius and a function turning each disk into a patch.

    A disk is the `CanonicalGraph` that `disk_at` cuts at this radius.  A
    patch is a `PointedRawGraph` pointed at the vertex the disk's origin
    becomes, its successor.  Patch vertex ids are tokens: a path of the
    disk (a persisting vertex) or a (path, int) tag (a fresh one).
    """

    radius: int
    rule: Callable[[CanonicalGraph], PointedRawGraph]
    name: str = "local-rule"


def _translate_token(token, X: CanonicalGraph, anchor: Path):
    fresh = isinstance(token, tuple) and len(token) == 2
    path = token[0] if fresh else token
    if not isinstance(path, Path) or fresh and not isinstance(token[1], int):
        raise PatchError(
            f"patch at {format_path(anchor)} has vertex id {token!r}, which "
            f"is neither a path nor a (path, int) tag")
    target = X.resolve(path, start=anchor)
    if target is None:
        raise PatchError(
            f"patch at {format_path(anchor)} names {format_path(path)}, "
            f"which does not resolve")
    return (target, token[1]) if fresh else target


def _translate_patch(patch: PointedRawGraph, X: CanonicalGraph,
                     anchor: Path) -> PointedRawGraph:
    mapping = {vid: _translate_token(vid, X, anchor)
               for vid in patch.graph.vertices}
    if len(set(mapping.values())) != len(patch.graph.vertices):
        raise PatchError(
            f"patch at {format_path(anchor)} has two vertices that resolve "
            f"to the same host vertex")
    if patch.origin not in mapping:
        raise PatchError(f"patch at {format_path(anchor)} has a successor "
                         f"{patch.origin!r} that is not one of its vertices")
    try:
        return PointedRawGraph(relabel(patch.graph, ids=mapping), mapping[patch.origin])
    except KeyError as err:     # an edge end or a label off the patch
        raise PatchError(f"patch at {format_path(anchor)} refers to {err.args[0]!r}, "
                         f"which is not one of its vertices or edges") from None


def glue_rule(rule: LocalRule, X: CanonicalGraph
              ) -> Tuple[PointedRawGraph, Dict[Path, Hashable]]:
    """Run the rule on every vertex's disk and glue the translated patches:
    the glued graph, pointed at the origin's successor, and each vertex's
    successor.

    Any two patches must be consistent; the first failure is reported with
    the two offending anchor vertices.  The glued graph is not validated.
    """
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


def apply_local_rule(rule: LocalRule, X: CanonicalGraph
                     ) -> Tuple[CanonicalGraph, VertexCorrespondence]:
    """`glue_rule`, then validate the glued graph and canonicalize it."""
    glued, successors = glue_rule(rule, X)
    # Patches are user input, and `glue` leaves faults inside one piece here.
    ensure_valid(glued.graph)
    Y, names = canonicalize_with_names(glued)
    return Y, {u: names[s] for u, s in successors.items()}


class LocalRuleDynamics(Dynamics):
    """A dynamics induced by applying a local rule at every vertex."""

    def __init__(self, rule: LocalRule, alphabets: Optional[Alphabets] = None):
        self.rule = rule
        self.name = rule.name
        self.alphabets = alphabets

    def apply(self, X):
        self._check_signature(X)
        return apply_local_rule(self.rule, X)


def identity_local_rule(radius: int = 0) -> LocalRule:
    """Every disk maps to itself, its names as the patch's ids.

    From radius 1 up this is the do-nothing rule.  At radius 0 it drops
    the labels of edges between distinct vertices, which a radius-0 disk
    does not show; labels on self-loops and on vertices survive.
    """
    return LocalRule(radius, CanonicalGraph.to_pointed_raw, "identity-local")


# ---------------------------------------------------------------------------
# Rule files: an exact-match lookup table from serialized disks to patches.
#
#   radius 0
#   disk
#   <graph text>
#   maps-to
#   <patch text, pointer = successor, ids like "eps", "ab.cd", "eps~1">
#   disk
#   ...
# ---------------------------------------------------------------------------


class RuleLookupError(PatchError):
    """A disk has no entry in the rule table."""


@dataclass(frozen=True)
class RuleTable:
    radius: int
    entries: Mapping[CanonicalGraph, PointedRawGraph]
    name: str = "rule-table"

    def as_rule(self) -> LocalRule:
        def rule(view: CanonicalGraph) -> PointedRawGraph:
            try:
                return self.entries[view]
            except KeyError:
                raise RuleLookupError(
                    f"no rule entry for a radius-{self.radius} disk of "
                    f"{len(view)} vertices") from None
        return LocalRule(radius=self.radius, rule=rule, name=self.name)


def _patch_token(parsed: Dict[Tuple[str, Tuple[str, ...]], Hashable],
                 named: Dict[Hashable, str], text: str, ports: Tuple[str, ...]) -> Hashable:
    """A patch vertex text as its token; `named` holds this patch's tokens."""
    token = parsed.get((text, ports))
    if token is None:
        body, sep, tag = text.partition("~")
        try:
            path = parse_path(body, ports)
        except ValueError as exc:
            raise GraphFormatError(f"bad patch vertex {text!r}: {exc}") from None
        if sep and not tag.isdecimal():
            raise GraphFormatError(f"bad fresh-vertex tag in {text!r}")
        token = parsed[text, ports] = (path, int(tag)) if sep else path
    if token in named:
        raise GraphFormatError(
            f"patch vertices {named[token]!r} and {text!r} name the same token")
    named[token] = text
    return token


def _patch_token_text(token) -> str:
    if isinstance(token, Path):
        return format_path(token)
    if (isinstance(token, tuple) and len(token) == 2
            and isinstance(token[0], Path) and isinstance(token[1], int)):
        return f"{format_path(token[0])}~{token[1]}"
    raise GraphFormatError(f"cannot serialize patch id {token!r}")


def parse_rule_file(text: str) -> RuleTable:
    """Parse the rule-file format, each line split once and each patch vertex text
    parsed once; every error but a missing radius line names its line in `text`."""
    radius: Optional[int] = None
    # (disk or maps-to, the line of that keyword, the content rows after it)
    sections: List[Tuple[str, int, list]] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        tokens = raw_line.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) == 1 and tokens[0] in ("disk", "maps-to"):
            if tokens[0] == "maps-to" and (not sections or sections[-1][0] != "disk"):
                raise GraphFormatError(f"line {line_no}: maps-to without a preceding disk")
            sections.append((tokens[0], line_no, []))
        elif sections:
            sections[-1][2].append((line_no, tokens))
        elif tokens[0] != "radius":
            raise GraphFormatError(
                f"line {line_no}: content before the radius line: {raw_line!r}")
        elif len(tokens) != 2 or not tokens[1].isdecimal() or radius is not None:
            raise GraphFormatError(f"line {line_no}: bad radius line {raw_line!r}")
        else:
            radius = int(tokens[1])
    if radius is None:
        raise GraphFormatError("missing radius line")
    for (_, line_no, _), after in zip(sections[::2], sections[1::2] + [("disk",)]):
        if after[0] != "maps-to":
            raise GraphFormatError(f"line {line_no}: unpaired disk section")

    headers: Dict[tuple, Alphabets] = {}
    parsed: Dict[Tuple[str, Tuple[str, ...]], Hashable] = {}
    entries: Dict[CanonicalGraph, PointedRawGraph] = {}
    for (_, disk_line, disk_rows), (_, patch_line, patch_rows) in zip(
            sections[::2], sections[1::2]):
        pg = parse_rows(disk_rows, headers, block_line=disk_line)
        try:
            view = canonicalize_with_names(pg)[0]
        except InvalidGraphError as err:    # a disk not connected to its pointer
            raise InvalidGraphError(f"line {disk_line}: {err}") from None
        patch = parse_rows(patch_rows, headers, partial(_patch_token, parsed, {}), patch_line)
        if view in entries:
            raise GraphFormatError(f"line {disk_line}: duplicate disk entry in rule file")
        entries[view] = patch
    return RuleTable(radius=radius, entries=entries)


def serialize_rule_file(table: RuleTable) -> str:
    chunks = [f"radius {table.radius}"]
    for view in sorted(table.entries, key=CanonicalGraph.to_text):
        chunks += ["disk", view.to_text().rstrip("\n"), "maps-to",
                   serialize_graph(table.entries[view],
                                   token=_patch_token_text).rstrip("\n")]
    return "\n".join(chunks) + "\n"
