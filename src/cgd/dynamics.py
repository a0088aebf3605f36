"""Global graph dynamics paired with vertex correspondences, plus axiom checkers.

A dynamics maps a canonical pointed graph to another and reports, for every
source vertex, which image vertex it became.  The correspondence is what
lets shift-invariance, boundedness and continuity be stated and checked
without vertex identities.
"""
from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .families import TAPE_ALPHABETS, GRID_ALPHABETS, TURTLE_ALPHABETS, turtle_graphs
from .modulo import (
    CanonicalGraph,
    ball,
    canonicalize_with_names,
    disk,
    shift_with_names,
)
from .paths import EPSILON, Path, format_path
from .portgraph import (
    Alphabets,
    GraphError,
    PointedRawGraph,
    RawGraph,
    make_edge,
    ordered_edges,
)

VertexCorrespondence = Dict[Path, Path]


class DynamicsError(GraphError):
    """A dynamics was applied outside its domain."""


class AlphabetMismatchError(DynamicsError):
    """The input graph is not written over the dynamics' alphabets."""


class Dynamics:
    """Base class: a named transformation with a per-graph correspondence."""

    name: str = "dynamics"
    alphabets: Optional[Alphabets] = None  # None accepts any signature

    def apply(self, X: CanonicalGraph) -> Tuple[CanonicalGraph, VertexCorrespondence]:
        raise NotImplementedError

    def _check_signature(self, X: CanonicalGraph) -> None:
        if self.alphabets is not None and X.alphabets != self.alphabets:
            raise AlphabetMismatchError(
                f"{self.name} expects alphabets {self.alphabets}, got {X.alphabets}")

    def __repr__(self) -> str:
        return f"<Dynamics {self.name}>"


def identity_correspondence(X: CanonicalGraph) -> VertexCorrespondence:
    return {v: v for v in X.vertices}


class IdentityDynamics(Dynamics):
    name = "identity"

    def apply(self, X):
        return X, identity_correspondence(X)


class RawStepDynamics(Dynamics):
    """Dynamics given by a rewrite of the raw presentation with id tracking.

    `_step` receives the canonical input itself, whose vertex ids are its
    names, and returns (new raw graph, new origin id, id map).
    """

    def apply(self, X):
        self._check_signature(X)
        new_raw, origin, id_map = self._step(X)
        Y, names = canonicalize_with_names(PointedRawGraph(new_raw, origin))
        return Y, {v: names[id_map[v]] for v in X.vertices}

    def _step(self, X: CanonicalGraph):
        raise NotImplementedError


class MovingHeadDynamics(RawStepDynamics):
    """Heads walk along an ab tape, bouncing at the ends.

    A head is a degree-1 vertex attached through a cc or dd edge to a vertex
    carrying at least one tape edge.  cc heads advance along the a
    direction and become dd at the tape end; dd heads walk back along b and
    become cc at the start.  A blocked destination port turns the move into
    an in-place flip, and a blocked flip leaves the head in place, so the
    map is total.  Everything that is not a head stays put.
    """

    name = "moving-head"
    alphabets = TAPE_ALPHABETS

    def _step(self, X):
        # A throwaway adjacency, not the cached X.adjacency: a cache would
        # outlive this step, and the cyclic GC's extra full collections
        # while the image is canonicalized cost more than the rebuild.
        adj = RawGraph.adjacency(X)

        def has_tape_edge(t):
            row = adj[t]
            return (("a" in row and row["a"][1] == "b")
                    or ("b" in row and row["b"][1] == "a"))

        moves = []
        for v in X.vertices:
            row = adj[v]
            if len(row) != 1:
                continue
            (p,) = row
            if p not in ("c", "d"):
                continue
            t, q = row[p]
            if q != p or t == v or not has_tape_edge(t):
                continue
            moves.append((v, p, t))

        edges = set(X.edges)
        for (head, p, t) in moves:
            forward = p == "c"
            step_port, far_port = ("a", "b") if forward else ("b", "a")
            flip = "d" if forward else "c"
            hop = adj[t].get(step_port)
            dest = hop[0] if hop is not None and hop[1] == far_port else None
            new_edge = None
            if dest is not None and p not in adj[dest]:
                new_edge = make_edge(head, p, dest, p)
            elif flip not in adj[t]:
                new_edge = make_edge(head, flip, t, flip)
            if new_edge is not None:
                edges.discard(make_edge(head, p, t, p))
                edges.add(new_edge)

        stepped = RawGraph(alphabets=X.alphabets, vertices=X.vertices,
                           edges=frozenset(edges),
                           vertex_labels=X.vertex_labels,
                           edge_labels={e: l for e, l in X.edge_labels.items()
                                        if e in edges})
        return stepped, EPSILON, {v: v for v in X.vertices}


class InflatingGridDynamics(RawStepDynamics):
    """Every vertex splits into a 2x2 block; grid structure is preserved.

    Ports follow the compass convention a=up, b=right, c=down, d=left, so
    only a-c and b-d edges are meaningful; anything else is rejected.  The
    correspondence sends each vertex to its NW child.
    """

    name = "inflating-grid"
    alphabets = GRID_ALPHABETS

    _CHILDREN = ("NW", "NE", "SW", "SE")

    def _step(self, X):
        bad = [e for e in X.edges
               if tuple(sorted(p for (_v, p) in e)) not in (("a", "c"), ("b", "d"))]
        if bad:
            # The least bad edge in ordered_edges' order, not set order.
            least = next(e for _h1, _h2, e in ordered_edges(X) if e in bad)
            p, q = sorted((h[1] for h in least), key=X.alphabets.port_index)
            raise DynamicsError(
                f"{self.name}: edge pairing ports {p}/{q} is not a grid edge")
        vertices = []
        vertex_labels = {}
        edges = set()
        for v in X.vertices:
            kids = {c: (v, c) for c in self._CHILDREN}
            vertices.extend(kids[c] for c in self._CHILDREN)
            if v in X.vertex_labels:
                for kid in kids.values():
                    vertex_labels[kid] = X.vertex_labels[v]
            edges.add(make_edge(kids["NW"], "b", kids["NE"], "d"))
            edges.add(make_edge(kids["SW"], "b", kids["SE"], "d"))
            edges.add(make_edge(kids["NW"], "c", kids["SW"], "a"))
            edges.add(make_edge(kids["NE"], "c", kids["SE"], "a"))
        for e in X.edges:
            (x, p), (y, q) = tuple(e)
            if (p, q) == ("c", "a") or (p, q) == ("d", "b"):
                (x, p), (y, q) = (y, q), (x, p)
            if (p, q) == ("a", "c"):
                edges.add(make_edge((x, "NW"), "a", (y, "SW"), "c"))
                edges.add(make_edge((x, "NE"), "a", (y, "SE"), "c"))
            else:
                edges.add(make_edge((x, "NE"), "b", (y, "NW"), "d"))
                edges.add(make_edge((x, "SE"), "b", (y, "SW"), "d"))
        stepped = RawGraph(alphabets=X.alphabets, vertices=tuple(vertices),
                           edges=frozenset(edges), vertex_labels=vertex_labels)
        return stepped, (EPSILON, "NW"), {v: (v, "NW") for v in X.vertices}


class TurtleDynamics(Dynamics):
    """Swaps a self-looped singleton with a doubled 2-cycle, fixing all else.

    The 2-cycle's vertices are shift-equivalent, so collapsing both onto the
    singleton is well-defined; the rule is an involution on the pair.
    """

    name = "turtle"
    alphabets = TURTLE_ALPHABETS

    def __init__(self) -> None:
        self.solo, self.pair = turtle_graphs()

    def apply(self, X):
        self._check_signature(X)
        if X == self.solo:
            return self.pair, {EPSILON: EPSILON}
        if X == self.pair:
            return self.solo, {v: EPSILON for v in X.vertices}
        return X, identity_correspondence(X)


class FuncDynamics(Dynamics):
    """Wrap a function as a dynamics; arguments after X, such as an anchor, pass on."""

    def __init__(self, name: str,
                 fn: Callable[..., Tuple[CanonicalGraph, VertexCorrespondence]],
                 alphabets: Optional[Alphabets] = None):
        self.name = name
        self._fn = fn
        self.alphabets = alphabets

    def apply(self, X, *args):
        self._check_signature(X)
        return self._fn(X, *args)


def builtin_dynamics() -> Dict[str, Callable[[], Dynamics]]:
    return {
        "identity": IdentityDynamics,
        "moving-head": MovingHeadDynamics,
        "inflating-grid": InflatingGridDynamics,
        "turtle": TurtleDynamics,
    }


def get_dynamics(name: str) -> Dynamics:
    try:
        factory = builtin_dynamics()[name]
    except KeyError:
        known = ", ".join(sorted(builtin_dynamics()))
        raise DynamicsError(f"unknown dynamics {name!r} (known: {known})") from None
    return factory()


# ---------------------------------------------------------------------------
# Axiom checkers.  Each returns None when the property holds on the probed
# instance and a human-readable first counterexample otherwise.
# ---------------------------------------------------------------------------


def check_shift_invariance(D: Dynamics, X: CanonicalGraph) -> Optional[str]:
    """Same causes, same effects: re-pointing commutes with the dynamics.

    Checks F(X_u) = F(X)_{R(u)} for every vertex u and the corresponding
    compatibility R(u.v) = R(u).R_{X_u}(v) for every v of X_u.
    """
    FX, R = D.apply(X)
    for u in X.vertices:
        Xu, names = shift_with_names(X, u)
        FXu, Ru = D.apply(Xu)
        shifted, to_shifted = shift_with_names(FX, R[u])
        if FXu != shifted:
            return (f"F(X_u) != F(X)_R(u) at u={format_path(u)}")
        for x, v in names.items():      # x is u.v; in X_u's vertex order
            if to_shifted.get(R[x]) != Ru[v]:
                return (f"R(u.v) != R(u).R_Xu(v) at u={format_path(u)}, "
                        f"v={format_path(v)}")
    return None


def check_boundedness(D: Dynamics, X: CanonicalGraph, bound: int) -> Optional[str]:
    """Every image vertex lies in the radius-`bound` disk of a reached vertex.

    Disk membership reaches one step past the radius (the unlabelled rim),
    so the test is: some reached vertex in the radius-(bound + 1) ball of
    each image vertex.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    Y, corr = D.apply(X)
    reached = set(corr.values())
    for w in Y.vertices:
        if reached.isdisjoint(ball(Y, w, bound + 1)):
            return (f"image vertex {format_path(w)} is more than {bound + 1} "
                    f"steps from every reached vertex")
    return None


def continuity_probe(D: Dynamics, X: CanonicalGraph, Y: CanonicalGraph,
                     image_radius: int, source_radius: int) -> Optional[str]:
    """Falsify a claimed continuity modulus on one pair of graphs.

    If X and Y agree on the source_radius disk, their images must agree on
    the image_radius disk and the correspondences restricted to that disk
    must coincide (with domains inside the source disk).  Pairs that do not
    agree at the source radius are vacuously fine.  This can refute a
    modulus, never prove continuity.
    """
    source_x, source_y = disk(X, source_radius), disk(Y, source_radius)
    if source_x != source_y:
        return None
    FX, RX = D.apply(X)
    FY, RY = D.apply(Y)
    image_x, image_y = disk(FX, image_radius), disk(FY, image_radius)
    if image_x != image_y:
        return (f"images disagree on the radius-{image_radius} disk although "
                f"sources agree at radius {source_radius}")
    keep_x = set(image_x.vertices)
    keep_y = set(image_y.vertices)
    RXm = {u: w for u, w in RX.items() if w in keep_x}
    RYm = {u: w for u, w in RY.items() if w in keep_y}
    if RXm != RYm:
        return (f"restricted correspondences disagree at image radius "
                f"{image_radius}")
    if (not set(RXm) <= set(source_x.vertices)
            or not set(RYm) <= set(source_y.vertices)):
        return "restricted correspondence domain escapes the source disk"
    return None
