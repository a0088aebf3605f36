"""Earlier gluing code, kept as slow references for differential tests.

`apply_local_rule_pairwise` checks every pair of patches with `consistent`
and then folds them together with `union_pair`, the two-patch union as it
was written before `patches.glue`.  `FoldingExtension` is the reversible
extension whose mixed case builds each evolved piece by hand and folds
`consistent` and `union_pair` over the pieces.  The library now does both
jobs with `portgraph.relabel` and one call to `patches.glue`.

`export_dot_by_path_key` is the DOT renderer as it was when it ordered
half-edges by `Alphabets.path_key`; `dot.export_dot` now orders them by the
vertex's rank in the canonical vertex order.
"""
from typing import Dict, List, Optional, Tuple

from cgd.blocks import (
    MarkError,
    MarkSpace,
    ReversibleExtension,
    UnionInconsistencyError,
    _components,
    _induced_raw,
    _mark_partition,
)
from cgd.modulo import canonicalize_with_names, disk, shift
from cgd.patches import PatchInconsistencyError, _translate_patch, consistent
from cgd.paths import EPSILON, Path, format_path
from cgd.portgraph import PointedRawGraph, RawGraph, ensure_valid


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


def apply_local_rule_pairwise(rule, X):
    patches: List[Tuple[Path, object]] = []
    for u in X.vertices:
        local_view = disk(shift(X, u), rule.radius)
        patches.append((u, _translate_patch(rule.rule(local_view), X, u)))
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
    origin = next(p.successor for (u, p) in patches if u == EPSILON)
    Y, names = canonicalize_with_names(PointedRawGraph(merged, origin))
    corr = {u: names[p.successor] for (u, p) in patches}
    return Y, corr


class FoldingExtension(ReversibleExtension):
    """The reversible extension with its mixed case glued by a fold."""

    def _mixed(self, X):
        space = self.space
        marked, unmarked, boundary = _mark_partition(X, space)
        upper_keep = marked | boundary

        pieces: List[RawGraph] = []
        final_id: Dict[Path, object] = {}

        for comp in _components(X, upper_keep):
            pieces.append(_induced_raw(X, comp))
        for v in upper_keep:
            final_id[v] = v

        for comp in _components(X, unmarked):
            anchor = comp[0]
            comp_graph, to_comp = canonicalize_with_names(
                PointedRawGraph(_induced_raw(X, comp), anchor))
            base_graph, to_base = space.drop_with_names(comp_graph)
            image, corr = self.base.apply(base_graph)
            lifted, to_lifted = space.lift_with_names(image)
            img = {v: to_lifted[corr[to_base[to_comp[v]]]] for v in comp}
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

            def piece_id(w, _anchor=anchor, _seam=seam):
                return _seam.get(w, ("fresh", _anchor, w))

            edges = {}
            for e in lifted.edges:
                (u, p), (w, q) = tuple(e)
                edges[e] = frozenset(((piece_id(u), p), (piece_id(w), q)))
            pieces.append(RawGraph(
                alphabets=space.marked,
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
                    f"{self.name}: transformed region conflicts with the "
                    f"frozen part: {problem}")
            merged = union_pair(merged, piece)

        result, names = canonicalize_with_names(
            PointedRawGraph(merged, final_id[EPSILON]))
        problem = space.mark_consistency_violation(result)
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
