"""Deterministic DOT rendering of canonical graphs."""
from __future__ import annotations

from typing import Optional

from .blocks import MarkSpace
from .modulo import CanonicalGraph
from .paths import EPSILON, format_path
from .portgraph import ordered_edges


def export_dot(X: CanonicalGraph, space: Optional[MarkSpace] = None) -> str:
    """Render as an undirected DOT graph, byte-identical for equal inputs.

    Nodes carry their canonical name and label, the origin draws with a
    double border, and when a mark space is supplied marked vertices are
    filled dark and unmarked ones light.
    """
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

    for (u, p), (w, q), e in ordered_edges(X):
        attrs = [f'taillabel="{p}"', f'headlabel="{q}"']
        label = X.edge_labels.get(e)
        if label is not None:
            attrs.append(f'label="{label}"')
        lines.append(
            f'  "{format_path(u)}" -- "{format_path(w)}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
