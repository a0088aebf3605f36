"""Deterministic DOT rendering of canonical graphs."""
from __future__ import annotations

from typing import Optional

from .blocks import MarkSpace
from .modulo import CanonicalGraph
from .paths import EPSILON
from .portgraph import ordered_edges


def _quoted(text: str) -> str:
    """`text` as a DOT quoted string: backslash, quote and newline escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def export_dot(X: CanonicalGraph, space: Optional[MarkSpace] = None) -> str:
    """Render as an undirected DOT graph, byte-identical for equal inputs.

    Nodes carry their canonical name and label, the origin draws with a
    double border, and when a mark space is supplied marked vertices are
    filled dark and unmarked ones light.
    """
    names = X.name_texts()
    lines = ["graph cgd {", "  node [shape=circle];"]
    for v, name in names.items():
        label = X.vertex_labels.get(v)
        # Names and labels hold no whitespace: the newline (DOT's \n) parts them.
        text = name if label is None else f"{name}\n{label}"
        attrs = [f"label={_quoted(text)}"]
        if v == EPSILON:
            attrs.append("peripheries=2")
        if space is not None:
            filled = space.vertex_mark(X, v) == 1
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{"gray70" if filled else "white"}"')
        lines.append(f'  {_quoted(name)} [{", ".join(attrs)}];')

    for (u, p), (w, q), e in ordered_edges(X):
        attrs = [f"taillabel={_quoted(p)}", f"headlabel={_quoted(q)}"]
        label = X.edge_labels.get(e)
        if label is not None:
            attrs.append(f"label={_quoted(label)}")
        lines.append(
            f'  {_quoted(names[u])} -- {_quoted(names[w])} [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
