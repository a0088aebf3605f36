"""The naming BFS against the layered BFS it replaced
(`oracles.layered_canonical_names`): the same names, in the same order,
from every vertex and at every depth.

`modulo._canonical_names` now walks each layer's ports in `alphabets.ports`
order and names a vertex when it first reaches it, with no candidate table
and no per-layer sort."""
import pytest
from hypothesis import given

import oracles
from cgd import Alphabets, enumerate_family
from cgd.blocks import MarkSpace, mark
from cgd.families import (TAPE_ALPHABETS, bare_tape, bare_tapes, shift_closure,
                          single_head_tape, single_head_tapes)
from cgd.modulo import _canonical_names, canonicalize
from cgd.paths import format_path
from cgd.portgraph import RawGraph, make_edge
from test_modulo import PROPERTY, pointed_graphs

AB01 = Alphabets.make("ab", vertex_labels=("0", "1"))
MIXED = Alphabets.make(("a", "bb"), vertex_labels=("0",))
BA = Alphabets.make(("b", "a"), vertex_labels=("0",))
DCBA = Alphabets.make(("d", "c", "b", "a"), vertex_labels=("0",))
SPACE = MarkSpace.for_base(TAPE_ALPHABETS)
DEPTHS = (None, 0, 1, 2, 3)


def check_names(adjacency, alphabets, origins=None, depths=DEPTHS) -> None:
    """Both BFSs agree on keys, values and insertion order, from every
    vertex (or each of `origins`) and at every depth."""
    for origin in adjacency if origins is None else origins:
        for depth in depths:
            new = _canonical_names(adjacency, origin, alphabets, depth)
            old = oracles.layered_canonical_names(adjacency, origin, alphabets, depth)
            assert list(new.items()) == list(old.items())


def check_graphs(graphs) -> None:
    for X in graphs:
        check_names(X.adjacency, X.alphabets)


@pytest.fixture(scope="module")
def closure_8():
    return shift_closure(bare_tapes(8) + single_head_tapes(7))


class TestNamesAsLayered:
    def test_ab01_family_5(self):
        fam = enumerate_family(AB01, 5)
        assert len(fam) == 3868
        check_graphs(fam)

    def test_abcd0_family_2(self, abcd_family_2):
        assert len(abcd_family_2) == 674
        check_graphs(abcd_family_2)

    def test_tape_closure_8(self, closure_8):
        check_graphs(closure_8)

    def test_lifted_and_marked(self, closure_8):
        for X in closure_8:
            lifted = SPACE.lift(X)
            assert len(lifted.alphabets.ports) == 8
            check_graphs((lifted, mark(lifted, SPACE)))

    def test_mixed_length_ports(self):
        check_graphs(enumerate_family(MIXED, 4))

    @pytest.mark.parametrize("alphabets, max_vertices", [(BA, 5), (DCBA, 2)],
                             ids=["ba", "dcba"])
    def test_port_order_unlike_character_order(self, alphabets, max_vertices):
        check_graphs(enumerate_family(alphabets, max_vertices))

    def test_self_loops_and_parallel_edges(self):
        # u and v share two edges, u has a self-loop, and w hangs off v.
        g = RawGraph(TAPE_ALPHABETS, ("w", "v", "u"), frozenset((
            make_edge("v", "d", "w", "a"), make_edge("u", "b", "v", "c"),
            make_edge("u", "a", "v", "b"), make_edge("u", "c", "u", "d"))))
        check_names(g.adjacency(), g.alphabets)
        names = _canonical_names(g.adjacency(), "u", TAPE_ALPHABETS)
        assert list(map(format_path, names.values())) == ["eps", "ab", "ab.da"]

    def test_long_tapes(self):
        # Bounded depths from every cell; whole tapes from every 20th cell
        # and the last one.
        for X in (bare_tape(400), single_head_tape(400, 0),
                  single_head_tape(400, 199), single_head_tape(400, 399, "dd")):
            check_names(X.adjacency, X.alphabets, depths=DEPTHS[1:])
            check_names(X.adjacency, X.alphabets, X.vertices[::20] + X.vertices[-1:],
                        depths=(None,))

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_random_graphs(self, pg):
        check_names(pg.graph.adjacency(), pg.graph.alphabets)
        check_graphs((canonicalize(pg),))
