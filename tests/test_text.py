"""The one-pass canonical text against the text as it was written before
(`oracles.text_by_cached_names`, `oracles.export_dot_per_name` and
`oracles.serialize_inverse_table_per_name`), byte for byte.

A canonical graph now builds its name texts once, each from its parent's
(`CanonicalGraph.name_texts`), and `serialize_graph`, `to_text` share one
line writer (`portgraph.write_graph`).  That writer trusts its tokens:
`serialize_graph` checks them, and `TestTrustedWriter` checks that every
alphabet `Alphabets` accepts writes canonical text that reads back."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cgd import Alphabets, cli, enumerate_family, get_dynamics
from cgd.blocks import MarkSpace, mark
from cgd.dot import export_dot
from cgd.families import (TAPE_ALPHABETS, bare_tape, bare_tapes, shift_closure,
                          single_head_tape, single_head_tapes)
from cgd.modulo import CanonicalGraph, canonicalize, disk, disk_at
from cgd.patches import RuleTable, parse_rule_file, serialize_rule_file
from cgd.paths import EPSILON, format_path
from cgd.portgraph import GraphFormatError, parse_graph, serialize_graph
from cgd.reversibility import GraphFamily, build_inverse, serialize_inverse_table
from test_modulo import PROPERTY, pointed_graphs

AB01 = Alphabets.make("ab", vertex_labels=("0", "1"))
AB01_E = Alphabets.make("ab", vertex_labels=("0", "1"), edge_labels=("e",))
MIXED = Alphabets.make(("a", "bb"), vertex_labels=("0",))
SPACE = MarkSpace.for_base(TAPE_ALPHABETS)


def fresh(X: CanonicalGraph) -> CanonicalGraph:
    """X without the text it may already keep."""
    return CanonicalGraph(X.alphabets, X.vertices, X.vertex_labels, X.edges,
                          X.edge_labels)


def check_text(X: CanonicalGraph, space=None) -> None:
    texts = X.name_texts()
    assert list(texts) == list(X.vertices)
    assert list(texts.values()) == [oracles.format_path_cached(v) for v in X.vertices]
    want = oracles.text_by_cached_names(X)
    assert fresh(X).to_text() == want
    assert serialize_graph(X.to_pointed_raw(), token=format_path) == want
    assert export_dot(X, space) == oracles.export_dot_per_name(X, space)


@pytest.fixture(scope="module")
def closure_8():
    return shift_closure(bare_tapes(8) + single_head_tapes(7))


class TestTextAsBefore:
    def test_ab01_family_5(self):
        fam = enumerate_family(AB01, 5)
        assert len(fam) == 3868
        for X in fam:
            check_text(X)

    def test_abcd0_family_3(self, abcd_family_3):
        assert len(abcd_family_3) == 60290
        for X in abcd_family_3:
            check_text(X)

    def test_tape_closure_8(self, closure_8):
        for X in closure_8:
            check_text(X)

    def test_edge_labels_and_mixed_length_ports(self):
        for alphabets in (AB01_E, MIXED):
            for X in enumerate_family(alphabets, 4 if alphabets is MIXED else 3):
                check_text(X)

    def test_lifted_and_marked(self, closure_8):
        for X in closure_8:
            lifted = SPACE.lift(X)
            check_text(lifted, SPACE)
            check_text(mark(lifted, SPACE), SPACE)

    def test_disks(self, closure_8):
        for X in closure_8:
            for radius in (1, 2):
                check_text(disk(X, radius))
                check_text(disk_at(X, X.vertices[-1], radius))

    def test_long_tapes(self):
        for X in (bare_tape(400), single_head_tape(400, 0), single_head_tape(400, 199),
                  single_head_tape(400, 399, "dd")):
            for Y in (X, disk_at(X, X.vertices[len(X) // 2], 2)):
                check_text(Y)

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_random_graphs(self, pg):
        check_text(canonicalize(pg))


# Ports a path may or may not carry back: '=' and '~' (a line's label= and a
# rule file's fresh-vertex tag), pairs that spell "eps" or "label=" or that
# split two ways, and non-ASCII alphanumerics.
PORT_POOL = ("a", "b", "ab", "ba", "e", "ps", "p", "=", "a=", "~", "y~1", "y",
             "label=", "lab", "el=", "\u03bb", "\u00e9", "\u00df2", "\u216b")


class TestTrustedWriter:
    def test_long_tape_and_marked_stage(self):
        # The names of a 400-cell tape and of a half-marked decompose stage.
        X = single_head_tape(400, 199)
        trace = []
        cli._tape_kit(get_dynamics("moving-head")).decompose_step(
            single_head_tape(12, 5), trace=trace)
        stage = trace[len(trace) // 4].graph
        assert set(stage.vertex_labels.values()) == {"00", "01"}
        for G in (X, stage):
            want = oracles.checked_write_graph(G, G.name_texts(), EPSILON)
            assert fresh(G).to_text() == want
            assert serialize_graph(G.to_pointed_raw(), token=format_path) == want

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(ports=st.lists(st.sampled_from(PORT_POOL), min_size=1, max_size=3, unique=True))
    def test_accepted_alphabets_write_text_that_reads_back(self, ports):
        try:
            alphabets = Alphabets.make(ports, ("0",), ("x",))
        except GraphFormatError:
            return
        fam = enumerate_family(alphabets, 2)
        for X in fam:
            text = X.to_text()
            assert text == serialize_graph(X.to_pointed_raw(), token=format_path)
            assert canonicalize(parse_graph(text)) == X
        # Each member as a disk that its identity patch maps to itself.
        table = RuleTable(radius=1, entries={X: X.to_pointed_raw() for X in fam})
        again = parse_rule_file(serialize_rule_file(table))
        assert (again.radius, again.entries) == (table.radius, table.entries)


class TestInverseTableAsBefore:
    @pytest.mark.parametrize("name", ["moving-head", "turtle"])
    def test_table_text(self, closure_8, name):
        D = get_dynamics(name)
        fam = (GraphFamily.from_graphs(closure_8, TAPE_ALPHABETS) if name == "moving-head"
               else enumerate_family(D.alphabets, 4))
        table = build_inverse(D, fam)
        assert serialize_inverse_table(table) == \
            oracles.serialize_inverse_table_per_name(table)
