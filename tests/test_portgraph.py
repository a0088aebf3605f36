"""Raw port graphs: validation, components, the text format, and paths."""
import json
import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgd
import oracles
from cgd import (
    Alphabets,
    GraphError,
    GraphFormatError,
    InvalidGraphError,
    PointedRawGraph,
    RawGraph,
    connected_component,
    make_edge,
    canonicalize,
    parse_graph,
    relabel,
    serialize_graph,
    validate,
)
from cgd.families import single_head_tape
from cgd.paths import EPSILON, Path, format_path, parse_path

SRC = os.path.dirname(os.path.dirname(cgd.__file__))


def seeded_env(seed: str) -> dict:
    """The environment of a subprocess that imports this `cgd` under a
    given hash seed."""
    return {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}

AB = Alphabets.make("ab")
ABCD = Alphabets.make("abcd", vertex_labels=("0", "1"), edge_labels=("x",))


@st.composite
def token_soup(draw):
    """Graph text for fuzzing `parse_graph`: a ports and a pointer line,
    some other declarations and maybe a junk line, in any order, over small
    token pools that repeat tokens and leave some ids and ports undeclared.
    Pools list their well-formed entries twice, so some texts parse."""
    def line(*pools):
        return " ".join(draw(st.sampled_from(pool)) for pool in pools)

    def lines(lo, hi, *pools):
        return [line(*pools) for _ in range(draw(st.integers(lo, hi)))]

    ids = ("v", "w", "u")
    half = ("v:a", "w:b", "v:b", "w:a", "u:c", "v:z", "x:a", ":a")
    label = ("", "", "label=0", "label=x", "label=")
    text = ([line(("ports",), ("a b c", "a b", "a b c", "b b", "a"))]
            + lines(0, 1, ("vlabels",), ("0 x", "0", "0 x", "x x"))
            + lines(0, 1, ("elabels",), ("x", "x 0", "x", "0 0"))
            + lines(1, 3, ("vertex",), ids, label)
            + lines(0, 3, ("edge",), half, half, label)
            + [line(("pointer",), ids + ("q",))]
            + lines(0, 1, ("junk", "ports", "pointer v", "label=0", "edge"),
                    ("", "v", "v:a w:a")))
    return "".join(l + "\n" for l in draw(st.permutations(text)))


# Lines for the differential fuzz: well-formed ones, labels out of place,
# wrong arities, malformed half-edges and repeated headers.
LINE_POOL = (
    "ports a b", "ports a b c", "ports a a", "ports", "ports a.b c", "vlabels x y",
    "vlabels x x", "elabels e", "vertex eps", "vertex eps label=x", "vertex ab label=y",
    "vertex ab", "vertex v label=z", "vertex", "vertex label=x", "vertex a b",
    "vertex v label=x label=y", "vertex label=x v", "vertex label=x label=y",
    "edge eps:a ab:b", "edge eps:b ab:a label=e", "edge ab:b eps:a label=q",
    "edge eps:a eps:b", "edge eps:a eps:a", "edge eps:a", "edge eps ab:b", "edge :a ab:b",
    "edge eps:c ab:b", "edge zz:a eps:b", "edge label=e eps:a ab:b",
    "edge label=e eps:a label=f", "edge eps:a ab:b label=e x", "pointer eps", "pointer ab",
    "pointer x", "pointer", "pointer a b", "bogus", "", "# note", "vertex v  # note")


def graph_outcome(parse, text):
    try:
        return parse(text)
    except GraphError as err:
        return type(err), str(err)


def ring4(alphabets=AB):
    edges = frozenset(make_edge(i, "a", (i + 1) % 4, "b") for i in range(4))
    return RawGraph(alphabets=alphabets, vertices=(0, 1, 2, 3), edges=edges)


class TestValidate:
    def test_single_vertex_ok(self):
        g = RawGraph(alphabets=AB, vertices=("v",))
        assert validate(g) is None

    def test_port_reuse_reported(self):
        g = RawGraph(alphabets=ABCD, vertices=("v0", "v1", "v2"),
                     edges=frozenset((make_edge("v0", "a", "v1", "b"),
                                      make_edge("v0", "a", "v2", "c"))))
        problem = validate(g)
        assert problem is not None
        assert "used twice" in problem

    def test_ring_ok_against_halfedge_scan(self):
        # Oracle: collect every half-edge and look for duplicates directly.
        g = ring4()
        halves = [h for e in g.edges for h in e]
        assert len(halves) == len(set(halves))
        assert validate(g) is None

    def test_degenerate_self_loop_rejected(self):
        g = RawGraph(alphabets=AB, vertices=("v",),
                     edges=frozenset((frozenset((("v", "a"), ("v", "a"))),)))
        assert "two distinct half-edges" in validate(g)

    def test_proper_self_loop_ok(self):
        g = RawGraph(alphabets=AB, vertices=("v",),
                     edges=frozenset((make_edge("v", "a", "v", "b"),)))
        assert validate(g) is None

    def test_labels_may_hold_what_ports_may_not(self):
        # Labels are written only after "label=", never inside a half-edge
        # or a path.
        alphabets = Alphabets.make("ab", ("x:y", "x.y"), ("e:f",))
        assert alphabets.vertex_labels == ("x:y", "x.y")

    def test_parsed_port_that_a_path_cannot_hold(self):
        # The error names the ports line, though it is raised after the
        # last line is read.
        with pytest.raises(GraphFormatError, match=re.escape(
                "line 3: port 'a.b' not writable")):
            parse_graph("vertex v\npointer v\nports a.b c\n")
        with pytest.raises(GraphFormatError, match=re.escape(
                "line 8: port pair 'eps' not writable")):
            parse_graph("#\n" * 7 + "ports e ps\nvertex v\npointer v\n")

    def test_unknown_port(self):
        g = RawGraph(alphabets=AB, vertices=("v", "w"),
                     edges=frozenset((make_edge("v", "z", "w", "b"),)))
        assert "port 'z'" in validate(g)

    def test_unknown_vertex_label(self):
        g = RawGraph(alphabets=ABCD, vertices=("v",), vertex_labels={"v": "9"})
        assert "unknown label" in validate(g)

    def test_unknown_edge_endpoint(self):
        g = RawGraph(alphabets=AB, vertices=("v",),
                     edges=frozenset((make_edge("v", "a", "ghost", "b"),)))
        assert "not a declared vertex" in validate(g)

    def test_label_on_unknown_vertex(self):
        g = RawGraph(alphabets=ABCD, vertices=("v",), vertex_labels={"ghost": "0"})
        assert validate(g) == "label attached to unknown vertex 'ghost'"

    def test_label_on_unknown_edge(self):
        e = make_edge("v", "a", "v", "b")
        g = RawGraph(alphabets=ABCD, vertices=("v",), edge_labels={e: "x"})
        assert validate(g) == f"label attached to unknown edge {set(e)}"

    def test_unknown_edge_label(self):
        e = make_edge("v", "a", "w", "b")
        g = RawGraph(alphabets=ABCD, vertices=("v", "w"), edges=frozenset((e,)),
                     edge_labels={e: "z"})
        assert validate(g) == f"edge {set(e)} carries unknown label 'z'"

    def test_degree_bounded_by_ports(self):
        g = ring4()
        adj = g.adjacency()
        for v in g.vertices:
            assert len(adj[v]) <= len(g.alphabets.ports)


class TestConnectedComponent:
    def test_connected_graph_unchanged(self):
        g = ring4()
        c = connected_component(g, 0)
        assert set(c.vertices) == set(g.vertices)
        assert c.edges == g.edges

    def test_two_disjoint_edges(self):
        g = RawGraph(alphabets=AB, vertices=("v0", "v1", "v2", "v3"),
                     edges=frozenset((make_edge("v0", "a", "v1", "b"),
                                      make_edge("v2", "a", "v3", "b"))))
        c = connected_component(g, "v0")
        assert set(c.vertices) == {"v0", "v1"}
        assert len(c.edges) == 1

    def test_ring_plus_pair_bfs_oracle(self):
        edges = set(make_edge(i, "a", (i + 1) % 4, "b") for i in range(4))
        edges.add(make_edge(4, "a", 5, "b"))
        g = RawGraph(alphabets=AB, vertices=tuple(range(6)),
                     edges=frozenset(edges))
        # Oracle: plain reachability over vertex pairs, ignoring ports.
        neigh = {v: set() for v in g.vertices}
        for e in g.edges:
            (x, _), (y, _) = tuple(e)
            neigh[x].add(y)
            neigh[y].add(x)
        reach = {0}
        stack = [0]
        while stack:
            for w in neigh[stack.pop()]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        c = connected_component(g, 0)
        assert set(c.vertices) == reach == {0, 1, 2, 3}

    def test_idempotent(self):
        g = RawGraph(alphabets=AB, vertices=("v0", "v1", "v2"),
                     edges=frozenset((make_edge("v0", "a", "v1", "b"),)))
        once = connected_component(g, "v0")
        twice = connected_component(once, "v0")
        assert set(once.vertices) == set(twice.vertices)
        assert once.edges == twice.edges

    def test_valid_in_valid_out(self):
        g = ring4()
        assert validate(g) is None
        assert validate(connected_component(g, 2)) is None

    def test_unknown_vertex(self):
        with pytest.raises(InvalidGraphError):
            connected_component(ring4(), 99)


class TestRelabel:
    def labelled(self):
        e1, e2 = make_edge(0, "a", 1, "b"), make_edge(1, "a", 2, "b")
        return RawGraph(alphabets=ABCD, vertices=(2, 0, 1),
                        edges=frozenset((e1, e2)),
                        vertex_labels={0: "0", 2: "1"}, edge_labels={e1: "x"})

    def test_nothing_mapped_is_the_same_graph(self):
        g = self.labelled()
        assert relabel(g) == g

    def test_ids_keep_vertex_order(self):
        g = self.labelled()
        h = relabel(g, ids={0: "p", 1: "q", 2: "r"})
        assert h.vertices == ("r", "p", "q")
        assert h.vertex_labels == {"p": "0", "r": "1"}
        assert h.edge_labels == {make_edge("p", "a", "q", "b"): "x"}
        assert relabel(h, ids={"p": 0, "q": 1, "r": 2}) == g

    def test_ports_labels_and_alphabets(self):
        g = self.labelled()
        target = Alphabets.make("cdab", vertex_labels=("1", "0"), edge_labels=("x",))
        h = relabel(g, ports={"a": "c", "b": "d"}, labels={"0": "1", "1": "0"},
                    alphabets=target)
        assert h.alphabets == target
        assert h.edges == frozenset((make_edge(0, "c", 1, "d"),
                                     make_edge(1, "c", 2, "d")))
        assert h.vertex_labels == {0: "1", 2: "0"}
        assert h.edge_labels == {make_edge(0, "c", 1, "d"): "x"}
        assert validate(h) is None

    def test_canonical_graph_input(self):
        X = canonicalize(parse_graph(SAMPLE))
        h = relabel(X, ids={v: format_path(v) for v in X.vertices})
        assert h.vertices == tuple(format_path(v) for v in X.vertices)
        assert canonicalize(PointedRawGraph(h, "eps")) == X


SAMPLE = """\
# sample graph
ports a b c d
vlabels 0 1
elabels x

vertex v0 label=0
vertex v1 label=1
vertex v2
edge v0:a v1:b label=x
edge v1:a v2:b
pointer v0
"""


class TestTextFormat:
    def test_round_trip(self):
        pg = parse_graph(SAMPLE)
        text = serialize_graph(pg)
        again = parse_graph(text)
        assert again.graph == pg.graph
        assert again.origin == pg.origin
        assert serialize_graph(again) == text

    def test_serialization_is_deterministic(self):
        pg = parse_graph(SAMPLE)
        assert serialize_graph(pg) == serialize_graph(pg)

    def test_vertices_keep_declared_order(self):
        text = serialize_graph(parse_graph(SAMPLE))
        lines = [l for l in text.splitlines() if l.startswith("vertex")]
        assert [l.split()[1] for l in lines] == ["v0", "v1", "v2"]

    def test_missing_pointer(self):
        bad = SAMPLE.replace("pointer v0\n", "")
        with pytest.raises(GraphFormatError, match="pointer"):
            parse_graph(bad)

    def test_duplicate_half_edge(self):
        bad = SAMPLE + "edge v0:a v2:c\n"
        with pytest.raises(GraphFormatError, match="already used"):
            parse_graph(bad)

    @pytest.mark.parametrize("seed", ["0", "5"])
    def test_first_bad_half_is_the_first_written(self, seed):
        # An edge's halves are checked as written, not in the order of a
        # frozenset, which moves with the hash seed.
        head = "ports a b\nvertex u\nvertex v\n"
        texts = [head + "edge u:a v:b\nedge u:a v:b\npointer u\n",
                 head + "edge x:a y:b\npointer u\n",
                 head + "edge u:c v:d\npointer u\n"]
        code = ("import json, sys; from cgd import GraphFormatError, parse_graph\n"
                "for text in json.load(sys.stdin):\n"
                "    try: parse_graph(text)\n"
                "    except GraphFormatError as err: print(err)\n")
        out = subprocess.run([sys.executable, "-c", code], input=json.dumps(texts),
                             env=seeded_env(seed), capture_output=True, text=True,
                             check=True).stdout
        assert out.splitlines() == ["line 5: half-edge u:a already used on line 4",
                                    "line 4: undeclared vertex 'x'",
                                    "line 4: unknown port 'c'"]

    def test_unknown_port(self):
        bad = SAMPLE + "edge v2:z v0:b\n"
        with pytest.raises(GraphFormatError):
            parse_graph(bad)

    def test_unknown_label(self):
        bad = SAMPLE.replace("label=1", "label=7")
        with pytest.raises(GraphFormatError):
            parse_graph(bad)

    def test_unknown_keyword(self):
        with pytest.raises(GraphFormatError, match="keyword"):
            parse_graph(SAMPLE + "frobnicate v0\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            parse_graph(SAMPLE + "vertex v0\n")

    def test_duplicate_vertex_names_its_line(self):
        text = "ports a b\nvertex u\nvertex w\n\nvertex u\npointer u\n"
        with pytest.raises(GraphFormatError,
                           match=r"^line 5: duplicate vertex 'u'$"):
            parse_graph(text)

    @pytest.mark.parametrize("token", ["", "a b", "a\tb", "a\u00a0b", "a:b", "a#b", "label=x"])
    def test_unwritable_token_rejected(self, token):
        pg = PointedRawGraph(RawGraph(alphabets=AB, vertices=("v",)), "v")
        with pytest.raises(GraphFormatError, match="not writable"):
            serialize_graph(pg, token=lambda v: token)

    @pytest.mark.parametrize("vertices, origin, error", [
        (("v",), "w", InvalidGraphError),
        (("v", "v"), "v", GraphFormatError),
    ])
    def test_unwritable_graph_rejected(self, vertices, origin, error):
        pg = PointedRawGraph(RawGraph(alphabets=AB, vertices=vertices), origin)
        with pytest.raises(error):
            serialize_graph(pg)

    def test_undeclared_edge_vertex(self):
        with pytest.raises(GraphFormatError, match="undeclared"):
            parse_graph(SAMPLE + "edge v9:a v2:c\n")

    @pytest.mark.parametrize("line, message", [
        ("ports a a", "line 1: duplicate port 'a'"),
        ("vlabels 0 0", "line 1: duplicate vertex label '0'"),
        ("elabels q r q", "line 1: duplicate edge label 'q'"),
        ("vlabels 0\nvlabels 1", "line 2: duplicate vlabels line"),
        ("elabels q\n\nelabels q", "line 3: duplicate elabels line"),
    ])
    def test_duplicate_alphabet_token_names_its_line(self, line, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            parse_graph(line + "\nports a b\nvertex v\npointer v\n")

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(text=token_soup())
    def test_token_soup_parses_or_raises_a_graph_error(self, text):
        try:
            pg = parse_graph(text)
        except (GraphFormatError, InvalidGraphError):
            return
        assert validate(pg.graph) is None

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(lines=st.lists(st.sampled_from(LINE_POOL), max_size=9))
    def test_line_soup_parses_as_the_old_parser(self, lines):
        # The same graph or the same error; an unknown label or an
        # undeclared pointer now also names its line.
        text = "".join(line + "\n" for line in lines)
        new, old = (graph_outcome(parse, text)
                    for parse in (parse_graph, oracles.parse_graph))
        assert new == old or (
            isinstance(new, tuple) and isinstance(old, tuple)
            and new[0] is old[0] is GraphFormatError
            and re.fullmatch(r"line \d+: " + re.escape(old[1]), new[1])
            and re.match("unknown (vertex|edge) label|pointer", old[1]))


class TestAlphabets:
    """`Alphabets` is one frozen record, checked when it is built."""

    @pytest.mark.parametrize("args, message", [
        (((),), "port alphabet must be non-empty"),
        ((("a", "b", "a"),), "duplicate port symbols in ('a', 'b', 'a')"),
        (("ab", ("0", "0")), "duplicate labels in ('0', '0')"),
        (("ab", (), ("x", "y", "x")), "duplicate labels in ('x', 'y', 'x')"),
    ])
    def test_construction_errors(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Alphabets.make(*args)

    @pytest.mark.parametrize("args, token", [
        ((("a", ""),), "port ''"),
        ((("",), ("x",)), "port ''"),
        ((("a b", "c"),), "port 'a b'"),
        ((("a", "#"),), "port '#'"),
        ((("a:b",),), "port 'a:b'"),
        ((("a.b",),), "port 'a.b'"),
        ((("e", "ps"),), "port pair 'eps'"),
        ((("a", "aa"),), "port pair 'aaa'"),
        ((("ab", "c", "a", "bc"),), "port pair 'abc'"),
        (("ab", ("x y",)), "label 'x y'"),
        (("ab", ("x\u00a0y",)), "label 'x\\xa0y'"),
        (("ab", (), ("x#",)), "label 'x#'"),
        (("ab", (), ("",)), "label ''"),
        ((("label=x", "b"),), "port pair 'label=xlabel=x'"),
        ((("lab", "el=x"),), "port pair 'label=x'"),
        ((("y~1", "y"),), "port 'y~1'"),
    ])
    def test_unwritable_tokens(self, args, token):
        # Each would be written as text that reads back differently.
        with pytest.raises(GraphFormatError, match=re.escape(
                f"{token} not writable")):
            Alphabets.make(*args)

    def test_ports_of_mixed_lengths_whose_hops_differ(self):
        # aa, abc, bca, bcbc: every hop reads back one way.
        assert Alphabets.make(("a", "bc")).ports == ("a", "bc")
        path = Path((("a", "bc"), ("bc", "bc")))
        assert parse_path(format_path(path), ("a", "bc")) == path

    def test_unknown_port(self):
        with pytest.raises(KeyError, match=re.escape(
                "unknown port 'z' (alphabet ('a', 'b', 'c', 'd'))")):
            ABCD.port_index("z")
        assert [ABCD.port_index(p) for p in "dcba"] == [3, 2, 1, 0]

    def test_equal_makes_are_equal_records(self):
        again = Alphabets.make(["a", "b", "c", "d"], ("0", "1"), ["x"])
        assert again == ABCD and hash(again) == hash(ABCD)
        assert again != Alphabets.make("abcd", ("0", "1"))
        assert repr(AB) == "Alphabets(ports=('a', 'b'), vertex_labels=(), edge_labels=())"

    def test_canonical_graph_pickles(self):
        X = single_head_tape(5, 2)
        Y = pickle.loads(pickle.dumps(X))
        assert Y == X and hash(Y) == hash(X) and Y.to_text() == X.to_text()
        assert Y.alphabets.port_index("d") == 3

    def test_canonical_graph_pickles_across_hash_seeds(self):
        # Names and labels are strings, whose hashes change with the seed.
        code = ("import pickle, sys; from cgd.families import single_head_tape; "
                "sys.stdout.buffer.write(pickle.dumps(single_head_tape(5, 2)))")
        data = subprocess.run([sys.executable, "-c", code], env=seeded_env("1"),
                              capture_output=True, check=True).stdout
        assert pickle.loads(data) in {single_head_tape(5, 2)}


class TestPaths:
    def test_epsilon(self):
        assert format_path(EPSILON) == "eps"
        assert parse_path("eps", ("a", "b")) == EPSILON

    def test_round_trip(self):
        p = Path((("a", "b"), ("c", "d"), ("a", "b")))
        assert format_path(p) == "ab.cd.ab"
        assert parse_path("ab.cd.ab", ("a", "b", "c", "d")) == p

    def test_double_reverse(self):
        p = Path((("a", "b"), ("c", "a")))
        assert p.reversed().reversed() == p

    def test_reverse_swaps_and_flips(self):
        # Undoing cb.ac means walking ca.bc.
        p = parse_path("cb.ac", ("a", "b", "c"))
        assert format_path(p.reversed()) == "ca.bc"

    def test_concat(self):
        p = parse_path("ab", ("a", "b"))
        q = parse_path("ba", ("a", "b"))
        assert format_path(p.concat(q)) == "ab.ba"

    def test_two_char_ports(self):
        ports = ("a0", "a1", "b0", "b1")
        p = parse_path("a0b1.b0a0", ports)
        assert p.pairs == (("a0", "b1"), ("b0", "a0"))
        assert format_path(p) == "a0b1.b0a0"

    def test_ambiguous_pair_rejected(self):
        with pytest.raises(ValueError, match="ambiguous"):
            parse_path("aaa", ("a", "aa"))

    def test_equal_paths_hash_equal(self):
        p = Path((("a", "b"), ("c", "d")))
        q = parse_path("ab.cd", ("a", "b", "c", "d"))
        assert p is q
        assert p == q and hash(p) == hash(q)
        assert len({p, q, EPSILON, Path()}) == 2
        assert p != Path((("a", "b"),))

    def test_never_equal_to_a_tuple(self):
        p = Path((("a", "b"),))
        assert p != (("a", "b"),) and (("a", "b"),) != p
        assert EPSILON != ()
        assert (("a", "b"),) not in {p}

    def test_immutable(self):
        p = Path((("a", "b"),))
        with pytest.raises(AttributeError):
            p.pairs = ()
        with pytest.raises(AttributeError):
            p.extra = 1
        with pytest.raises(AttributeError):
            del p.pairs
        assert p.pairs == (("a", "b"),)

    def test_repr(self):
        assert repr(Path((("a", "b"), ("c", "d")))) == "Path('ab.cd')"
        assert repr(EPSILON) == "Path('eps')"

    def test_copies_rehash(self):
        import copy
        import pickle
        p = Path((("a", "b"), ("b", "a")))
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and hash(q) == hash(p) and q.pairs == p.pairs

    def test_unsplittable_pair_rejected(self):
        with pytest.raises(ValueError):
            parse_path("zz", ("a", "b"))
