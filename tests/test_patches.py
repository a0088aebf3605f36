"""Patch consistency, unions, local rules, and the rule-file format."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cgd import (
    Alphabets,
    GraphError,
    PointedRawGraph,
    RawGraph,
    apply_local_rule,
    canonicalize,
    consistent,
    get_dynamics,
    glue,
    make_edge,
)
from cgd import cli, patches
from cgd.families import TAPE_ALPHABETS, bare_tape, grid_graph, single_head_tapes
from cgd.modulo import CanonicalGraph, disk, disk_at
from cgd.patches import (
    LocalRule,
    LocalRuleDynamics,
    PatchError,
    PatchInconsistencyError,
    RuleLookupError,
    RuleTable,
    identity_local_rule,
    parse_rule_file,
    serialize_rule_file,
)
from cgd.paths import EPSILON, format_path, parse_path
from cgd.portgraph import GraphFormatError, InvalidGraphError, validate
from test_golden import identity_rule_text

AB = Alphabets.make("ab")
ABL = Alphabets.make("ab", vertex_labels=("x", "y"))


def patch_graph(vertices, edges=(), vlabels=None, alphabets=ABL):
    return RawGraph(alphabets=alphabets, vertices=tuple(vertices),
                    edges=frozenset(edges), vertex_labels=vlabels or {})


class TestConsistency:
    def test_patch_agrees_with_itself(self):
        g = patch_graph(["u", "v"], [make_edge("u", "a", "v", "b")])
        assert consistent(g, g) is None
        assert glue([g, g]).edges == g.edges

    def test_shared_half_edge_must_agree(self):
        u, v, w = "u", "v", "w"
        g = patch_graph([u, v], [make_edge(u, "a", v, "b")])
        h = patch_graph([u, w], [make_edge(u, "a", w, "b")])
        assert consistent(g, h) == ("half-edge 'u':a leads to ('v', 'b') in "
                                    "one patch and ('w', 'b') in the other")

    def test_vertex_label_conflict(self):
        u = "u"
        g = patch_graph([u], vlabels={u: "x"})
        h = patch_graph([u], vlabels={u: "y"})
        assert "labelled both" in consistent(g, h)

    def test_edge_label_conflict(self):
        alph = Alphabets.make("ab", edge_labels=("p", "q"))
        u, v = "u", "v"
        e = make_edge(u, "a", v, "b")
        g = RawGraph(alphabets=alph, vertices=(u, v), edges=frozenset((e,)),
                     edge_labels={e: "p"})
        h = RawGraph(alphabets=alph, vertices=(u, v), edges=frozenset((e,)),
                     edge_labels={e: "q"})
        assert consistent(g, h) is not None

    def test_partial_labels_never_conflict(self):
        u = "u"
        g = patch_graph([u], vlabels={u: "x"})
        h = patch_graph([u])
        assert consistent(g, h) is None
        assert glue([g, h]).vertex_labels == {u: "x"}


class TestUnion:
    def test_disjoint(self):
        g = patch_graph(["u"])
        h = patch_graph(["v"])
        assert set(glue([g, h]).vertices) == set(g.vertices) | set(h.vertices)

    def test_glued_at_shared_vertex(self):
        u, v, w = "u", "v", "w"
        g = patch_graph([u, v], [make_edge(u, "a", v, "b")])
        h = patch_graph([v, w], [make_edge(v, "a", w, "b")])
        merged = glue([g, h])
        assert set(merged.vertices) == {u, v, w}
        assert len(merged.edges) == 2

    def test_inconsistent_union_raises(self):
        u = "u"
        g = patch_graph([u], vlabels={u: "x"})
        h = patch_graph([u], vlabels={u: "y"})
        with pytest.raises(PatchInconsistencyError):
            glue([g, h])


class TestApplyLocalRule:
    def test_identity_rule(self):
        edges = frozenset(make_edge(i, "a", (i + 1) % 4, "b") for i in range(4))
        raw = RawGraph(alphabets=AB, vertices=tuple(range(4)), edges=edges)
        X = canonicalize(PointedRawGraph(raw, 0))
        Y, corr = apply_local_rule(identity_local_rule(), X)
        assert Y == X
        assert corr == {v: v for v in X.vertices}

    def test_grid_rule_matches_direct_dynamics(self):
        rule = inflating_grid_local_rule()
        direct = get_dynamics("inflating-grid")
        for shape in ((1, 1), (2, 2), (2, 1)):
            X = grid_graph(*shape)
            Y, corr = apply_local_rule(rule, X)
            Yd, corr_d = direct.apply(X)
            assert Y == Yd
            assert corr == corr_d

    def test_conflicting_patches_reported_with_anchors(self):
        rule = degree_dependent_labeller()
        edges = frozenset((make_edge(0, "a", 1, "b"), make_edge(1, "a", 2, "b")))
        raw = RawGraph(alphabets=ABL, vertices=(0, 1, 2), edges=edges,
                       vertex_labels={i: "x" for i in range(3)})
        X = canonicalize(PointedRawGraph(raw, 0))
        with pytest.raises(PatchInconsistencyError) as err:
            apply_local_rule(rule, X)
        assert err.value.anchors is not None

    def test_patch_naming_one_host_vertex_twice_is_rejected(self):
        # On a vertex with an a-b self-loop the paths eps and ab both lead
        # back to the vertex itself, so the patch's two vertices would merge.
        loop = RawGraph(alphabets=AB, vertices=("v",),
                        edges=frozenset((make_edge("v", "a", "v", "b"),)))
        X = canonicalize(PointedRawGraph(loop, "v"))
        ids = (EPSILON, parse_path("ab", "ab"))
        patch = PointedRawGraph(RawGraph(alphabets=AB, vertices=ids), ids[0])
        rule = LocalRule(radius=0, rule=lambda view: patch)
        with pytest.raises(PatchError, match="^patch at eps has two vertices "
                                             "that resolve to the same host"):
            apply_local_rule(rule, X)

    def test_successor_outside_the_patch_is_rejected(self):
        X = canonicalize(PointedRawGraph(RawGraph(alphabets=AB, vertices=("v",)), "v"))
        patch = PointedRawGraph(RawGraph(alphabets=AB, vertices=(EPSILON,)), (EPSILON, 1))
        rule = LocalRule(radius=0, rule=lambda view: patch)
        with pytest.raises(PatchError, match="^patch at eps has a successor "):
            apply_local_rule(rule, X)

    def test_edge_endpoint_outside_the_patch_names_its_anchor(self):
        # The edge's far end (eps, 1) is missing from the vertex list.
        edge = make_edge(EPSILON, "c", (EPSILON, 1), "c")
        patch = PointedRawGraph(RawGraph(alphabets=TAPE_ALPHABETS, vertices=(EPSILON,),
                                         edges=frozenset((edge,))), EPSILON)
        rule = LocalRule(radius=0, rule=lambda view: patch)
        with pytest.raises(PatchError) as err:
            apply_local_rule(rule, bare_tape(2))
        assert type(err.value) is PatchError
        assert str(err.value) == (
            "patch at eps refers to (Path('eps'), 1), which is not one of "
            "its vertices or edges")

    def test_label_outside_the_patch_names_its_anchor(self):
        patch = PointedRawGraph(RawGraph(alphabets=TAPE_ALPHABETS, vertices=(EPSILON,),
                                         vertex_labels={(EPSILON, 1): "0"}), EPSILON)
        rule = LocalRule(radius=0, rule=lambda view: patch)
        with pytest.raises(PatchError, match=r"^patch at eps refers to "
                                             r"\(Path\('eps'\), 1\)"):
            apply_local_rule(rule, bare_tape(2))

    @pytest.mark.parametrize("bad", [frozenset((EPSILON,)), "u", (EPSILON, "1")])
    def test_an_id_that_is_no_token_names_its_anchor(self, bad):
        # Only the y-labelled vertex's patch, not the origin's, has a bad id.
        raw = RawGraph(alphabets=ABL, vertices=(0, 1),
                       edges=frozenset((make_edge(0, "a", 1, "b"),)),
                       vertex_labels={0: "x", 1: "y"})
        X = canonicalize(PointedRawGraph(raw, 0))
        identity = identity_local_rule(0).rule

        def rule(view):
            if view.vertex_labels[EPSILON] == "x":
                return identity(view)
            return PointedRawGraph(RawGraph(alphabets=ABL, vertices=(bad,)), bad)

        with pytest.raises(PatchError) as err:
            apply_local_rule(LocalRule(radius=0, rule=rule), X)
        assert type(err.value) is PatchError
        assert str(err.value) == (
            f"patch at {format_path(X.vertices[1])} has vertex id {bad!r}, "
            f"which is neither a path nor a (path, int) tag")


def degree_dependent_labeller():
    """Labels every visible vertex by the origin's degree: clashes on paths."""

    def rule(g: CanonicalGraph) -> PointedRawGraph:
        label = "x" if len(g.adjacency[EPSILON]) == 1 else "y"
        patch = RawGraph(alphabets=g.alphabets, vertices=g.vertices,
                         edges=g.edges,
                         vertex_labels={v: label for v in g.vertices})
        return PointedRawGraph(patch, EPSILON)

    return LocalRule(radius=0, rule=rule, name="degree-labeller")


def inflating_grid_local_rule():
    """The splitting rule expressed through radius-0 disks and patches.

    Children are fresh tokens tagged 1..4 (NW, NE, SW, SE); each patch also
    emits the halves of the cross-block edges it can see, which overlap
    with the neighbouring patches and must glue consistently.
    """
    NW, NE, SW, SE = 1, 2, 3, 4

    def kids(path):
        return {k: (path, k) for k in (NW, NE, SW, SE)}

    def rule(g: CanonicalGraph) -> PointedRawGraph:
        mine = kids(EPSILON)
        vertices = list(mine.values())
        edges = set()
        vlabels = {}
        if EPSILON in g.vertex_labels:
            for vid in mine.values():
                vlabels[vid] = g.vertex_labels[EPSILON]
        edges.add(make_edge(mine[NW], "b", mine[NE], "d"))
        edges.add(make_edge(mine[SW], "b", mine[SE], "d"))
        edges.add(make_edge(mine[NW], "c", mine[SW], "a"))
        edges.add(make_edge(mine[NE], "c", mine[SE], "a"))
        for e in g.edges:
            (x, p), (y, q) = tuple(e)
            if (p, q) in (("c", "a"), ("d", "b")):
                (x, p), (y, q) = (y, q), (x, p)
            if x != EPSILON and y != EPSILON:
                continue
            ks_x, ks_y = kids(x), kids(y)
            for vid in (*ks_x.values(), *ks_y.values()):
                if vid not in vertices:
                    vertices.append(vid)
            if (p, q) == ("a", "c"):
                edges.add(make_edge(ks_x[NW], "a", ks_y[SW], "c"))
                edges.add(make_edge(ks_x[NE], "a", ks_y[SE], "c"))
            else:
                edges.add(make_edge(ks_x[NE], "b", ks_y[NW], "d"))
                edges.add(make_edge(ks_x[SE], "b", ks_y[SW], "d"))
        patch = RawGraph(alphabets=g.alphabets, vertices=tuple(vertices),
                         edges=frozenset(edges), vertex_labels=vlabels)
        return PointedRawGraph(patch, mine[NW])

    return LocalRule(radius=0, rule=rule, name="inflating-grid-local")


RULE_FILE = """\
radius 0
disk
ports a b
vlabels x y
vertex eps label=x
pointer eps
maps-to
ports a b
vlabels x y
vertex eps label=y
pointer eps
disk
ports a b
vlabels x y
vertex eps label=y
pointer eps
maps-to
ports a b
vlabels x y
vertex eps label=x
pointer eps
"""


# One entry whose patch has two vertices, so vertex order is observable.
TWO_VERTEX_RULE_FILE = """\
radius 0
disk
ports a b
vlabels x y
vertex eps label=x
vertex ab
edge eps:a ab:b
pointer eps
maps-to
ports a b
vlabels x y
vertex eps label=y
vertex ab
edge eps:a ab:b
pointer eps
"""


@st.composite
def rule_soup(draw):
    """Rule-file text for fuzzing `parse_rule_file`: a radius line and up to
    three disk/maps-to sections of small graphs, maybe one line dropped and
    one stray line added.  Vertex tokens mix patch names (`ab.ba`, `eps~1`)
    with ones that do not parse as patch names."""
    def pick(pool):
        return draw(st.sampled_from(pool))

    tokens = ("eps", "ab", "ba.ab", "eps~1", "ab~2", "eps") * 2 + (
        "eps~01", "zz", ".", "~1", "eps~", "eps~x", "ab.", "eps~\u00b2")

    def graph():
        ids = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=3,
                            unique=True))
        lines = ["ports a b", "vlabels x y"]
        lines += [f"vertex {v} {pick(('label=x', 'label=y', '') * 3 + ('label=z',))}"
                  for v in ids]
        for _ in range(draw(st.integers(0, 2))):
            lines.append(f"edge {pick(ids)}:a {pick(ids)}:{pick('bbbc')}")
        return lines + [f"pointer {pick(ids)}"]

    text = [pick(("radius x", "radius", "radius 1 2", "radius \u00b2", "# none"))
            if draw(st.integers(0, 9)) == 9 else pick(("radius 0", "radius 1"))]
    for _ in range(draw(st.integers(0, 3))):
        text += ["disk"] + graph() + ["maps-to"] + graph()
    if draw(st.integers(0, 5)) == 0:
        del text[draw(st.integers(0, len(text) - 1))]
    if draw(st.integers(0, 5)) == 0:
        text.insert(draw(st.integers(0, len(text))),
                    pick(("disk", "maps-to", "radius 0", "junk", "")))
    return "".join(l + "\n" for l in text)


class TestRuleFiles:
    def test_parse_and_apply(self):
        table = parse_rule_file(RULE_FILE)
        assert table.radius == 0
        dyn = LocalRuleDynamics(table.as_rule())
        raw = RawGraph(alphabets=ABL, vertices=("v",), vertex_labels={"v": "x"})
        X = canonicalize(PointedRawGraph(raw, "v"))
        Y, _ = dyn.apply(X)
        assert Y.vertex_labels[EPSILON] == "y"
        assert dyn.apply(Y)[0] == X

    def test_round_trip(self):
        for rule_file in (RULE_FILE, TWO_VERTEX_RULE_FILE):
            table = parse_rule_file(rule_file)
            text = serialize_rule_file(table)
            again = parse_rule_file(text)
            assert again.radius == table.radius
            assert set(again.entries) == set(table.entries)
            assert again.entries == table.entries
            assert serialize_rule_file(again) == text

    def test_identity_rule_table_round_trips(self):
        # The identity rule's patches are raw graphs named like the disk, so
        # a table of them reads back equal from its text.
        rule = identity_local_rule(1)
        entries = {}
        for X in single_head_tapes(3) + [grid_graph(3, 3)]:
            for u in X.vertices:
                view = disk_at(X, u, 1)
                entries.setdefault(view, rule.rule(view))
        text = serialize_rule_file(RuleTable(radius=1, entries=entries))
        assert parse_rule_file(text).entries == entries

    def test_lookup_miss(self):
        table = parse_rule_file(RULE_FILE)
        rule = table.as_rule()
        raw = RawGraph(alphabets=ABL, vertices=(0, 1),
                       edges=frozenset((make_edge(0, "a", 1, "b"),)),
                       vertex_labels={0: "x", 1: "x"})
        X = canonicalize(PointedRawGraph(raw, 0))
        with pytest.raises(RuleLookupError):
            apply_local_rule(rule, X)

    def test_duplicate_disk(self):
        # The second disk lists its header lines in the other order and the
        # label of the first: one canonical disk, so one entry too many.
        second = "disk\nports a b\nvlabels x y\nvertex eps label=y\n"
        assert RULE_FILE.count(second) == 1
        text = RULE_FILE.replace(
            second, "disk\nvlabels x y\nports a b\nvertex eps label=x\n")
        with pytest.raises(GraphFormatError,
                           match="^line 12: duplicate disk entry in rule file$"):
            parse_rule_file(text)

    def test_missing_radius(self):
        with pytest.raises(GraphFormatError, match="radius"):
            parse_rule_file(RULE_FILE.replace("radius 0\n", ""))

    def test_unpaired_disk(self):
        with pytest.raises(GraphFormatError):
            parse_rule_file("radius 0\ndisk\nports a b\nvertex eps\npointer eps\n")

    def test_fresh_vertex_tokens(self):
        text = """\
radius 0
disk
ports a b
vlabels x y
vertex eps label=x
pointer eps
maps-to
ports a b
vlabels x y
vertex eps label=x
vertex eps~1 label=y
edge eps:a eps~1:b
pointer eps
"""
        table = parse_rule_file(text)
        (patch,) = table.entries.values()
        assert patch.graph.vertices == (EPSILON, (EPSILON, 1))
        assert serialize_rule_file(table)  # fresh tags serialize back

    @pytest.mark.parametrize("bad", [frozenset((EPSILON,)), "u", (EPSILON, "1")])
    def test_serializing_an_id_that_is_no_token(self, bad):
        view = next(iter(parse_rule_file(RULE_FILE).entries))
        patch = PointedRawGraph(RawGraph(alphabets=ABL, vertices=(bad,)), bad)
        with pytest.raises(GraphFormatError) as err:
            serialize_rule_file(RuleTable(radius=0, entries={view: patch}))
        assert str(err.value) == f"cannot serialize patch id {bad!r}"

    @pytest.mark.parametrize("token", ["zz", ".", "~1", "ab."])
    def test_unparsable_patch_vertex_names_its_token(self, token):
        text = ("radius 0\ndisk\nports a b\nvertex eps\npointer eps\nmaps-to\n"
                f"ports a b\nvertex eps\nvertex {token}\nedge eps:a {token}:b\n"
                "pointer eps\n")
        with pytest.raises(GraphFormatError, match=f"^line 9: bad patch vertex '{token}': "):
            parse_rule_file(text)

    @pytest.mark.parametrize("line", ["radiusfoo 1", "radius_1 1", "radius1"])
    def test_radius_line_needs_the_exact_keyword(self, line):
        text = RULE_FILE.replace("radius 0\n", f"# a comment\n{line}\n")
        with pytest.raises(GraphFormatError,
                           match=f"^line 2: content before the radius line: '{line}'$"):
            parse_rule_file(text)

    @pytest.mark.parametrize("line, message", [
        ("radius", "bad radius line 'radius'"),
        ("radius 1 2", "bad radius line 'radius 1 2'"),
        ("radius 0", "bad radius line 'radius 0'"),
    ])
    def test_bad_radius_line_names_its_line(self, line, message):
        with pytest.raises(GraphFormatError, match=f"^line 2: {message}$"):
            parse_rule_file(RULE_FILE.replace("radius 0\n", f"radius 0\n{line}\n"))

    @pytest.mark.parametrize("first, second", [("eps~1", "eps~01"),
                                               ("ab~2", "ab~002"),
                                               ("ab.ba", "ab.ba")])
    def test_patch_ids_naming_one_token(self, first, second):
        text = ("radius 0\ndisk\nports a b\nvertex eps\npointer eps\nmaps-to\n"
                f"ports a b\nvertex eps\nvertex {first}\n\n"
                f"vertex {second}  # again\npointer eps\n")
        if first == second:
            # parse_graph itself rejects a repeated id, at its file line.
            match = f"^line 11: duplicate vertex '{second}'$"
        else:
            match = (f"^line 11: patch vertices '{first}' and '{second}' "
                     f"name the same token$")
        with pytest.raises(GraphFormatError, match=match):
            parse_rule_file(text)

    def test_errors_inside_a_section_name_the_file_line(self):
        text = RULE_FILE.replace("vertex eps label=y\npointer eps\ndisk",
                                 "vertex eps label=y\nbogus\npointer eps\ndisk")
        with pytest.raises(GraphFormatError, match="^line 11: unknown keyword 'bogus'$"):
            parse_rule_file(text)
        with pytest.raises(GraphFormatError, match="^line 3: maps-to without"):
            parse_rule_file("radius 0\n\nmaps-to\n")
        # A label, edge label or pointer names its own line; a missing line
        # or a dangling or disconnected disk names its disk or maps-to line.
        patch_end = "vertex eps label=y\npointer eps\ndisk"
        first_disk_end = "vertex eps label=x\npointer eps\nmaps-to"
        one_disk = "disk\nports a b\nvertex eps\npointer eps\n"
        cases = [
            (RULE_FILE.replace(patch_end, "vertex eps label=1\npointer eps\ndisk"),
             GraphFormatError, "line 10: unknown vertex label '1' on 'eps'"),
            (TWO_VERTEX_RULE_FILE.replace("ab:b\n", "ab:b\nedge eps:b ab:a label=z\n", 1),
             GraphFormatError, "line 8: unknown edge label 'z'"),
            (RULE_FILE.replace(first_disk_end, "vertex eps label=x\npointer x\nmaps-to"),
             GraphFormatError, "line 6: pointer 'x' is not a declared vertex"),
            (RULE_FILE.replace("maps-to\nports a b\n", "maps-to\n", 1),
             GraphFormatError, "line 7: missing ports line"),
            (RULE_FILE.replace(first_disk_end, "vertex eps label=x\nmaps-to"),
             GraphFormatError, "line 2: missing pointer line"),
            (RULE_FILE + one_disk, GraphFormatError, "line 22: unpaired disk section"),
            (RULE_FILE.replace("radius 0\n", "radius 0\n" + one_disk),
             GraphFormatError, "line 2: unpaired disk section"),
            ("radius 0\n" + one_disk * 2, GraphFormatError, "line 2: unpaired disk section"),
            (RULE_FILE.replace(patch_end, "vertex eps label=y\nvertex zz\npointer eps\ndisk"),
             GraphFormatError, "line 11: bad patch vertex 'zz': cannot split 'zz' "
                               "into two ports from ('a', 'b')"),
            (RULE_FILE.replace(first_disk_end, "vertex eps label=x\nvertex x\n"
                                               "pointer eps\nmaps-to"),
             InvalidGraphError, "line 2: graph is not connected to the origin: "
                                "unreachable ['x']"),
        ]
        for text, kind, message in cases:
            with pytest.raises(kind) as err:
                parse_rule_file(text)
            assert str(err.value) == message

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=rule_soup())
    def test_rule_soup_parses_or_raises_a_graph_error(self, text):
        try:
            table = parse_rule_file(text)
        except (GraphFormatError, InvalidGraphError) as err:
            assert str(err) == "missing radius line" or re.match(r"line \d+: ", str(err))
            return
        for view, patch in table.entries.items():
            assert validate(view.to_pointed_raw().graph) is None
            assert validate(patch.graph) is None


def rule_file_outcome(parse, text):
    """What a rule-file parser makes of `text`: its entries and their text,
    or its error's type and message."""
    try:
        table = parse(text)
    except GraphError as err:
        return type(err), str(err)
    return table.entries, serialize_rule_file(table)


def reads_a_disk_as_a_patch(text):
    """Whether the old parser pairs a `disk` section with a `disk`."""
    kinds = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    kinds = [k for k in kinds if k in ("disk", "maps-to")]
    return ("disk", "disk") in zip(kinds[::2], kinds[1::2])


def assert_parsed_as_before(text):
    new, old = (rule_file_outcome(parse, text)
                for parse in (parse_rule_file, oracles.parse_rule_file))
    if isinstance(old[0], type):
        # An error: the same type and text, which now also names its line.
        assert new[0] is old[0]
        assert new[1] == old[1] or re.fullmatch(r"line \d+: " + re.escape(old[1]), new[1])
    elif reads_a_disk_as_a_patch(text):
        assert new[0] is GraphFormatError and new[1].endswith(": unpaired disk section")
    else:
        assert new == old


# Disk and patch blocks that declare different headers, and a patch whose
# ports line follows its vertex lines.
MIXED_HEADER_RULE_FILE = """\
radius 0
disk
ports a b
vlabels x y
vertex eps label=x
pointer eps
maps-to
vertex eps label=x
vertex ab label=x
edge eps:a ab:b label=e
pointer eps
vlabels x
elabels e
ports a b
disk
ports a b
vlabels x y
elabels e
vertex eps label=y
pointer eps
maps-to
ports a b
vlabels x y
vertex eps label=y
pointer eps
"""


class TestAgainstTheOldParser:
    """`parse_rule_file` against the parser it replaced (`oracles`): equal
    tables and text, or the same error, which may now name its line."""

    def test_bench_identity_table(self):
        assert_parsed_as_before(identity_rule_text())

    @pytest.mark.parametrize("name", ["identity", "moving-head"])
    def test_inverse_rules_of_the_cli_kits(self, name):
        table = cli._tape_kit(get_dynamics(name)).inverse.table
        assert_parsed_as_before(serialize_rule_file(table.local_rule()))

    @pytest.mark.parametrize("text", [
        RULE_FILE, TWO_VERTEX_RULE_FILE, MIXED_HEADER_RULE_FILE,
        # The old parser read the second disk as the first one's patch.
        "radius 0\n" + "disk\nports a b\nvertex eps\npointer eps\n" * 2,
    ], ids=["one-vertex", "two-vertex", "mixed-headers", "disk-after-disk"])
    def test_fixed_rule_files(self, text):
        assert_parsed_as_before(text)

    def test_each_block_keeps_its_own_header(self):
        table = parse_rule_file(MIXED_HEADER_RULE_FILE)
        first, second = sorted(table.entries,
                               key=lambda view: len(view.alphabets.edge_labels))
        assert first.alphabets == Alphabets.make("ab", "xy")
        assert table.entries[first].graph.alphabets == Alphabets.make("ab", "x", "e")
        assert second.alphabets == Alphabets.make("ab", "xy", "e")
        assert table.entries[second].graph.alphabets == Alphabets.make("ab", "xy")
        assert table.entries[first].graph.vertices == (EPSILON, parse_path("ab", "ab"))

    def test_a_patch_text_is_read_under_its_own_ports(self):
        # `ab` is a path under ports a b, and no path under ports c d.
        text = MIXED_HEADER_RULE_FILE.replace(
            "disk\nports a b\nvlabels x y\nelabels e",
            "disk\nports c d\nvlabels x y\nelabels e").replace(
            "maps-to\nports a b\nvlabels x y\nvertex eps label=y",
            "maps-to\nports c d\nvlabels x y\nvertex eps label=y\nvertex ab")
        with pytest.raises(GraphFormatError, match="^line 25: bad patch vertex 'ab': "):
            parse_rule_file(text)
        assert_parsed_as_before(text)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=rule_soup())
    def test_rule_soup(self, text):
        assert_parsed_as_before(text)


class TestRuleFileWork:
    def test_identity_table_builds_one_alphabet_and_copies_no_patch(self, monkeypatch):
        # 57 entries, 114 blocks under one header; each block built its own
        # alphabet, and each patch was copied through `relabel`.
        text = identity_rule_text()
        built, copied = [], []
        real_init, real_relabel = Alphabets.__post_init__, patches.relabel
        monkeypatch.setattr(Alphabets, "__post_init__",
                            lambda self: built.append(1) or real_init(self))
        monkeypatch.setattr(patches, "relabel",
                            lambda *a, **k: copied.append(1) or real_relabel(*a, **k))
        assert len(parse_rule_file(text).entries) == 57
        assert (len(built), len(copied)) == (1, 0)
