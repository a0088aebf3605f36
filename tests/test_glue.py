"""`patches.glue` against the earlier pairwise-then-fold gluing code.

Both the local-rule path and the reversible extension must produce the same
graphs and correspondences as the references in `oracles.py`, and fail with
the same exception types; a local rule must also report the same anchors.
"""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgd import (
    Alphabets,
    PointedRawGraph,
    RawGraph,
    apply_local_rule,
    apply_product,
    canonicalize,
    consistent,
    glue,
    make_edge,
)
from cgd.blocks import (
    MarkDynamics,
    MarkSpace,
    ReversibleExtension,
    UnionInconsistencyError,
    mark,
)
from cgd.dynamics import FuncDynamics
from cgd.families import bare_tape, grid_graph, single_head_tapes
from cgd.modulo import disk_at, shift_with_names
from cgd.patches import (
    LocalRule,
    Patch,
    PatchInconsistencyError,
    RuleLookupError,
    _translate_patch,
    identity_local_rule,
    parse_rule_file,
)
from cgd.paths import EPSILON, parse_path
from cgd.portgraph import GraphError

from oracles import FoldingExtension, apply_local_rule_pairwise, union_pair
from test_blocks import TAPE_SPACE, moving_head_kit
from test_patches import (
    ABL,
    RULE_FILE,
    degree_dependent_labeller,
    inflating_grid_local_rule,
)

AB = Alphabets.make("ab")
AB0 = Alphabets.make("ab", vertex_labels=("0",))
AB01 = Alphabets.make("ab", vertex_labels=("0", "1"))
DIGITS = Alphabets.make("ab", vertex_labels=("0", "1", "2", "3"))


def ring(n, alphabets=AB0, labels=None):
    edges = frozenset(make_edge(i, "a", (i + 1) % n, "b") for i in range(n))
    raw = RawGraph(alphabets=alphabets, vertices=tuple(range(n)), edges=edges,
                   vertex_labels=labels or {i: "0" for i in range(n)})
    return canonicalize(PointedRawGraph(raw, 0))


def outcome(fn, *args):
    """(graph, correspondence) on success, else (type, message, anchors)."""
    try:
        return fn(*args)
    except GraphError as err:
        return type(err), str(err), getattr(err, "anchors", None)


def assert_rule_agrees(rule, X):
    got = outcome(apply_local_rule, rule, X)
    assert got == outcome(apply_local_rule_pairwise, rule, X)
    return got


class TestLocalRuleAgainstOracle:
    @pytest.mark.parametrize("radius", [0, 1])
    def test_identity_rule_on_tapes_and_rings(self, radius):
        rule = identity_local_rule(radius)
        graphs = [bare_tape(n, AB0) for n in range(1, 8)]
        graphs += [ring(n) for n in range(1, 7)]
        for X in graphs:
            Y, corr = assert_rule_agrees(rule, X)
            assert Y == X
            assert corr == {v: v for v in X.vertices}

    def test_grid_rule_on_grids(self):
        rule = inflating_grid_local_rule()
        for shape in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2)):
            Y, _corr = assert_rule_agrees(rule, grid_graph(*shape))
            assert len(Y.vertices) == 4 * shape[0] * shape[1]

    def test_degree_labeller_conflict_on_a_path(self):
        X = ring(3, ABL, {i: "x" for i in range(3)})
        Y, _corr = assert_rule_agrees(degree_dependent_labeller(), X)
        assert set(Y.vertex_labels.values()) == {"y"}
        path = RawGraph(alphabets=ABL, vertices=(0, 1, 2),
                        edges=frozenset((make_edge(0, "a", 1, "b"),
                                         make_edge(1, "a", 2, "b"))),
                        vertex_labels={i: "x" for i in range(3)})
        got = assert_rule_agrees(degree_dependent_labeller(),
                                 canonicalize(PointedRawGraph(path, 0)))
        assert got[0] is PatchInconsistencyError

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_degree_labeller_on_random_graphs(self, data):
        assert_rule_agrees(degree_dependent_labeller(), data.draw(graphs()))

    def test_first_pair_in_order_is_not_first_found(self):
        # A 4-ring with distinct labels, so each disk identifies its anchor.
        # The patch at anchor 1 mislabels anchor 2 and the patch at anchor 0
        # mislabels anchor 3.  A pass in index order meets the (1, 2)
        # conflict first; the lexicographically first pair is (0, 3).
        X = ring(4, DIGITS, {i: str(i) for i in range(4)})
        A = X.vertices
        claims = {}
        for i, j in ((0, 3), (1, 2)):
            to_anchor = shift_with_names(X, A[i])[1]
            claims[X.vertex_labels[A[i]]] = to_anchor[A[j]]

        def rule(view):
            own = view.graph.vertex_labels[EPSILON]
            me = frozenset((EPSILON,))
            labels = {me: own}
            if own in claims:
                labels[frozenset((claims[own],))] = own
            graph = RawGraph(alphabets=DIGITS, vertices=tuple(labels),
                             vertex_labels=labels)
            return Patch(graph, me)

        got = assert_rule_agrees(LocalRule(radius=0, rule=rule), X)
        assert got[0] is PatchInconsistencyError
        assert got[2] == (A[0], A[3])


    def test_rule_lookup_error_text(self):
        # RULE_FILE knows only isolated vertices; a ring's disks have rims.
        X = ring(3, ABL, {0: "x", 1: "y", 2: "x"})
        got = assert_rule_agrees(parse_rule_file(RULE_FILE).as_rule(), X)
        assert got[0] is RuleLookupError
        assert got[1] == "no rule entry for a radius-0 disk of 3 vertices"

    @pytest.mark.parametrize("labels", ["0000", "0001", "0110", "0101", "0123"])
    def test_neighbour_claims_name_the_same_anchors(self, labels):
        # Each patch gives its anchor's label to the anchor and to the vertex
        # one ab hop away, so the patches of differently labelled neighbours
        # conflict on that vertex.  The claimed token is a non-empty path.
        step = parse_path("ab", ("a", "b"))

        def rule(view):
            me = frozenset((EPSILON,))
            own = view.graph.vertex_labels[EPSILON]
            ids = {EPSILON: me, step: frozenset((step,))}
            graph = RawGraph(alphabets=DIGITS, vertices=tuple(ids.values()),
                             edges=frozenset((make_edge(me, "a", ids[step], "b"),)),
                             vertex_labels={me: own, ids[step]: own})
            return Patch(graph, me)

        X = ring(4, DIGITS, dict(enumerate(labels)))
        got = assert_rule_agrees(LocalRule(radius=1, rule=rule), X)
        if len(set(labels)) == 1:
            assert got[0] == X
        else:
            assert got[0] is PatchInconsistencyError and got[2] is not None


@st.composite
def graphs(draw, max_vertices=6):
    """Connected graphs over ABL: a random spanning tree plus extra edges."""
    n = draw(st.integers(1, max_vertices))
    free = {v: ["a", "b"] for v in range(n)}
    edges = []
    for v in range(1, n):
        u = draw(st.sampled_from([u for u in range(v) if free[u]]))
        p, q = draw(st.sampled_from(free[u])), draw(st.sampled_from(free[v]))
        free[u].remove(p)
        free[v].remove(q)
        edges.append(make_edge(u, p, v, q))
    halves = [(v, p) for v in range(n) for p in free[v]]
    for _ in range(draw(st.integers(0, len(halves) // 2))):
        h1, h2 = draw(st.sampled_from(list(combinations(halves, 2))))
        halves = [h for h in halves if h not in (h1, h2)]
        edges.append(frozenset((h1, h2)))
        if len(halves) < 2:
            break
    labels = {v: draw(st.sampled_from(["x", "y"])) for v in range(n)}
    raw = RawGraph(alphabets=ABL, vertices=tuple(range(n)),
                   edges=frozenset(edges), vertex_labels=labels)
    return canonicalize(PointedRawGraph(raw, 0))


def marked_variants(X, space):
    """X with every non-empty proper subset of its vertices marked."""
    gate = MarkDynamics(space)
    for k in range(1, len(X.vertices)):
        for subset in combinations(X.vertices, k):
            yield apply_product(gate, subset, X)[0]


class TestExtensionAgainstOracle:
    def test_moving_head_extensions_on_partly_marked_tapes(self):
        kit = moving_head_kit()
        pairs = [(ext, FoldingExtension(ext.base, ext.exception_bound,
                                        ext.space, name=ext.name))
                 for ext in (kit.forward_ext, kit.backward_ext)]
        checked = 0
        for X in single_head_tapes(3):
            for M in marked_variants(TAPE_SPACE.lift(X), TAPE_SPACE):
                for ext, oracle in pairs:
                    got = outcome(ext.apply, M)
                    assert got == outcome(oracle.apply, M)
                    checked += 1
        assert checked > 100

    def test_seam_conflict(self):
        # A label-flipping base dynamics relabels the frozen boundary of the
        # unmarked component (the same case as in test_blocks).
        space = MarkSpace.for_base(AB01)

        def flip(X):
            flipped = {v: {"0": "1", "1": "0"}[l] for v, l in X.vertex_labels.items()}
            raw = RawGraph(alphabets=AB01, vertices=X.vertices, edges=X.edges,
                           vertex_labels=flipped)
            return (canonicalize(PointedRawGraph(raw, EPSILON)),
                    {v: v for v in X.vertices})

        flipper = FuncDynamics("label-flipper", flip, AB01)
        triangle = RawGraph(
            alphabets=AB01, vertices=("m", "b1", "b2"),
            edges=frozenset((make_edge("m", "a", "b1", "b"),
                             make_edge("m", "b", "b2", "a"),
                             make_edge("b1", "a", "b2", "b"))),
            vertex_labels={"m": "0", "b1": "0", "b2": "0"})
        M = mark(space.lift(canonicalize(PointedRawGraph(triangle, "m"))), space)
        got = outcome(ReversibleExtension(flipper, 0, space).apply, M)
        assert got == outcome(FoldingExtension(flipper, 0, space).apply, M)
        assert got[0] is UnionInconsistencyError
        assert "transformed region conflicts with the frozen part:" in got[1]


class TestGlue:
    U, V, W = (frozenset((t,)) for t in "uvw")

    def piece(self, vertices, edges=(), labels=None):
        return RawGraph(alphabets=ABL, vertices=tuple(vertices),
                        edges=frozenset(edges), vertex_labels=labels or {})

    def test_union_is_glue_of_two(self):
        g = self.piece([self.U, self.V], [make_edge(self.U, "a", self.V, "b")])
        h = self.piece([self.V, self.W], [make_edge(self.V, "a", self.W, "b")],
                       {self.W: "x"})
        assert union_pair(g, h) == glue([g, h])
        assert glue([g, h]).vertices == (self.U, self.V, self.W)

    @pytest.mark.parametrize("conflict", ["token", "half-edge", "label", "alphabets"])
    def test_reports_the_first_pair_with_its_message(self, conflict):
        clean = self.piece([self.U])
        bad = {
            "token": self.piece([frozenset("uv")]),
            "half-edge": self.piece([self.U, self.W],
                                    [make_edge(self.U, "a", self.W, "b")]),
            "label": self.piece([self.U], labels={self.U: "y"}),
            "alphabets": RawGraph(alphabets=AB, vertices=(self.U,)),
        }[conflict]
        first = self.piece([self.U, self.V], [make_edge(self.U, "a", self.V, "b")],
                           {self.U: "x"})
        pieces = [clean, first, clean, bad]
        with pytest.raises(PatchInconsistencyError) as err:
            glue(pieces)
        expected = next((i, j) for i, j in combinations(range(4), 2)
                        if consistent(pieces[i], pieces[j]) is not None)
        assert err.value.pair == expected
        assert str(err.value) == consistent(*(pieces[k] for k in expected))

    def test_mismatch_inside_one_piece_is_left_to_validation(self):
        overlapping = self.piece([self.U, frozenset("uv")])
        assert glue([overlapping, self.piece([self.W])]).vertices == \
            (self.U, frozenset("uv"), self.W)


def identity_patches(X, radius):
    """The translated patches of the identity rule: always consistent."""
    rule = identity_local_rule(radius)
    return [_translate_patch(rule.rule(disk_at(X, u, radius)), X, u).graph
            for u in X.vertices]


def assert_same_up_to_vertex_order(G, H):
    assert len(G.vertices) == len(H.vertices)
    assert set(G.vertices) == set(H.vertices)
    assert (G.alphabets, G.edges, G.vertex_labels, G.edge_labels) == \
        (H.alphabets, H.edges, H.vertex_labels, H.edge_labels)


GLUE_PROPERTY = settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)


class TestGlueProperties:
    @GLUE_PROPERTY
    @given(st.data())
    def test_commutative_on_consistent_patches(self, data):
        X = data.draw(graphs())
        pieces = identity_patches(X, data.draw(st.integers(0, 2)))
        assert_same_up_to_vertex_order(glue(pieces),
                                       glue(data.draw(st.permutations(pieces))))
        G, H = data.draw(st.sampled_from(pieces)), data.draw(st.sampled_from(pieces))
        assert_same_up_to_vertex_order(glue([G, H]), glue([H, G]))

    @GLUE_PROPERTY
    @given(st.data())
    def test_idempotent(self, data):
        X = data.draw(graphs())
        pieces = identity_patches(X, data.draw(st.integers(0, 2)))
        for G in pieces:
            assert glue([G, G]) == glue([G])
        assert glue(pieces + pieces) == glue(pieces)
