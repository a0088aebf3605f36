"""Marked graphs, mark gates, reversible extensions, conjugate marks, products."""
import gc
import random
import sys
import weakref
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgd import (
    Alphabets,
    PointedRawGraph,
    RawGraph,
    apply_product,
    canonicalize,
    get_dynamics,
    make_edge,
    mark,
)
from cgd import cli, modulo
from cgd.blocks import (
    MAX_LOCALITY_RADIUS,
    BlockKit,
    MarkDynamics,
    MarkError,
    MarkSpace,
    ReversibleExtension,
    ShiftedDynamics,
    anchored_locality_radius,
    find_locality_radius,
    footprint,
    gate_footprint,
    mark_with_names,
)
from cgd.dynamics import (
    Dynamics,
    DynamicsError,
    FuncDynamics,
    IdentityDynamics,
    RawStepDynamics,
    identity_correspondence,
)
from cgd.families import (
    TAPE_ALPHABETS,
    bare_tape,
    bare_tapes,
    shift_closure,
    single_head_tape,
    single_head_tapes,
    turtle_graphs,
)
from cgd.modulo import CanonicalGraph, ball, canonicalize_with_names, disk_at, shift
from cgd.patches import LocalRuleDynamics, parse_rule_file, serialize_rule_file
from cgd.paths import EPSILON, format_path
from cgd.portgraph import GraphError, relabel, validate
from cgd.reversibility import (
    GraphFamily,
    InverseConstructionError,
    build_inverse,
    check_bijective_on_family,
    enumerate_family,
)
import oracles
from oracles import CompositeDynamics, SlicingMarks, mark_with_names_by_slicing
from test_cli import moving_head_twice_rule_text, tape_identity_rule_text
from test_dynamics import origin_label_flipper

AB0 = Alphabets.make("ab", vertex_labels=("0",))
AB01 = Alphabets.make("ab", vertex_labels=("0", "1"))
ABXY = Alphabets.make("ab", vertex_labels=("x", "y"))
SPACE = MarkSpace.for_base(AB0)
TAPE_SPACE = MarkSpace.for_base(TAPE_ALPHABETS)


def moving_head_kit(max_len=4):
    mh = get_dynamics("moving-head")
    members = bare_tapes(max_len) + single_head_tapes(max_len)
    fam = GraphFamily.from_graphs(shift_closure(members), TAPE_ALPHABETS)
    return BlockKit.from_family(mh, fam)


def marked_graph(vertices, edges, labels, pointer, space=TAPE_SPACE):
    raw = RawGraph(alphabets=space.marked, vertices=tuple(vertices),
                   edges=frozenset(edges), vertex_labels=dict(labels))
    return canonicalize(PointedRawGraph(raw, pointer))


class TestMarkSpace:
    def test_alphabets(self):
        assert SPACE.marked.ports == ("a0", "a1", "b0", "b1")
        assert SPACE.marked.vertex_labels == ("00", "01")

    def test_token_round_trips(self):
        assert SPACE.split["a1"] == ("a", 1)
        assert SPACE.split["b0"] == ("b", 0)
        assert SPACE.toggled["a0"] == "a1"
        assert SPACE.split["01"] == ("0", 1)
        assert SPACE.toggled["01"] == "00"

    def test_mixed_length_base_ports_round_trip(self):
        mixed = MarkSpace.for_base(Alphabets.make(("a", "a0"),
                                                  vertex_labels=("0",)))
        assert mixed.split["a0"] == ("a", 0)
        assert mixed.split["a01"] == ("a0", 1)
        assert mixed.toggled["a00"] == "a01"

    def test_needs_vertex_labels(self):
        with pytest.raises(MarkError, match="vertex alphabet is empty"):
            MarkSpace.for_base(Alphabets.make("ab"))

    def test_from_marked_recovers_the_space(self):
        mixed = Alphabets.make(("a", "a0"), vertex_labels=("0",))
        for space in (TAPE_SPACE, MarkSpace.for_base(AB01), SPACE,
                      MarkSpace.for_base(mixed)):
            assert MarkSpace.from_marked(space.marked) == space

    def test_from_marked_rejects_undoubled_alphabets(self):
        for alphabets in (TAPE_ALPHABETS, AB01,
                          Alphabets.make(("a0", "a1", "b0"), vertex_labels=("00", "01")),
                          Alphabets.make(("a0", "a1"), vertex_labels=("00", "02"))):
            with pytest.raises(GraphError):
                MarkSpace.from_marked(alphabets)

    def test_lift_drop_round_trip(self, ab_family_4):
        for X in list(ab_family_4)[::9]:
            lifted = SPACE.lift(X)
            assert SPACE.uniform_mark(lifted) == 0
            assert SPACE.is_mark_consistent(lifted)
            assert SPACE.drop(lifted) == X

    def test_lift_preserves_name_shape(self):
        X = canonicalize(PointedRawGraph(
            RawGraph(alphabets=AB0, vertices=(0, 1),
                     edges=frozenset((make_edge(0, "a", 1, "b"),)),
                     vertex_labels={0: "0", 1: "0"}), 0))
        lifted, names = by_position(SPACE.lift)(X)
        assert {format_path(v): format_path(w) for v, w in names.items()} == \
               {"eps": "eps", "ab": "a0b0"}

    def test_drop_refuses_a_port_used_both_ways(self):
        # eps reaches a mark-0 vertex through a0 and a mark-1 one through a1.
        raw = RawGraph(alphabets=SPACE.marked, vertices=(0, 1, 2),
                       edges=frozenset((make_edge(0, "a0", 1, "b0"),
                                        make_edge(0, "a1", 2, "b0"))),
                       vertex_labels={0: "00", 1: "00", 2: "01"})
        X = canonicalize(PointedRawGraph(raw, 0))
        assert SPACE.is_mark_consistent(X)
        with pytest.raises(MarkError,
                           match="vertex eps uses port a both ways, as a0 and a1"):
            SPACE.drop(X)

    def test_drop_is_valid_or_refused(self):
        family = enumerate_family(SPACE.marked, 3,
                                  raw_prune=SPACE.raw_mark_consistent)
        dropped = refused = 0
        for X in family:
            try:
                Y = SPACE.drop(X)
            except MarkError as err:
                assert "both ways" in str(err)
                refused += 1
            else:
                assert validate(Y.to_pointed_raw().graph) is None
                dropped += 1
        assert (dropped, refused) == (156, 852)

    def test_lift_and_drop_name_both_alphabets(self):
        X = canonicalize(PointedRawGraph(
            RawGraph(alphabets=AB0, vertices=("v",), vertex_labels={"v": "0"}), "v"))
        base = "Alphabets(ports=('a', 'b'), vertex_labels=('0',), edge_labels=())"
        marked = ("Alphabets(ports=('a0', 'a1', 'b0', 'b1'), "
                  "vertex_labels=('00', '01'), edge_labels=())")
        with pytest.raises(MarkError) as err:
            SPACE.lift(SPACE.lift(X))
        assert str(err.value) == f"lift expects alphabets {base}, got {marked}"
        with pytest.raises(MarkError) as err:
            SPACE.drop(X)
        assert str(err.value) == f"drop expects alphabets {marked}, got {base}"
        assert SPACE.mark_consistency_violation(X) == (
            "graph is not over the marked alphabets")

    def test_inconsistent_detected(self):
        bad = RawGraph(alphabets=SPACE.marked, vertices=(0, 1),
                       edges=frozenset((make_edge(0, "a1", 1, "b0"),)),
                       vertex_labels={0: "00", 1: "00"})
        X = canonicalize(PointedRawGraph(bad, 0))
        assert SPACE.mark_consistency_violation(X) is not None
        assert not SPACE.raw_mark_consistent(bad)


MIXED_SPACE = MarkSpace.for_base(Alphabets.make(
    ("a", "a0", "b"), vertex_labels=("0", "1"), edge_labels=("e",)))


def outcome(f, *args):
    """f's result, or the type and text of the GraphError it raised."""
    try:
        return f(*args)
    except GraphError as err:
        return type(err), str(err)


def agree_on_predicates(space, X, raw):
    old = SlicingMarks(space)
    assert space.mark_consistency_violation(X) == old.mark_consistency_violation(X)
    assert space.is_mark_consistent(X) == old.is_mark_consistent(X)
    assert space.raw_mark_consistent(raw) == old.raw_mark_consistent(raw)
    if all(v in X.vertex_labels for v in X.vertices):
        expected = 0 if old.all_unmarked(X) else 1 if old.all_marked(X) else None
        assert space.uniform_mark(X) == expected


def by_position(f):
    """f with each vertex's new name, as the old `*_with_names` gave them:
    lift and drop keep the canonical order, so names pair up by position."""
    def with_names(X):
        Y = f(X)
        return Y, dict(zip(X.vertices, Y.vertices))
    return with_names


def agree_on_gate_and_round_trips(space, X):
    old = SlicingMarks(space)
    assert mark_with_names(X, space) == mark_with_names_by_slicing(X, old)
    dropped = outcome(by_position(space.drop), X)
    if dropped[0] is MarkError:
        # The old drop did not check that no vertex uses a base port both
        # ways; it returned a graph that reuses a port or failed elsewhere.
        assert "both ways" in dropped[1]
    else:
        assert dropped == outcome(old.drop_with_names, X)
    if isinstance(dropped[0], CanonicalGraph):
        lifted = outcome(by_position(space.lift), dropped[0])
        assert lifted == outcome(old.lift_with_names, dropped[0])
        if space.uniform_mark(X) == 0:
            assert lifted[0] == X


@st.composite
def marked_graphs(draw, space, max_vertices=6):
    """Connected graphs over `space.marked`, mark-consistent by construction
    and then, at random, broken: a port bit or a label bit flipped, or a
    label dropped.  A vertex may use a base port both ways."""
    n = draw(st.integers(1, max_vertices))
    marks = [draw(st.integers(0, 1)) for _ in range(n)]
    free = {v: list(space.marked.ports) for v in range(n)}

    def half(v, bit):
        """A free port of v whose bit is `bit`, or None."""
        ports = [p for p in free[v] if p.endswith(str(bit))]
        return draw(st.sampled_from(ports)) if ports else None

    def link(u, w):
        p, q = half(u, marks[w]), half(w, marks[u])
        if p is None or q is None or (u == w and p == q):
            return None
        free[u].remove(p)
        free[w].remove(q)
        return make_edge(u, p, w, q)

    edges = []
    for v in range(1, n):
        e = link(draw(st.integers(0, v - 1)), v)
        if e is None:
            n = v
            break
        edges.append(e)
    for _ in range(draw(st.integers(0, n))):
        e = link(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        if e is not None:
            edges.append(e)
    labels = {v: draw(st.sampled_from(space.base.vertex_labels)) + str(marks[v])
              for v in range(n)}
    flaw = draw(st.sampled_from(["none", "port", "label", "unlabelled"]))
    if flaw == "label":
        v = draw(st.integers(0, n - 1))
        labels[v] = labels[v][:-1] + str(1 - marks[v])
    elif flaw == "unlabelled":
        del labels[draw(st.integers(0, n - 1))]
    elif flaw == "port" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        (u, p), (w, q) = sorted(edges[i], key=repr)
        flipped = p[:-1] + str(1 - int(p[-1]))
        if flipped in free[u]:
            edges[i] = make_edge(u, flipped, w, q)
    edge_labels = {e: "e" for e in edges
                   if space.marked.edge_labels and draw(st.booleans())}
    return RawGraph(alphabets=space.marked, vertices=tuple(range(n)),
                    edges=frozenset(edges), vertex_labels=labels,
                    edge_labels=edge_labels)


class TestMarkTablesAgainstSlicing:
    """The tables agree with the old string-slicing bookkeeping."""

    def test_every_graph_up_to_two_vertices(self):
        family = enumerate_family(SPACE.marked, 2)
        assert len(family) == 2676
        assert any(not SPACE.is_mark_consistent(X) for X in family)
        for X in family:
            agree_on_predicates(SPACE, X, relabel(X))

    def test_mark_prune_alone_is_exact(self):
        # The prune keeps exactly the mark-consistent graphs, in the
        # unpruned family's order, so no caller filters its output again.
        family = enumerate_family(SPACE.marked, 2)
        pruned = enumerate_family(SPACE.marked, 2,
                                  raw_prune=SPACE.raw_mark_consistent)
        assert len(family) == 2676
        assert pruned.members == tuple(
            X for X in family if SPACE.is_mark_consistent(X))

    def test_mark_consistent_graphs_up_to_three_vertices(self):
        old = SlicingMarks(SPACE)
        family = enumerate_family(SPACE.marked, 3,
                                  raw_prune=old.raw_mark_consistent)
        assert len(family) == 1008
        assert family.members == enumerate_family(
            SPACE.marked, 3, raw_prune=SPACE.raw_mark_consistent).members
        for X in family:
            agree_on_gate_and_round_trips(SPACE, X)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_random_marked_graphs(self, data):
        space = data.draw(st.sampled_from([SPACE, TAPE_SPACE, MIXED_SPACE]))
        raw = data.draw(marked_graphs(space))
        X = canonicalize(PointedRawGraph(raw, data.draw(
            st.sampled_from(raw.vertices))))
        agree_on_predicates(space, X, raw)
        if SlicingMarks(space).is_mark_consistent(X):
            agree_on_gate_and_round_trips(space, X)


class TestNoKeyErrorFromTables:
    """A token outside the marked alphabets raises MarkError, not KeyError."""

    def test_tables_reject_strangers(self):
        for token in ("0", "a", "a2", "02", "", "a00"):
            with pytest.raises(MarkError, match="not a marked"):
                SPACE.split[token]
            with pytest.raises(MarkError, match="not a marked"):
                SPACE.toggled[token]

    def test_vertex_mark_on_base_graph(self):
        X = bare_tape(3, AB0)
        with pytest.raises(MarkError, match="not a marked"):
            SPACE.vertex_mark(X, EPSILON)
        for check in (SPACE.uniform_mark, lambda G: mark(G, SPACE)):
            with pytest.raises(MarkError):
                check(X)

    def test_vertex_mark_on_label_outside_marked_alphabets(self):
        alphabets = Alphabets.make(SPACE.marked.ports, vertex_labels=("00", "07"))
        raw = RawGraph(alphabets=alphabets, vertices=(0, 1),
                       edges=frozenset((make_edge(0, "a0", 1, "b0"),)),
                       vertex_labels={0: "00", 1: "07"})
        X = canonicalize(PointedRawGraph(raw, 0))
        assert SPACE.vertex_mark(X, EPSILON) == 0
        with pytest.raises(MarkError, match="'07'"):
            SPACE.vertex_mark(X, X.vertices[1])


def conflict_graph():
    """Marking the origin would reuse v's b1 port, so the gate backs off.

    w is marked (and v's port towards it already carries bit 1), while the
    origin and v are not.
    """
    raw = RawGraph(
        alphabets=SPACE.marked,
        vertices=("o", "v", "w"),
        edges=frozenset((make_edge("o", "a0", "v", "b0"),
                         make_edge("v", "b1", "w", "a0"))),
        vertex_labels={"o": "00", "v": "00", "w": "01"},
    )
    return canonicalize(PointedRawGraph(raw, "o"))


class TestMarkGate:
    def test_isolated_vertex(self):
        X = SPACE.lift(canonicalize(PointedRawGraph(
            RawGraph(alphabets=AB0, vertices=("v",), vertex_labels={"v": "0"}),
            "v")))
        Y = mark(X, SPACE)
        assert SPACE.vertex_mark(Y, EPSILON) == 1
        assert SPACE.uniform_mark(Y) == 1

    def test_self_loop_ports_toggle_together(self):
        solo, _ = turtle_graphs()
        X = SPACE.lift(solo)
        Y = mark(X, SPACE)
        assert SPACE.is_mark_consistent(Y)
        (e,) = Y.edges
        assert {p for (_v, p) in e} == {"a1", "b1"}
        assert mark(Y, SPACE) == X

    def test_far_ports_toggle(self):
        X = SPACE.lift(canonicalize(PointedRawGraph(
            RawGraph(alphabets=AB0, vertices=(0, 1),
                     edges=frozenset((make_edge(0, "a", 1, "b"),)),
                     vertex_labels={0: "0", 1: "0"}), 0)))
        Y = mark(X, SPACE)
        (e,) = Y.edges
        ports = {p for (_v, p) in e}
        assert ports == {"a0", "b1"}  # own half keeps its bit, far half flips
        assert SPACE.is_mark_consistent(Y)

    def test_unlabelled_anchor_is_refused(self):
        X = canonicalize(PointedRawGraph(
            RawGraph(alphabets=SPACE.marked, vertices=("v",)), "v"))
        with pytest.raises(MarkError) as err:
            mark_with_names(X, SPACE)
        assert str(err.value) == "anchor is unlabelled; its mark is undefined"

    def test_conflict_clause_is_identity(self):
        X = conflict_graph()
        assert SPACE.is_mark_consistent(X)
        Y, corr = mark_with_names(X, SPACE)
        assert Y == X
        assert corr == {v: v for v in X.vertices}

    def test_involution_on_enumerated_marked_family(self):
        fam = enumerate_family(SPACE.marked, 3,
                               raw_prune=SPACE.raw_mark_consistent)
        toggled = fixed = 0
        for X in fam:
            Y = mark(X, SPACE)
            assert SPACE.is_mark_consistent(Y)
            if Y == X:
                fixed += 1
            else:
                toggled += 1
                assert mark(Y, SPACE) == X
        assert toggled > 0 and fixed > 0


def random_ab_graph(rng, max_vertices):
    """A connected graph over AB0: a random spanning path or tree of the
    free ports, then random extra edges (self-loops included)."""
    n = rng.randint(1, max_vertices)
    free = {v: ["a", "b"] for v in range(n)}
    edges = []
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if free[u]])
        p, q = rng.choice(free[u]), rng.choice(free[v])
        free[u].remove(p)
        free[v].remove(q)
        edges.append(make_edge(u, p, v, q))
    halves = [(v, p) for v in range(n) for p in free[v]]
    rng.shuffle(halves)
    while len(halves) >= 2 and rng.random() < 0.5:
        edges.append(frozenset((halves.pop(), halves.pop())))
    raw = RawGraph(alphabets=AB0, vertices=tuple(range(n)),
                   edges=frozenset(edges), vertex_labels={v: "0" for v in range(n)})
    return canonicalize(PointedRawGraph(raw, rng.randrange(n)))


class TestMarkInvolutionProperty:
    def test_random_marked_graphs_up_to_seven_vertices(self):
        # Marked graphs beyond the exhaustive family: lift a random ab
        # graph, then mark it at a random set of anchors.
        rng = random.Random(1502)
        gate = MarkDynamics(SPACE)
        toggled = 0
        sizes = set()
        for _ in range(500):
            lifted = SPACE.lift(random_ab_graph(rng, 7))
            sizes.add(len(lifted.vertices))
            anchors = [v for v in lifted.vertices if rng.random() < 0.5]
            M = apply_product(gate.apply, anchors, lifted)[0]
            assert SPACE.is_mark_consistent(M)
            for v in M.vertices:
                X = shift(M, v)
                Y = mark(X, SPACE)
                assert SPACE.is_mark_consistent(Y)
                if Y != X:
                    toggled += 1
                    assert mark(Y, SPACE) == X
        assert sizes == set(range(1, 8))
        assert toggled > 1000


class TestShiftedDynamics:
    def test_anchor_at_origin_is_plain_application(self):
        gate = MarkDynamics(SPACE)
        X = SPACE.lift(bare_tape(3, AB0))
        direct, corr_direct = gate.apply(X)
        shifted, corr_shifted = ShiftedDynamics(gate, EPSILON).apply(X)
        assert shifted == direct
        assert corr_shifted == corr_direct

    def test_missing_anchor_is_identity(self):
        gate = MarkDynamics(SPACE)
        X = SPACE.lift(bare_tape(2, AB0))
        ghost = X.vertices[1].concat(X.vertices[1])
        assert X.resolve(ghost) is None
        Y, corr = ShiftedDynamics(gate, ghost).apply(X)
        assert Y == X
        assert corr == {v: v for v in X.vertices}

    def test_shifted_mark_equals_in_place_toggle(self):
        # Oracle: toggle vertex u's mark directly on the raw presentation.
        X = SPACE.lift(bare_tape(4, AB0))
        for u in X.vertices:
            expected = _toggle_at(X, u)
            got, _ = ShiftedDynamics(MarkDynamics(SPACE), u).apply(X)
            assert got == expected


def _toggle_at(X, u):
    labels = dict(X.vertex_labels)
    labels[u] = SPACE.toggled[labels[u]]
    edges = set()
    for e in X.edges:
        (x, p), (y, q) = tuple(e)
        if x == u and y == u:
            edges.add(frozenset(((x, SPACE.toggled[p]),
                                 (y, SPACE.toggled[q]))))
        elif x == u:
            edges.add(frozenset(((x, p), (y, SPACE.toggled[q]))))
        elif y == u:
            edges.add(frozenset(((x, SPACE.toggled[p]), (y, q))))
        else:
            edges.add(e)
    raw = RawGraph(alphabets=X.alphabets, vertices=X.vertices,
                   edges=frozenset(edges), vertex_labels=labels)
    return canonicalize(PointedRawGraph(raw, EPSILON))


class TestProducts:
    def test_empty_product(self):
        X = SPACE.lift(bare_tape(2, AB0))
        Y, corr = apply_product(MarkDynamics(SPACE).apply, [], X)
        assert Y == X
        assert corr == {v: v for v in X.vertices}

    def test_marking_every_vertex(self):
        X = SPACE.lift(bare_tape(3, AB0))
        Y, corr = apply_product(MarkDynamics(SPACE).apply, X.vertices, X)
        assert SPACE.uniform_mark(Y) == 1
        assert set(corr) == set(X.vertices)

    def test_order_independence(self):
        gate = MarkDynamics(SPACE)
        X = SPACE.lift(bare_tape(3, AB0))
        results = {apply_product(gate.apply, list(order), X)[0]
                   for order in permutations(X.vertices)}
        assert len(results) == 1

    def test_order_independence_on_ring(self):
        edges = frozenset(make_edge(i, "a", (i + 1) % 4, "b") for i in range(4))
        raw = RawGraph(alphabets=AB0, vertices=tuple(range(4)), edges=edges,
                       vertex_labels={i: "0" for i in range(4)})
        X = SPACE.lift(canonicalize(PointedRawGraph(raw, 0)))
        gate = MarkDynamics(SPACE)
        results = set()
        for order in permutations(X.vertices):
            Y, _ = apply_product(gate.apply, list(order), X)
            results.add(Y)
        assert len(results) == 1
        assert SPACE.uniform_mark(next(iter(results))) == 1


class TestReversibleExtension:
    def test_negative_exception_bound_is_refused(self):
        with pytest.raises(ValueError) as err:
            ReversibleExtension(get_dynamics("moving-head"), -1, TAPE_SPACE)
        assert str(err.value) == "exception bound must be >= 0"

    def test_unmarked_graphs_evolve(self):
        kit = moving_head_kit()
        for L in (1, 2, 3):
            for pos in range(L):
                X = single_head_tape(L, pos, "cc")
                lifted = TAPE_SPACE.lift(X)
                image, _ = kit.forward_ext.apply(lifted)
                assert image == TAPE_SPACE.lift(
                    get_dynamics("moving-head").apply(X)[0])

    def test_fully_marked_fixed(self):
        kit = moving_head_kit()
        X = TAPE_SPACE.lift(single_head_tape(2, 0, "cc"))
        M, _ = apply_product(kit.mark_gate.apply, X.vertices, X)
        Y, corr = kit.forward_ext.apply(M)
        assert Y == M
        assert corr == {v: v for v in M.vertices}

    def test_small_marked_graphs_fixed(self):
        # With the exception bound at 2, the turtle pair must not evolve
        # once it carries any mark.
        turtle = get_dynamics("turtle")
        space = MarkSpace.for_base(turtle.alphabets)
        fam = enumerate_family(turtle.alphabets, 2)
        kit = BlockKit.from_family(turtle, fam)
        assert kit.exception_bound == 2
        solo, pair = turtle_graphs()
        lifted = space.lift(solo)
        marked = mark(lifted, space)
        assert marked != lifted
        Y, _ = kit.forward_ext.apply(marked)
        assert Y == marked
        # The inverse's side freezes it too; the rule is read only off
        # larger members, so the bare pair is a table lookup.
        assert kit.backward_ext.apply(marked)[0] == marked
        assert kit.inverse.apply(pair)[0] == solo

    def test_small_mixed_graphs_fixed(self):
        # A marked end, then two unmarked vertices.  The base step flips
        # every label but its origin's, so the far vertex changes once the
        # graph is larger than the bound, and not before.
        space = MarkSpace.for_base(AB01)

        def flip_all_but_origin(X):
            labels = {v: l if v == EPSILON else {"0": "1", "1": "0"}[l]
                      for v, l in X.vertex_labels.items()}
            raw = RawGraph(alphabets=AB01, vertices=X.vertices, edges=X.edges,
                           vertex_labels=labels)
            return (canonicalize(PointedRawGraph(raw, EPSILON)),
                    {v: v for v in X.vertices})

        flipper = FuncDynamics("flipper", flip_all_but_origin, AB01)
        path = RawGraph(alphabets=AB01, vertices=("m", "b", "u"),
                        edges=frozenset((make_edge("m", "a", "b", "b"),
                                         make_edge("b", "a", "u", "b"))),
                        vertex_labels={"m": "0", "b": "0", "u": "0"})
        M = mark(space.lift(canonicalize(PointedRawGraph(path, "m"))), space)
        assert ReversibleExtension(flipper, 3, space).apply(M)[0] == M
        moved, _ = ReversibleExtension(flipper, 2, space).apply(M)
        assert [moved.vertex_labels[v] for v in moved.vertices] == ["01", "00", "10"]

    def test_small_unmarked_graphs_evolve(self):
        # The bound freezes only graphs that carry a mark: unmarked, the
        # turtle solo and pair evolve on both sides, exceptions as they are.
        turtle = get_dynamics("turtle")
        kit = BlockKit.from_family(turtle, enumerate_family(turtle.alphabets, 2))
        assert kit.exception_bound == 2
        solo, pair = (kit.space.lift(g) for g in turtle_graphs())

        def named(result):
            Y, corr = result
            return Y, {format_path(v): format_path(w) for v, w in corr.items()}

        assert named(kit.forward_ext.apply(solo)) == (pair, {"eps": "eps"})
        assert named(kit.forward_ext.apply(pair)) == \
               (solo, {"eps": "eps", "a0b0": "eps"})
        assert kit.backward_ext.apply(pair)[0] == solo

    def test_frozen_region_blocks_the_head(self):
        # Head on the middle cell, the cell ahead of it marked: inside the
        # unmarked component the head sees a tape end and flips instead of
        # advancing onto the frozen cell.
        kit = moving_head_kit()
        X = TAPE_SPACE.lift(single_head_tape(3, 1, "cc"))
        cell2 = [v for v in X.vertices if format_path(v) == "a0b0.a0b0"][0]
        M, _ = ShiftedDynamics(kit.mark_gate, cell2).apply(X)
        expected = marked_graph(
            vertices=("c0", "c1", "c2", "h"),
            edges=(make_edge("c0", "a0", "c1", "b0"),
                   make_edge("c1", "a1", "c2", "b0"),
                   make_edge("c1", "d0", "h", "d0")),
            labels={"c0": "00", "c1": "00", "c2": "01", "h": "00"},
            pointer="c0")
        got, _ = kit.forward_ext.apply(M)
        assert got == expected

    def test_boundary_takes_the_stepped_labels(self):
        # A label-flipping base dynamics relabels the boundary vertices of
        # the unmarked component.  Only the mark is frozen, so the glue has
        # nothing to reject: both boundary vertices take their new labels,
        # and every edge keeps its ports.
        base_alph = AB01
        space = MarkSpace.for_base(base_alph)

        def flip(X):
            flipped = {v: {"0": "1", "1": "0"}[l]
                       for v, l in X.vertex_labels.items()}
            raw = RawGraph(alphabets=base_alph, vertices=X.vertices,
                           edges=X.edges, vertex_labels=flipped)
            return (canonicalize(PointedRawGraph(raw, EPSILON)),
                    {v: v for v in X.vertices})

        flipper = FuncDynamics("label-flipper", flip, base_alph)
        triangle = RawGraph(
            alphabets=base_alph, vertices=("m", "b1", "b2"),
            edges=frozenset((make_edge("m", "a", "b1", "b"),
                             make_edge("m", "b", "b2", "a"),
                             make_edge("b1", "a", "b2", "b"))),
            vertex_labels={"m": "0", "b1": "0", "b2": "0"})
        X = space.lift(canonicalize(PointedRawGraph(triangle, "m")))
        M = mark(X, space)
        assert M != X
        expected = marked_graph(
            vertices=("m", "b1", "b2"),
            edges=(make_edge("m", "a0", "b1", "b1"),
                   make_edge("m", "b0", "b2", "a1"),
                   make_edge("b1", "a0", "b2", "b0")),
            labels={"m": "01", "b1": "10", "b2": "10"},
            pointer="m", space=space)
        got, corr = ReversibleExtension(flipper, 0, space).apply(M)
        assert got == expected
        assert corr == {v: v for v in M.vertices}

    def test_mark_consistency_demanded(self):
        kit = moving_head_kit()
        bad = RawGraph(alphabets=TAPE_SPACE.marked, vertices=(0, 1),
                       edges=frozenset((make_edge(0, "a1", 1, "b0"),)),
                       vertex_labels={0: "00", 1: "00"})
        X = canonicalize(PointedRawGraph(bad, 0))
        with pytest.raises(MarkError, match="not mark-consistent"):
            kit.forward_ext.apply(X)

    def test_step_must_label_every_vertex(self):
        # The glued graph is not scanned; a base step that leaves a vertex
        # unlabelled is refused where its image enters the extension.
        space = MarkSpace.for_base(AB01)

        def unlabel(X):
            raw = RawGraph(alphabets=AB01, vertices=X.vertices, edges=X.edges,
                           vertex_labels={v: l for v, l in X.vertex_labels.items()
                                          if v != EPSILON})
            return canonicalize(PointedRawGraph(raw, EPSILON)), {v: v for v in X.vertices}

        base = FuncDynamics("unlabel", unlabel, AB01)
        kit = BlockKit(base, base, 0, space)
        path = RawGraph(alphabets=AB01, vertices=("u", "w"),
                        edges=frozenset((make_edge("u", "a", "w", "b"),)),
                        vertex_labels={"u": "0", "w": "1"})
        X = space.lift(canonicalize(PointedRawGraph(path, "u")))
        with pytest.raises(MarkError, match=r"^marked\[unlabel\]: the step "
                                            r"leaves vertex eps unlabelled$"):
            kit.forward_ext.apply(X)


class TestExtensionWork:
    """One application canonicalizes each of the k unmarked components
    twice, once where `canonicalize_component` finds and names it at its
    anchor and once inside the base step, and the glued graph once: 2k + 1
    graphs.  Dropping, stepping and lifting each component as its own
    canonical graph took 4k + 1."""

    @pytest.fixture
    def canonicalizations(self, monkeypatch):
        calls = []
        for real in (modulo.canonicalize_with_names, modulo.canonicalize_component):
            def counted(pg, real=real):
                calls.append(1)
                return real(pg)

            for name, module in list(sys.modules.items()):
                if name == "cgd" or name.startswith("cgd."):
                    for attr, obj in list(vars(module).items()):
                        if obj is real:
                            monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.mark.parametrize("marked_cells, k", [
        ((), 1), ((0,), 1), ((6,), 1), ((3,), 2), ((2, 4), 3)])
    def test_two_per_component_and_one_for_the_glue(
            self, canonicalizations, marked_cells, k):
        kit = moving_head_kit()
        X = TAPE_SPACE.lift(single_head_tape(7, 1, "cc"))
        cells = [v for v in X.vertices if format_path(v) in
                 [".".join(["a0b0"] * i) or "eps" for i in marked_cells]]
        M = apply_product(kit.mark_gate.apply, cells, X)[0]
        canonicalizations.clear()
        kit.forward_ext.apply(M)
        assert len(canonicalizations) == 2 * k + 1


class TestConjugateMark:
    def test_identity_kit_reduces_to_mark(self):
        ident = IdentityDynamics()
        ident.alphabets = AB0
        kit = BlockKit(ident, ident, 0, SPACE)
        fam = [SPACE.lift(bare_tape(n, AB0)) for n in (1, 2, 3)]
        for X in fam + [conflict_graph()]:
            assert kit.conjugate_mark(X)[0] == mark(X, SPACE)

    def test_moving_head_panel(self):
        # One conjugate mark at the origin: the head advances and the
        # origin cell alone ends up marked.
        kit = moving_head_kit()
        X = TAPE_SPACE.lift(single_head_tape(2, 0, "cc"))
        got, corr = kit.conjugate_mark(X)
        expected = marked_graph(
            vertices=("c0", "c1", "h"),
            edges=(make_edge("c0", "a0", "c1", "b1"),
                   make_edge("c1", "c0", "h", "c0")),
            labels={"c0": "01", "c1": "00", "h": "00"},
            pointer="c0")
        assert got == expected
        assert corr[EPSILON] == EPSILON

    def test_involution_on_lifted_tapes(self):
        kit = moving_head_kit()
        for X in single_head_tapes(3):
            lifted = TAPE_SPACE.lift(X)
            once, _ = kit.conjugate_mark(lifted)
            twice, _ = kit.conjugate_mark(once)
            assert once != lifted
            assert twice == lifted


class TestDecomposeStep:
    def test_identity(self, ab_family_4):
        ident = IdentityDynamics()
        ident.alphabets = AB0
        kit = BlockKit(ident, ident, 0, SPACE)
        for X in list(ab_family_4)[::15]:
            assert kit.decompose_step(X) == X

    def test_moving_head_matches_direct_step(self):
        kit = moving_head_kit()
        mh = get_dynamics("moving-head")
        for X in single_head_tapes(4) + bare_tapes(3):
            assert kit.decompose_step(X) == mh.apply(X)[0]

    def test_trace_marks_rise_then_clear(self):
        kit = moving_head_kit()
        trace = []
        kit.decompose_step(single_head_tape(3, 0, "cc"), trace=trace)
        counts = []
        for stage in trace:
            if stage.label == "final":
                continue
            counts.append(sum(
                1 for v in stage.graph.vertices
                if TAPE_SPACE.vertex_mark(stage.graph, v) == 1))
        gates = len(single_head_tape(3, 0, "cc").vertices)
        rising, falling = counts[:gates + 1], counts[gates + 1:]
        assert rising == sorted(rising)
        assert falling == sorted(falling, reverse=True)
        assert counts[-1] == 0
        assert max(counts) == gates


def marked_variants(X, space):
    """X with every subset of its vertices marked, the empty and the full
    one included."""
    gate = MarkDynamics(space)
    for k in range(len(X.vertices) + 1):
        for subset in combinations(X.vertices, k):
            yield apply_product(gate.apply, subset, X)[0]


def count_shifts(monkeypatch):
    """A list that grows by one at each `shift_with_names` call, at every
    name it is bound to in the `cgd` modules."""
    calls = []
    real = modulo.shift_with_names
    for name, module in list(sys.modules.items()):
        if name == "cgd" or name.startswith("cgd."):
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(
                        module, attr, lambda *a: calls.append(1) or real(*a))
    return calls


class TestAnchoredGates:
    """A gate acts at its anchor: it equals the gate at the origin of the
    graph re-pointed at the anchor and back (`ShiftedDynamics`), graph and
    correspondence both, at every anchor of every mark subset."""

    @staticmethod
    def pairs_agreeing(kit, graphs):
        whole = CompositeDynamics((kit.forward_ext, kit.mark_gate, kit.backward_ext))
        pairs = 0
        for X in graphs:
            for M in marked_variants(kit.space.lift(X), kit.space):
                for a in M.vertices:
                    assert (kit.mark_gate.apply(M, a)
                            == ShiftedDynamics(kit.mark_gate, a).apply(M))
                    assert (outcome(kit.conjugate_mark, M, a)
                            == outcome(ShiftedDynamics(whole, a).apply, M))
                    pairs += 1
        return pairs

    @pytest.mark.parametrize("which", [0, 1])
    def test_cli_kits_on_tapes(self, cli_kits, which):
        # The moving-head and identity kits, on single-head tapes of up to
        # 3 cells and bare tapes of up to 5.
        tapes = single_head_tapes(3) + bare_tapes(5)
        assert self.pairs_agreeing(cli_kits[which], tapes) == 754

    def test_turtle_kit(self):
        turtle = get_dynamics("turtle")
        kit = BlockKit.from_family(turtle, enumerate_family(turtle.alphabets, 2))
        assert kit.exception_bound == 2
        fam = enumerate_family(turtle.alphabets, 3)
        assert self.pairs_agreeing(kit, fam) == 436

    def test_mark_on_enumerated_marked_family(self):
        # Every mark-consistent ab/0 graph of up to 3 vertices, back-offs at
        # an anchor that is not the origin among them.
        fam = enumerate_family(SPACE.marked, 3,
                               raw_prune=SPACE.raw_mark_consistent)
        gate = MarkDynamics(SPACE)
        backed_off = 0
        for X in fam:
            for a in X.vertices:
                got = gate.apply(X, a)
                assert got == ShiftedDynamics(gate, a).apply(X)
                backed_off += a != EPSILON and got[0] is X
        assert backed_off > 0

    def test_decompose_re_points_no_graph(self, monkeypatch):
        # The anchored gates never shift the whole graph; through
        # `ShiftedDynamics` a 13-vertex step made 4 shifts per vertex.
        kit = cli._tape_kit(get_dynamics("moving-head"))
        X = single_head_tape(12, 5, "cc")
        assert len(X.vertices) == 13
        calls = count_shifts(monkeypatch)
        assert kit.decompose_step(X) == get_dynamics("moving-head").apply(X)[0]
        assert len(calls) == 0

    def test_kit_is_freed_without_the_cycle_collector(self):
        # A kit that held its own conjugate would be a reference cycle and
        # keep its tables alive until a full collection.
        kit = cli._tape_kit(get_dynamics("identity"))
        assert kit.conjugate.apply(kit.space.lift(bare_tape(2)))
        gone = weakref.ref(kit)
        gc.disable()
        try:
            del kit
            assert gone() is None
        finally:
            gc.enable()


class TestKitFromFamily:
    def test_derived_exception_bound(self, tape_closure_5):
        mh = get_dynamics("moving-head")
        assert BlockKit.from_family(mh, tape_closure_5).exception_bound == 0
        turtle = get_dynamics("turtle")
        kit = BlockKit.from_family(turtle, enumerate_family(turtle.alphabets, 2))
        assert kit.exception_bound == 2
        assert kit.forward_ext.exception_bound == 2
        assert kit.backward_ext.exception_bound == 2

    def test_marks_double_the_family_alphabets(self, tape_closure_5):
        # Identity accepts any alphabets; the family fixes the kit's.
        kit = BlockKit.from_family(IdentityDynamics(), tape_closure_5)
        assert kit.space == TAPE_SPACE
        assert kit.exception_bound == 0
        for X in single_head_tapes(3) + bare_tapes(3):
            assert kit.decompose_step(X) == X

    def test_random_long_tapes_match_direct_step(self):
        # One kit for tapes of up to 8 cells; each tape pointed anywhere.
        mh = get_dynamics("moving-head")
        members = bare_tapes(9) + single_head_tapes(8)
        kit = BlockKit.from_family(mh, GraphFamily.from_graphs(
            shift_closure(members), TAPE_ALPHABETS))
        rng = random.Random(1996)
        for _ in range(40):
            length = rng.randint(6, 8)
            X = single_head_tape(length, rng.randrange(length),
                                 rng.choice(("cc", "dd")))
            X = shift(X, rng.choice(X.vertices))
            assert kit.decompose_step(X) == mh.apply(X)[0]


    def test_cli_kit_on_48_cell_tapes(self):
        # The CLI's kit is read off tapes of at most 5 cells and a head.
        mh = get_dynamics("moving-head")
        kit = cli._tape_kit(mh)
        rng = random.Random(1502)
        for _ in range(3):
            X = single_head_tape(48, rng.randrange(48), rng.choice(("cc", "dd")))
            X = shift(X, rng.choice(X.vertices))
            assert kit.decompose_step(X) == mh.apply(X)[0]

    @pytest.mark.parametrize("radius, disks", [(1, 57), (2, 144), (3, 285)])
    def test_cli_kit_family_shows_every_tape_disk(self, radius, disks):
        # `_tape_kit` reads a kit of radius r off the bare tapes of up to
        # 2r + 4 cells and the single-head tapes of up to 2r + 3.  Their
        # radius-r disks are every radius-r disk of bare tapes of up to
        # 2r + 12 cells and single-head tapes of up to 2r + 11.
        fam = bare_tapes(2 * radius + 4) + single_head_tapes(2 * radius + 3)
        tapes = bare_tapes(2 * radius + 12) + single_head_tapes(2 * radius + 11)
        seen = [{disk_at(X, u, radius) for X in graphs for u in X.vertices}
                for graphs in (fam, tapes)]
        assert seen[0] == seen[1] and len(seen[0]) == disks

    def test_cli_kit_build_shifts_nothing(self, monkeypatch):
        # The kit reads the 36 plain tapes at every vertex, one forward
        # application each, and re-points no graph.
        calls = []
        real_apply = RawStepDynamics.apply
        monkeypatch.setattr(RawStepDynamics, "apply",
                            lambda self, X: calls.append(1) or real_apply(self, X))
        shifts = count_shifts(monkeypatch)
        kit = cli._tape_kit(get_dynamics("moving-head"))
        assert (len(shifts), len(calls)) == (0, 36)
        assert kit.inverse.table.family.members == tuple(
            bare_tapes(6) + single_head_tapes(5))
        rule = kit.inverse.table.local_rule()
        assert (rule.radius, len(rule.entries)) == (1, 57)

    def test_cli_kit_grows_once_for_a_larger_radius(self, monkeypatch):
        # Two moving-head steps at once: the inverse walks each head back
        # two cells, which no radius-1 disk shows.  The family is built at
        # 6 vertices, then once more at 2 * 2 + 4.
        mh = get_dynamics("moving-head")
        twice = CompositeDynamics((mh, mh), name="moving-head-twice")
        sizes = []
        real = BlockKit.from_family
        monkeypatch.setattr(BlockKit, "from_family", staticmethod(
            lambda D, fam: sizes.append(max(map(len, fam))) or real(D, fam)))
        kit = cli._tape_kit(twice)
        assert kit.inverse.rule.radius == 2
        assert sizes == [6, 8]
        X = single_head_tape(20, 17, "cc")
        X = shift(X, X.vertices[9])
        assert kit.decompose_step(X) == twice.apply(X)[0]


PAIRS = Alphabets.make("ab", vertex_labels=("00", "01", "10", "11"))


class CellwisePermutation(RawStepDynamics):
    """Relabel every vertex by one fixed permutation of the four labels: the
    simplest reversible cellular automaton, of radius 0, on ab paths and
    cycles."""

    alphabets = PAIRS

    def __init__(self, images):
        self.perm = dict(zip(PAIRS.vertex_labels, images))
        self.name = "cellwise-" + "-".join(images)

    def _step(self, X):
        raw = RawGraph(alphabets=PAIRS, vertices=X.vertices, edges=X.edges,
                       vertex_labels={v: self.perm[l] for v, l in X.vertex_labels.items()})
        return raw, EPSILON, identity_correspondence(X)


class PartitionedShift(RawStepDynamics):
    """A partitioned cellular automaton on ab paths and cycles: in each label
    lr, bit r moves to the cell on port a and bit l to the cell on port b;
    at a path end the bit reflects into the other half of its own cell."""

    alphabets = PAIRS
    name = "partitioned-shift"

    def _step(self, X):
        adj, labels = X.adjacency, X.vertex_labels

        def bit(v, port, half, reflected):
            hop = adj[v].get(port)
            return labels[hop[0]][half] if hop else labels[v][reflected]

        raw = RawGraph(alphabets=PAIRS, vertices=X.vertices, edges=X.edges,
                       vertex_labels={v: bit(v, "a", 0, 1) + bit(v, "b", 1, 0)
                                      for v in X.vertices})
        return raw, EPSILON, identity_correspondence(X)


def labelled_line(labels, cyclic=False):
    """The path, or the cycle, whose cell i has the label labels[i], port a
    of cell i joined to port b of cell i + 1, pointed at cell 0."""
    n = len(labels)
    edges = [make_edge(i, "a", i + 1, "b") for i in range(n - 1)]
    if cyclic:
        edges.append(make_edge(n - 1, "a", 0, "b"))
    raw = RawGraph(alphabets=PAIRS, vertices=tuple(range(n)),
                   edges=frozenset(edges), vertex_labels=dict(enumerate(labels)))
    return canonicalize(PointedRawGraph(raw, 0))


def labelled_paths_and_cycles(max_cells):
    """Every labelling of the paths and cycles of 1 .. max_cells cells."""
    return GraphFamily.from_graphs(
        [labelled_line(labels, cyclic) for n in range(1, max_cells + 1)
         for cyclic in (False, True) for labels in product(PAIRS.vertex_labels, repeat=n)],
        PAIRS)


def long_labelled_lines(seed):
    """A seeded path and cycle of each of 20, 31 and 48 cells."""
    rng = random.Random(seed)
    return [labelled_line([rng.choice(PAIRS.vertex_labels) for _ in range(n)], cyclic)
            for n in (20, 31, 48) for cyclic in (False, True)]


# Six non-identity label permutations, drawn once with a fixed seed.
SAMPLED_IMAGES = random.Random(30).sample(
    [p for p in permutations(PAIRS.vertex_labels) if p != PAIRS.vertex_labels], 6)


@pytest.fixture(scope="module")
def pairs_family_5():
    return labelled_paths_and_cycles(5)


@pytest.fixture(scope="module")
def pairs_family_4():
    return list(labelled_paths_and_cycles(4))


class TestLabelChangingDynamics:
    """The reversible extension freezes only the marked vertices and the
    edges with a marked end, so a step may relabel an unmarked vertex next
    to a mark: the block pipeline factors reversible cellular automata on
    paths and cycles.  Each kit is read off every path and cycle of up to
    5 cells."""

    @staticmethod
    def assert_decomposes(D, family_5, small, seed):
        kit = BlockKit.from_family(D, family_5)
        assert (kit.exception_bound, kit.inverse.rule.radius) == (0, 1)
        for X in small + long_labelled_lines(seed):
            assert kit.decompose_step(X) == D.apply(X)[0]
        lifted = [kit.space.lift(X) for X in small]
        assert anchored_locality_radius(
            (L, list(kit.conjugate_marks(L, L.vertices))) for L in lifted) == 1

    def test_decomposes_every_two_cell_path(self, pairs_family_5):
        # 00 -> 01 -> 10 -> 11 -> 00 relabels every vertex.  On each
        # two-cell path with its origin marked, the forward extension
        # relabels the unmarked cell next to the mark and keeps the mark.
        D = CellwisePermutation(("01", "10", "11", "00"))
        assert check_bijective_on_family(D, pairs_family_5) is None
        kit = BlockKit.from_family(D, pairs_family_5)
        assert kit.exception_bound == 0
        paths = [labelled_line(labels) for labels in product(PAIRS.vertex_labels, repeat=2)]
        assert len(paths) == 16
        for X in paths:
            assert kit.decompose_step(X) == D.apply(X)[0]
            first, second = (X.vertex_labels[v] for v in X.vertices)
            expected = marked_graph(
                vertices=(0, 1), edges=(make_edge(0, "a0", 1, "b1"),),
                labels={0: first + "1", 1: D.perm[second] + "0"},
                pointer=0, space=kit.space)
            assert kit.forward_ext.apply(mark(kit.space.lift(X), kit.space))[0] == expected

    @pytest.mark.parametrize("images", SAMPLED_IMAGES)
    def test_never_a_wrong_graph(self, images, pairs_family_5, pairs_family_4):
        # Every path and cycle of up to 4 cells, and seeded long ones,
        # decompose to the direct image, through gates of radius 1.
        self.assert_decomposes(CellwisePermutation(images), pairs_family_5,
                               pairs_family_4, seed=48)

    def test_partitioned_cellular_automaton(self, pairs_family_5, pairs_family_4):
        # A boundary cell is an end of its region's path, where its bits
        # move or reflect, so its stepped label mostly differs from its
        # label in X; only the mark stays frozen, and the step decomposes.
        D = PartitionedShift()
        assert check_bijective_on_family(D, pairs_family_5) is None
        self.assert_decomposes(D, pairs_family_5, pairs_family_4, seed=48)


def parity_flip_on_chains():
    """A rule that flips every label of a graph with an even vertex count,
    and the 3- and 4-vertex chains it runs on."""
    def parity_flip(X):
        if len(X.vertices) % 2 == 0:
            flipped = {v: {"0": "1", "1": "0"}[l]
                       for v, l in X.vertex_labels.items()}
            raw = RawGraph(alphabets=AB01, vertices=X.vertices,
                           edges=X.edges, vertex_labels=flipped)
            return (canonicalize(PointedRawGraph(raw, EPSILON)),
                    {v: v for v in X.vertices})
        return X, {v: v for v in X.vertices}

    chains = []
    for n in (3, 4):
        edges = frozenset(make_edge(i, "a", i + 1, "b")
                          for i in range(n - 1))
        raw = RawGraph(alphabets=AB01, vertices=tuple(range(n)),
                       edges=edges, vertex_labels={i: "0" for i in range(n)})
        chains.append(canonicalize(PointedRawGraph(raw, 0)))
    return (FuncDynamics("parity-flip", parity_flip, AB01),
            GraphFamily.from_graphs(chains, AB01))


class TestLocality:
    def test_identity_is_zero_local(self):
        ident = IdentityDynamics()
        fam = GraphFamily.from_graphs(
            [SPACE.lift(bare_tape(n, AB0)) for n in (1, 2, 3, 4)],
            SPACE.marked)
        assert find_locality_radius(ident, fam, 0) is not None

    def test_conjugate_mark_is_local(self):
        kit = moving_head_kit()
        lifted = GraphFamily.from_graphs(
            [kit.space.lift(g) for g in shift_closure(single_head_tapes(4))],
            kit.space.marked)
        radius = find_locality_radius(kit.conjugate, lifted, max_radius=4)
        assert radius == 2

    def test_global_rule_is_not_local(self):
        rule, fam = parity_flip_on_chains()
        for radius in (0, 1, 2):
            assert find_locality_radius(rule, fam, radius) is None

    def test_footprint_contained_in_ball(self):
        kit = moving_head_kit()
        radius = 2
        for X in single_head_tapes(3):
            lifted = kit.space.lift(X)
            for anchor in lifted.vertices:
                touched = gate_footprint(kit.conjugate, lifted, anchor)
                assert touched <= ball(lifted, anchor, radius)

    def test_depth_bound(self):
        kit = moving_head_kit()
        bound = len(kit.space.marked.ports) ** 2
        for X in single_head_tapes(3):
            lifted = kit.space.lift(X)
            touch_count = {v: 0 for v in lifted.vertices}
            for anchor in lifted.vertices:
                for v in gate_footprint(kit.conjugate, lifted, anchor):
                    touch_count[v] += 1
            assert max(touch_count.values()) <= bound


class TestClosureCrossValidation:
    def test_table_of_extension_matches_extended_inverse(self):
        # The stated realization: tabulate the marked extension over the
        # closure of the input under itself, the mark gates and shifts,
        # then invert the table.  It must agree with extending the base
        # inverse, graph by graph and name by name.
        kit = moving_head_kit(max_len=3)
        space = kit.space
        start = space.lift(single_head_tape(2, 0, "cc"))
        closure = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for g in frontier:
                steps = [kit.forward_ext.apply(g)[0]]
                steps.extend(ShiftedDynamics(kit.mark_gate, v).apply(g)[0]
                             for v in g.vertices)
                steps.extend(shift(g, v) for v in g.vertices)
                for h in steps:
                    if h not in closure:
                        closure.add(h)
                        nxt.append(h)
            frontier = nxt
            assert len(closure) < 2000
        fam = GraphFamily.from_graphs(sorted(closure, key=lambda g: g.to_text()),
                                      space.marked)
        table = build_inverse(kit.forward_ext, fam)
        for m in fam:
            expected_graph = table.backward[m]
            expected_corr = table.corr_inverse[m]
            got_graph, got_corr = kit.backward_ext.apply(m)
            assert got_graph == expected_graph
            assert got_corr == expected_corr


class Recording(Dynamics):
    """A gate that records each member it is applied to, and raises a
    DynamicsError on the member at index `fail_at` of `fam`."""

    def __init__(self, gate, fam=(), fail_at=None):
        self.gate, self.name, self.alphabets = gate, gate.name, gate.alphabets
        self.poison = None if fail_at is None else list(fam)[fail_at]
        self.applied = []

    def apply(self, X):
        self.applied.append(X)
        if X == self.poison:
            raise DynamicsError(f"{self.name}: poisoned member")
        return self.gate.apply(X)


@pytest.fixture(scope="module")
def cli_kits():
    """The CLI's kits for moving-head, identity and two moving-head steps
    at once, whose inverse has radius 2."""
    mh = get_dynamics("moving-head")
    twice = CompositeDynamics((mh, mh), name="moving-head-twice")
    return [cli._tape_kit(D) for D in (mh, IdentityDynamics(), twice)]


class Memo(Dynamics):
    """A gate that keeps its results, so that the old radius-by-radius
    search re-scans a family cheaply."""

    def __init__(self, gate):
        self.gate, self.name, self.alphabets = gate, gate.name, gate.alphabets
        self.results = {}

    def apply(self, X):
        if X not in self.results:
            self.results[X] = self.gate.apply(X)
        return self.results[X]


@pytest.fixture(scope="module")
def conjugates(cli_kits):
    """Each CLI kit's conjugate mark, with the lifted shift closure of the
    single-head tapes of <= 6 vertices."""
    return [(Memo(kit.conjugate), GraphFamily.from_graphs(
        [kit.space.lift(g) for g in shift_closure(single_head_tapes(5))],
        kit.space.marked)) for kit in cli_kits]


EDGE_LABELLED = Alphabets.make("ab", vertex_labels=("0",), edge_labels=("x", "y"))


def labelled_chain(n):
    edges = [make_edge(i, "a", i + 1, "b") for i in range(n - 1)]
    raw = RawGraph(alphabets=EDGE_LABELLED, vertices=tuple(range(n)),
                   edges=frozenset(edges),
                   vertex_labels=dict.fromkeys(range(n), "0"),
                   edge_labels=dict.fromkeys(edges, "x"))
    return canonicalize(PointedRawGraph(raw, 0))


def flip_edge_label(X, anchor=EPSILON):
    """Flip the label of the edge on the anchor's port a, if it has one; the
    origin stays the origin."""
    labels = dict(X.edge_labels)
    hop = X.adjacency[anchor].get("a")
    if hop is not None:
        e = make_edge(anchor, "a", *hop)
        labels[e] = {"x": "y", "y": "x"}[labels[e]]
    raw = RawGraph(alphabets=X.alphabets, vertices=X.vertices, edges=X.edges,
                   vertex_labels=X.vertex_labels, edge_labels=labels)
    return canonicalize_with_names(PointedRawGraph(raw, EPSILON))


class TestLocalityAgainstOracles:
    """`find_locality_radius` and `gate_footprint` agree with the versions
    that searched radius by radius and mapped edges by hand (`oracles`):
    results, messages and raised errors.  A radius bound r passes exactly
    when the oracle's `check_locality` passes at r."""

    def test_cli_kits_on_lifted_tapes(self, conjugates):
        radii = []
        for gate, fam in conjugates:
            for r in range(5):
                assert ((find_locality_radius(gate, fam, r) is not None)
                        == (oracles.check_locality(gate, r, fam) is None))
                assert (find_locality_radius(gate, fam, r)
                        == oracles.find_locality_radius(gate, fam, r))
            radii.append(find_locality_radius(gate, fam))
        assert radii == [2, 1, 3]

    def test_parity_flip(self):
        rule, fam = parity_flip_on_chains()
        for r in range(5):
            got = find_locality_radius(rule, fam, r)
            assert (got is not None) == (oracles.check_locality(rule, r, fam) is None)
            assert got == oracles.find_locality_radius(rule, fam, r)
            # The flipped 4-chain's farthest vertex is 3 hops out.
            assert got == (None if r < 3 else 3)

    def test_turtle_collapses_two_vertices_into_one(self):
        # The pair's two vertices both go to the singleton's one: a
        # correspondence that is not injective.
        turtle = get_dynamics("turtle")
        for n in (2, 3, 4):
            fam = enumerate_family(turtle.alphabets, n)
            for r in range(4):
                assert ((find_locality_radius(turtle, fam, r) is not None)
                        == (oracles.check_locality(turtle, r, fam) is None))
                assert (find_locality_radius(turtle, fam, r)
                        == oracles.find_locality_radius(turtle, fam, r))

    def test_witness_that_is_not_the_first_preimage(self):
        # The 5-chain, with its origin also sent to its far end, 4 hops
        # out.  The origin's radius-0 disk is not the far end's; the far
        # end itself is its witness.  Unwitnessed are the origin, with no
        # preimage, and its neighbour, whose disk no longer maps by path
        # extension, so the radius is 1.
        chain = bare_tape(5, AB0)
        far_end = chain.vertices[4]
        gate = FuncDynamics("collapse-onto-far-end", lambda X: (
            X, {**identity_correspondence(X), EPSILON: far_end}), AB0)
        fam = GraphFamily.from_graphs([chain])
        assert len(far_end) == 4
        assert find_locality_radius(gate, fam) == 1
        for r in range(5):
            assert ((find_locality_radius(gate, fam, r) is not None)
                    == (oracles.check_locality(gate, r, fam) is None))
            assert (find_locality_radius(gate, fam, r)
                    == oracles.find_locality_radius(gate, fam, r))

    def test_empty_family(self, conjugates):
        fam = GraphFamily.from_graphs([], TAPE_SPACE.marked)
        gate = conjugates[0][0]
        assert find_locality_radius(gate, fam) == 0
        assert oracles.find_locality_radius(gate, fam) == 0
        assert find_locality_radius(gate, fam, 0) is not None

    def test_one_application_per_member(self, conjugates):
        # The gate sees the members the old search's last radius showed it:
        # all of them when a radius is found, else those up to the first
        # member that fails at the bound.
        for gate, fam in conjugates:
            for r in range(5):
                new, old = Recording(gate), Recording(gate)
                radius = find_locality_radius(new, fam, r)
                oracles.check_locality(old, r if radius is None else radius, fam)
                assert new.applied == old.applied
                if radius is not None:
                    assert new.applied == list(fam)

    def test_errors_from_the_gate_surface_alike(self, conjugates):
        gate, fam = conjugates[0]
        for fail_at in (0, len(fam) // 2, len(fam) - 1):
            def poisoned():
                return Recording(gate, fam, fail_at)
            for r in range(5):
                assert (outcome(find_locality_radius, poisoned(), fam, r)
                        == outcome(oracles.find_locality_radius, poisoned(), fam, r))

    def test_footprints_on_lifted_tapes(self, cli_kits):
        kit = cli_kits[0]
        for X in single_head_tapes(6):
            lifted = kit.space.lift(X)
            for gate in (kit.conjugate, kit.mark_gate):
                for anchor in lifted.vertices:
                    assert (gate_footprint(gate, lifted, anchor)
                            == oracles.gate_footprint(gate, lifted, anchor))

    def test_footprint_of_an_edge_label_flip(self):
        gate = FuncDynamics("flip-edge-label", flip_edge_label,
                            EDGE_LABELLED)
        for n in range(1, 7):
            X = labelled_chain(n)
            for anchor in X.vertices:
                got = gate_footprint(gate, X, anchor)
                assert got == oracles.gate_footprint(gate, X, anchor)
                hop = X.adjacency[anchor].get("a")
                assert got == (set() if hop is None else {anchor, hop[0]})


class TestAnchoredGateReading:
    """`check-blocks` reads the conjugate mark at every anchor of each plain
    lifted tape, off one forward extension per tape.  At every anchor, the
    footprint and the farthest unwitnessed distance must be what the origin
    gate gave, tabulated over the shift closure and read through
    `ShiftedDynamics` (`oracles.gate_footprint`) and
    `oracles.find_locality_radius`; so must the radius over all of them."""

    @staticmethod
    def anchors_agreeing(kit, graphs):
        lifted = [kit.space.lift(X) for X in graphs]
        table, closure = oracles.tabulated_origin_gate(kit, lifted)
        gates = [(X, list(kit.conjugate_marks(X, X.vertices))) for X in lifted]
        anchors, undefined = 0, 0
        for X, results in gates:
            still = (X, identity_correspondence(X))
            for i, (a, (W, T)) in enumerate(zip(X.vertices, results)):
                got = outcome(footprint, X, W, T)
                assert got == outcome(oracles.gate_footprint, table, X, a)
                undefined += not isinstance(got, set)
                # The gate at a alone: the identity at the other anchors
                # leaves every vertex witnessed.
                alone = [still] * i + [(W, T)] + [still] * (len(results) - i - 1)
                member = GraphFamily.from_graphs([shift(X, a)])
                assert (anchored_locality_radius([(X, alone)])
                        == oracles.find_locality_radius(table, member))
                anchors += 1
        radius = anchored_locality_radius(gates)
        assert radius == oracles.find_locality_radius(table, closure)
        return anchors, undefined, radius

    @pytest.mark.parametrize("which, radius", [(0, 2), (1, 1)])
    def test_cli_kits_on_tapes(self, cli_kits, which, radius):
        # The moving-head and identity kits, on single-head tapes of up to
        # 5 cells and bare tapes of up to 6.
        tapes = single_head_tapes(5) + bare_tapes(6)
        assert self.anchors_agreeing(cli_kits[which], tapes) == (161, 0, radius)

    def test_turtle_kit(self):
        # The pair's two vertices collapse onto the singleton's one, so
        # three of the 62 footprints are undefined, alike on both sides.
        turtle = get_dynamics("turtle")
        kit = BlockKit.from_family(turtle, enumerate_family(turtle.alphabets, 2))
        fam = list(enumerate_family(turtle.alphabets, 3))
        assert self.anchors_agreeing(kit, fam) == (62, 3, 1)

    @pytest.mark.parametrize("cells, radius", [(5, MAX_LOCALITY_RADIUS), (6, None)])
    def test_radius_past_the_bound_is_none(self, cells, radius):
        # A gate at the origin that marks the tape's far end leaves that
        # end unwitnessed, cells - 1 hops away.
        space = MarkSpace.for_base(TAPE_ALPHABETS)
        X = space.lift(bare_tape(cells))
        end = next(iter(set(X.vertices) - ball(X, EPSILON, cells - 2)))
        gate = MarkDynamics(space).apply(X, end)
        assert anchored_locality_radius([(X, [gate])]) == radius


def rule_text_both_ways(table):
    """The inverse rule as the library reads it, and as the read at every
    vertex of every member does."""
    return (serialize_rule_file(table.local_rule()),
            serialize_rule_file(oracles.inverse_rule_at_every_vertex(table)))


class TestOriginRead:
    """The inverse rule, read at every vertex of every member of any
    family, must be the rule that `oracles.inverse_rule_at_every_vertex`
    reads."""

    @pytest.mark.parametrize("vertices", [6, 8])
    @pytest.mark.parametrize("name", ["moving-head", "identity"])
    def test_tape_closure(self, name, vertices):
        D = get_dynamics(name)
        fam = cli._family_for("tape-closure", D, vertices)
        new, old = rule_text_both_ways(build_inverse(D, fam))
        assert new == old

    @pytest.mark.parametrize("source", [
        "moving-head", "identity", "identity-rule-file", "twice-rule-file"])
    def test_cli_kits(self, source):
        if source.endswith("rule-file"):
            text = (tape_identity_rule_text() if source.startswith("identity")
                    else moving_head_twice_rule_text())
            D = LocalRuleDynamics(parse_rule_file(text).as_rule())
        else:
            D = get_dynamics(source)
        table = cli._tape_kit(D).inverse.table
        new, old = rule_text_both_ways(table)
        assert new == old

    def test_family_that_is_not_shift_closed_reads_every_vertex(self):
        # Every member is pointed at its first cell, so the origin disks
        # alone show 13 of the 57 disks.
        fam = GraphFamily.from_graphs(bare_tapes(5) + single_head_tapes(5))
        assert len(fam) == 35
        table = build_inverse(get_dynamics("moving-head"), fam)
        new, old = rule_text_both_ways(table)
        assert new == old
        assert len(table.local_rule().entries) == 57

    def test_every_vertex_still_refuses_a_dynamics_that_is_not_shift_invariant(self):
        # Two equal disks with two patches: seen only where the read visits
        # every vertex.
        fam = enumerate_family(ABXY, 3)
        assert len(fam) == 156
        table = build_inverse(origin_label_flipper(), fam)
        with pytest.raises(InverseConstructionError):
            table.local_rule()
