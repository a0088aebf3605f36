"""Canonical forms and the structural operations over them."""
import random
import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgd import (
    Alphabets,
    InvalidGraphError,
    PointedRawGraph,
    RawGraph,
    canonicalize,
    canonicalize_with_names,
    disk,
    disk_at,
    is_asymmetric,
    make_edge,
    parse_graph,
    primal_extension,
    relabel,
    shift,
    shift_equivalence_classes,
)
from cgd import modulo, portgraph
from cgd.blocks import BlockKit, apply_product, mark
from cgd.cli import main
from cgd.dynamics import get_dynamics
from cgd.families import (
    TAPE_ALPHABETS,
    bare_tape,
    bare_tapes,
    grid_graph,
    shift_closure,
    single_head_tape,
    single_head_tapes,
    turtle_graphs,
)
from cgd.patches import apply_local_rule, identity_local_rule
from cgd.portgraph import GraphError
from cgd.reversibility import GraphFamily, enumerate_family, tabulate
from cgd.modulo import (
    PathResolutionError,
    ball,
    canonicalize_component,
    shift_class_ids,
    smallest_prime_above,
)
from cgd.paths import EPSILON, Path, format_path, parse_path

from oracles import (
    apply_local_rule_pairwise,
    ball_by_bfs,
    canonicalize_rebuilding_edges,
    connected_component,
    disk_by_canonicalization,
    disk_by_shift,
    disk_scanning_edges,
    primal_extension_by_cycle_test,
    rename_every_edge,
    shift_equivalence_classes as old_classes,
)
from test_blocks import TAPE_SPACE, marked_variants, moving_head_kit
from test_patches import inflating_grid_local_rule

AB = Alphabets.make("ab")
AB0 = Alphabets.make("ab", vertex_labels=("0",))
AB01 = Alphabets.make("ab", vertex_labels=("0", "1"))
ABC = Alphabets.make("abc")
ABXY = Alphabets.make("ab", vertex_labels=("x", "y"))
ABC_XY = Alphabets.make("abc", vertex_labels=("x", "y"), edge_labels=("e",))


def pointed_ring(n, alphabets=AB, labels=None):
    edges = frozenset(make_edge(i, "a", (i + 1) % n, "b") for i in range(n))
    raw = RawGraph(alphabets=alphabets, vertices=tuple(range(n)), edges=edges,
                   vertex_labels=labels or {})
    return PointedRawGraph(raw, 0)


def pointed_chain(n, alphabets=AB, labels=None, edge_labels=None):
    edges = frozenset(make_edge(i, "a", i + 1, "b") for i in range(n - 1))
    raw = RawGraph(alphabets=alphabets, vertices=tuple(range(n)), edges=edges,
                   vertex_labels=labels or {}, edge_labels=edge_labels or {})
    return PointedRawGraph(raw, 0)


def names_of(X):
    return {format_path(v) for v in X.vertices}


def rename_edges(edges, mapping):
    return frozenset(
        frozenset((mapping[v], p) for (v, p) in e) for e in edges)


def least_name_oracle(pg, max_len):
    """Brute force: walk every port word up to max_len, record least per vertex.

    Independent of the BFS naming: enumerates words in (length, lexicographic)
    order and keeps the first word reaching each vertex.
    """
    g = pg.graph
    adj = g.adjacency()
    ports = g.alphabets.ports
    pairs = [(p, q) for p in ports for q in ports]
    found = {pg.origin: ()}
    words = [((), pg.origin)]
    for _ in range(max_len):
        nxt = []
        for word, v in words:
            for (p, q) in pairs:
                hop = adj[v].get(p)
                if hop is None or hop[1] != q:
                    continue
                w = word + ((p, q),)
                nxt.append((w, hop[0]))
                if hop[0] not in found:
                    found[hop[0]] = w
        nxt.sort(key=lambda item: [(ports.index(p), ports.index(q))
                                   for (p, q) in item[0]])
        words = nxt
    return found


class TestCanonicalize:
    def test_singleton(self):
        g = RawGraph(alphabets=AB, vertices=("lonely",))
        X = canonicalize(PointedRawGraph(g, "lonely"))
        assert names_of(X) == {"eps"}

    def test_ring_names_match_oracle(self):
        pg = pointed_ring(4)
        oracle = least_name_oracle(pg, 3)
        X, assigned = canonicalize_with_names(pg)
        assert {v: tuple(p) for v, p in oracle.items()} == \
               {v: assigned[v].pairs for v in oracle}
        assert names_of(X) == {"eps", "ab", "ba", "ab.ab"}

    def test_id_permutation_invariance(self):
        pg = pointed_ring(4)
        renamed = {0: "x", 1: "q", 2: "m", 3: "z"}
        edges = rename_edges(pg.graph.edges, renamed)
        g2 = RawGraph(alphabets=AB, vertices=("m", "z", "x", "q"), edges=edges)
        assert canonicalize(PointedRawGraph(g2, "x")) == canonicalize(pg)

    def test_random_permutations(self):
        rng = random.Random(7)
        pg = pointed_chain(5)
        base = canonicalize(pg)
        ids = list(pg.graph.vertices)
        for _ in range(10):
            shuffled = ids[:]
            rng.shuffle(shuffled)
            ren = dict(zip(ids, shuffled))
            edges = rename_edges(pg.graph.edges, ren)
            g2 = RawGraph(alphabets=AB, vertices=tuple(sorted(shuffled)),
                          edges=edges)
            assert canonicalize(PointedRawGraph(g2, ren[0])) == base

    def test_retraction(self, ab_family_4):
        for X in ab_family_4:
            assert canonicalize(X.to_pointed_raw()) == X

    def test_disconnected_rejected(self):
        g = RawGraph(alphabets=AB, vertices=("v", "w"))
        with pytest.raises(InvalidGraphError, match="not connected"):
            canonicalize(PointedRawGraph(g, "v"))

    def test_invalid_rejected(self):
        g = RawGraph(alphabets=AB, vertices=("v", "w", "u"),
                     edges=frozenset((make_edge("v", "a", "w", "b"),
                                      make_edge("v", "a", "u", "b"))))
        with pytest.raises(InvalidGraphError):
            canonicalize(PointedRawGraph(g, "v"))


def random_graph(rng, n):
    """n vertices over ABC_XY joined by up to n random edges on free
    half-edges, self-loops included, with partial vertex and edge labels:
    often disconnected."""
    halves = [(v, p) for v in range(n) for p in ABC_XY.ports]
    edges = []
    for _ in range(rng.randrange(n + 1)):
        if len(halves) < 2:
            break
        h1, h2 = rng.sample(halves, 2)
        halves = [h for h in halves if h not in (h1, h2)]
        edges.append(frozenset((h1, h2)))
    return RawGraph(alphabets=ABC_XY, vertices=tuple(range(n)),
                    edges=frozenset(edges),
                    vertex_labels={v: rng.choice("xy") for v in range(n)
                                   if rng.random() < 0.7},
                    edge_labels={e: "e" for e in edges if rng.random() < 0.5})


def assert_component_form(g):
    """From every origin, `canonicalize_component` gives the canonical form
    and names of the origin's connected component."""
    for v in g.vertices:
        want = canonicalize_with_names(PointedRawGraph(connected_component(g, v), v))
        got = canonicalize_component(PointedRawGraph(g, v))
        assert got == want
        assert list(got[1]) == list(want[1])


class TestCanonicalizeComponent:
    def test_random_disconnected_graphs(self):
        rng = random.Random(2805)
        graphs = [random_graph(rng, rng.randint(1, 8)) for _ in range(150)]
        split = [g for g in graphs
                 if len(connected_component(g, 0).vertices) < len(g.vertices)]
        assert len(split) > 50
        for g in graphs:
            assert_component_form(g)

    @pytest.mark.parametrize("marked_cells, regions", [((3,), 2), ((2, 4), 3)])
    def test_unmarked_regions_of_marked_tapes(self, marked_cells, regions):
        # The graphs the reversible extension walks: the unmarked part of a
        # marked tape, its bits dropped.
        kit = moving_head_kit()
        X = TAPE_SPACE.lift(single_head_tape(7, 1, "cc"))
        cells = [v for v in X.vertices if format_path(v) in
                 [".".join(["a0b0"] * i) or "eps" for i in marked_cells]]
        M = apply_product(kit.mark_gate.apply, cells, X)[0]
        unmarked = [v for v in M.vertices if TAPE_SPACE.vertex_mark(M, v) == 0]
        rest = relabel(portgraph.induced_subgraph(M, unmarked),
                       ports=TAPE_SPACE.dropping, labels=TAPE_SPACE.dropping,
                       alphabets=TAPE_SPACE.base)
        found = {frozenset(canonicalize_component(PointedRawGraph(rest, v))[1])
                 for v in rest.vertices}
        assert len(found) == regions
        assert sum(map(len, found)) == len(rest.vertices)
        assert_component_form(rest)


class TestResolve:
    def test_origin(self, ab_family_4):
        for X in ab_family_4:
            assert X.resolve(EPSILON) == EPSILON

    def test_ring_walk(self):
        X = canonicalize(pointed_ring(4))
        # Walking ab three times round the 4-ring lands one step backwards.
        assert format_path(X.resolve(parse_path("ab.ab.ab", ("a", "b")))) == "ba"

    def test_absent(self):
        X = canonicalize(PointedRawGraph(RawGraph(alphabets=AB, vertices=("v",)), "v"))
        assert X.resolve(parse_path("ab", ("a", "b"))) is None

    def test_from_a_start_is_from_the_origin_after_the_start(self, ab_family_4):
        for X in ab_family_4:
            for u in X.vertices:
                for v in shift(X, u).vertices:
                    assert X.resolve(v, start=u) == X.resolve(u.concat(v))
                walk = parse_path("ab.ab.ab.ab.ab", ("a", "b"))
                assert X.resolve(walk, start=u) == X.resolve(u.concat(walk))


class TestShift:
    def test_identity_shift(self, ab_family_4):
        for X in ab_family_4:
            assert shift(X, EPSILON) == X

    def test_shift_then_reverse(self, ab_family_4):
        for X in ab_family_4:
            for u in X.vertices:
                assert shift(shift(X, u), u.reversed()) == X

    def test_unresolvable_path(self):
        X = canonicalize(PointedRawGraph(RawGraph(alphabets=AB, vertices=("v",)), "v"))
        with pytest.raises(PathResolutionError):
            shift(X, parse_path("ab", ("a", "b")))

    def test_composite_shift_example(self):
        # O--P via ab, O--T via bc, P--T via cb, T--U via ac: walking bc.ac
        # from O and walking ab then cb.ac reach the same vertex U.
        edges = frozenset((make_edge("O", "a", "P", "b"),
                           make_edge("O", "b", "T", "c"),
                           make_edge("P", "c", "T", "b"),
                           make_edge("T", "a", "U", "c")))
        g = RawGraph(alphabets=ABC, vertices=("O", "P", "T", "U"), edges=edges)
        X = canonicalize(PointedRawGraph(g, "O"))
        ports = ("a", "b", "c")
        direct = shift(X, parse_path("bc.ac", ports))
        via_p = shift(shift(X, parse_path("ab", ports)), parse_path("cb.ac", ports))
        assert direct == via_p
        # Undoing the second leg restores the intermediate pointing.
        assert shift(via_p, parse_path("ca.bc", ports)) == shift(X, parse_path("ab", ports))

    def test_group_action(self, ab_family_4):
        for X in ab_family_4:
            for u in X.vertices:
                Xu = shift(X, u)
                for v in Xu.vertices:
                    assert shift(Xu, v) == shift(X, u.concat(v))


class TestDisk:
    def test_whole_graph_when_radius_covers(self):
        labels = {i: "x" if i % 2 else "y" for i in range(4)}
        X = canonicalize(pointed_ring(4, ABXY, labels))
        d = disk(X, 2)
        assert d == X

    def test_labelled_singleton(self):
        g = RawGraph(alphabets=ABXY, vertices=("v",), vertex_labels={"v": "x"})
        X = canonicalize(PointedRawGraph(g, "v"))
        assert disk(X, 0) == X

    def test_chain_radius_one(self):
        # Distance oracle: name length equals BFS distance from the origin.
        labels = {i: "x" for i in range(4)}
        elabels_alph = Alphabets.make("ab", vertex_labels=("x",), edge_labels=("e",))
        edges = [make_edge(i, "a", i + 1, "b") for i in range(3)]
        raw = RawGraph(alphabets=elabels_alph, vertices=tuple(range(4)),
                       edges=frozenset(edges), vertex_labels=labels,
                       edge_labels={e: "e" for e in edges})
        X = canonicalize(PointedRawGraph(raw, 0))
        assert {len(v) for v in X.vertices} == {0, 1, 2, 3}
        d = disk(X, 1)
        assert names_of(d) == {"eps", "ab", "ab.ab"}
        assert {format_path(v) for v in d.vertex_labels} == {"eps", "ab"}
        assert len(d.edges) == 2
        assert len(d.edge_labels) == 1
        (labelled_edge,) = d.edge_labels
        assert {format_path(v) for (v, _p) in labelled_edge} == {"eps", "ab"}

    def test_monotone_labelled_portion(self, ab_family_4):
        # The labelled part of a small disk is unchanged by first taking a
        # bigger disk.
        for X in list(ab_family_4)[::7]:
            big = disk(X, 2)
            small_direct = disk(X, 1)
            small_via_big = disk(big, 1)
            assert small_direct.vertex_labels == small_via_big.vertex_labels
            assert small_direct.edge_labels == small_via_big.edge_labels


class TestShiftEquivalence:
    def test_chain_is_asymmetric(self):
        X = canonicalize(pointed_chain(3))
        assert is_asymmetric(X)
        assert all(len(c) == 1 for c in shift_equivalence_classes(X))

    def test_ring_has_one_class(self):
        X = canonicalize(pointed_ring(4))
        classes = shift_equivalence_classes(X)
        assert len(classes) == 1
        assert len(classes[0]) == 4
        assert not is_asymmetric(X)

    def test_label_breaks_symmetry(self):
        labels = {0: "x", 1: "y", 2: "y", 3: "y"}
        X = canonicalize(pointed_ring(4, ABXY, labels))
        # Brute force: all pairwise shifted comparisons.
        shifted = {v: shift(X, v) for v in X.vertices}
        for u in X.vertices:
            for v in X.vertices:
                if u != v:
                    assert shifted[u] != shifted[v]
        assert is_asymmetric(X)

    def test_turtle_pair_equivalent(self):
        _solo, pair = turtle_graphs()
        classes = shift_equivalence_classes(pair)
        assert len(classes) == 1
        assert len(classes[0]) == 2

    def test_classes_share_cardinality(self, ab_family_6):
        for X in ab_family_6:
            sizes = {len(c) for c in shift_equivalence_classes(X)}
            assert len(sizes) == 1


class TestPrimalExtension:
    def test_smallest_prime_above(self):
        def is_prime(n):
            return n >= 2 and all(n % d for d in range(2, n))
        for n in range(0, 40):
            p = smallest_prime_above(n)
            assert p > n and is_prime(p)
            assert all(not is_prime(k) for k in range(n + 1, p))

    def test_two_classes_of_three(self):
        labels = {i: ("x" if i % 2 == 0 else "y") for i in range(6)}
        X = canonicalize(pointed_ring(6, ABXY, labels))
        assert sorted(len(c) for c in shift_equivalence_classes(X)) == [3, 3]
        ext = primal_extension(X)
        assert len(ext.vertices) == 11  # least prime above 6 + 2
        assert is_asymmetric(ext)

    def test_uniform_ring(self):
        X = canonicalize(pointed_ring(4, AB0, {i: "0" for i in range(4)}))
        ext = primal_extension(X)
        assert len(ext.vertices) == 7  # least prime above 4 + 2
        assert is_asymmetric(ext)

    def test_free_port_host_keeps_original_names(self):
        X = canonicalize(pointed_chain(3))
        ext = primal_extension(X, force=True)
        # A pendant line cannot shorten existing geodesics, so the original
        # vertices keep their names, labels and mutual edges.
        for v in X.vertices:
            assert v in set(ext.vertices)
        for e in X.edges:
            assert e in ext.edges

    def test_prime_and_asymmetric_across_family(self, ab_family_6):
        def is_prime(n):
            return n >= 2 and all(n % d for d in range(2, n))
        symmetric = [X for X in ab_family_6 if not is_asymmetric(X)]
        assert symmetric
        for X in symmetric:
            ext = primal_extension(X)
            assert is_prime(len(ext.vertices))
            assert len(ext.vertices) == smallest_prime_above(len(X.vertices) + 2)
            assert is_asymmetric(ext)

    def test_asymmetric_needs_force(self):
        X = canonicalize(pointed_chain(3))
        with pytest.raises(ValueError, match="force"):
            primal_extension(X)
        assert is_asymmetric(primal_extension(X, force=True))

    def test_single_port_alphabet_rejected(self):
        solo = Alphabets.make("a")
        X = canonicalize(PointedRawGraph(
            RawGraph(alphabets=solo, vertices=("v",)), "v"))
        with pytest.raises(ValueError, match="two ports"):
            primal_extension(X, force=True)

    def test_cycle_edge_removal_on_full_host(self):
        # Ring vertices have no free port; a cycle edge must be removed.
        X = canonicalize(pointed_ring(6))
        ext = primal_extension(X, force=True)
        assert len(ext.vertices) == 11
        assert is_asymmetric(ext)

    def test_every_host_has_a_free_port_or_a_cycle_edge(self, ab_family_6):
        # The host is a farthest vertex, so each of its edges but the one to
        # its BFS parent lies on a cycle; with two ports or more, a host with
        # no free port has such an edge to remove.
        abc_family_3 = enumerate_family(Alphabets.make("abc", ("0",)), 3)
        for X in [*ab_family_6, *abc_family_3]:
            ext = primal_extension(X, force=True)
            assert len(ext.vertices) == smallest_prime_above(len(X.vertices) + 2)
            assert is_asymmetric(ext)

    @pytest.mark.parametrize("alphabets, max_vertices, graphs, full_hosts", [
        (AB0, 6, 384, 63),
        (Alphabets.make("abc", ("0",)), 3, 982, 384),
        (Alphabets.make("ab", ("0",), ("x", "y")), 4, 483, 170),
    ], ids=["ab-0-6", "abc-0-3", "ab-0-xy-4"])
    def test_victim_is_the_cycle_tests_choice(self, alphabets, max_vertices,
                                               graphs, full_hosts):
        # The greatest host edge is the oracle's victim: the greatest host
        # edge that a connectivity test finds on a cycle.
        family = enumerate_family(alphabets, max_vertices)
        full = 0
        for X in family:
            want = primal_extension_by_cycle_test(X, force=True)
            got = primal_extension(X, force=True)
            assert got == want
            assert got.to_text() == want.to_text()
            host = next(v for v in X.vertices if len(v) == len(X.vertices[-1]))
            full += len(X.adjacency[host]) == len(alphabets.ports)
        assert (len(family), full) == (graphs, full_hosts)


class TestEquality:
    def test_hashable_and_equal(self):
        a = canonicalize(pointed_ring(4))
        b = canonicalize(pointed_ring(4))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_pointing_matters(self):
        X = canonicalize(pointed_chain(3))
        Y = shift(X, X.vertices[1])
        assert X != Y

    def test_labels_matter(self):
        plain = canonicalize(pointed_ring(4, ABXY, {i: "x" for i in range(4)}))
        other = canonicalize(pointed_ring(4, ABXY, {i: "y" for i in range(4)}))
        assert plain != other


@st.composite
def pointed_graphs(draw, max_vertices=7):
    """Connected pointed graphs over ABC_XY with partial vertex and edge labels.

    A random spanning tree plus extra edges (self-loops included) on the
    half-edges left free; ids are small integers, the origin is drawn.
    """
    n = draw(st.integers(1, max_vertices))
    ports = ABC_XY.ports
    free = {v: list(ports) for v in range(n)}
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
    vlabel = st.sampled_from([None, "x", "y"])
    labels = {v: l for v in range(n) if (l := draw(vlabel)) is not None}
    edge_labels = {e: "e" for e in edges if draw(st.booleans())}
    raw = RawGraph(alphabets=ABC_XY, vertices=tuple(range(n)),
                   edges=frozenset(edges), vertex_labels=labels,
                   edge_labels=edge_labels)
    return PointedRawGraph(raw, draw(st.integers(0, n - 1)))


def in_path_key_order(X):
    return X.vertices == tuple(sorted(X.vertices, key=X.alphabets.path_key))


PROPERTY = settings(max_examples=150, deadline=None, database=None,
                    derandomize=True)


class TestTrustedOrder:
    """CanonicalGraph keeps the BFS order of `_canonical_names` unsorted."""

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_names_and_order_match_brute_force(self, pg):
        X, assigned = canonicalize_with_names(pg)
        oracle = least_name_oracle(pg, len(pg.graph.vertices))
        assert {v: w.pairs for v, w in assigned.items()} == oracle
        assert in_path_key_order(X)

    @PROPERTY
    @given(pg=pointed_graphs(), data=st.data())
    def test_invariant_under_id_permutation(self, pg, data):
        X = canonicalize(pg)
        ids = pg.graph.vertices
        shuffled = data.draw(st.permutations([f"v{i}" for i in ids]))
        mapping = dict(zip(ids, shuffled))
        Y = canonicalize(PointedRawGraph(relabel(pg.graph, ids=mapping),
                                         mapping[pg.origin]))
        assert Y == X and hash(Y) == hash(X)
        assert Y.vertices == X.vertices

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_invariant_under_text_round_trip(self, pg):
        X = canonicalize(pg)
        Y = canonicalize(parse_graph(X.to_text()))
        assert Y == X and hash(Y) == hash(X)
        assert Y.to_text() == X.to_text()

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_shifts_keep_order_and_undo(self, pg):
        X = canonicalize(pg)
        for u in X.vertices:
            Xu = shift(X, u)
            assert in_path_key_order(Xu)
            assert in_path_key_order(disk(Xu, 1))
            assert shift(Xu, u.reversed()) == X

    def test_exhaustive_family_in_order(self, ab_family_6):
        for X in ab_family_6:
            assert in_path_key_order(X)

    def test_exhaustive_shifts_in_order(self, ab_family_4):
        for X in ab_family_4:
            for u in X.vertices:
                assert in_path_key_order(shift(X, u))

    @pytest.fixture
    def path_key_calls(self, monkeypatch):
        calls = []
        real = Alphabets.path_key
        monkeypatch.setattr(Alphabets, "path_key",
                            lambda self, path: calls.append(1) or real(self, path))
        return calls

    def test_no_path_key_calls_on_long_tape(self, path_key_calls):
        # The order is trusted, not re-derived: a sort by path_key would
        # cost O(name length) per vertex on every canonicalization.
        X = single_head_tape(200, 77)
        raw = canonicalize(X.to_pointed_raw())
        far = shift(X, X.vertices[-1])
        local = disk(far, 2)
        assert path_key_calls == []
        assert raw == X and len(far) == len(X) and len(local) == 4

    def test_no_path_key_calls_on_the_block_path(self, path_key_calls):
        # The kit and family `cgd decompose` builds for a 6-cell tape.
        X = single_head_tape(6, 2)
        fam = GraphFamily.from_graphs(shift_closure(
            bare_tapes(len(X)) + single_head_tapes(len(X) - 1)))
        mh = get_dynamics("moving-head")
        kit = BlockKit.from_family(mh, fam)
        assert kit.decompose_step(X) == mh.apply(X)[0]
        assert path_key_calls == []


@st.composite
def cyclic_graphs(draw):
    """k copies of a drawn graph in a ring, copy i joined to copy i + 1 by
    one edge between two drawn free half-edges, and k: turning the ring by
    one copy keeps ports and labels, so for k > 1 no class is a singleton."""
    g = draw(pointed_graphs(max_vertices=3)).graph
    used = {h for e in g.edges for h in e}
    free = [(v, p) for v in g.vertices for p in ABC_XY.ports if (v, p) not in used]
    k = draw(st.integers(2, 4)) if len(free) > 1 else 1
    edges, edge_labels = set(), {}
    for i in range(k):
        for e in g.edges:
            f = frozenset(((i, v), p) for v, p in e)
            edges.add(f)
            if e in g.edge_labels:
                edge_labels[f] = g.edge_labels[e]
    if k > 1:
        (v, p), (w, q) = draw(st.permutations(free))[:2]
        edges.update(make_edge((i, v), p, ((i + 1) % k, w), q) for i in range(k))
    raw = RawGraph(alphabets=ABC_XY,
                   vertices=tuple((i, v) for i in range(k) for v in g.vertices),
                   edges=frozenset(edges),
                   vertex_labels={(i, v): l for i in range(k)
                                  for v, l in g.vertex_labels.items()},
                   edge_labels=edge_labels)
    return canonicalize(PointedRawGraph(raw, (0, g.vertices[0]))), k


def partition(vertices, ids):
    groups = {}
    for v, i in zip(vertices, ids):
        groups.setdefault(i, set()).add(v)
    return {frozenset(group) for group in groups.values()}


def assert_orbit_classes_match(graphs):
    """On every pointing of every graph, `shift_equivalence_classes` equals
    the old classes, order included, and the ids read from one orbit table
    shared by all the graphs, filled by whichever pointing came first,
    partition the vertices as the old classes do."""
    orbit, seen = {}, set()
    for X in graphs:
        for u in X.vertices:
            Xu = shift(X, u)
            if Xu in seen:
                continue
            seen.add(Xu)
            old = old_classes(Xu)
            assert shift_equivalence_classes(Xu) == old
            assert partition(Xu.vertices, shift_class_ids(Xu, orbit)) == \
                set(map(frozenset, old))
    return seen


class TestOrbitClasses:
    """`shift_class_ids` fills in the classes of every pointing of a graph
    from one shift per vertex; the old code shifted each pointing again."""

    def test_ab_family_5(self, ab_family_6):
        seen = assert_orbit_classes_match(g for g in ab_family_6 if len(g) <= 5)
        assert sum(not is_asymmetric(X) for X in seen) == 18

    def test_abcd_family_2(self):
        seen = assert_orbit_classes_match(enumerate_family(TAPE_ALPHABETS, 2))
        assert sum(not is_asymmetric(X) for X in seen) == 66

    def test_tape_closure_8(self):
        assert len(assert_orbit_classes_match(shift_closure(
            bare_tapes(8) + single_head_tapes(7)))) == 370

    def test_grids(self):
        assert_orbit_classes_match(
            [grid_graph(rows, cols) for rows in (1, 2, 3) for cols in (1, 2, 3)]
            + [grid_graph(3, 3, labels={(i, j): ("white", "black")[(i + j) % 2]
                                        for i in range(3) for j in range(3)})])

    def test_symmetric_examples(self):
        labels = {i: "xy"[i % 2] for i in range(6)}
        graphs = [canonicalize(pointed_ring(n)) for n in (1, 2, 3, 5)] + [
            canonicalize(pointed_ring(6, ABXY, labels)), turtle_graphs()[1]]
        assert_orbit_classes_match(graphs)

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_hypothesis_graphs(self, pg):
        assert_orbit_classes_match([canonicalize(pg)])

    @PROPERTY
    @given(Xk=cyclic_graphs())
    def test_hypothesis_rings_of_copies(self, Xk):
        X, k = Xk
        assert k == 1 or not is_asymmetric(X)
        assert_orbit_classes_match([X])

    def test_one_pass_fills_every_pointing(self, monkeypatch):
        # A 6-ring with alternating labels: 6 pointings, 2 distinct graphs;
        # the origin's pointing is X itself and needs no shift.
        calls = []
        real = modulo.shift_with_names
        monkeypatch.setattr(modulo, "shift_with_names",
                            lambda X, u: calls.append(u) or real(X, u))
        X = canonicalize(pointed_ring(6, ABXY, {i: "xy"[i % 2] for i in range(6)}))
        orbit = {}
        for Y in [X] + [real(X, u)[0] for u in X.vertices]:
            by_label = [Y.vertex_labels[v] for v in Y.vertices]
            assert partition(Y.vertices, shift_class_ids(Y, orbit)) == \
                partition(Y.vertices, by_label)
        assert len(calls) == 5 and EPSILON not in calls and len(orbit) == 2


class TestTextSlot:
    """A canonical graph builds its text on the first `to_text` and keeps it."""

    def test_built_once(self, monkeypatch):
        calls = []
        real = modulo.write_graph
        monkeypatch.setattr(modulo, "write_graph",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        X = single_head_tape(5, 2)
        text = X.to_text()
        assert X.to_text() is text and len(calls) == 1
        assert text == portgraph.serialize_graph(X.to_pointed_raw(), token=format_path)

    def test_each_graph_keeps_its_own(self, ab_family_4):
        texts = [X.to_text() for X in ab_family_4]
        assert len(set(texts)) == len(texts)
        for X, text in zip(ab_family_4, texts):
            assert X.to_text() == text == portgraph.serialize_graph(
                X.to_pointed_raw(), token=format_path)

    def test_equal_graphs_equal_texts(self):
        X = single_head_tape(4, 1)
        X.to_text()
        Y = canonicalize(parse_graph(X.to_text()))
        assert Y == X and Y._text is None and Y.to_text() == X.to_text()


def assert_same_disk(X, radius):
    got, want = disk(X, radius), disk_by_canonicalization(X, radius)
    assert got == want and hash(got) == hash(want)
    assert got.vertices == want.vertices


def assert_same_as_edge_scan(X, radius):
    got, want = disk(X, radius), disk_scanning_edges(X, radius)
    assert got == want and hash(got) == hash(want)
    assert got.vertices == want.vertices and got.edges == want.edges
    assert (got.vertex_labels, got.edge_labels) == \
        (want.vertex_labels, want.edge_labels)


class TestDiskInheritsNames:
    """`disk` keeps X's names; the old disk canonicalized the pruned graph."""

    def test_exhaustive_family(self, ab_family_6):
        for X in ab_family_6:
            for radius in range(4):
                assert_same_disk(X, radius)

    def test_tape_closure(self, tape_closure_5):
        for X in tape_closure_5:
            for radius in range(4):
                assert_same_disk(X, radius)

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_labelled_graphs_at_every_vertex(self, pg):
        X = canonicalize(pg)
        for u in X.vertices:
            for radius in range(4):
                assert_same_disk(shift(X, u), radius)

    def test_adjacency_read_matches_edge_scan(self, ab_family_6):
        for X in ab_family_6:
            for radius in range(4):
                assert_same_as_edge_scan(X, radius)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(pg=pointed_graphs())
    def test_adjacency_read_matches_edge_scan_on_labelled_graphs(self, pg):
        X = canonicalize(pg)
        for radius in range(4):
            assert_same_as_edge_scan(X, radius)

    def test_no_renaming(self, monkeypatch):
        X = single_head_tape(30, 11)
        calls = []
        real = modulo._canonical_names
        monkeypatch.setattr(modulo, "_canonical_names", lambda *a, **k:
                            calls.append("_canonical_names") or real(*a, **k))
        # Wrapping the constructor counts a graph built under any name.
        init = RawGraph.__init__
        monkeypatch.setattr(RawGraph, "__init__", lambda self, *a, **k:
                            calls.append("RawGraph") or init(self, *a, **k))
        for radius in range(4):
            disk(X, radius)
        assert calls == []


def assert_disk_at_is_disk_of_shift(X, u, radius):
    got, want = disk_at(X, u, radius), disk_by_shift(X, u, radius)
    assert got == want and hash(got) == hash(want)
    assert got.vertices == want.vertices


class TestDiskAt:
    """`disk_at(X, u, r)` is `disk(shift(X, u), r)`, read off the vertices
    near u alone."""

    def test_exhaustive_family(self, ab_family_6):
        for X in ab_family_6:
            for u in X.vertices:
                for radius in range(4):
                    assert_disk_at_is_disk_of_shift(X, u, radius)

    def test_tape_closure(self, tape_closure_5):
        for X in tape_closure_5:
            for u in X.vertices:
                for radius in range(4):
                    assert_disk_at_is_disk_of_shift(X, u, radius)

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_labelled_graphs_at_every_vertex(self, pg):
        X = canonicalize(pg)
        for u in X.vertices:
            for radius in range(4):
                assert_disk_at_is_disk_of_shift(X, u, radius)

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_at_the_origin_is_disk(self, pg):
        X = canonicalize(pg)
        for radius in range(4):
            got, want = disk_at(X, EPSILON, radius), disk(X, radius)
            assert got == want and got.vertices == want.vertices

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            disk_at(bare_tape(3), EPSILON, -1)

    def test_non_vertex_rejected(self):
        X = bare_tape(3)
        with pytest.raises(PathResolutionError, match="^ab.ab.ab is not a vertex"):
            disk_at(X, parse_path("ab.ab.ab", ("a", "b", "c")), 0)

    @PROPERTY
    @given(pg=pointed_graphs(), radius=st.integers(0, 2))
    def test_identity_rule_returns_its_input(self, pg, radius):
        X = canonicalize(pg)
        got = apply_local_rule(identity_local_rule(radius), X)
        assert got == apply_local_rule_pairwise(identity_local_rule(radius), X)
        if radius == 0:
            # A radius-0 disk labels only the edges that join its origin to
            # itself, so only self-loops keep their labels.
            X = modulo.CanonicalGraph(
                X.alphabets, X.vertices, X.vertex_labels, X.edges,
                {e: l for e, l in X.edge_labels.items()
                 if len({v for (v, _p) in e}) == 1})
        assert got == (X, {v: v for v in X.vertices})

    def test_local_rule_shifts_nothing_and_visits_linearly(self, monkeypatch):
        calls = []
        for real in (modulo.shift, modulo.shift_with_names):
            for name, module in list(sys.modules.items()):
                if name == "cgd" or name.startswith("cgd."):
                    for attr, obj in list(vars(module).items()):
                        if obj is real:
                            monkeypatch.setattr(
                                module, attr, lambda *a, real=real, **k:
                                calls.append(real.__name__) or real(*a, **k))
        visited = []
        real_names = modulo._canonical_names
        monkeypatch.setattr(modulo, "_canonical_names", lambda *a, **k:
                            visited.append(len(names := real_names(*a, **k))) or names)
        n = 200
        for radius in range(3):
            X = single_head_tape(n, 77)
            visited.clear()
            assert apply_local_rule(identity_local_rule(radius), X)[0] == X
            # One disk of at most 2(radius+1)+2 vertices per vertex, plus
            # the final canonicalization of the glued graph.
            assert len(visited) == len(X.vertices) + 1
            assert sum(visited) <= len(X.vertices) * (2 * radius + 5)
        assert calls == []


class TestBall:
    """`ball` is the vertex set of a BFS naming cut at the radius."""

    def test_exhaustive_family(self, ab_family_6):
        for X in ab_family_6:
            for u in X.vertices:
                for radius in range(4):
                    assert ball(X, u, radius) == ball_by_bfs(X, u, radius)

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_labelled_graphs_at_every_vertex(self, pg):
        X = canonicalize(pg)
        for u in X.vertices:
            for radius in range(4):
                assert ball(X, u, radius) == ball_by_bfs(X, u, radius)

    def test_radius_zero_is_the_center(self):
        X = bare_tape(3)
        assert ball(X, EPSILON, 0) == {EPSILON}
        assert ball(X, EPSILON, 5) == set(X.vertices)

    def test_non_vertex_rejected_like_disk_at(self):
        X = bare_tape(3)
        cc = Path((("c", "c"),))
        for call in (ball, disk_at):
            with pytest.raises(PathResolutionError, match="^cc is not a vertex"):
                call(X, cc, 1)


class TestTrustBoundary:
    """Graphs are validated where they enter, not on every canonicalization."""

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        calls = []
        real = portgraph.validate
        monkeypatch.setattr(portgraph, "validate",
                            lambda g: calls.append(1) or real(g))
        return calls

    def test_enumeration_validates_nothing(self, validate_calls):
        enumerate_family(AB0, 5)
        enumerate_family(Alphabets.make("ab", ("0", "1"), ("x",)), 3)
        assert validate_calls == []

    def test_inverse_table_validates_nothing(self, validate_calls, tape_closure_5):
        validate_calls.clear()
        table = tabulate(get_dynamics("moving-head"), tape_closure_5).inverse()
        assert len(table.forward) == len(tape_closure_5)
        assert validate_calls == []

    def test_block_path_validates_nothing(self, validate_calls):
        X = single_head_tape(6, 2)
        fam = GraphFamily.from_graphs(shift_closure(
            bare_tapes(len(X)) + single_head_tapes(len(X) - 1)))
        mh = get_dynamics("moving-head")
        validate_calls.clear()
        kit = BlockKit.from_family(mh, fam)
        assert kit.decompose_step(X) == mh.apply(X)[0]
        assert validate_calls == []

    def test_cli_run_validates_nothing(self, validate_calls, tmp_path, capsys):
        tape = tmp_path / "tape.graph"
        tape.write_text(single_head_tape(200, 77).to_text())
        out = tmp_path / "out"
        validate_calls.clear()
        assert main(["run", "--dynamics", "moving-head", "--input", str(tape),
                     "--steps", "3", "--output-dir", str(out)]) == 0
        assert len(list(out.iterdir())) == 4
        assert validate_calls == []

    def test_local_rule_validates_its_glued_graph_once(self, validate_calls):
        tapes = [bare_tape(12), single_head_tape(12, 5)]
        validate_calls.clear()
        for X in tapes:
            assert apply_local_rule(identity_local_rule(1), X)[0] == X
        assert len(validate_calls) == len(tapes)

    @pytest.mark.parametrize("port, label, message", [
        ("z", "0", "port 'z' on vertex 'w' is not in the port alphabet"),
        ("b", "q", "vertex 'w' carries unknown label 'q'"),
    ])
    def test_canonicalize_still_validates(self, port, label, message):
        g = RawGraph(alphabets=AB0, vertices=("v", "w"),
                     edges=frozenset((make_edge("v", "a", "w", port),)),
                     vertex_labels={"w": label})
        with pytest.raises(InvalidGraphError, match=f"^{message}$"):
            canonicalize(PointedRawGraph(g, "v"))

    def test_validate_reports_duplicate_vertex_ids_first(self):
        g = RawGraph(alphabets=AB0, vertices=("v", "w", "v"),
                     edges=frozenset((make_edge("v", "a", "w", "z"),)),
                     vertex_labels={"w": "q"})
        message = "duplicate vertex ids in ('v', 'w', 'v')"
        assert portgraph.validate(g) == message
        with pytest.raises(InvalidGraphError, match=f"^{re.escape(message)}$"):
            canonicalize(PointedRawGraph(g, "v"))

    @pytest.mark.parametrize("call", [canonicalize, canonicalize_with_names,
                                      canonicalize_component])
    def test_origin_outside_the_graph(self, call):
        g = RawGraph(alphabets=AB0, vertices=("v", "w"),
                     edges=frozenset((make_edge("v", "a", "w", "b"),)))
        with pytest.raises(InvalidGraphError, match="^origin 'u' is not a vertex$"):
            call(PointedRawGraph(g, "u"))


class TestTrustedCallsGetValidGraphs:
    """Every graph the library hands to `canonicalize_with_names` is valid."""

    @pytest.fixture(autouse=True)
    def checked(self, monkeypatch):
        real = modulo.canonicalize_with_names
        seen = []

        def checked_canonicalize_with_names(pg):
            seen.append(1)
            assert portgraph.validate(pg.graph) is None
            return real(pg)

        for name, module in list(sys.modules.items()):
            if name == "cgd" or name.startswith("cgd."):
                for attr, obj in list(vars(module).items()):
                    if obj is real:
                        monkeypatch.setattr(module, attr, checked_canonicalize_with_names)
        yield
        assert seen

    def test_tabulate(self, tape_closure_5):
        tabulate(get_dynamics("moving-head"), tape_closure_5).inverse()
        turtle = get_dynamics("turtle")
        tabulate(turtle, enumerate_family(turtle.alphabets, 4)).inverse()

    def test_inflating_grid(self):
        grid = get_dynamics("inflating-grid")
        for shape in ((1, 1), (2, 3), (3, 2)):
            grid.apply(grid.apply(grid_graph(*shape))[0])

    def test_primal_extension(self, ab_family_4):
        for X in ab_family_4:
            primal_extension(X, force=True)
        primal_extension(canonicalize(pointed_ring(6)), force=True)

    def test_marks_and_extensions(self):
        kit = moving_head_kit()
        for X in single_head_tapes(3):
            lifted = TAPE_SPACE.lift(X)
            assert TAPE_SPACE.drop(lifted) == X
            for M in marked_variants(lifted, TAPE_SPACE):
                mark(M, TAPE_SPACE)
                for ext in (kit.forward_ext, kit.backward_ext):
                    try:
                        ext.apply(M)
                    except GraphError:
                        pass    # a seam conflict or a mark-inconsistent input

    def test_decompose_and_local_rules(self):
        kit = moving_head_kit(6)
        X = single_head_tape(6, 2)
        assert kit.decompose_step(X) == get_dynamics("moving-head").apply(X)[0]
        apply_local_rule(identity_local_rule(1), X)
        apply_local_rule(inflating_grid_local_rule(), grid_graph(2, 2))


def assert_same_graph(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.to_text() == want.to_text()


@st.composite
def half_named_graphs(draw):
    """`pointed_graphs` with some ids replaced by canonical names: each
    chosen vertex takes its own name or, after a shuffle, another vertex's,
    so edges keep both, one or none of their names, and ids mix types."""
    pg = draw(pointed_graphs())
    names = canonicalize_with_names(pg)[1]
    chosen = [v for v in pg.graph.vertices if draw(st.booleans())]
    targets = draw(st.permutations(chosen)) if draw(st.booleans()) else chosen
    ids = {v: v for v in pg.graph.vertices}
    ids.update((v, names[t]) for v, t in zip(chosen, targets))
    return PointedRawGraph(relabel(pg.graph, ids=ids), ids[pg.origin])


class TestKeptEdgeRecords:
    """`_rename` keeps every edge record whose two ends already carry their
    canonical names and rebuilds the others; `oracles.rename_every_edge`
    rebuilds them all.  Both give the same graph, hash, text and names."""

    @pytest.fixture
    def checked_renames(self, monkeypatch):
        """Every `_rename` call in the library also runs the oracle on the
        same arguments and must agree with it; yields the calls made."""
        calls = []
        real = modulo._rename

        def checked(*args):
            got = real(*args)
            assert_same_graph(got, rename_every_edge(*args))
            calls.append(got)
            return got

        monkeypatch.setattr(modulo, "_rename", checked)
        yield calls

    def test_family_at_every_pointing(self):
        family = enumerate_family(AB01, 4)
        assert len(family) == 796
        for X in family:
            raw = X.to_pointed_raw().graph
            for u in X.vertices:
                pg = PointedRawGraph(raw, u)
                got, names = canonicalize_with_names(pg)
                want, want_names = canonicalize_rebuilding_edges(pg)
                assert_same_graph(got, want)
                assert names == want_names
                assert (got, names) == modulo.shift_with_names(X, u)

    def test_moving_head_steps(self, checked_renames):
        D = get_dynamics("moving-head")
        rng = random.Random(3101)
        for _ in range(12):
            n = rng.randint(2, 40)
            X = single_head_tape(n, rng.randrange(n), rng.choice(("cc", "dd")))
            for _step in range(3):
                X = D.apply(X)[0]
        assert len(checked_renames) >= 36

    def test_lifted_and_marked_tapes(self, checked_renames):
        for M in marked_variants(TAPE_SPACE.lift(single_head_tape(3, 1)), TAPE_SPACE):
            mark(M, TAPE_SPACE)
        kit = moving_head_kit(5)
        rng = random.Random(3102)
        for n in (5, 9, 15):
            X = single_head_tape(n, rng.randrange(n), rng.choice(("cc", "dd")))
            assert kit.decompose_step(X) == get_dynamics("moving-head").apply(X)[0]
        assert len(checked_renames) > 100

    @PROPERTY
    @given(pg=half_named_graphs())
    def test_mixed_ids(self, pg):
        got, names = canonicalize_with_names(pg)
        want, want_names = canonicalize_rebuilding_edges(pg)
        assert_same_graph(got, want)
        assert names == want_names

    def test_kept_edge_is_not_rebuilt(self):
        X = single_head_tape(6, 2)
        names = {v: v for v in X.vertices}
        Y = modulo._rename(X.alphabets, names, X.vertex_labels, X.edges,
                           X.edge_labels)
        assert Y == X
        assert {id(e) for e in Y.edges} == {id(e) for e in X.edges}

    def test_renamed_end_is_not_kept(self):
        # x takes the name ab, and then ids ab and eps swap names: no edge
        # with a renamed end comes back as the record it was.
        ab = parse_path("ab", AB01.ports)
        one_end = make_edge(EPSILON, "a", "x", "b")
        raw = RawGraph(AB01, (EPSILON, "x"), frozenset((one_end,)),
                       {EPSILON: "0", "x": "1"})
        Y, names = canonicalize_with_names(PointedRawGraph(raw, EPSILON))
        assert names == {EPSILON: EPSILON, "x": ab}
        assert Y.edges == {make_edge(EPSILON, "a", ab, "b")}
        assert all(e is not one_end for e in Y.edges)
        both_ends = make_edge(ab, "a", EPSILON, "b")
        raw = RawGraph(AB01, (ab, EPSILON), frozenset((both_ends,)))
        Y, names = canonicalize_with_names(PointedRawGraph(raw, ab))
        assert names == {ab: EPSILON, EPSILON: ab}
        assert Y.edges == {make_edge(EPSILON, "a", ab, "b")}
        assert all(e is not both_ends for e in Y.edges)
