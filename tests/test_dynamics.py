"""The built-in dynamics and the axiom checkers."""
from itertools import product as iter_product

import pytest

from cgd import (
    Alphabets,
    PointedRawGraph,
    RawGraph,
    canonicalize,
    check_boundedness,
    check_shift_invariance,
    continuity_probe,
    get_dynamics,
    make_edge,
)
from cgd.dynamics import (
    AlphabetMismatchError,
    DynamicsError,
    FuncDynamics,
    IdentityDynamics,
    builtin_dynamics,
)
from cgd.families import (
    GRID_ALPHABETS,
    TAPE_ALPHABETS,
    bare_tape,
    grid_graph,
    single_head_tape,
    single_head_tapes,
    turtle_graphs,
)
from cgd.paths import EPSILON, Path, format_path

import oracles
from oracles import CompositeDynamics
from test_reversibility import DIFFERENTIAL_DYNAMICS, outcome


class TestIdentity:
    def test_identity(self, ab_family_4):
        ident = IdentityDynamics()
        for X in list(ab_family_4)[::9]:
            Y, corr = ident.apply(X)
            assert Y == X
            assert corr == {v: v for v in X.vertices}


class TestMovingHead:
    def setup_method(self):
        self.mh = get_dynamics("moving-head")

    def test_head_advances(self):
        img, _ = self.mh.apply(single_head_tape(3, 0, "cc"))
        assert img == single_head_tape(3, 1, "cc")

    def test_bounce_at_end(self):
        img, _ = self.mh.apply(single_head_tape(3, 2, "cc"))
        assert img == single_head_tape(3, 2, "dd")

    def test_walks_back(self):
        img, _ = self.mh.apply(single_head_tape(3, 2, "dd"))
        assert img == single_head_tape(3, 1, "dd")

    def test_bounce_at_start(self):
        img, _ = self.mh.apply(single_head_tape(3, 0, "dd"))
        assert img == single_head_tape(3, 0, "cc")

    def test_bare_tape_fixed(self):
        X = bare_tape(4)
        assert self.mh.apply(X)[0] == X

    def test_single_cell_is_fixed(self):
        # With one cell there is no tape edge, so the attachment is not a
        # head at all and nothing moves.
        for attach in ("cc", "dd"):
            X = single_head_tape(1, 0, attach)
            assert self.mh.apply(X)[0] == X

    def test_orbit_length(self):
        for length in (2, 3, 4, 5):
            start = single_head_tape(length, 0, "cc")
            current = start
            steps = 0
            while True:
                current = self.mh.apply(current)[0]
                steps += 1
                if current == start:
                    break
                assert steps <= 2 * length
            assert steps == 2 * length

    def test_vertex_count_preserved(self, head_tapes_5):
        for X in head_tapes_5:
            Y, corr = self.mh.apply(X)
            assert len(Y.vertices) == len(X.vertices)
            assert corr[EPSILON] == EPSILON

    def test_two_heads_move_independently(self):
        cells = tuple(range(4))
        edges = {make_edge(i, "a", i + 1, "b") for i in range(3)}
        edges.add(make_edge(0, "c", "h1", "c"))
        edges.add(make_edge(2, "c", "h2", "c"))
        raw = RawGraph(alphabets=TAPE_ALPHABETS, vertices=cells + ("h1", "h2"),
                       edges=frozenset(edges),
                       vertex_labels={v: "0" for v in cells + ("h1", "h2")})
        X = canonicalize(PointedRawGraph(raw, 0))
        edges2 = {make_edge(i, "a", i + 1, "b") for i in range(3)}
        edges2.add(make_edge(1, "c", "h1", "c"))
        edges2.add(make_edge(3, "c", "h2", "c"))
        raw2 = RawGraph(alphabets=TAPE_ALPHABETS, vertices=cells + ("h1", "h2"),
                        edges=frozenset(edges2),
                        vertex_labels={v: "0" for v in cells + ("h1", "h2")})
        assert self.mh.apply(X)[0] == canonicalize(PointedRawGraph(raw2, 0))

    def test_blocked_head_flips_in_place(self):
        # Destination cell already carries a forward head, so the mover
        # flips to dd instead of advancing.
        cells = (0, 1)
        edges = {make_edge(0, "a", 1, "b"),
                 make_edge(0, "c", "h1", "c"),
                 make_edge(1, "c", "h2", "c")}
        raw = RawGraph(alphabets=TAPE_ALPHABETS, vertices=cells + ("h1", "h2"),
                       edges=frozenset(edges),
                       vertex_labels={v: "0" for v in cells + ("h1", "h2")})
        X = canonicalize(PointedRawGraph(raw, 0))
        expected_edges = {make_edge(0, "a", 1, "b"),
                          make_edge(0, "d", "h1", "d"),
                          make_edge(1, "d", "h2", "d")}
        raw2 = RawGraph(alphabets=TAPE_ALPHABETS, vertices=cells + ("h1", "h2"),
                        edges=frozenset(expected_edges),
                        vertex_labels={v: "0" for v in cells + ("h1", "h2")})
        # h2 bounces at the tape end; h1 cannot advance onto cell 1 whose c
        # port is taken, so it flips as well.
        assert self.mh.apply(X)[0] == canonicalize(PointedRawGraph(raw2, 0))

    def test_ring_without_heads_fixed(self):
        edges = frozenset(make_edge(i, "a", (i + 1) % 4, "b") for i in range(4))
        raw = RawGraph(alphabets=TAPE_ALPHABETS, vertices=tuple(range(4)),
                       edges=edges, vertex_labels={i: "0" for i in range(4)})
        X = canonicalize(PointedRawGraph(raw, 0))
        assert self.mh.apply(X)[0] == X


class TestInflatingGrid:
    def setup_method(self):
        self.ig = get_dynamics("inflating-grid")

    def test_single_vertex_becomes_block(self):
        Y, corr = self.ig.apply(grid_graph(1, 1))
        assert len(Y.vertices) == 4
        assert corr[EPSILON] == EPSILON
        # NW keeps the origin; NE sits right of it, SW below.
        assert {format_path(v) for v in Y.vertices} == {"eps", "bd", "ca", "bd.ca"}

    def test_two_by_two_inflates_to_four_by_four(self):
        assert self.ig.apply(grid_graph(2, 2))[0] == grid_graph(4, 4)

    def test_rectangle(self):
        assert self.ig.apply(grid_graph(1, 3))[0] == grid_graph(2, 6)

    def test_count_quadruples(self):
        for shape in ((1, 2), (2, 3), (3, 3)):
            X = grid_graph(*shape)
            assert len(self.ig.apply(X)[0].vertices) == 4 * len(X.vertices)

    def test_labels_propagate(self):
        X = grid_graph(2, 1, labels={(0, 0): "black", (1, 0): "white"})
        Y, corr = self.ig.apply(X)
        blacks = [v for v, l in Y.vertex_labels.items() if l == "black"]
        assert len(blacks) == 4

    def test_correspondence_injective_not_surjective(self):
        X = grid_graph(2, 2)
        Y, corr = self.ig.apply(X)
        values = set(corr.values())
        assert len(values) == len(corr)
        assert len(values) * 4 == len(Y.vertices)

    def test_non_grid_edge_rejected(self):
        raw = RawGraph(alphabets=GRID_ALPHABETS, vertices=(0, 1),
                       edges=frozenset((make_edge(0, "a", 1, "b"),)),
                       vertex_labels={0: "white", 1: "white"})
        X = canonicalize(PointedRawGraph(raw, 0))
        with pytest.raises(DynamicsError, match="not a grid edge"):
            self.ig.apply(X)


class TestTurtle:
    def test_oscillation(self):
        turtle = get_dynamics("turtle")
        solo, pair = turtle_graphs()
        assert turtle.apply(solo)[0] == pair
        assert turtle.apply(pair)[0] == solo
        assert turtle.apply(turtle.apply(solo)[0])[0] == solo
        assert turtle.apply(turtle.apply(pair)[0])[0] == pair

    def test_collapse_correspondence(self):
        turtle = get_dynamics("turtle")
        _solo, pair = turtle_graphs()
        _img, corr = turtle.apply(pair)
        assert set(corr.values()) == {EPSILON}

    def test_everything_else_fixed(self):
        turtle = get_dynamics("turtle")
        alph = turtle.alphabets
        edges = frozenset((make_edge(0, "a", 1, "b"),))
        raw = RawGraph(alphabets=alph, vertices=(0, 1), edges=edges,
                       vertex_labels={0: "0", 1: "0"})
        X = canonicalize(PointedRawGraph(raw, 0))
        assert turtle.apply(X)[0] == X


class TestRegistry:
    def test_known_names(self):
        assert set(builtin_dynamics()) == {
            "identity", "moving-head", "inflating-grid", "turtle"}

    def test_unknown_name(self):
        with pytest.raises(DynamicsError, match="unknown dynamics"):
            get_dynamics("gospers-glider-gun")

    def test_alphabet_mismatch(self):
        mh = get_dynamics("moving-head")
        wrong = canonicalize(PointedRawGraph(
            RawGraph(alphabets=Alphabets.make("ab"), vertices=("v",)), "v"))
        with pytest.raises(AlphabetMismatchError):
            mh.apply(wrong)

    def test_composite(self):
        mh = get_dynamics("moving-head")
        twice = CompositeDynamics((mh, mh))
        X = single_head_tape(4, 0, "cc")
        Y, corr = twice.apply(X)
        assert Y == single_head_tape(4, 2, "cc")
        assert corr[EPSILON] == EPSILON


def origin_label_flipper():
    """Negative control: relabels only the origin, so not shift-invariant."""
    alph = Alphabets.make("ab", vertex_labels=("x", "y"))

    def fn(X):
        flip = {"x": "y", "y": "x"}
        labels = dict(X.vertex_labels)
        labels[EPSILON] = flip[labels[EPSILON]]
        raw = RawGraph(alphabets=alph, vertices=X.vertices, edges=X.edges,
                       vertex_labels=labels)
        Y = canonicalize(PointedRawGraph(raw, EPSILON))
        return Y, {v: v for v in X.vertices}

    return FuncDynamics("origin-flipper", fn, alph)


class TestShiftInvariance:
    def test_identity_ok(self, ab_family_4):
        ident = IdentityDynamics()
        for X in list(ab_family_4)[::9]:
            assert check_shift_invariance(ident, X) is None

    def test_moving_head_ok(self):
        mh = get_dynamics("moving-head")
        for X in single_head_tapes(4):
            assert check_shift_invariance(mh, X) is None

    def test_inflating_grid_ok(self):
        ig = get_dynamics("inflating-grid")
        for shape in ((1, 1), (2, 1), (2, 2)):
            assert check_shift_invariance(ig, grid_graph(*shape)) is None

    def test_turtle_ok(self):
        turtle = get_dynamics("turtle")
        for X in turtle_graphs():
            assert check_shift_invariance(turtle, X) is None

    def test_origin_special_rule_caught(self):
        rule = origin_label_flipper()
        alph = rule.alphabets
        edges = frozenset((make_edge(0, "a", 1, "b"),))
        raw = RawGraph(alphabets=alph, vertices=(0, 1), edges=edges,
                       vertex_labels={0: "x", 1: "x"})
        X = canonicalize(PointedRawGraph(raw, 0))
        assert check_shift_invariance(rule, X) is not None


def labelled_grids():
    """test_05's grids: every white/black colouring of every shape up to 3x3."""
    for rows, cols in iter_product((1, 2, 3), repeat=2):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        for colours in iter_product(("white", "black"), repeat=len(cells)):
            yield grid_graph(rows, cols, labels=dict(zip(cells, colours)))


def detour_dynamics():
    """The identity whose correspondence sends v to v.ab.ba: a path that
    resolves, back to v, wherever v has an a-port edge to a b-port, but is
    never a canonical name."""
    detour = Path((("a", "b"), ("b", "a")))
    return FuncDynamics("detour", lambda X: (X, {v: v.concat(detour)
                                                 for v in X.vertices}), None)


class TestShiftInvarianceMatchesOldChecker:
    """The checker reads u.v off its shift's name map; the old one walked
    that path.  Verdicts and messages must agree."""

    def test_moving_head_on_head_tapes(self):
        mh = get_dynamics("moving-head")
        for X in single_head_tapes(6):
            assert check_shift_invariance(mh, X) is None
            assert oracles.check_shift_invariance(mh, X) is None

    def test_inflating_grid_on_test_05_grids(self):
        # Every eighth grid: both checkers on all 682 take about 12 s.
        ig = get_dynamics("inflating-grid")
        for X in list(labelled_grids())[::8]:
            assert outcome(check_shift_invariance, ig, X) == \
                outcome(oracles.check_shift_invariance, ig, X) == ("returned", None)

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_DYNAMICS) + [
        "origin-flipper", "detour"])
    def test_differential_dynamics(self, name, ab_family_4):
        D = {**DIFFERENTIAL_DYNAMICS, "origin-flipper": origin_label_flipper,
             "detour": detour_dynamics}[name]()
        verdicts = set()
        for X in self.graphs(name, ab_family_4):
            new = outcome(check_shift_invariance, D, X)
            assert new == outcome(oracles.check_shift_invariance, D, X)
            kind, said = new
            verdicts.add(kind.__name__ if kind != "returned"
                         else said and said.split(" at ")[0])
        assert verdicts == self.VERDICTS[name]

    # What each dynamics says over its graphs: a pass, a failure of either
    # equation, or the error that its apply or a shift raises.  Collapsing
    # or escaping with every vertex sent to the origin is shift-invariant;
    # the family's dynamics other than identity reject the tapes.
    MISMATCH = {None, "AlphabetMismatchError"}
    VERDICTS = {
        "identity": {None},
        "moving-head": MISMATCH,
        "turtle": MISMATCH,
        "collapse": MISMATCH,
        "escape": MISMATCH,
        "collision-then-escape": MISMATCH,
        "origin-flipper": {"F(X_u) != F(X)_R(u)"},
        "detour": {"R(u.v) != R(u).R_Xu(v)", "PathResolutionError"},
    }

    @staticmethod
    def graphs(name, ab_family_4):
        if name != "origin-flipper":
            return list(ab_family_4)[::3] + list(single_head_tapes(3))
        # x-x-x and x-x-y triangles over the flipper's alphabets.
        edges = frozenset(make_edge(i, "a", (i + 1) % 3, "b") for i in range(3))
        return [canonicalize(PointedRawGraph(RawGraph(
            alphabets=origin_label_flipper().alphabets, vertices=(0, 1, 2),
            edges=edges, vertex_labels={0: "x", 1: "x", 2: label}), 0))
            for label in "xy"]


class TestBoundedness:
    def test_identity_bound_zero(self, ab_family_4):
        ident = IdentityDynamics()
        for X in list(ab_family_4)[::9]:
            assert check_boundedness(ident, X, 0) is None

    def test_moving_head_bound_zero(self):
        mh = get_dynamics("moving-head")
        for X in single_head_tapes(4):
            assert check_boundedness(mh, X, 0) is None

    def test_inflating_grid_bound_one(self):
        ig = get_dynamics("inflating-grid")
        for shape in ((1, 1), (2, 2), (2, 3)):
            assert check_boundedness(ig, grid_graph(*shape), 1) is None

    def test_inflating_grid_fails_bound_zero(self):
        # The SE child is two steps from every reached (NW) vertex.
        ig = get_dynamics("inflating-grid")
        assert check_boundedness(ig, grid_graph(1, 1), 0) is not None

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            check_boundedness(IdentityDynamics(), turtle_graphs()[0], -1)

    def test_same_verdict_as_multi_source_bfs(self, ab_family_4):
        # Reaching only the origin fails at the first vertex farther than
        # bound + 1 from it, so the verdicts cover many first failures.
        origin_only = FuncDynamics(
            "origin-only", lambda X: (X, {v: EPSILON for v in X.vertices}))
        cases = [(origin_only, X) for X in ab_family_4]
        cases += [(origin_only, X) for X in single_head_tapes(5)]
        cases += [(get_dynamics("inflating-grid"), grid_graph(*shape))
                  for shape in ((1, 1), (2, 2), (2, 3), (3, 3))]
        failures = set()
        for D, X in cases:
            for bound in range(3):
                got = check_boundedness(D, X, bound)
                assert got == oracles.check_boundedness_by_bfs(D, X, bound)
                failures.add(got)
        assert len(failures) > 5


class TestContinuityProbe:
    def test_equal_graphs_ok(self):
        mh = get_dynamics("moving-head")
        X = single_head_tape(3, 1, "cc")
        assert continuity_probe(mh, X, X, 2, 2) is None

    def test_moving_head_radius_two_suffices_for_radius_zero(self):
        mh = get_dynamics("moving-head")
        tapes = single_head_tapes(6) + [bare_tape(n) for n in range(1, 7)]
        for i, X in enumerate(tapes):
            for Y in tapes[i + 1:]:
                assert continuity_probe(mh, X, Y, 0, 2) is None

    def test_radius_zero_source_insufficient(self):
        # Pointed at the second cell, a two-cell tape with a head on the
        # far cell and a bare two-cell tape share the radius-0 view, but
        # one image grows a head next to the origin.
        from cgd.modulo import shift
        mh = get_dynamics("moving-head")
        with_head = single_head_tape(2, 0, "cc")
        X = shift(with_head, with_head.vertices[1])  # point at cell 1
        bare = bare_tape(2)
        Y = shift(bare, bare.vertices[1])
        assert continuity_probe(mh, X, Y, 0, 0) is not None

    def test_vacuous_when_sources_differ(self):
        mh = get_dynamics("moving-head")
        assert continuity_probe(
            mh, single_head_tape(2, 0, "cc"), single_head_tape(5, 3, "dd"),
            0, 1) is None
