"""Bijectivity, vertex preservation, class preservation, lookup inverses."""
import random
from itertools import product

import pytest

from cgd import (
    Alphabets,
    PointedRawGraph,
    RawGraph,
    build_inverse,
    canonicalize,
    check_bijective_on_family,
    check_class_preservation,
    check_vertex_preserving,
    get_dynamics,
    make_edge,
    shift_equivalence_classes,
    vertex_preservation_exceptions,
)
import oracles
from cgd import cli, modulo, reversibility
from cgd.blocks import BlockKit, ReversibleExtension
from cgd.cli import main
from cgd.dynamics import (
    DynamicsError,
    FuncDynamics,
    IdentityDynamics,
    RawStepDynamics,
)
from cgd.families import (
    TAPE_ALPHABETS,
    bare_tape,
    shift_closure,
    single_head_tape,
    turtle_graphs,
)
from cgd.modulo import canonicalize_with_names
from cgd.patches import (
    LocalRuleDynamics,
    glue_rule,
    parse_rule_file,
    serialize_rule_file,
)
from cgd.paths import EPSILON, Path
from cgd.reversibility import (
    GraphFamily,
    InverseConstructionError,
    OutOfFamilyError,
    enumerate_family,
    serialize_inverse_table,
    tabulate,
)

TURTLE_ALPH = Alphabets.make("ab", vertex_labels=("0",))
AB01 = Alphabets.make("ab", vertex_labels=("0", "1"))


def collapse_dynamics():
    """Everything maps to the bare vertex; wildly non-injective."""
    target = canonicalize(PointedRawGraph(
        RawGraph(alphabets=TURTLE_ALPH, vertices=("v",),
                 vertex_labels={"v": "0"}), "v"))

    def fn(X):
        return target, {v: EPSILON for v in X.vertices}

    return FuncDynamics("collapse", fn, TURTLE_ALPH)


def ab_line(n, label="0", alphabets=TURTLE_ALPH):
    """An a-b path of n labelled vertices: outside any family of fewer."""
    edges = frozenset(make_edge(i, "a", i + 1, "b") for i in range(n - 1))
    raw = RawGraph(alphabets=alphabets, vertices=tuple(range(n)),
                   edges=edges, vertex_labels={i: label for i in range(n)})
    return canonicalize(PointedRawGraph(raw, 0))


XY_PATHS = Alphabets.make("ab", ("0",), ("x", "y"))


def labelled_ab_line(word):
    """An a-b path whose i-th edge carries the label word[i], pointed at an end."""
    cells = range(len(word) + 1)
    edges = [make_edge(i, "a", i + 1, "b") for i in cells[:-1]]
    raw = RawGraph(alphabets=XY_PATHS, vertices=tuple(cells), edges=frozenset(edges),
                   vertex_labels=dict.fromkeys(cells, "0"),
                   edge_labels=dict(zip(edges, word)))
    return canonicalize(PointedRawGraph(raw, 0))


def swap_edge_labels(X):
    swapped = {e: {"x": "y", "y": "x"}[l] for e, l in X.edge_labels.items()}
    raw = RawGraph(alphabets=X.alphabets, vertices=X.vertices, edges=X.edges,
                   vertex_labels=X.vertex_labels, edge_labels=swapped)
    return canonicalize(PointedRawGraph(raw, EPSILON)), {v: v for v in X.vertices}


def patched_dynamics(name, on_size):
    """Identity, except on members whose vertex count `on_size` maps to an
    action: "collapse" to the bare vertex, "escape" to a 5-vertex line,
    "raise" a DynamicsError."""
    bare, line = ab_line(1), ab_line(5)

    def fn(X):
        action = on_size.get(len(X.vertices))
        if action == "collapse":
            return bare, {v: EPSILON for v in X.vertices}
        if action == "escape":
            return line, {v: EPSILON for v in X.vertices}
        if action == "raise":
            raise DynamicsError(f"{name}: no rule for {len(X.vertices)} vertices")
        return X, {v: v for v in X.vertices}

    return FuncDynamics(name, fn, TURTLE_ALPH)


def counting(D):
    """D wrapped so that `.calls` counts its applies."""
    def fn(X):
        wrapped.calls += 1
        return D.apply(X)

    wrapped = FuncDynamics(D.name, fn, D.alphabets)
    wrapped.calls = 0
    return wrapped


class TestBijectivity:
    def test_identity(self, ab_family_4):
        assert check_bijective_on_family(IdentityDynamics(), ab_family_4) is None

    def test_moving_head(self, head_tapes_5):
        mh = get_dynamics("moving-head")
        assert check_bijective_on_family(mh, head_tapes_5) is None

    def test_turtle(self, ab_family_4):
        turtle = get_dynamics("turtle")
        assert check_bijective_on_family(turtle, ab_family_4) is None

    def test_inflating_grid_escapes(self):
        from cgd.families import grid_graph
        ig = get_dynamics("inflating-grid")
        fam = GraphFamily.from_graphs([grid_graph(1, 1), grid_graph(1, 2)])
        with pytest.raises(OutOfFamilyError):
            check_bijective_on_family(ig, fam)

    def test_collapse_not_injective(self):
        fam = enumerate_family(TURTLE_ALPH, 2)
        assert "not injective" in check_bijective_on_family(
            collapse_dynamics(), fam)


class TestVertexPreservation:
    def test_identity(self, ab_family_4):
        for X in list(ab_family_4)[::9]:
            assert check_vertex_preserving(IdentityDynamics(), X) is None

    def test_moving_head(self, head_tapes_5):
        mh = get_dynamics("moving-head")
        for X in head_tapes_5:
            assert check_vertex_preserving(mh, X) is None

    def test_turtle_solo_not_surjective(self):
        turtle = get_dynamics("turtle")
        solo, _pair = turtle_graphs()
        assert "misses" in check_vertex_preserving(turtle, solo)

    def test_turtle_pair_not_injective(self):
        turtle = get_dynamics("turtle")
        _solo, pair = turtle_graphs()
        assert "not injective" in check_vertex_preserving(turtle, pair)

    def test_turtle_exception_set_is_the_pair(self, ab_family_4):
        turtle = get_dynamics("turtle")
        exceptions = vertex_preservation_exceptions(turtle, ab_family_4)
        assert set(exceptions) == set(turtle_graphs())


class TestClassPreservation:
    def test_identity(self, ab_family_4):
        for X in list(ab_family_4)[::9]:
            assert check_class_preservation(IdentityDynamics(), X) is None

    def test_moving_head(self, head_tapes_5):
        mh = get_dynamics("moving-head")
        for X in head_tapes_5:
            assert check_class_preservation(mh, X) is None

    def test_turtle_on_both(self):
        turtle = get_dynamics("turtle")
        for X in turtle_graphs():
            assert check_class_preservation(turtle, X) is None

    def test_collapse_breaks_classes(self):
        # A two-vertex asymmetric graph collapses onto one vertex: two
        # inequivalent vertices acquire equivalent images.
        edges = frozenset((make_edge(0, "a", 1, "b"),))
        raw = RawGraph(alphabets=TURTLE_ALPH, vertices=(0, 1), edges=edges,
                       vertex_labels={0: "0", 1: "0"})
        X = canonicalize(PointedRawGraph(raw, 0))
        assert check_class_preservation(collapse_dynamics(), X) is not None


class TestBuildInverse:
    def test_identity_inverse(self, ab_family_4):
        table = build_inverse(IdentityDynamics(), ab_family_4)
        for X in ab_family_4:
            assert table.forward[X] == X
            assert table.backward[X] == X

    def test_moving_head_round_trip(self, head_tapes_5):
        mh = get_dynamics("moving-head")
        table = build_inverse(mh, head_tapes_5)
        for X in head_tapes_5:
            Y = table.forward[X]
            assert table.backward[Y] == X
            # Correspondences invert exactly on this vertex-preserving family.
            R = table.forward_corr[X]
            S = table.corr_inverse[Y]
            assert {v: S[R[v]] for v in X.vertices} == \
                   {v: v for v in X.vertices}

    def test_moving_head_steps_back(self):
        mh = get_dynamics("moving-head")
        fam = GraphFamily.from_graphs(
            [single_head_tape(3, k, a) for k in range(3) for a in ("cc", "dd")])
        table = build_inverse(mh, fam)
        assert table.backward[single_head_tape(3, 2, "cc")] == \
            single_head_tape(3, 1, "cc")

    def test_turtle_is_its_own_inverse(self, ab_family_4):
        turtle = get_dynamics("turtle")
        table = build_inverse(turtle, ab_family_4)
        solo, pair = turtle_graphs()
        assert table.backward[pair] == solo
        assert table.backward[solo] == pair
        for X in ab_family_4:
            assert table.backward[X] == turtle.apply(X)[0]

    def test_class_compatible_inverse_on_exceptions(self, ab_family_4):
        # Where the forward correspondence is not a bijection, the chosen
        # preimages must still land in the right shift-equivalence class.
        turtle = get_dynamics("turtle")
        table = build_inverse(turtle, ab_family_4)
        for X in ab_family_4:
            Y = table.forward[X]
            R = table.forward_corr[X]
            S = table.corr_inverse[Y]
            class_of = {}
            for i, cls in enumerate(shift_equivalence_classes(Y)):
                for v in cls:
                    class_of[v] = i
            for w in Y.vertices:
                assert class_of[R[S[w]]] == class_of[w]

    def test_table_dynamics_applies(self, head_tapes_5):
        mh = get_dynamics("moving-head")
        inverse = oracles.TableDynamics(build_inverse(mh, head_tapes_5))
        X = single_head_tape(4, 2, "cc")
        Y, corr = mh.apply(X)
        back, corr_back = inverse.apply(Y)
        assert back == X
        assert {v: corr_back[corr[v]] for v in X.vertices} == \
               {v: v for v in X.vertices}

    def test_table_dynamics_rejects_unknown(self, head_tapes_5):
        mh = get_dynamics("moving-head")
        inverse = oracles.TableDynamics(build_inverse(mh, head_tapes_5))
        with pytest.raises(DynamicsError, match="not tabulated"):
            inverse.apply(bare_tape(3))

    def test_non_invertible_rejected(self):
        fam = enumerate_family(TURTLE_ALPH, 2)
        with pytest.raises(InverseConstructionError):
            build_inverse(collapse_dynamics(), fam)

    def test_serialization_pairs_blocks(self, head_tapes_5):
        mh = get_dynamics("moving-head")
        table = build_inverse(mh, head_tapes_5)
        text = serialize_inverse_table(table)
        assert text == serialize_inverse_table(table)
        assert text.count("source\n") == len(head_tapes_5)
        assert text.count("image\n") == len(head_tapes_5)
        # Every block pairs sources with their forward images.
        first_source = text.index("source")
        first_image = text.index("image")
        assert first_source < first_image
        assert "corr eps eps" in text

    def test_escaping_family_rejected(self):
        turtle = get_dynamics("turtle")
        solo, _pair = turtle_graphs()
        with pytest.raises(OutOfFamilyError):
            build_inverse(turtle, GraphFamily.from_graphs([solo]))


def even_chains_flip(X):
    # Swap the labels 0 and 1 on chains of even length: an involution that
    # no disk smaller than the whole chain can tell from the identity.
    if len(X.vertices) % 2:
        return X, {v: v for v in X.vertices}
    flipped = {v: {"0": "1", "1": "0"}[l] for v, l in X.vertex_labels.items()}
    raw = RawGraph(alphabets=AB01, vertices=X.vertices, edges=X.edges,
                   vertex_labels=flipped)
    return (canonicalize(PointedRawGraph(raw, EPSILON)),
            {v: v for v in X.vertices})


def rule_image(inverse, Y):
    """What the inverse's rule alone makes of Y: graph and correspondence."""
    glued, successors = glue_rule(inverse.rule, Y)
    Z, names = canonicalize_with_names(glued)
    return Z, {u: names[s] for u, s in successors.items()}


class TestLocalInverse:
    """The inverse read as a local rule off a small fixed family."""

    @pytest.mark.parametrize("name", ["moving-head", "identity"])
    def test_rule_matches_table_on_larger_family(self, name):
        # The CLI's kit reads its rule off tapes of at most 6 vertices; the
        # old whole-graph table of every tape of at most 11 is the oracle.
        D = get_dynamics(name)
        rule_inverse = cli._tape_kit(D).inverse
        fam = cli._family_for("tape-closure", D, 11)
        assert len(fam) == 944
        table_inverse = oracles.TableDynamics(build_inverse(D, fam))
        for Y in fam:
            assert rule_inverse.apply(Y) == table_inverse.apply(Y)

    @pytest.mark.parametrize("name", ["moving-head", "identity"])
    def test_members_are_looked_up(self, name, monkeypatch):
        # The lookup and the rule agree, graph and correspondence, on every
        # member of the 6-vertex family the CLI's kit reads its rule off,
        # and the rule is not run on a member.
        inverse = cli._tape_kit(get_dynamics(name)).inverse
        fam = inverse.table.family
        assert max(len(Y.vertices) for Y in fam) == 6
        assert inverse.table.exception_bound == 0
        by_rule = {Y: rule_image(inverse, Y) for Y in fam}

        def no_rule(*args):
            raise AssertionError("a family member went through the rule")

        monkeypatch.setattr(reversibility, "glue_rule", no_rule)
        for Y in fam:
            assert inverse.apply(Y) == by_rule[Y]
        with pytest.raises(AssertionError, match="went through the rule"):
            inverse.apply(single_head_tape(7, 3))

    def test_moving_head_rule(self):
        mh = get_dynamics("moving-head")
        fam6 = cli._family_for("tape-closure", mh, 6)
        rule = build_inverse(mh, fam6).local_rule()
        assert (rule.radius, len(rule.entries)) == (1, 57)
        # The rule set stops growing at 6 vertices.
        fam8 = cli._family_for("tape-closure", mh, 8)
        assert build_inverse(mh, fam8).local_rule().entries == rule.entries

    def test_rule_file_round_trip_steps_back(self):
        mh = get_dynamics("moving-head")
        rule = build_inverse(mh, cli._family_for("tape-closure", mh, 6)).local_rule()
        parsed = parse_rule_file(serialize_rule_file(rule))
        assert parsed.entries == rule.entries
        X = single_head_tape(20, 7, "dd")
        Y, R = mh.apply(X)
        back, S = LocalRuleDynamics(parsed.as_rule()).apply(Y)
        assert back == X
        assert {v: S[R[v]] for v in X.vertices} == {v: v for v in X.vertices}

    def test_rule_over_edge_labels(self):
        # Swapping the edge labels x and y inverts itself; its inverse rule
        # must carry each patch's edge labels, or the path does not come back.
        D = FuncDynamics("edge-label-swap", swap_edge_labels, XY_PATHS)
        fam = GraphFamily.from_graphs(
            [labelled_ab_line(word) for n in range(5) for word in product("xy", repeat=n)],
            XY_PATHS)
        assert len(fam) == 31
        table = build_inverse(D, fam)
        rule = table.local_rule()
        assert (rule.radius, len(rule.entries)) == (1, 25)
        assert sum(bool(p.graph.edge_labels) for p in rule.entries.values()) == 24
        rng = random.Random(32)
        X = labelled_ab_line([rng.choice("xy") for _ in range(11)])
        assert table.as_dynamics().apply(D.apply(X)[0])[0] == X

    def test_no_radius_raises(self):
        # Up to radius 4 the end of a chain of 11 or 12 vertices sees 5
        # vertices of it, so no disk tells the two chains apart.
        D = FuncDynamics("even-chains-flip", even_chains_flip, AB01)
        fam = GraphFamily.from_graphs(shift_closure(
            [ab_line(n, label, AB01) for n in range(1, 13) for label in "01"]),
            AB01)
        table = build_inverse(D, fam)
        with pytest.raises(InverseConstructionError, match="no radius up to 4"):
            table.local_rule()

    def test_exceptions_are_looked_up(self, ab_family_4):
        # The turtle's bound is 2: the rule is read off the larger members
        # only, and agrees with the table on them.
        turtle = get_dynamics("turtle")
        table = build_inverse(turtle, ab_family_4)
        assert table.exception_bound == 2
        inverse = table.as_dynamics()
        solo, pair = turtle_graphs()
        assert inverse.apply(pair) == (solo, {v: EPSILON for v in pair.vertices})
        assert inverse.apply(solo)[0] == pair
        for X in ab_family_4:
            if len(X.vertices) > 2:
                want = (X, {v: v for v in X.vertices})
                assert inverse.apply(X) == want == rule_image(inverse, X)

    def test_small_graph_outside_the_table(self):
        turtle = get_dynamics("turtle")
        fam = GraphFamily.from_graphs(turtle_graphs(), TURTLE_ALPH)
        inverse = build_inverse(turtle, fam).as_dynamics()
        with pytest.raises(DynamicsError, match="not tabulated"):
            inverse.apply(ab_line(2))


def outcome(fn, *args):
    """What a call returned, or the type and text of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the oracles may raise anything
        return type(exc), str(exc)


def table_outcome(fn, D, fam):
    kind, table = outcome(fn, D, fam)
    if kind != "returned":
        return kind, table
    return kind, (table.family.members, table.forward, table.backward,
                  table.forward_corr, table.corr_inverse, table.name,
                  table.exception_bound, serialize_inverse_table(table))


def first_class_problem(D, fam):
    """The verify command's old class sweep, over the old checker."""
    for X in fam:
        problem = oracles.check_class_preservation(D, X)
        if problem is not None:
            return problem
    return None


DIFFERENTIAL_DYNAMICS = {
    "identity": IdentityDynamics,
    "moving-head": lambda: get_dynamics("moving-head"),
    "turtle": lambda: get_dynamics("turtle"),
    "collapse": collapse_dynamics,
    "escape": lambda: patched_dynamics("escape", {4: "escape"}),
    "collision-then-escape": lambda: patched_dynamics(
        "collision-then-escape", {1: "collapse", 4: "escape"}),
}


class TestOnePassMatchesOldCheckers:
    """Every family check reads one table and says what the old loops said."""

    @pytest.mark.parametrize("family", ["ab_family_4", "head_tapes_5",
                                        "tape_closure_5", "abcd_family_2"])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_DYNAMICS))
    def test_same_verdicts(self, name, family, request):
        D = DIFFERENTIAL_DYNAMICS[name]()
        fam = request.getfixturevalue(family)
        assert outcome(check_bijective_on_family, D, fam) == \
            outcome(oracles.check_bijective_on_family, D, fam)
        assert outcome(vertex_preservation_exceptions, D, fam) == \
            outcome(oracles.vertex_preservation_exceptions, D, fam)
        assert outcome(lambda: tabulate(D, fam).class_problem()) == \
            outcome(first_class_problem, D, fam)
        assert table_outcome(build_inverse, D, fam) == \
            table_outcome(oracles.build_inverse, D, fam)
        for X in list(fam)[::7]:
            assert outcome(check_vertex_preserving, D, X) == \
                outcome(oracles.check_vertex_preserving, D, X)
            assert outcome(check_class_preservation, D, X) == \
                outcome(oracles.check_class_preservation, D, X)

    def test_fixtures_reach_every_verdict(self, ab_family_4):
        # The differential test above sees a permutation, a collision and
        # an escape, with and without vertex-preservation exceptions.
        verdicts = {name: outcome(check_bijective_on_family,
                                  DIFFERENTIAL_DYNAMICS[name](), ab_family_4)
                    for name in DIFFERENTIAL_DYNAMICS}
        assert verdicts["turtle"] == ("returned", None)
        assert "not injective" in verdicts["collapse"][1]
        assert "not injective" in verdicts["collision-then-escape"][1]
        assert verdicts["escape"][0] is OutOfFamilyError

    def test_apply_error_after_a_collision_surfaces(self, ab_family_4):
        # Every member is applied before any check reads the table, so a
        # dynamics that fails on a member after the first collision now
        # raises; the old loop stopped at the collision.
        D = patched_dynamics("collision-then-raise", {1: "collapse", 4: "raise"})
        assert "not injective" in oracles.check_bijective_on_family(D, ab_family_4)
        with pytest.raises(DynamicsError, match="no rule for 4 vertices"):
            check_bijective_on_family(D, ab_family_4)


class TestOneApplyPerMember:
    def test_family_checks_and_inverse(self, tape_closure_5):
        for check in (check_bijective_on_family, vertex_preservation_exceptions,
                      build_inverse):
            D = counting(get_dynamics("moving-head"))
            check(D, tape_closure_5)
            assert D.calls == len(tape_closure_5)

    def test_block_kit(self, tape_closure_5):
        D = counting(get_dynamics("moving-head"))
        BlockKit.from_family(D, tape_closure_5)
        assert D.calls == len(tape_closure_5)

    def test_verify_command(self, monkeypatch, capsys):
        calls = []
        real = RawStepDynamics.apply
        monkeypatch.setattr(RawStepDynamics, "apply",
                            lambda self, X: calls.append(1) or real(self, X))
        assert main(["verify", "--dynamics", "moving-head", "--family",
                     "tape-closure", "--max-vertices", "8"]) == 0
        assert "members=370\n" in capsys.readouterr().out
        assert len(calls) == 370


class TestWorkPerMember:
    def test_class_check_shifts_once_per_orbit(self, monkeypatch):
        # 370 members in 64 orbits of 372 vertices in all: one shift per
        # vertex of one member of each orbit, since the images are members
        # too.  Shifting each member on its own took 2,384.
        fam = cli._family_for("tape-closure", get_dynamics("moving-head"), 8)
        tab = tabulate(get_dynamics("moving-head"), fam)
        calls = []
        real = modulo.shift_with_names
        monkeypatch.setattr(modulo, "shift_with_names",
                            lambda X, u: calls.append(1) or real(X, u))
        assert tab.class_problem() is None
        assert 0 < len(calls) <= 372

    def test_verify_scans_for_collisions_once(self, monkeypatch, capsys):
        # The inverse reuses the bijectivity verdict of the same table.
        calls = []
        real = GraphFamily.__contains__
        monkeypatch.setattr(GraphFamily, "__contains__",
                            lambda self, g: calls.append(1) or real(self, g))
        assert main(["verify", "--dynamics", "moving-head", "--family", "all",
                     "--max-vertices", "2"]) == 0
        assert "members=674\n" in capsys.readouterr().out
        assert len(calls) == 674

    def test_inverse_read_takes_one_disk_per_vertex(self, monkeypatch):
        # The CLI kit's 36 plain tapes have 161 vertices, one disk each, at
        # the one radius tried.
        table = cli._tape_kit(get_dynamics("moving-head")).inverse.table
        calls = []
        real = reversibility.disk_at_with_names
        monkeypatch.setattr(reversibility, "disk_at_with_names",
                            lambda *a: calls.append(1) or real(*a))
        assert table.local_rule().radius == 1
        assert len(table.family) == 36
        assert len(calls) == sum(len(Y.vertices) for Y in table.backward) == 161

    def test_check_blocks_applies_the_conjugate_once_per_graph(
            self, monkeypatch, capsys):
        # The 20 block-identity circuits run 80 gates, each with both
        # extensions.  The gate reading then runs the forward extension once
        # per lifted tape (20) and the backward one once per anchor (80); the
        # radius and the footprints both read those results, and no graph
        # is re-pointed.
        from test_blocks import count_shifts
        calls = []
        real = ReversibleExtension.apply
        monkeypatch.setattr(ReversibleExtension, "apply",
                            lambda self, X: calls.append(self.name) or real(self, X))
        shifts = count_shifts(monkeypatch)
        assert main(["check-blocks", "--dynamics", "moving-head",
                     "--max-vertices", "5"]) == 0
        assert "result=pass\n" in capsys.readouterr().out
        forward = calls.count("marked[moving-head]")
        assert (forward, len(calls) - forward, len(shifts)) == (100, 160, 0)

    def test_inverse_of_a_non_bijection_keeps_its_message(self, ab_family_4):
        tab = tabulate(collapse_dynamics(), ab_family_4)
        problem = tab.bijectivity_problem()
        assert problem.startswith("not injective")
        with pytest.raises(InverseConstructionError) as info:
            tab.inverse()
        assert str(info.value) == problem


class TestStrayCorrespondence:
    def test_value_outside_the_image_is_named(self):
        # Onto the 1-cell tape with values eps and cc: every image vertex
        # is covered, and ab is sent to a name the image does not have.
        one = bare_tape(1)
        D = FuncDynamics("onto-one-cell", lambda X: (one, {
            EPSILON: EPSILON, Path((("a", "b"),)): Path((("c", "c"),))}),
            TAPE_ALPHABETS)
        assert check_vertex_preserving(D, bare_tape(2)) == \
            "correspondence sends ab outside the image"


class TestTabulationAsGate:
    def test_reads_the_table_and_refuses_other_graphs(self):
        D = get_dynamics("turtle")
        tab = tabulate(D, enumerate_family(TURTLE_ALPH, 2))
        X = next(iter(tab.family))
        assert tab.apply(X) is tab.images[X]
        with pytest.raises(OutOfFamilyError):
            tab.apply(ab_line(3))
