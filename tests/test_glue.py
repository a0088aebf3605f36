"""`patches.glue` against the earlier pairwise-then-fold gluing code.

Both the local-rule path and the reversible extension must produce the same
graphs and correspondences as the references in `oracles.py`, and fail with
the same exception types; a local rule must also report the same anchors.
Plain-token patch ids must glue as the earlier token-set ids did: the same
image and successors once each singleton set is unwrapped, and on failure
the same exception type, pair and anchors.
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
    cli,
    consistent,
    get_dynamics,
    glue,
    make_edge,
)
from cgd import blocks
from cgd.blocks import (
    BlockKit,
    MarkDynamics,
    MarkSpace,
    ReversibleExtension,
    UnionInconsistencyError,
    mark,
)
from cgd.dynamics import FuncDynamics
from cgd.families import bare_tape, bare_tapes, grid_graph, single_head_tapes
from cgd.modulo import canonicalize_with_names, disk_at, shift_with_names
from cgd.patches import (
    LocalRule,
    PatchInconsistencyError,
    RuleLookupError,
    RuleTable,
    _translate_patch,
    glue_rule,
    identity_local_rule,
    parse_rule_file,
    serialize_rule_file,
)
from cgd.paths import EPSILON, format_path, parse_path
from cgd.portgraph import GraphError, relabel, validate
from cgd.reversibility import enumerate_family

import oracles
from oracles import FoldingExtension, apply_local_rule_pairwise, union_pair
from test_blocks import (
    SAMPLED_IMAGES,
    TAPE_SPACE,
    CellwisePermutation,
    PartitionedShift,
    labelled_paths_and_cycles,
    marked_variants,
    moving_head_kit,
)
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
ABC = Alphabets.make("abc", vertex_labels=("0",))


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
        got = assert_rule_agrees(claims_rule(X), X)
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
        X = ring(4, DIGITS, dict(enumerate(labels)))
        got = assert_rule_agrees(neighbour_claims_rule(), X)
        if len(set(labels)) == 1:
            assert got[0] == X
        else:
            assert got[0] is PatchInconsistencyError and got[2] is not None


def claims_rule(X):
    """The mislabelling rule of `test_first_pair_in_order_is_not_first_found`
    on its 4-ring X."""
    A = X.vertices
    claims = {}
    for i, j in ((0, 3), (1, 2)):
        to_anchor = shift_with_names(X, A[i])[1]
        claims[X.vertex_labels[A[i]]] = to_anchor[A[j]]

    def rule(view):
        own = view.vertex_labels[EPSILON]
        labels = {EPSILON: own}
        if own in claims:
            labels[claims[own]] = own
        graph = RawGraph(alphabets=DIGITS, vertices=tuple(labels),
                         vertex_labels=labels)
        return PointedRawGraph(graph, EPSILON)

    return LocalRule(radius=0, rule=rule)


def neighbour_claims_rule():
    """Each patch gives its anchor's label to the anchor and to the vertex
    one ab hop away, so the patches of differently labelled neighbours
    conflict on that vertex.  The claimed token is a non-empty path."""
    step = parse_path("ab", ("a", "b"))

    def rule(view):
        own = view.vertex_labels[EPSILON]
        graph = RawGraph(alphabets=DIGITS, vertices=(EPSILON, step),
                         edges=frozenset((make_edge(EPSILON, "a", step, "b"),)),
                         vertex_labels={EPSILON: own, step: own})
        return PointedRawGraph(graph, EPSILON)

    return LocalRule(radius=1, rule=rule)


def leaf_claims_rule():
    """Each patch hangs a fresh leaf on its anchor's port c and another on
    the c port of the vertex one ab hop away, so on a tape of two or more
    cells neighbouring patches send one half-edge to two fresh vertices."""
    step = parse_path("ab", "abcd")

    def rule(g):
        vertices = [EPSILON, (EPSILON, 1)]
        edges = {make_edge(EPSILON, "c", (EPSILON, 1), "c")}
        if step in g.vertices:
            vertices += [step, (EPSILON, 2)]
            edges |= {make_edge(EPSILON, "a", step, "b"),
                      make_edge(step, "c", (EPSILON, 2), "c")}
        graph = RawGraph(alphabets=g.alphabets, vertices=tuple(vertices),
                         edges=frozenset(edges))
        return PointedRawGraph(graph, EPSILON)

    return LocalRule(radius=1, rule=rule)


def token_set_rule(rule):
    """`rule` in the old id format: every patch id a one-token set."""
    def wrapped(view):
        return token_set_patch(rule.rule(view))
    return LocalRule(radius=rule.radius, rule=wrapped, name=rule.name)


def token_set_patch(patch):
    ids = {v: frozenset((v,)) for v in patch.graph.vertices}
    return PointedRawGraph(relabel(patch.graph, ids=ids), frozenset((patch.origin,)))


def unwrap(vid):
    (token,) = vid
    return token


def glue_outcome(fn, *args):
    """The result, else the error's type, `pair` and `anchors`."""
    try:
        return fn(*args)
    except GraphError as err:
        return type(err), getattr(err, "pair", None), getattr(err, "anchors", None)


def assert_plain_ids_agree(rule, X):
    """`glue_rule` and `glue` on plain ids give what the token-set code in
    `oracles` gives on the same patches with singleton ids, once unwrapped."""
    got = glue_outcome(glue_rule, rule, X)
    old = glue_outcome(oracles.glue_rule, token_set_rule(rule), X)
    if isinstance(old[0], PointedRawGraph):
        glued, successors = old
        ids = {v: unwrap(v) for v in glued.graph.vertices}
        old = (PointedRawGraph(relabel(glued.graph, ids=ids), ids[glued.origin]),
               {u: unwrap(s) for u, s in successors.items()})
    assert got == old
    try:
        pieces = [_translate_patch(rule.rule(disk_at(X, u, rule.radius)), X, u)
                  for u in X.vertices]
    except GraphError:
        return got
    glued = glue_outcome(glue, [p.graph for p in pieces])
    old = glue_outcome(oracles.glue, [token_set_patch(p).graph for p in pieces])
    if isinstance(old, RawGraph):
        old = relabel(old, ids={v: unwrap(v) for v in old.vertices})
    assert glued == old
    return got


def grid_rule_file():
    """The inflating-grid rule as rule-file text, read off the radius-0
    disks of grids; its fresh vertices are written `~1` to `~4`."""
    rule = inflating_grid_local_rule()
    entries = {}
    for X in (grid_graph(3, 3), grid_graph(1, 3), grid_graph(1, 1)):
        for u in X.vertices:
            view = disk_at(X, u, 0)
            entries[view] = rule.rule(view)
    return serialize_rule_file(RuleTable(radius=0, entries=entries))


@pytest.fixture(scope="module")
def cli_inverse_rules():
    """The inverse rules of the CLI's `moving-head` and `identity` kits."""
    return {name: cli._tape_kit(get_dynamics(name)).inverse.table
            .local_rule().as_rule() for name in ("moving-head", "identity")}


GRID_SHAPES = ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3))


class TestPlainIdsAgainstTokenSets:
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_identity_rule(self, radius):
        rule = identity_local_rule(radius)
        hosts = [bare_tape(n, AB0) for n in range(1, 8)]
        hosts += [ring(n) for n in range(1, 7)]
        hosts += single_head_tapes(4)
        hosts += [grid_graph(*shape) for shape in GRID_SHAPES]
        for X in hosts:
            glued, successors = assert_plain_ids_agree(rule, X)
            assert successors == {v: v for v in X.vertices}

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_identity_and_degree_rules_on_random_graphs(self, data):
        X = data.draw(graphs())
        assert_plain_ids_agree(identity_local_rule(data.draw(st.integers(0, 2))), X)
        assert_plain_ids_agree(degree_dependent_labeller(), X)

    def test_grid_rule_and_its_rule_file(self):
        text = grid_rule_file()
        assert "~4" in text
        for rule in (inflating_grid_local_rule(), parse_rule_file(text).as_rule()):
            for shape in GRID_SHAPES:
                glued, _successors = assert_plain_ids_agree(rule, grid_graph(*shape))
                assert len(glued.graph.vertices) == 4 * shape[0] * shape[1]

    def test_conflicting_rules(self):
        path = RawGraph(alphabets=ABL, vertices=(0, 1, 2),
                        edges=frozenset((make_edge(0, "a", 1, "b"),
                                         make_edge(1, "a", 2, "b"))),
                        vertex_labels={i: "x" for i in range(3)})
        got = assert_plain_ids_agree(degree_dependent_labeller(),
                                     canonicalize(PointedRawGraph(path, 0)))
        assert got[0] is PatchInconsistencyError
        X = ring(4, DIGITS, {i: str(i) for i in range(4)})
        got = assert_plain_ids_agree(claims_rule(X), X)
        assert got == (PatchInconsistencyError, None, (X.vertices[0], X.vertices[3]))
        for labels in ("0000", "0001", "0110", "0101", "0123"):
            X = ring(4, DIGITS, dict(enumerate(labels)))
            got = assert_plain_ids_agree(neighbour_claims_rule(), X)
            assert (got[0] is PatchInconsistencyError) == (len(set(labels)) > 1)
        for n in range(1, 5):
            got = assert_plain_ids_agree(leaf_claims_rule(), bare_tape(n))
            assert (got[0] is PatchInconsistencyError) == (n > 1)

    @pytest.mark.parametrize("name", ["moving-head", "identity"])
    def test_cli_inverse_rules(self, name, cli_inverse_rules):
        rule, step = cli_inverse_rules[name], get_dynamics(name)
        tapes = bare_tapes(8) + single_head_tapes(7)
        for X in tapes:
            glued, _successors = assert_plain_ids_agree(rule, step.apply(X)[0])
            assert len(glued.graph.vertices) == len(X.vertices)


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


def compare_extensions(kit, graphs):
    """Both extensions of the kit against the oracle on every marked
    variant of every graph; the number of comparisons."""
    pairs = [(ext, FoldingExtension(ext.base, ext.exception_bound,
                                    ext.space, name=ext.name))
             for ext in (kit.forward_ext, kit.backward_ext)]
    checked = 0
    for X in graphs:
        for M in marked_variants(kit.space.lift(X), kit.space):
            for ext, oracle in pairs:
                assert outcome(ext.apply, M) == outcome(oracle.apply, M)
                checked += 1
    return checked


class TestExtensionAgainstOracle:
    def test_moving_head_extensions_on_partly_marked_tapes(self):
        assert compare_extensions(moving_head_kit(), single_head_tapes(3)) == 272

    def test_turtle_extensions_on_marked_graphs(self):
        turtle = get_dynamics("turtle")
        family = enumerate_family(turtle.alphabets, 3)
        kit = BlockKit.from_family(turtle, enumerate_family(turtle.alphabets, 2))
        assert compare_extensions(kit, family) == 312

    def test_seam_takes_the_stepped_labels(self):
        # A label-flipping base dynamics relabels the boundary of the
        # unmarked component (the same case as in test_blocks).  Only the
        # mark is frozen, so the boundary takes the stepped labels.
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
        assert [got[0].vertex_labels[v] for v in got[0].vertices] == ["01", "10", "10"]
        assert got[0].edges == M.edges

    def test_step_splits_a_seam_edge_with_a_fresh_vertex(self):
        # The base step puts a fresh vertex between the two boundary
        # vertices.  The edge between them is not frozen, as neither end is
        # marked, so the step replaces it: m1 - x - z - y - m2.
        def insert(X):
            raw = RawGraph(alphabets=ABC, vertices=("x", "z", "y"),
                           edges=frozenset((make_edge("x", "a", "z", "b"),
                                            make_edge("z", "a", "y", "b"))),
                           vertex_labels={"x": "0", "y": "0", "z": "0"})
            Y, names = canonicalize_with_names(PointedRawGraph(raw, "x"))
            (far,) = X.vertices[1:]
            return Y, {EPSILON: names["x"], far: names["y"]}

        got, want = extensions_on_marked_ends(insert)
        assert got == want
        space = MarkSpace.for_base(ABC)
        path = RawGraph(
            alphabets=space.marked, vertices=("m1", "x", "z", "y", "m2"),
            edges=frozenset((make_edge("m1", "a0", "x", "c1"),
                             make_edge("x", "a0", "z", "b0"),
                             make_edge("z", "a0", "y", "b0"),
                             make_edge("y", "c1", "m2", "b0"))),
            vertex_labels={"m1": "01", "x": "00", "z": "00", "y": "00", "m2": "01"})
        Y, names = canonicalize_with_names(PointedRawGraph(path, "m1"))
        assert got[0] == Y
        assert {format_path(v): w for v, w in got[1].items()} == {
            "eps": names["m1"], "a0c1": names["x"], "a0c1.a0b0": names["y"],
            "a0c1.a0b0.c1b0": names["m2"]}

    def test_step_on_a_frozen_port(self):
        # x and y each hold port c only as the frozen c1 of their edge to a
        # mark.  A step that joins them by c0 would leave both using c both
        # ways, which `MarkSpace.drop` refuses; the extension refuses it
        # first, at x, the first in the graph's order.
        def join(X):
            x, y = X.vertices
            raw = RawGraph(alphabets=ABC, vertices=X.vertices,
                           edges=X.edges | {make_edge(x, "c", y, "c")},
                           vertex_labels=X.vertex_labels)
            return canonicalize_with_names(PointedRawGraph(raw, EPSILON))

        got, want = extensions_on_marked_ends(join)
        assert got == want
        assert got[:2] == (UnionInconsistencyError,
                           "marked[two-vertex]: the step puts an edge on a frozen "
                           "port of boundary vertex a0c1 (port c)")

    def test_boundary_vertices_that_collide(self):
        # The base step merges the two boundary vertices into one.
        def collapse(X):
            raw = RawGraph(alphabets=ABC, vertices=("v",), vertex_labels={"v": "0"})
            return (canonicalize(PointedRawGraph(raw, "v")),
                    {v: EPSILON for v in X.vertices})

        got, want = extensions_on_marked_ends(collapse)
        assert got == want
        assert got[:2] == (UnionInconsistencyError,
                           "marked[two-vertex]: boundary vertices a0c1 and "
                           "a0c1.a0b0 collide in the image")

    def test_colliding_boundary_vertices_named_in_graph_order(self):
        # The marked m reaches x, y and z on its ports a, b and c, and the
        # region is the path x - z - y: a BFS from x meets z before y, but
        # the graph's order, which names the collision, puts y first.
        space = MarkSpace.for_base(ABC)

        def collapse(X):
            if len(X.vertices) != 3:
                return X, {v: v for v in X.vertices}
            raw = RawGraph(alphabets=ABC, vertices=("v",), vertex_labels={"v": "0"})
            return (canonicalize(PointedRawGraph(raw, "v")),
                    {v: EPSILON for v in X.vertices})

        star = RawGraph(
            alphabets=ABC, vertices=("m", "x", "y", "z"),
            edges=frozenset((make_edge("m", "a", "x", "c"), make_edge("m", "b", "y", "c"),
                             make_edge("m", "c", "z", "c"), make_edge("x", "a", "z", "b"),
                             make_edge("z", "a", "y", "b"))),
            vertex_labels=dict.fromkeys("mxyz", "0"))
        M = mark(space.lift(canonicalize(PointedRawGraph(star, "m"))), space)
        base = FuncDynamics("three-vertex", collapse, ABC)
        got = outcome(ReversibleExtension(base, 0, space).apply, M)
        assert got == outcome(FoldingExtension(base, 0, space).apply, M)
        assert got[:2] == (UnionInconsistencyError,
                           "marked[three-vertex]: boundary vertices a0c1 and "
                           "b0c1 collide in the image")


class TestExtensionGlueNeverClashes:
    """No two pieces the extension glues conflict: at a boundary vertex a
    frozen half-edge carries bit 1 and a stepped one bit 0, only marked
    vertices carry frozen labels, and no two stepped regions share an id.
    Nor is a glued graph ever mark-inconsistent, which the extension no
    longer scans for.  `blocks.glue` is wrapped to run `consistent` on every
    pair of pieces, and `ReversibleExtension.apply` to scan every result."""

    @pytest.fixture
    def glued(self, monkeypatch):
        real, counts = blocks.glue, []
        real_apply = ReversibleExtension.apply

        def checked(pieces):
            for p, q in combinations(pieces, 2):
                assert consistent(p, q) is None
            counts.append(len(pieces))
            return real(pieces)

        def scanned(ext, X):
            result = real_apply(ext, X)
            assert ext.space.mark_consistency_violation(result[0]) is None
            return result

        monkeypatch.setattr(blocks, "glue", checked)
        monkeypatch.setattr(ReversibleExtension, "apply", scanned)
        return counts

    def test_oracle_inputs(self, glued):
        compare_extensions(moving_head_kit(), single_head_tapes(3))
        turtle = get_dynamics("turtle")
        kit = BlockKit.from_family(turtle, enumerate_family(turtle.alphabets, 2))
        compare_extensions(kit, enumerate_family(turtle.alphabets, 3))
        assert (len(glued), max(glued)) == (472, 4)

    @pytest.mark.parametrize("images", [None] + SAMPLED_IMAGES)
    def test_generator_sweep(self, glued, images):
        # The partitioned shift, then the sampled cellwise permutations:
        # decompose sweeps, and both extensions on every marking.
        D = PartitionedShift() if images is None else CellwisePermutation(images)
        kit = BlockKit.from_family(D, labelled_paths_and_cycles(4))
        for X in labelled_paths_and_cycles(4):
            assert kit.decompose_step(X) == D.apply(X)[0]
        compare_extensions(kit, labelled_paths_and_cycles(3))
        assert (len(glued), max(glued)) == (6328, 3)


def extensions_on_marked_ends(step):
    """The outcomes of the extension and its oracle, at bound 0, on the path
    m1 - x - y - m2 with both ends marked, when `step` evolves the unmarked
    pair x - y and fixes every other graph."""
    space = MarkSpace.for_base(ABC)
    base = FuncDynamics("two-vertex", lambda X: step(X) if len(X.vertices) == 2
                        else (X, {v: v for v in X.vertices}), ABC)
    path = RawGraph(
        alphabets=ABC, vertices=("m1", "x", "y", "m2"),
        edges=frozenset((make_edge("m1", "a", "x", "c"),
                         make_edge("x", "a", "y", "b"),
                         make_edge("y", "c", "m2", "b"))),
        vertex_labels={v: "0" for v in ("m1", "x", "y", "m2")})
    X = space.lift(canonicalize(PointedRawGraph(path, "m1")))
    M = apply_product(MarkDynamics(space).apply, (EPSILON, X.vertices[-1]), X)[0]
    return (outcome(ReversibleExtension(base, 0, space).apply, M),
            outcome(FoldingExtension(base, 0, space).apply, M))

class TestGlue:
    U, V, W = "uvw"

    def piece(self, vertices, edges=(), labels=None):
        return RawGraph(alphabets=ABL, vertices=tuple(vertices),
                        edges=frozenset(edges), vertex_labels=labels or {})

    def test_union_is_glue_of_two(self):
        g = self.piece([self.U, self.V], [make_edge(self.U, "a", self.V, "b")])
        h = self.piece([self.V, self.W], [make_edge(self.V, "a", self.W, "b")],
                       {self.W: "x"})
        assert union_pair(g, h) == glue([g, h])
        assert glue([g, h]).vertices == (self.U, self.V, self.W)

    @pytest.mark.parametrize("conflict", ["half-edge", "label", "alphabets"])
    def test_reports_the_first_pair_with_its_message(self, conflict):
        clean = self.piece([self.U])
        bad = {
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
        # Half-edge u:a is used twice, by two edges of the same piece.
        doubled = self.piece([self.U, self.V, self.W],
                             [make_edge(self.U, "a", self.V, "b"),
                              make_edge(self.U, "a", self.W, "b")])
        glued = glue([doubled, self.piece([self.W])])
        assert glued.vertices == (self.U, self.V, self.W)
        assert glued.edges == doubled.edges
        assert "'u':a" in validate(glued)


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
