"""The acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every tolerance and time budget is asserted here, not just reported.
"""
import random
import time
from itertools import product as iter_product

import pytest

from cgd import (
    Alphabets,
    PointedRawGraph,
    RawGraph,
    build_inverse,
    canonicalize,
    check_bijective_on_family,
    check_boundedness,
    check_shift_invariance,
    check_vertex_preserving,
    enumerate_family,
    get_dynamics,
    is_asymmetric,
    make_edge,
    parse_graph,
    shift,
    shift_equivalence_classes,
    vertex_preservation_exceptions,
)
from cgd.blocks import (
    BlockKit,
    MarkSpace,
    find_locality_radius,
    gate_footprint,
    mark,
)
from cgd.cli import EXIT_OK, main
from cgd.families import (
    TAPE_ALPHABETS,
    bare_tapes,
    grid_graph,
    shift_closure,
    single_head_tapes,
    turtle_graphs,
)
from cgd.modulo import ball, smallest_prime_above
from cgd.reversibility import GraphFamily

AB0 = Alphabets.make("ab", vertex_labels=("0",))
RANDOM_ALPHABETS = Alphabets.make("abcd", vertex_labels=("0", "1"),
                                  edge_labels=("x",))


def report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


@pytest.fixture(scope="module")
def ab_family_8():
    return enumerate_family(AB0, 8)


@pytest.fixture(scope="module")
def head_family_6():
    return GraphFamily.from_graphs(single_head_tapes(6), TAPE_ALPHABETS)


@pytest.fixture(scope="module")
def tape_kit_6():
    mh = get_dynamics("moving-head")
    members = bare_tapes(6) + single_head_tapes(6)
    fam = GraphFamily.from_graphs(shift_closure(members), TAPE_ALPHABETS)
    return BlockKit.from_family(mh, fam)


def random_raw_graph(rng):
    """A connected valid raw graph with up to 10 vertices, partial labels."""
    n = rng.randint(1, 10)
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    used = {v: set() for v in ids}
    edges = set()
    for i in range(1, n):
        new = ids[i]
        candidates = [(v, p) for v in ids[:i]
                      for p in RANDOM_ALPHABETS.ports if p not in used[v]]
        host, port = rng.choice(candidates)
        entry = rng.choice(RANDOM_ALPHABETS.ports)
        edges.add(make_edge(host, port, new, entry))
        used[host].add(port)
        used[new].add(entry)
    free = [(v, p) for v in ids for p in RANDOM_ALPHABETS.ports
            if p not in used[v]]
    rng.shuffle(free)
    while len(free) >= 2 and rng.random() < 0.6:
        (v, p) = free.pop()
        (w, q) = free.pop()
        if v == w and p == q:
            continue
        edges.add(make_edge(v, p, w, q))
    vertex_labels = {v: rng.choice(("0", "1"))
                     for v in ids if rng.random() < 0.5}
    edge_labels = {e: "x" for e in edges if rng.random() < 0.3}
    g = RawGraph(alphabets=RANDOM_ALPHABETS, vertices=tuple(ids),
                 edges=frozenset(edges), vertex_labels=vertex_labels,
                 edge_labels=edge_labels)
    return PointedRawGraph(g, ids[0])


def permuted(pg, rng):
    ids = list(pg.graph.vertices)
    renamed = ids[:]
    rng.shuffle(renamed)
    ren = dict(zip(ids, renamed))
    edges = frozenset(
        frozenset((ren[v], p) for (v, p) in e) for e in pg.graph.edges)
    g = RawGraph(
        alphabets=pg.graph.alphabets,
        vertices=tuple(sorted(renamed)),
        edges=edges,
        vertex_labels={ren[v]: l for v, l in pg.graph.vertex_labels.items()},
        edge_labels={frozenset((ren[v], p) for (v, p) in e): l
                     for e, l in pg.graph.edge_labels.items()},
    )
    return PointedRawGraph(g, ren[pg.origin])


def test_01_canonicalization_soundness():
    rng = random.Random(20250808)
    started = time.perf_counter()
    for _ in range(1000):
        pg = random_raw_graph(rng)
        base = canonicalize(pg)
        for _ in range(10):
            assert canonicalize(permuted(pg, rng)) == base
        assert canonicalize(parse_graph(base.to_text())) == base
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, "canonicalization soundness",
           f"1000 graphs x 10 permutations + text round-trips in {elapsed:.1f}s")


def test_02_shift_algebra(ab_family_8):
    started = time.perf_counter()
    members = [X for X in ab_family_8 if len(X.vertices) <= 6]
    checked = 0
    for X in members:
        for u in X.vertices:
            assert shift(shift(X, u), u.reversed()) == X
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, "shift algebra",
           f"{checked} shift/unshift identities over {len(members)} graphs "
           f"in {elapsed:.1f}s")


def test_03_class_isometry(ab_family_8):
    for X in ab_family_8:
        sizes = {len(c) for c in shift_equivalence_classes(X)}
        assert len(sizes) == 1, X
    report(3, "class isometry",
           f"{len(ab_family_8)} graphs up to 8 vertices, all classes uniform")


def test_04_primal_extension(ab_family_8):
    from cgd import primal_extension

    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    symmetric = [X for X in ab_family_8 if not is_asymmetric(X)]
    assert symmetric
    for X in symmetric:
        extended = primal_extension(X)
        assert len(extended.vertices) == smallest_prime_above(len(X.vertices) + 2)
        assert is_prime(len(extended.vertices))
        assert is_asymmetric(extended)
    report(4, "primal extension",
           f"{len(symmetric)} symmetric graphs extended to prime asymmetric forms")


def test_05_cgd_axioms(head_family_6):
    mh = get_dynamics("moving-head")
    for X in head_family_6:
        assert check_shift_invariance(mh, X) is None
        assert check_boundedness(mh, X, 0) is None

    ig = get_dynamics("inflating-grid")
    grids = 0
    for rows, cols in iter_product((1, 2, 3), repeat=2):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        for colours in iter_product(("white", "black"), repeat=len(cells)):
            X = grid_graph(rows, cols, labels=dict(zip(cells, colours)))
            assert check_shift_invariance(ig, X) is None
            assert check_boundedness(ig, X, 1) is None
            grids += 1
    report(5, "axioms on the examples",
           f"moving head on {len(head_family_6)} tapes (bound 0); "
           f"inflating grid on {grids} labelled grids (bound 1)")


def test_06_invertibility_and_vertex_preservation(head_family_6):
    mh = get_dynamics("moving-head")
    assert check_bijective_on_family(mh, head_family_6) is None
    for X in head_family_6:
        assert check_vertex_preserving(mh, X) is None

    turtle = get_dynamics("turtle")
    fam = enumerate_family(turtle.alphabets, 4)
    exceptions = vertex_preservation_exceptions(turtle, fam)
    assert set(exceptions) == set(turtle_graphs())
    report(6, "invertibility and vertex preservation",
           f"moving head bijective and vertex-preserving on "
           f"{len(head_family_6)} tapes; turtle exceptions over "
           f"{len(fam)} graphs are exactly the oscillating pair")


def test_07_inverse_correctness(head_family_6):
    mh = get_dynamics("moving-head")
    table = build_inverse(mh, head_family_6)
    for X in head_family_6:
        Y = table.forward[X]
        assert table.backward[Y] == X
        R = table.forward_corr[X]
        S = table.corr_inverse[Y]
        assert {v: S[R[v]] for v in X.vertices} == {v: v for v in X.vertices}
        assert {w: R[S[w]] for w in Y.vertices} == {w: w for w in Y.vertices}
        # Class compatibility of the inverse correspondence.
        class_of = {}
        for i, cls in enumerate(shift_equivalence_classes(Y)):
            for v in cls:
                class_of[v] = i
        for w in Y.vertices:
            assert class_of[R[S[w]]] == class_of[w]
    report(7, "inverse correctness",
           f"lookup inverse exact on {len(head_family_6)} members, "
           f"correspondences class-compatible")


def test_08_mark_involution():
    space = MarkSpace.for_base(AB0)
    fam = enumerate_family(space.marked, 4,
                           predicate=space.is_mark_consistent,
                           raw_prune=space.raw_mark_consistent)
    toggled = fixed = 0
    for X in fam:
        Y = mark(X, space)
        assert space.is_mark_consistent(Y)
        if Y == X:
            fixed += 1
        else:
            assert mark(Y, space) == X
            toggled += 1
    assert toggled > 0 and fixed > 0

    # Mark consistency across the other marked operations.
    mh = get_dynamics("moving-head")
    members = bare_tapes(4) + single_head_tapes(4)
    kit = BlockKit.from_family(
        mh, GraphFamily.from_graphs(shift_closure(members), TAPE_ALPHABETS))
    checked = 0
    for X in single_head_tapes(4):
        lifted = kit.space.lift(X)
        stages = [lifted]
        stages.append(kit.forward_ext.apply(lifted)[0])
        stages.append(kit.conjugate_mark(lifted)[0])
        stages.append(kit.backward_ext.apply(stages[1])[0])
        for stage in stages:
            assert kit.space.is_mark_consistent(stage)
            checked += 1
    report(8, "mark involution",
           f"{toggled} involutions and {fixed} conflict fixed points over "
           f"{len(fam)} marked graphs; {checked} operation outputs consistent")


def test_09_block_decomposition(tape_kit_6, tmp_path):
    mh = get_dynamics("moving-head")
    started = time.perf_counter()
    members = single_head_tapes(5)
    for X in members:
        trace = []
        result = tape_kit_6.decompose_step(X, trace=trace)
        assert result == mh.apply(X)[0]
        counts = []
        for stage in trace:
            if stage.label == "final":
                continue
            counts.append(sum(
                1 for v in stage.graph.vertices
                if tape_kit_6.space.vertex_mark(stage.graph, v) == 1))
        gates = len(X.vertices)
        rising, falling = counts[:gates + 1], counts[gates + 1:]
        assert rising == sorted(rising)
        assert max(counts) == gates
        assert counts[-1] == 0

    # The command-line pipeline writes the same panel sequence.
    from cgd.families import single_head_tape
    tape = tmp_path / "tape.graph"
    tape.write_text(single_head_tape(3, 0, "cc").to_text())
    stage_dir = tmp_path / "stages"
    assert main(["decompose", "--dynamics", "moving-head", "--input",
                 str(tape), "--trace", "--output-dir", str(stage_dir)]) == EXIT_OK
    stage_files = sorted(stage_dir.glob("stage*.graph"))
    cli_counts = []
    for path in stage_files[:-1]:  # the last stage is the unmarked result
        staged = canonicalize(parse_graph(path.read_text()))
        cli_counts.append(sum(
            1 for v in staged.vertices
            if staged.vertex_labels[v].endswith("1")))
    gates = 4
    assert cli_counts[:gates + 1] == sorted(cli_counts[:gates + 1])
    assert cli_counts[-1] == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(9, "block decomposition",
           f"decomposition equals the direct step on {len(members)} tapes, "
           f"marks monotone then cleared, in {elapsed:.1f}s")


def test_10_conjugate_mark_locality(tape_kit_6):
    kit = tape_kit_6
    lifted = GraphFamily.from_graphs(
        [kit.space.lift(g) for g in shift_closure(single_head_tapes(6))],
        kit.space.marked)
    radius = find_locality_radius(kit.conjugate, lifted, max_radius=4)
    assert radius is not None and radius <= 4

    depth_bound = len(kit.space.marked.ports) ** radius
    worst_depth = 0
    for X in single_head_tapes(6):
        lifted_x = kit.space.lift(X)
        touch_count = {v: 0 for v in lifted_x.vertices}
        for anchor in lifted_x.vertices:
            touched = gate_footprint(kit.conjugate, lifted_x, anchor)
            assert touched <= ball(lifted_x, anchor, radius)
            for v in touched:
                touch_count[v] += 1
        worst_depth = max(worst_depth, max(touch_count.values()))
    assert worst_depth <= depth_bound
    report(10, "conjugate-mark locality",
           f"radius {radius} over {len(lifted)} lifted tapes; footprints "
           f"inside their disks; depth {worst_depth} <= {depth_bound}")
