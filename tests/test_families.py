"""Family constructors and the enumerators: the search, the brute-force
generator and the old search kept in `oracles`."""
import hashlib

import pytest

import oracles
from cgd import Alphabets, enumerate_family, reversibility
from cgd.blocks import MarkSpace
from cgd.families import (
    TAPE_ALPHABETS,
    bare_tape,
    grid_graph,
    shift_closure,
    single_head_tape,
    single_head_tapes,
    turtle_graphs,
)
from cgd.modulo import canonicalize
from cgd.portgraph import validate
from cgd.reversibility import FamilyCapError, GraphFamily, brute_force_family

AB0 = Alphabets.make("ab", vertex_labels=("0",))
AB01 = Alphabets.make("ab", vertex_labels=("0", "1"))
ABCD0 = Alphabets.make("abcd", vertex_labels=("0",))
MARKED = MarkSpace.for_base(AB0)


def tape_like(raw):
    """Every edge pairs a-b, c-c or d-d, with at most one c/d edge.

    A superset of the tapes' shift closure, closed under taking subgraphs,
    so it is a sound `raw_prune`.
    """
    head_edges = 0
    for e in raw.edges:
        ports = sorted(p for (_v, p) in e)
        if ports in (["c", "c"], ["d", "d"]):
            head_edges += 1
        elif ports != ["a", "b"]:
            return False
    return head_edges <= 1


def listing_sha256(fam):
    return hashlib.sha256(
        "\n".join(g.to_text() for g in fam).encode("utf-8")).hexdigest()


class TestTapeConstructors:
    def test_count_up_to_three(self):
        assert len(single_head_tapes(3)) == 12  # 2 * (1 + 2 + 3)

    def test_hand_enumeration_up_to_two(self):
        expected = {single_head_tape(L, k, attach)
                    for L in (1, 2) for k in range(L)
                    for attach in ("cc", "dd")}
        assert len(expected) == 6
        assert set(single_head_tapes(2)) == expected

    def test_all_members_distinct(self):
        members = single_head_tapes(4)
        assert len(set(members)) == len(members)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            single_head_tape(3, 5)
        with pytest.raises(ValueError):
            single_head_tape(2, 0, attach="xx")
        with pytest.raises(ValueError):
            bare_tape(0)


class TestShiftClosure:
    def test_closure_closed(self):
        closed = shift_closure(single_head_tapes(3))
        again = shift_closure(closed)
        assert set(again) == set(closed)

    def test_closure_size(self):
        # A tape of L cells plus head has L+1 pointings each.
        members = shift_closure(single_head_tapes(3))
        assert len(members) == sum(2 * L * (L + 1) for L in (1, 2, 3)) - 2
        # Both pointings of the one-cell tape coincide (cell and head are
        # interchangeable), hence the -2.


class TestGrids:
    def test_sizes(self):
        for rows, cols in ((1, 1), (2, 3), (3, 3)):
            assert len(grid_graph(rows, cols).vertices) == rows * cols

    def test_transpose_differs(self):
        assert grid_graph(2, 3) != grid_graph(3, 2)

    def test_default_labels(self):
        X = grid_graph(2, 2)
        assert set(X.vertex_labels.values()) == {"white"}

    def test_custom_labels(self):
        X = grid_graph(1, 2, labels={(0, 0): "white", (0, 1): "black"})
        assert sorted(X.vertex_labels.values()) == ["black", "white"]

    def test_empty_grid_is_refused(self):
        with pytest.raises(ValueError) as err:
            grid_graph(0, 1)
        assert str(err.value) == "grid needs at least one row and one column"


class TestTurtleGraphs:
    def test_shapes(self):
        solo, pair = turtle_graphs()
        assert len(solo.vertices) == 1
        assert len(solo.edges) == 1
        assert len(pair.vertices) == 2
        assert len(pair.edges) == 2


class TestEnumeration:
    def test_one_vertex_singleton_labels(self):
        fam = enumerate_family(AB0, 1)
        assert len(fam) == 2  # bare vertex and the self-looped one
        loops = [g for g in fam if g.edges]
        assert len(loops) == 1

    def test_one_vertex_two_labels_no_edges(self):
        alph = Alphabets.make("ab", vertex_labels=("x", "y"))
        assert len([g for g in enumerate_family(alph, 1) if not g.edges]) == 2

    def test_deterministic_order(self):
        a = enumerate_family(AB0, 3)
        b = enumerate_family(AB0, 3)
        assert a.members == b.members

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("CGD_FAMILY_CAP", "10")
        with pytest.raises(FamilyCapError):
            enumerate_family(AB0, 6)

    @pytest.mark.parametrize("build, cap, error, message", [
        (lambda: GraphFamily.from_graphs([]), None, ValueError,
         "empty family needs explicit alphabets"),
        (lambda: GraphFamily((bare_tape(1), bare_tape(1)), TAPE_ALPHABETS),
         None, ValueError, "family contains duplicates"),
        (lambda: enumerate_family(AB0, 0), None, ValueError,
         "max_vertices must be >= 1"),
        (lambda: brute_force_family(AB0, 3), "1", FamilyCapError,
         "family exceeds cap of 1 graphs (set CGD_FAMILY_CAP to raise it)"),
    ], ids=["empty", "duplicates", "no-vertices", "brute-force-cap"])
    def test_refusals(self, build, cap, error, message, monkeypatch):
        if cap is not None:
            monkeypatch.setenv("CGD_FAMILY_CAP", cap)
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_matches_brute_force_two_ports(self):
        fast = enumerate_family(AB0, 4)
        slow = brute_force_family(AB0, 4)
        assert set(fast.members) == set(slow.members)
        assert len(fast) == 64

    def test_matches_brute_force_four_ports(self):
        alph = Alphabets.make("abcd", vertex_labels=("0",))
        fast = enumerate_family(alph, 2)
        slow = brute_force_family(alph, 2)
        assert set(fast.members) == set(slow.members)

    def test_single_head_tapes_found_by_generic_enumeration(self):
        # The filter keeps only constructed members, so equality says the
        # search reaches each of them.
        constructed = set(shift_closure(single_head_tapes(2)))
        fam = enumerate_family(TAPE_ALPHABETS, 3, raw_prune=tape_like)
        assert {g for g in fam if g in constructed} == constructed

    def test_family_membership(self):
        fam = GraphFamily.from_graphs(single_head_tapes(3))
        assert single_head_tape(2, 1, "dd") in fam
        assert bare_tape(2) not in fam
        assert len(fam) == 12


class TestCanonicalAugmentation:
    """The search builds each member once, from its parent, and agrees
    member for member, in order, with the old search that canonicalized
    every candidate and dropped the ones it had seen."""

    @pytest.mark.parametrize("alphabets, max_vertices, raw_prune", [
        (AB0, 7, None),
        (AB01, 5, None),
        (ABCD0, 2, None),
        (Alphabets.make("ab", ("0", "1"), ("x", "y")), 3, None),
        (Alphabets.make("abc", edge_labels=("x",)), 3, None),
        (MARKED.marked, 3, MARKED.raw_mark_consistent),
        (TAPE_ALPHABETS, 4, tape_like),
    ], ids=["ab-0-7", "ab-01-5", "abcd-0-2", "ab-01-xy-3", "abc-x-3",
            "marked-ab-0-3", "tape-like-4"])
    def test_matches_oracle(self, alphabets, max_vertices, raw_prune):
        fam = enumerate_family(alphabets, max_vertices, raw_prune=raw_prune)
        assert fam.members == oracles.enumerate_family(
            alphabets, max_vertices, raw_prune=raw_prune).members

    # Both were checked member for member, in order, against
    # `oracles.enumerate_family`, which takes 14 to 22 s on each.
    def test_abcd_up_to_three_vertices(self, abcd_family_3):
        fam = abcd_family_3
        assert fam.alphabets == ABCD0
        assert len(fam) == 60290
        assert listing_sha256(fam) == (
            "4a8f0eabca4e037987c8862adea63913391df753c07c9042176ee6c1dfc3042b")

    def test_marked_up_to_four_vertices(self):
        fam = enumerate_family(MARKED.marked, 4,
                               raw_prune=MARKED.raw_mark_consistent)
        assert len(fam) == 23040
        assert listing_sha256(fam) == (
            "2ad61a9361a5e451d5cc704c58833c7c66113e9a5800f478860146415f0c3029")

    def test_members_are_valid_canonical_graphs(self):
        # Members are built from their parents, never canonicalized, so
        # each must already be a valid graph in canonical form.
        for alphabets, max_vertices in (
                (AB0, 5), (Alphabets.make("ab", ("0", "1"), ("x",)), 3)):
            for X in enumerate_family(alphabets, max_vertices):
                pg = X.to_pointed_raw()
                assert validate(pg.graph) is None
                assert canonicalize(pg) == X

    def test_no_canonicalization(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("enumeration canonicalized a candidate")
        monkeypatch.setattr(reversibility, "canonicalize_with_names", refuse)
        assert len(enumerate_family(AB01, 4)) == 796
        assert len(enumerate_family(MARKED.marked, 3,
                                    raw_prune=MARKED.raw_mark_consistent)) == 1008

    def test_cap_counts_members(self, monkeypatch):
        monkeypatch.setenv("CGD_FAMILY_CAP", "64")
        assert len(enumerate_family(AB0, 4)) == 64
        monkeypatch.setenv("CGD_FAMILY_CAP", "63")
        with pytest.raises(FamilyCapError, match="CGD_FAMILY_CAP"):
            enumerate_family(AB0, 4)

    def test_cap_counts_only_graphs_that_pass_the_prune(self, monkeypatch):
        fam = enumerate_family(TAPE_ALPHABETS, 3, raw_prune=tape_like)
        monkeypatch.setenv("CGD_FAMILY_CAP", str(len(fam)))
        assert len(enumerate_family(TAPE_ALPHABETS, 3, raw_prune=tape_like)) == len(fam)
        monkeypatch.setenv("CGD_FAMILY_CAP", str(len(fam) - 1))
        with pytest.raises(FamilyCapError):
            enumerate_family(TAPE_ALPHABETS, 3, raw_prune=tape_like)

    @pytest.mark.parametrize("enumerate_", [enumerate_family, brute_force_family])
    def test_cap_of_the_family_size_passes(self, enumerate_, monkeypatch):
        # The variable is the only cap either enumerator reads.
        fam = enumerate_(AB0, 3)
        monkeypatch.setenv("CGD_FAMILY_CAP", str(len(fam)))
        assert enumerate_(AB0, 3).members == fam.members
        monkeypatch.setenv("CGD_FAMILY_CAP", str(len(fam) - 1))
        with pytest.raises(FamilyCapError) as err:
            enumerate_(AB0, 3)
        assert str(err.value) == (f"family exceeds cap of {len(fam) - 1} graphs "
                                  f"(set CGD_FAMILY_CAP to raise it)")
