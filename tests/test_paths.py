"""Trie-node names against the tuple words and name-by-name equality they
replaced (`oracles.TuplePath`, `oracles.equal_by_names`)."""
import copy
import json
import pickle
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given

import oracles
from cgd import Alphabets, enumerate_family
from cgd.modulo import CanonicalGraph, _canonical_names, canonicalize
from cgd.paths import EPSILON, Path, format_path, parse_path
from cgd.portgraph import parse_graph, relabel
from test_cli import SUBPROCESS_ENV
from test_modulo import PROPERTY, pointed_graphs

AB01_E = Alphabets.make("ab", vertex_labels=("0", "1"), edge_labels=("e",))


@pytest.fixture(scope="module")
def labelled_family_3():
    return enumerate_family(AB01_E, 3)


def families(request):
    return [request.getfixturevalue(name) for name in
            ("ab_family_4", "tape_closure_5", "labelled_family_3")]


def check_path(new: Path, old: oracles.TuplePath, ports) -> None:
    assert new.pairs == old.pairs and len(new) == len(old)
    assert tuple(new) == tuple(old)
    text = format_path(new)
    assert text == oracles.format_tuple_path(old)
    assert format_path(new) is text     # built once, kept on the node
    for twin in (parse_path(text, ports), Path(old.pairs),
                 pickle.loads(pickle.dumps(new)), copy.copy(new),
                 copy.deepcopy(new)):
        assert twin == new and hash(twin) == hash(new)
        assert twin.pairs == new.pairs
    assert new.reversed().pairs == old.reversed().pairs
    assert new.reversed().reversed() == new


def check_names(adjacency, origin, alphabets) -> None:
    new = _canonical_names(adjacency, origin, alphabets)
    old = oracles.tuple_canonical_names(adjacency, origin, alphabets)
    assert list(new) == list(old)
    for v in new:
        check_path(new[v], old[v], alphabets.ports)
    for u, w in product(new, repeat=2):
        assert (new[u] == new[w]) == (old[u] == old[w])
        joined = new[u].concat(new[w])
        assert joined.pairs == old[u].concat(old[w]).pairs
        assert joined == Path(joined.pairs) and hash(joined) == hash(Path(joined.pairs))


def parsed_names(X: CanonicalGraph) -> CanonicalGraph:
    """X rebuilt from its own text with each name parsed on its own, so no
    name's parent is one of the graph's vertex nodes."""
    g = parse_graph(X.to_text()).graph
    raw = relabel(g, ids={v: parse_path(v, g.alphabets.ports) for v in g.vertices})
    return CanonicalGraph(raw.alphabets, raw.vertices, raw.vertex_labels,
                          raw.edges, raw.edge_labels)


def with_hash(X: CanonicalGraph, value: int) -> CanonicalGraph:
    """A copy of X that claims another hash, so equality cannot stop at it."""
    Y = CanonicalGraph(X.alphabets, X.vertices, X.vertex_labels, X.edges,
                       X.edge_labels)
    Y._hash = value
    return Y


def check_equality(A: CanonicalGraph, B: CanonicalGraph, want=None) -> None:
    if want is None:
        want = oracles.equal_by_names(A, B)
    assert (A == B) == want
    assert (A == with_hash(B, hash(A))) == want


class TestNamesMatchTupleWords:
    def test_exhaustive_families(self, request):
        for fam in families(request):
            for X in fam:
                for u in X.vertices:
                    check_names(X.adjacency, u, X.alphabets)

    @PROPERTY
    @given(pg=pointed_graphs())
    def test_random_graphs(self, pg):
        check_names(pg.graph.adjacency(), pg.origin, pg.graph.alphabets)

    def test_hash_ignores_how_the_word_was_built(self):
        ab, ba = ("a", "b"), ("b", "a")
        word = Path((ab, ba, ab))
        built = [EPSILON.child(ab).child(ba).child(ab),
                 Path((ab,)).concat(Path((ba, ab))),
                 Path((ba, ab, ba)).reversed(),
                 parse_path("ab.ba.ab", ("a", "b"))]
        for other in built:
            assert other is not word
            assert other == word and hash(other) == hash(word)
        assert Path(()) is EPSILON and EPSILON.concat(EPSILON) is EPSILON
        assert Path((ab, ba)) != word and Path((ab, ab, ab)) != word


class TestGraphEqualityMatchesNameByName:
    def test_exhaustive_pairs(self, request):
        for fam in families(request):
            pool = [G for X in fam for G in (X, parsed_names(X))]
            words = [oracles.name_words(G) for G in pool]
            for (i, A), (j, B) in product(enumerate(pool), repeat=2):
                if len(A) == len(B):
                    check_equality(A, B, words[i] == words[j])

    def test_rebuilt_graphs_equal_their_source(self, request):
        for fam in families(request):
            for X in fam:
                for Y in (canonicalize(parse_graph(X.to_text())), parsed_names(X)):
                    assert X == Y and Y == X and hash(X) == hash(Y)
                # No parent of a parsed name is a vertex node.
                nodes = set(map(id, Y.vertices))
                assert all(id(v.parent) not in nodes
                           for v in Y.vertices if len(v) > 1)

    @PROPERTY
    @given(pg=pointed_graphs(), other=pointed_graphs())
    def test_random_pairs(self, pg, other):
        X = canonicalize(pg)
        for A, B in product((X, parsed_names(X), canonicalize(other)), repeat=2):
            check_equality(A, B)


STAR = """\
ports a b c
vlabels x
elabels e
vertex o label=x
vertex u label=x
vertex v label=x
vertex w label=x
edge o:a u:a
edge o:b v:b
edge o:c w:c
{extra}
pointer o
"""


def forged(word: str, like: Path) -> Path:
    """The path spelled `word`, made to claim the hash of `like`."""
    path = parse_path(word, ("a", "b"))
    Path._hash.__set__(path, hash(like))
    return path


class TestEqualityBeyondTheHash:
    """Graphs and names whose hashes agree, or are made to, but that differ."""

    @pytest.mark.parametrize("extra, other", [
        ("edge u:b v:c", "edge u:c v:a"),
        ("edge u:b v:c label=e", "edge u:b v:c"),
        ("edge u:b v:c label=e", "edge u:c v:a label=e"),
        ("edge u:b v:c label=e\nedge u:c w:a", "edge u:b v:c\nedge u:c w:a label=e"),
    ])
    def test_same_names_other_edges(self, extra, other):
        A, B = (canonicalize(parse_graph(STAR.format(extra=text)))
                for text in (extra, other))
        assert A.vertices == B.vertices and len(A.edges) == len(B.edges)
        for X, Y in ((A, B), (B, A)):
            check_equality(X, Y)
            assert not oracles.equal_by_names(X, Y)

    def test_colliding_names(self):
        ab_ab = parse_path("ab.ab", ("a", "b"))
        for word in ("ab.ba", "ba.ab", "bb.ab"):
            other = forged(word, ab_ab)
            assert hash(other) == hash(ab_ab) and len(other) == len(ab_ab)
            assert other != ab_ab and ab_ab != other
        # The same collision inside two edgeless vertex sets.
        alphabets = Alphabets.make("ab")
        ab, ba = parse_path("ab", ("a", "b")), parse_path("ba", ("a", "b"))
        for word in ("ab.ba", "ba.ab"):
            X = CanonicalGraph(alphabets, (EPSILON, ab, ba, ab_ab), {}, (), {})
            Y = CanonicalGraph(alphabets, (EPSILON, ab, ba,
                                           forged(word, ab_ab)), {}, (), {})
            assert hash(X) == hash(Y)
            check_equality(X, Y)
            check_equality(Y, X)


LONG_TAPE_SCRIPT = """
import json, time
from cgd import canonicalize, get_dynamics, parse_graph, shift
from cgd.paths import Path

n = 10_000
def tape_text(head):
    lines = ["ports a b c d", "vlabels 0", "vertex h label=0"]
    lines += [f"vertex c{i} label=0" for i in range(n)]
    lines += [f"edge c{i}:a c{i + 1}:b" for i in range(n - 1)]
    lines += [f"edge c{head}:c h:c", "pointer c0"]
    return "\\n".join(lines) + "\\n"

middle = Path((("a", "b"),) * (n // 2))
start = time.perf_counter()
X = shift(canonicalize(parse_graph(tape_text(n // 3))), middle)
shifted_s = time.perf_counter() - start
Y = get_dynamics("moving-head").apply(X)[0]
assert Y == shift(canonicalize(parse_graph(tape_text(n // 3 + 1))), middle)
assert canonicalize(parse_graph(tape_text(0))) == canonicalize(parse_graph(tape_text(0)))
total_s = time.perf_counter() - start
# VmHWM is this address space's peak.  ru_maxrss would not do: Linux carries
# the peak of the process that forked this one across fork and exec.
try:
    with open("/proc/self/status") as status:
        peak_mb = next(int(line.split()[1]) / 1024 for line in status
                       if line.startswith("VmHWM:"))
except OSError:
    peak_mb = None
print(json.dumps({"shifted_s": shifted_s, "total_s": total_s,
                  "peak_rss_mb": peak_mb}))
"""


def test_ten_thousand_cell_tape():
    # Names of up to 10^4 pairs: parse, canonicalize, shift to the middle,
    # one moving-head step and the equality of two separate parses, with no
    # recursion and names that share their prefixes.  Serializing is left
    # out: the canonical text of this tape is about 450 MB.
    proc = subprocess.run([sys.executable, "-c", LONG_TAPE_SCRIPT],
                          env=SUBPROCESS_ENV, capture_output=True, text=True,
                          timeout=300)
    assert "RecursionError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["peak_rss_mb"] is None or got["peak_rss_mb"] < 150
    assert got["total_s"] < 20
