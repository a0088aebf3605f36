"""Trie-node names against the tuple words and name-by-name equality they
replaced (`oracles.TuplePath`, `oracles.equal_by_names`)."""
import copy
import gc
import json
import pickle
import subprocess
import sys
import threading
import tracemalloc
from itertools import product

import pytest
from hypothesis import given

import oracles
from cgd import Alphabets, enumerate_family
from cgd import paths
from cgd.families import bare_tape
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
    assert not hasattr(new, "_text")    # a node keeps no text: graphs write it
    for twin in (parse_path(text, ports), Path(old.pairs),
                 pickle.loads(pickle.dumps(new)), copy.copy(new),
                 copy.deepcopy(new)):
        assert twin is new
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
        assert joined is Path(joined.pairs)


def parsed_names(X: CanonicalGraph) -> CanonicalGraph:
    """X rebuilt from its own text with each name parsed on its own, not
    from its parent's node."""
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
            assert other is word
            assert other == word and hash(other) == hash(word)
        assert Path(()) is EPSILON and EPSILON.concat(EPSILON) is EPSILON
        assert Path((ab, ba)) != word and Path((ab, ab, ab)) != word


def chain_text(n: int, ports: str = "ab", pointer: int = 0, reverse=False) -> str:
    """A chain of n labelled cells joined by (ports[0], ports[1]) edges; its
    ids and lines in reverse when `reverse`."""
    p, q = ports
    cells = range(n - 1, -1, -1) if reverse else range(n)
    lines = [f"ports {p} {q}", "vlabels 0"] + [f"vertex c{i} label=0" for i in cells]
    lines += [f"edge c{i}:{p} c{i + 1}:{q}" for i in cells if i + 1 < n]
    return "\n".join(lines + [f"pointer c{pointer}"]) + "\n"


class TestOneNodePerWord:
    def test_separate_canonicalizations_share_every_name(self):
        X = canonicalize(parse_graph(chain_text(4000, pointer=1000)))
        Y = canonicalize(parse_graph(chain_text(4000, pointer=1000, reverse=True)))
        assert X == Y and all(a is b for a, b in zip(X.vertices, Y.vertices))
        assert all(v in X.vertex_labels for v in Y.vertices)

    def test_a_text_leaves_nothing_behind(self):
        # A name's text lives with its graph's text, not on the node, so a
        # tape's texts (quadratic in its length) go with the tape.
        gc.collect()
        tracemalloc.start()
        try:
            X = bare_tape(3000)
            text = X.to_text()
            del X, text
            gc.collect()
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_000_000

    def test_canonicalizing_again_builds_no_node(self):
        pg = parse_graph(chain_text(300, pointer=120))
        X = canonicalize(pg)
        before = len(paths._NODES)
        for Y in (canonicalize(pg), canonicalize(parse_graph(X.to_text())),
                  parsed_names(X), pickle.loads(pickle.dumps(X))):
            assert Y == X
        assert len(paths._NODES) == before

    def test_threads_build_one_node_per_word(self):
        # Ports no other test uses, so the words are new to every thread.
        pg = parse_graph(chain_text(2000, ports="xy", pointer=700))
        start, out = threading.Barrier(4), [None] * 4

        def work(i):
            start.wait()
            out[i] = canonicalize(pg).vertices
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads inside `child`
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(out[0]) == 2000
        assert all(a is b for vertices in out[1:] for a, b in zip(out[0], vertices))


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
                # Parsed names are the canonical nodes themselves.
                assert all(a is b for a, b in zip(X.vertices, Y.vertices))

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
        # Two edgeless vertex sets that differ in one name of equal length,
        # made to claim one hash.
        alphabets = Alphabets.make("ab")
        ab, ba, ab_ab = (parse_path(w, ("a", "b")) for w in ("ab", "ba", "ab.ab"))
        X = CanonicalGraph(alphabets, (EPSILON, ab, ba, ab_ab), {}, (), {})
        for word in ("ab.ba", "ba.ab"):
            other = parse_path(word, ("a", "b"))
            assert len(other) == len(ab_ab) and other != ab_ab
            Y = with_hash(CanonicalGraph(alphabets, (EPSILON, ab, ba, other),
                                         {}, (), {}), hash(X))
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
