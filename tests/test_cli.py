"""Command-line behaviour: artifacts, reports, exit codes."""
import gc
import os
import random
import re
import subprocess
import sys

import pytest

import cgd
from cgd import canonicalize, cli, disk_at, get_dynamics, modulo, parse_graph
from cgd.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, main
from cgd.blocks import BlockKit
from cgd.dynamics import RawStepDynamics
from cgd.families import bare_tapes, single_head_tape, single_head_tapes
from cgd.patches import (
    RuleTable,
    identity_local_rule,
    parse_rule_file,
    serialize_rule_file,
)
from cgd.reversibility import build_inverse
from oracles import CompositeDynamics

# Subprocesses import the same cgd as this module, whether it was installed
# or found through pytest's `pythonpath`.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(cgd.__file__)),
    os.environ.get("PYTHONPATH"))))}

TAPE_TEXT = """\
ports a b c d
vlabels 0
vertex c0 label=0
vertex c1 label=0
vertex c2 label=0
vertex h label=0
edge c0:a c1:b
edge c1:a c2:b
edge c0:c h:c
pointer c0
"""

IDENTITY_RULE_FILE = """\
radius 0
disk
ports a b
vlabels x
vertex eps label=x
pointer eps
maps-to
ports a b
vlabels x
vertex eps label=x
pointer eps
"""


@pytest.fixture()
def tape_file(tmp_path):
    path = tmp_path / "tape.graph"
    path.write_text(TAPE_TEXT)
    return str(path)


class TestRun:
    def test_identity_steps_repeat_input(self, tape_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--dynamics", "identity", "--input", tape_file,
                     "--steps", "3", "--output-dir", str(out)]) == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"step{i:03d}.graph" for i in range(4)]
        first = (out / "step000.graph").read_text()
        for i in range(1, 4):
            assert (out / f"step{i:03d}.graph").read_text() == first

    def test_moving_head_trajectory(self, tape_file, tmp_path):
        out = tmp_path / "traj"
        assert main(["run", "--dynamics", "moving-head", "--input", tape_file,
                     "--steps", "6", "--output-dir", str(out)]) == EXIT_OK
        mh = get_dynamics("moving-head")
        current = canonicalize(parse_graph(TAPE_TEXT))
        for i in range(7):
            on_disk = canonicalize(parse_graph(
                (out / f"step{i:03d}.graph").read_text()))
            assert on_disk == current
            current = mh.apply(current)[0]
        # Six steps walk the 3-cell tape through one full bounce cycle.
        assert canonicalize(parse_graph((out / "step006.graph").read_text())) \
            == canonicalize(parse_graph(TAPE_TEXT))

    def test_render_writes_dot(self, tape_file, tmp_path):
        out = tmp_path / "dot"
        assert main(["run", "--dynamics", "identity", "--input", tape_file,
                     "--steps", "0", "--output-dir", str(out),
                     "--render"]) == EXIT_OK
        assert (out / "step000.dot").exists()

    def test_rule_file(self, tmp_path):
        rule = tmp_path / "rule.txt"
        rule.write_text(IDENTITY_RULE_FILE)
        graph = tmp_path / "dot.graph"
        graph.write_text("ports a b\nvlabels x\nvertex v label=x\npointer v\n")
        out = tmp_path / "out"
        assert main(["run", "--rule-file", str(rule), "--input", str(graph),
                     "--steps", "2", "--output-dir", str(out)]) == EXIT_OK
        assert (out / "step002.graph").exists()

    def test_rule_file_missing_a_disk(self, tmp_path, capsys):
        # The rule knows only an isolated vertex; this vertex has a neighbour.
        rule = tmp_path / "rule.txt"
        rule.write_text(IDENTITY_RULE_FILE)
        graph = tmp_path / "pair.graph"
        graph.write_text("ports a b\nvlabels x\nvertex u label=x\n"
                         "vertex v label=x\nedge u:a v:b\npointer u\n")
        assert main(["run", "--rule-file", str(rule), "--input", str(graph),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert one_error_line(capsys) == (
            "error: no rule entry for a radius-0 disk of 2 vertices")

    @pytest.mark.parametrize("rule_text, message", [
        ("label=q".join(IDENTITY_RULE_FILE.rsplit("label=x", 1)),
         "error: line 10: unknown vertex label 'q' on 'eps'"),
        (IDENTITY_RULE_FILE + "disk\n", "error: line 12: unpaired disk section"),
    ], ids=["unknown-label", "dangling-disk"])
    def test_rule_file_error_names_its_line(self, tmp_path, capsys, rule_text, message):
        rule = tmp_path / "rule.txt"
        rule.write_text(rule_text)
        graph = tmp_path / "dot.graph"
        graph.write_text("ports a b\nvlabels x\nvertex v label=x\npointer v\n")
        assert main(["run", "--rule-file", str(rule), "--input", str(graph),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert one_error_line(capsys) == message

    def test_patch_naming_one_host_vertex_twice(self, tmp_path, capsys):
        # eps and ab both resolve to the looped vertex itself.
        rule = tmp_path / "rule.txt"
        rule.write_text("radius 0\ndisk\nports a b\nvertex eps\n"
                        "edge eps:a eps:b\npointer eps\nmaps-to\n"
                        "ports a b\nvertex eps\nvertex ab\npointer eps\n")
        graph = tmp_path / "loop.graph"
        graph.write_text("ports a b\nvertex v\nedge v:a v:b\npointer v\n")
        assert main(["run", "--rule-file", str(rule), "--input", str(graph),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        one_error_line(capsys)

    def test_patch_name_that_does_not_resolve(self, tmp_path, capsys):
        # The radius-0 patch names ab, which a lone vertex does not have.
        rule = tmp_path / "rule.txt"
        rule.write_text("radius 0\ndisk\nports a b\nvertex eps\npointer eps\n"
                        "maps-to\nports a b\nvertex ab\npointer ab\n")
        graph = tmp_path / "dot.graph"
        graph.write_text("ports a b\nvertex v\npointer v\n")
        assert main(["run", "--rule-file", str(rule), "--input", str(graph),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert one_error_line(capsys) == (
            "error: patch at eps names ab, which does not resolve")

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["run", "--dynamics", "identity",
                     "--input", str(tmp_path / "nope.graph")]) == EXIT_IO

    def test_bad_graph_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("ports a b\nvertex v\nvertex v\npointer v\n")
        assert main(["run", "--dynamics", "identity",
                     "--input", str(bad)]) == EXIT_BAD_INPUT


class TestVerify:
    def test_moving_head_report(self, capsys):
        code = main(["verify", "--dynamics", "moving-head",
                     "--max-vertices", "7", "--family", "single-head-tape"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "members=42" in out
        assert "bijective=ok" in out
        assert "vertex_preserving=ok" in out
        assert "exception_set=\n" in out
        assert "result=pass" in out

    def test_turtle_exceptions_counted(self, capsys):
        code = main(["verify", "--dynamics", "turtle", "--max-vertices", "3",
                     "--family", "all", "--expect-exceptions", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "vertex_preserving=exceptions" in out
        assert "result=pass" in out

    def test_escaping_family_fails(self, capsys):
        code = main(["verify", "--dynamics", "inflating-grid",
                     "--max-vertices", "2", "--family", "all"])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "result=fail" in out

    def test_unexpected_exception_count_fails(self, capsys):
        code = main(["verify", "--dynamics", "turtle", "--max-vertices", "4",
                     "--family", "all", "--expect-exceptions", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_CHECK_FAILED
        assert "exception_count_expected=0" in lines
        assert lines[-2:] == ["inverse_composition=skipped", "result=fail"]

    def test_report_written(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["verify", "--dynamics", "identity", "--max-vertices", "2",
                     "--family", "single-head-tape",
                     "--output-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "verify-report.txt").read_text().endswith("result=pass\n")
        table = (out_dir / "inverse-table.txt").read_text()
        assert table.startswith("source")
        assert "image" in table


class TestEnumerate:
    def test_counts_and_listing(self, tmp_path, capsys):
        target = tmp_path / "family.txt"
        code = main(["enumerate", "--max-vertices", "1", "--ports", "a", "b",
                     "--vlabels", "0", "--output", str(target)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "members=2" in out
        assert target.read_text().startswith("# 2 graphs")

    def test_each_member_is_written_once(self, monkeypatch, capsys):
        # The sort by text and the listing share one text per member.
        calls = []
        real = modulo.write_graph
        monkeypatch.setattr(modulo, "write_graph",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert main(["enumerate", "--ports", "a", "b", "--vlabels", "0", "1",
                     "--max-vertices", "5"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("members=3868\n")
        assert len(calls) == 3868

    @pytest.mark.parametrize("argv, token", [
        (["--ports", "a b", "c"], "port 'a b'"),
        (["--ports", "a", "#"], "port '#'"),
        (["--ports", "a:b"], "port 'a:b'"),
        (["--ports", "a.b"], "port 'a.b'"),
        (["--ports", "e", "ps"], "port pair 'eps'"),
        (["--ports", "a", "aa"], "port pair 'aaa'"),
        (["--ports", "a", ""], "port ''"),
        (["--vlabels", "x y"], "label 'x y'"),
        (["--vlabels", "x#"], "label 'x#'"),
        (["--elabels", ""], "label ''"),
        (["--ports", "label=x", "b", "--vlabels", "0"], "port pair 'label=xlabel=x'"),
        (["--ports", "y~1", "y"], "port 'y~1'"),
    ])
    def test_unwritable_alphabet_is_bad_input(self, argv, token, capsys):
        # Each would write a listing that reads back differently, or not at
        # all; it is refused before the enumeration starts.
        assert main(["enumerate", "--max-vertices", "1"] + argv) == EXIT_BAD_INPUT
        one_error_line(capsys, token, "not writable")


class TestDecompose:
    def test_trace_and_agreement(self, tape_file, tmp_path, capsys):
        out = tmp_path / "stages"
        code = main(["decompose", "--dynamics", "moving-head",
                     "--input", tape_file, "--trace",
                     "--output-dir", str(out), "--render"])
        printed = capsys.readouterr().out
        assert code == EXIT_OK
        assert "matches_direct_step=yes" in printed
        stages = sorted(p.name for p in out.iterdir() if p.suffix == ".graph")
        # lift + one conjugate mark and one unmark per vertex + final
        assert len(stages) == 2 + 2 * 4
        assert (out / "stage000.dot").exists()

    def test_without_trace(self, tape_file, capsys):
        assert main(["decompose", "--dynamics", "moving-head",
                     "--input", tape_file]) == EXIT_OK

    def test_label_changing_dynamics_decomposes(
            self, tmp_path, monkeypatch, capsys):
        # A cellwise label permutation stands in for the named dynamics; it
        # relabels the unmarked cell next to the first mark, which the
        # reversible extension does not freeze, so the step decomposes.
        from test_blocks import CellwisePermutation, labelled_paths_and_cycles
        D = CellwisePermutation(("01", "10", "11", "00"))
        monkeypatch.setattr(cli, "get_dynamics", lambda name: D)
        monkeypatch.setattr(cli, "_tape_kit", lambda dynamics: BlockKit.from_family(
            dynamics, labelled_paths_and_cycles(2)))
        graph = tmp_path / "path.graph"
        graph.write_text("ports a b\nvlabels 00 01 10 11\nvertex u label=00\n"
                         "vertex v label=00\nedge u:a v:b\npointer u\n")
        assert main(["decompose", "--dynamics", "identity",
                     "--input", str(graph)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "dynamics=cellwise-01-10-11-00\nmatches_direct_step=yes\n")

    def test_identity(self, tmp_path, capsys):
        tape = tmp_path / "tape.graph"
        tape.write_text(single_head_tape(3, 1, "dd").to_text())
        assert main(["decompose", "--dynamics", "identity",
                     "--input", str(tape)]) == EXIT_OK
        assert "matches_direct_step=yes" in capsys.readouterr().out

    def test_tape_longer_than_the_kit_family(self, tmp_path, capsys):
        # The kit is read off tapes of at most 5 cells; 48 cells need the rule.
        tape = tmp_path / "tape.graph"
        tape.write_text(single_head_tape(48, 30, "dd").to_text())
        assert main(["decompose", "--dynamics", "moving-head",
                     "--input", str(tape)]) == EXIT_OK
        assert "matches_direct_step=yes" in capsys.readouterr().out

    @pytest.mark.parametrize("dynamics", ["moving-head", "identity"])
    def test_input_over_other_alphabets(self, dynamics, tmp_path, capsys):
        # The kit is built over the tape alphabets, which the input lacks.
        graph = tmp_path / "path.graph"
        graph.write_text("ports a b\nvlabels 0\nvertex u label=0\n"
                         "vertex v label=0\nedge u:a v:b\npointer u\n")
        assert main(["decompose", "--dynamics", dynamics,
                     "--input", str(graph)]) == EXIT_BAD_INPUT
        assert capsys.readouterr() == ("", (
            "error: lift expects alphabets Alphabets(ports=('a', 'b', 'c', 'd'), "
            "vertex_labels=('0',), edge_labels=()), got Alphabets(ports=('a', 'b'), "
            "vertex_labels=('0',), edge_labels=())\n"))

    def test_disk_outside_the_rule(self, tmp_path, capsys):
        # Two heads on one cell's neighbours: no single-head tape shows that
        # disk, so the inverse's rule has no entry for it.
        graph = tmp_path / "two-heads.graph"
        graph.write_text(TAPE_TEXT.replace("pointer c0", "vertex g label=0\n"
                                           "edge c2:d g:d\npointer c0"))
        assert main(["decompose", "--dynamics", "moving-head",
                     "--input", str(graph)]) == EXIT_BAD_INPUT
        one_error_line(capsys, "moving-head-inverse", "not in the rule")

    def test_rule_file(self, tmp_path, capsys):
        rule = tmp_path / "identity-r1.rules"
        rule.write_text(tape_identity_rule_text())
        tape = tmp_path / "tape.graph"
        tape.write_text(single_head_tape(12, 4, "cc").to_text())
        assert main(["decompose", "--rule-file", str(rule),
                     "--input", str(tape)]) == EXIT_OK
        assert "matches_direct_step=yes" in capsys.readouterr().out

    def test_radius_2_rule_file(self, tmp_path, monkeypatch, capsys):
        # Two moving-head steps at once, written as a radius-2 rule file:
        # the kit's family starts at 2 * 2 + 4 vertices, and a 20-cell tape,
        # longer than that family, still decomposes to the direct step.
        rule = tmp_path / "moving-head-twice.rules"
        rule.write_text(moving_head_twice_rule_text())
        sizes = []
        real = BlockKit.from_family
        monkeypatch.setattr(BlockKit, "from_family", staticmethod(
            lambda D, fam: sizes.append(max(map(len, fam))) or real(D, fam)))
        tape = tmp_path / "tape.graph"
        tape.write_text(single_head_tape(20, 13, "dd").to_text())
        assert main(["decompose", "--rule-file", str(rule),
                     "--input", str(tape)]) == EXIT_OK
        assert "matches_direct_step=yes" in capsys.readouterr().out
        assert sizes == [8]

    def test_kit_build_ignores_input_size(self, tmp_path, monkeypatch, capsys):
        # Applies of the dynamics while the kit is built, for a 6-cell and a
        # 48-cell input: one apply per member of the kit's own fixed
        # family, the 36 plain tapes of up to 6 cells.
        calls = []
        real_apply = RawStepDynamics.apply
        monkeypatch.setattr(RawStepDynamics, "apply",
                            lambda self, X: calls.append(1) or real_apply(self, X))
        real_kit = cli._tape_kit
        kit_applies = []

        def counted_kit(dynamics):
            before = len(calls)
            kit = real_kit(dynamics)
            kit_applies.append(len(calls) - before)
            return kit

        monkeypatch.setattr(cli, "_tape_kit", counted_kit)
        for length in (6, 48):
            tape = tmp_path / f"tape{length}.graph"
            tape.write_text(single_head_tape(length, length // 2, "cc").to_text())
            assert main(["decompose", "--dynamics", "moving-head",
                         "--input", str(tape)]) == EXIT_OK
        family = real_kit(get_dynamics("moving-head")).inverse.table.family
        assert kit_applies == [len(family)] * 2 == [36, 36]


class TestCheckBlocks:
    def test_moving_head(self, capsys):
        code = main(["check-blocks", "--dynamics", "moving-head",
                     "--max-vertices", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "block_identity=ok" in out
        assert "locality_radius=2" in out
        assert "result=pass" in out

    def test_identity(self, capsys):
        code = main(["check-blocks", "--dynamics", "identity",
                     "--max-vertices", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "locality_radius=1\n" in out
        assert "observed_depth=4\n" in out
        assert "result=pass" in out

    def test_rule_file(self, tmp_path, capsys):
        rule = tmp_path / "identity-r1.rules"
        rule.write_text(tape_identity_rule_text())
        assert main(["check-blocks", "--rule-file", str(rule),
                     "--max-vertices", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "block_identity=ok" in out
        assert "result=pass" in out

    def test_no_exception_bound_option(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["check-blocks", "--max-vertices", "4",
                  "--exception-bound", "0"])
        assert exit_info.value.code == 2


class TestFamilySizes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name, dynamics", [
        ("all", "turtle"),
        ("single-head-tape", "moving-head"),
        ("tape-closure", "moving-head"),
    ])
    def test_members_within_max_vertices(self, name, dynamics, n):
        fam = cli._family_for(name, get_dynamics(dynamics), n)
        assert all(len(X.vertices) <= n for X in fam)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reported_members(self, n, capsys):
        # Single-head tapes of at most n vertices, the head included: two
        # attachments at each cell of tapes of 1 .. n - 1 cells.  At n = 1
        # the family is empty, and both commands refuse it (TestInputBounds).
        expected = n * (n - 1)
        assert main(["verify", "--dynamics", "moving-head", "--family",
                     "single-head-tape", "--max-vertices", str(n)]) == EXIT_OK
        assert f"members={expected}\n" in capsys.readouterr().out
        assert main(["check-blocks", "--dynamics", "moving-head",
                     "--max-vertices", str(n)]) == EXIT_OK
        assert f"members={expected}\n" in capsys.readouterr().out


class TestClosedStdout:
    def test_no_traceback_when_the_reader_leaves(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cgd.cli", "enumerate", "--max-vertices", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SUBPROCESS_ENV)
        # Closed before the command writes anything, so every write fails.
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_IO
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err


def one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    for needle in needles:
        assert needle in line
    return line


class TestOutputDirClash:
    """An --output-dir that is a file, or lies under one, is an I/O error."""

    @pytest.mark.parametrize("command", [["run", "--dynamics", "moving-head"],
                                         ["decompose", "--trace"]])
    @pytest.mark.parametrize("under", [(), ("sub",)])
    def test_one_error_line_and_exit_3(self, command, under, tape_file,
                                       tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        out_dir = afile.joinpath(*under)
        assert main(command + ["--input", tape_file,
                               "--output-dir", str(out_dir)]) == EXIT_IO
        assert one_error_line(capsys).startswith(
            f"error: cannot write {out_dir}{os.sep}")


class TestInputBounds:
    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "all", "--max-vertices", "0"],
        ["verify", "--family", "single-head-tape", "--max-vertices", "-5"],
        ["verify", "--family", "tape-closure", "--max-vertices", "0"],
        ["check-blocks", "--max-vertices", "0"],
        ["enumerate", "--max-vertices", "0"],
    ])
    def test_max_vertices_below_one(self, argv, capsys):
        assert main(argv) == EXIT_BAD_INPUT
        one_error_line(capsys, "--max-vertices", "at least 1")

    def test_single_head_family_needs_two_vertices(self, capsys):
        # A single-head tape has a cell and a head, so at one vertex the
        # family is empty and every check over it would pass.
        for argv in (["verify", "--dynamics", "moving-head", "--family",
                      "single-head-tape", "--max-vertices", "1"],
                     ["check-blocks", "--max-vertices", "1"]):
            assert main(argv) == EXIT_BAD_INPUT
            assert capsys.readouterr() == (
                "", "error: family single-head-tape is empty at "
                    "--max-vertices 1; use --max-vertices 2 or more\n")

    def test_negative_steps(self, tape_file, tmp_path, capsys):
        assert main(["run", "--input", tape_file, "--steps", "-1",
                     "--output-dir", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        one_error_line(capsys, "--steps", "at least 0")
        assert not (tmp_path / "out").exists()

    def test_negative_expected_exceptions(self, capsys):
        assert main(["verify", "--dynamics", "turtle", "--max-vertices", "2",
                     "--expect-exceptions", "-1"]) == EXIT_BAD_INPUT
        assert capsys.readouterr() == (
            "", "error: --expect-exceptions must be at least 0, got -1\n")

    def test_family_all_needs_fixed_alphabets(self, capsys):
        assert main(["verify", "--dynamics", "identity", "--family", "all",
                     "--max-vertices", "2"]) == EXIT_BAD_INPUT
        assert capsys.readouterr() == (
            "", "error: identity accepts any alphabets; choose a named family\n")

    @pytest.mark.parametrize("name", ["turtle", "inflating-grid"])
    def test_blocks_need_a_tape_dynamics(self, name, tape_file, capsys):
        assert main(["check-blocks", "--dynamics", name,
                     "--max-vertices", "3"]) == EXIT_BAD_INPUT
        one_error_line(capsys, "--dynamics", name)
        assert main(["decompose", "--dynamics", name,
                     "--input", tape_file]) == EXIT_BAD_INPUT
        one_error_line(capsys, "--dynamics", name)

    @pytest.mark.parametrize("name, family", [("turtle", "tape-closure"),
                                              ("inflating-grid", "single-head-tape")])
    def test_tape_families_need_a_tape_dynamics(self, name, family, capsys):
        assert main(["verify", "--dynamics", name, "--family", family,
                     "--max-vertices", "3"]) == EXIT_BAD_INPUT
        one_error_line(capsys, "--dynamics", name)

    def test_render_needs_trace(self, tape_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["decompose", "--dynamics", "moving-head", "--input",
                     tape_file, "--render", "--output-dir", str(out)]) == EXIT_BAD_INPUT
        assert one_error_line(capsys) == "error: --render needs --trace"
        assert not out.exists()


def tape_identity_rule_text():
    """The radius-1 identity rule on every disk of the bare and single-head
    tapes of at most 6 cells, as a rule file."""
    rule = identity_local_rule(1)
    entries = {}
    for X in bare_tapes(6) + single_head_tapes(6):
        for u in X.vertices:
            view = disk_at(X, u, 1)
            entries.setdefault(view, rule.rule(view))
    return serialize_rule_file(RuleTable(radius=1, entries=entries))


def moving_head_twice_rule_text():
    """Two moving-head steps at once as a radius-2 rule file, on every disk
    of the tapes of at most 7 cells and a head.

    The rule is the local rule of the inverse of its own inverse, both
    read off that family."""
    mh = get_dynamics("moving-head")
    twice = CompositeDynamics((mh, mh), name="moving-head-twice")
    fam = cli._family_for("tape-closure", twice, 8)
    backward = build_inverse(twice, fam).as_dynamics()
    rule = build_inverse(backward, fam).local_rule()
    assert rule.radius == 2
    return serialize_rule_file(rule)


def identity_rule_text(X, radius):
    """A rule file holding the identity rule on every disk of X."""
    rule = identity_local_rule(radius)
    entries = {}
    for u in X.vertices:
        view = disk_at(X, u, radius)
        entries[view] = rule.rule(view)
    return serialize_rule_file(RuleTable(radius=radius, entries=entries))


SOUP = ["ports", "vlabels", "elabels", "vertex", "edge", "pointer", "label=",
        "label=0", "radius", "disk", "maps-to", "c0", "c1:a", "h:c", "eps",
        "eps~1", "ab.cd", ":", "=", "~", "#", "-1", "00", "\t", "\u00e9"]


def mutant(text, rng):
    """`text` after one to three random line or token edits."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        op = rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            tokens[rng.randrange(len(tokens))] = rng.choice(SOUP)
            lines[i] = " ".join(tokens)
        elif op == 4:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(SOUP))
            lines[i] = " ".join(tokens)
        elif lines[i]:
            k = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:k] + lines[i][k + 1:]
    return "\n".join(lines) + "\n"


def _write(path, text):
    path.write_text(text)
    return str(path)


def rejected(load, text):
    try:
        load(text)
    except Exception:
        return True
    return False


class TestMalformedInputFuzz:
    """Every command turns malformed input into exit 2 and one error line."""

    def test_mutated_files(self, tape_file, tmp_path, capsys):
        rng = random.Random(368)
        graph_text = open(tape_file).read()
        rule_text = identity_rule_text(canonicalize(parse_graph(graph_text)), 1)
        out = str(tmp_path / "out")
        bad = tmp_path / "bad.txt"
        assert main(["run", "--rule-file", _write(bad, rule_text),
                     "--input", tape_file, "--output-dir", out]) == EXIT_OK
        commands = [
            (graph_text, lambda t: canonicalize(parse_graph(t)),
             lambda path: ["run", "--input", path, "--output-dir", out]),
            (rule_text, parse_rule_file,
             lambda path: ["run", "--rule-file", path, "--input", tape_file,
                           "--output-dir", out]),
            (graph_text, lambda t: canonicalize(parse_graph(t)),
             lambda path: ["decompose", "--dynamics", "moving-head",
                           "--input", path, "--output-dir", out]),
            (graph_text, lambda t: canonicalize(parse_graph(t)),
             lambda path: ["export-dot", "--input", path]),
        ]
        capsys.readouterr()
        for text, load, argv in commands:
            cases = 0
            while cases < 100:
                broken = mutant(text, rng)
                if not rejected(load, broken):
                    continue
                cases += 1
                assert main(argv(_write(bad, broken))) == EXIT_BAD_INPUT
                one_error_line(capsys)

    def test_out_of_range_integers(self, tape_file, capsys):
        rng = random.Random(369)
        for _ in range(40):
            n = rng.randint(-10 ** 6, 0)
            for argv in (["verify", "--max-vertices", str(n)],
                         ["enumerate", "--max-vertices", str(n)],
                         ["check-blocks", "--max-vertices", str(n)],
                         ["run", "--input", tape_file, "--steps", str(n - 1)]):
                assert main(argv) == EXIT_BAD_INPUT
                one_error_line(capsys, argv[-2])


class TestExportDot:
    def test_deterministic(self, tape_file, capsys):
        assert main(["export-dot", "--input", tape_file]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["export-dot", "--input", tape_file]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "peripheries=2" in first

    def test_marked_fill(self, tmp_path, capsys):
        from cgd.blocks import MarkSpace, mark
        from cgd.families import TAPE_ALPHABETS
        space = MarkSpace.for_base(TAPE_ALPHABETS)
        lifted = space.lift(single_head_tape(2, 0, "cc"))
        marked = mark(lifted, space)
        path = tmp_path / "marked.graph"
        path.write_text(marked.to_text())
        assert main(["export-dot", "--input", str(path), "--marked"]) == EXIT_OK
        out = capsys.readouterr().out
        assert 'fillcolor="gray70"' in out
        assert 'fillcolor="white"' in out


    def test_long_tape_matches_path_key_oracle(self):
        from cgd.blocks import MarkSpace, mark
        from cgd.dot import export_dot
        from cgd.families import TAPE_ALPHABETS
        from oracles import export_dot_by_path_key
        X = single_head_tape(60, 23, "dd")
        assert export_dot(X) == export_dot_by_path_key(X)
        space = MarkSpace.for_base(TAPE_ALPHABETS)
        marked = mark(space.lift(X), space)
        assert export_dot(marked, space) == export_dot_by_path_key(marked, space)

    def test_quotes_and_backslashes_read_back(self, tmp_path, capsys):
        # Ports and labels may hold a quote or a backslash; DOT escapes both.
        path = tmp_path / "quoted.graph"
        path.write_text('ports a" b\\\nvlabels x"y z\\\nelabels e"\\\n'
                        'vertex u label=x"y\nvertex v label=z\\\n'
                        'edge u:a" v:b\\ label=e"\\\npointer u\n')
        assert main(["export-dot", "--input", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        read = [[re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], s)
                 for s in quoted.findall(line)] for line in lines]
        v = 'a"b\\'
        assert read == [[], [], ["eps", 'eps\nx"y'], [v, v + "\nz\\"],
                        ["eps", v, 'a"', "b\\", 'e"\\'], []]
        for line in lines:      # nothing is left outside the quoted strings
            assert not set(quoted.sub("", line)) & {'"', "\\"}

    def test_marked_needs_doubled_alphabets(self, tape_file, capsys):
        assert main(["export-dot", "--input", tape_file, "--marked"]) == EXIT_BAD_INPUT
        assert "doubling" in capsys.readouterr().err

    def test_marked_needs_every_vertex_labelled(self, tmp_path, capsys):
        path = tmp_path / "unlabelled.graph"
        path.write_text("ports a0 a1 b0 b1\nvlabels 00 01\nvertex x\npointer x\n")
        assert main(["export-dot", "--input", str(path), "--marked"]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: vertex eps is unlabelled; its mark is undefined\n")

    def test_marked_with_doubled_labels_but_plain_ports(self, tmp_path, capsys):
        path = tmp_path / "half-marked.graph"
        path.write_text("ports a b\nvlabels 00 01\nvertex x label=00\n"
                        "vertex y label=01\nedge x:a y:b\npointer x\n")
        assert main(["export-dot", "--input", str(path), "--marked"]) == EXIT_BAD_INPUT
        one_error_line(capsys, "doubling")


class TestDeterminism:
    def test_inflating_grid_report_ignores_hash_seed(self):
        lines = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "cgd.cli", "verify", "--dynamics",
                 "inflating-grid", "--family", "all", "--max-vertices", "2"],
                capture_output=True, text=True,
                env={**SUBPROCESS_ENV, "PYTHONHASHSEED": seed})
            assert proc.returncode == EXIT_CHECK_FAILED
            (line,) = [l for l in proc.stdout.splitlines()
                       if l.startswith("bijective=")]
            lines.append(line)
        assert lines[0] == lines[1]
        assert lines[0] == ("bijective=inflating-grid: edge pairing ports a/b "
                            "is not a grid edge")

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_goldens_ignore_hash_seed(self, seed):
        # Here, not in test_golden.py, so that the suite does not recurse.
        tests = os.path.dirname(os.path.abspath(__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             os.path.join(tests, "test_golden.py")],
            capture_output=True, text=True, cwd=os.path.dirname(tests),
            env={**SUBPROCESS_ENV, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


class TestFamilyCap:
    @pytest.mark.parametrize("value", ["lots", "-5", "0", "2.5", ""])
    def test_bad_cap_names_the_variable(self, value, monkeypatch, capsys):
        monkeypatch.setenv("CGD_FAMILY_CAP", value)
        assert main(["enumerate", "--max-vertices", "2"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "CGD_FAMILY_CAP" in err
        assert repr(value) in err


class TestParser:
    def test_unknown_dynamics_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--dynamics", "unknown", "--input", "x"])
        assert exit_info.value.code == 2

    def test_one_parser_per_process(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert main(["enumerate", "--max-vertices", "1"]) == EXIT_OK
        with pytest.raises(SystemExit):
            main(["run", "--dynamics", "unknown", "--input", "x"])
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        # Importing the module builds none.
        code = "import cgd.cli as c; print(c.build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], env=SUBPROCESS_ENV,
                             capture_output=True, text=True, check=True).stdout
        assert out == "0\n"

    def test_console_entry_point(self, tmp_path):
        graph = tmp_path / "g.graph"
        graph.write_text("ports a b\nvertex v\npointer v\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cgd.cli", "export-dot",
             "--input", str(graph)],
            capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0
        assert proc.stdout.startswith("graph cgd {")


def cycle_argv(template, tape_file, tmp_path):
    """`template` with `{tape}` a tape file, `{bad}` an unparsable graph
    file, `{file}` a plain file and `{out}` a directory under `tmp_path`."""
    bad = tmp_path / "bad.graph"
    bad.write_text("ports a b\nvertex v\nvertex v\npointer v\n")
    afile = tmp_path / "afile"
    afile.write_text("")
    paths = {"tape": tape_file, "bad": str(bad), "file": str(afile),
             "out": str(tmp_path / "out")}
    return [arg.format(**paths) for arg in template]


class TestCollectorPause:
    """`main` runs each command with the cyclic garbage collector paused.
    That is safe only while cgd builds no reference cycles, so that
    reference counting frees everything a command makes."""

    @pytest.mark.parametrize("template, code", [
        pytest.param(["run", "--dynamics", "moving-head", "--input", "{tape}",
                      "--steps", "2", "--render", "--output-dir", "{out}"],
                     EXIT_OK, id="run-render"),
        pytest.param(["verify", "--dynamics", "identity", "--family",
                      "single-head-tape", "--max-vertices", "3",
                      "--output-dir", "{out}"],
                     EXIT_OK, id="verify-output-dir"),
        pytest.param(["verify", "--dynamics", "turtle", "--family", "all",
                      "--max-vertices", "3", "--expect-exceptions", "2"],
                     EXIT_OK, id="verify-all-pass"),
        pytest.param(["verify", "--dynamics", "inflating-grid", "--family",
                      "all", "--max-vertices", "2"],
                     EXIT_CHECK_FAILED, id="verify-all-fail"),
        pytest.param(["enumerate", "--ports", "a", "b", "--vlabels", "0", "1",
                      "--max-vertices", "3"],
                     EXIT_OK, id="enumerate"),
        pytest.param(["decompose", "--dynamics", "moving-head", "--input",
                      "{tape}", "--trace", "--render", "--output-dir", "{out}"],
                     EXIT_OK, id="decompose-trace-render"),
        pytest.param(["check-blocks", "--dynamics", "moving-head",
                      "--max-vertices", "4"],
                     EXIT_OK, id="check-blocks"),
        pytest.param(["export-dot", "--input", "{tape}"],
                     EXIT_OK, id="export-dot"),
        pytest.param(["run", "--dynamics", "identity", "--input", "{bad}",
                      "--output-dir", "{out}"],
                     EXIT_BAD_INPUT, id="malformed-input"),
        pytest.param(["decompose", "--dynamics", "turtle", "--input", "{tape}"],
                     EXIT_BAD_INPUT, id="refused-dynamics"),
    ])
    def test_a_command_leaves_no_cyclic_garbage(self, template, code, tape_file,
                                                tmp_path):
        argv = cycle_argv(template, tape_file, tmp_path)
        # The first run in a process builds one-time set-up, the parser
        # among it, and some of that is cyclic garbage.
        assert main(argv) == code
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == code
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("template, code", [
        (["export-dot", "--input", "{tape}"], EXIT_OK),
        (["verify", "--dynamics", "inflating-grid", "--family", "all",
          "--max-vertices", "2"], EXIT_CHECK_FAILED),
        (["run", "--dynamics", "identity", "--input", "{bad}"], EXIT_BAD_INPUT),
        (["run", "--dynamics", "identity", "--input", "{tape}",
          "--output-dir", "{file}"], EXIT_IO),
    ], ids=["exit0", "exit1", "exit2", "exit3"])
    def test_the_collector_is_left_as_found(self, enabled, template, code,
                                           tape_file, tmp_path, capsys):
        argv = cycle_argv(template, tape_file, tmp_path)
        if not enabled:
            gc.disable()
        try:
            assert main(argv) == code
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
