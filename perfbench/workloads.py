"""The benchmark's workloads: seeded inputs, the commands of one round, and
the checks of each command's output against its known answer.

Every workload is a list of `cgd` command lines run in-process through
`cgd.cli.main`.  The seed picks the inputs (tape head positions and
directions, vertex ids, line order, command order) but never changes a
verdict.
"""
from __future__ import annotations

import functools
import hashlib
import os
import random
import re
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from cgd.families import (
    bare_tapes,
    shift_closure,
    single_head_tape,
    single_head_tapes,
)
from cgd.modulo import disk
from cgd.patches import (
    RuleTable,
    identity_local_rule,
    parse_rule_file,
    serialize_rule_file,
)
from cgd.portgraph import Alphabets
from cgd.reversibility import brute_force_family, enumerate_family

import answers

WALK_STEPS = 20
CHECK_BLOCKS_MAX_VERTICES = 5


@dataclass
class Command:
    """One CLI invocation and what its run must produce."""

    label: str
    argv: List[str]
    exit: int
    # (stdout, known()) -> differences of the stdout and of the files the
    # command wrote from the known answer; empty when the output is right.
    check: Callable[[str, object], List[str]]
    # Family members, trajectory graphs or decomposed tapes it completes.
    graphs: int
    # The closed-form part of the known answer, cached; built once after
    # set-up, outside set-up time.
    known: Callable[[], object] = lambda: None
    # "n" or "2n" for the scaled tape commands, "" otherwise.
    size: str = ""
    # Output paths removed before every run, so that a stale file from an
    # earlier round cannot pass for a fresh one.
    outputs: Tuple[str, ...] = ()

    def clear_outputs(self) -> None:
        for path in self.outputs:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)


@dataclass(frozen=True)
class Workload:
    name: str
    # Tape length n of the scaled commands (the second runs at 2n); None
    # when the workload has no size.
    n: Optional[int]
    quick_n: Optional[int]
    # (rng, work directory, n) -> (commands of one round, set-up problems)
    build: Callable[[random.Random, str, Optional[int]],
                    Tuple[List[Command], List[str]]]
    # Once-per-run correctness checks that are not part of set-up time.
    cross_check: Optional[Callable[[], List[str]]] = None


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def parse_report(out: str) -> Dict[str, str]:
    report = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            report[key] = value
    return report


def _matches(value: Optional[str], expected) -> bool:
    if isinstance(expected, re.Pattern):
        return value is not None and expected.fullmatch(value) is not None
    return value == expected


def report_problems(out: str, expected: Dict[str, object]) -> List[str]:
    """Every expected key=value line present, and no other key=value line.

    An expected value is a string, or a compiled pattern the whole value
    must match."""
    got = parse_report(out)
    problems = [f"{key}={got.get(key)!r}, expected {value!r}"
                for key, value in expected.items()
                if not _matches(got.get(key), value)]
    problems += [f"unexpected report line {key}={got[key]!r}"
                 for key in sorted(set(got) - set(expected))]
    return problems


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def trajectory_problems(out_dir: str, expected: List[str]) -> List[str]:
    """The step files are exactly step000.. and each equals its expected text."""
    want = [f"step{k:03d}.graph" for k in range(len(expected))]
    have = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if have != want:
        return [f"{out_dir} holds {len(have)} files, expected {want[0]}..{want[-1]}"]
    return [f"{name} differs from the closed-form tape"
            for name, text in zip(want, expected)
            if _read(os.path.join(out_dir, name)) != text]


# ---------------------------------------------------------------------------
# Seeded tapes
# ---------------------------------------------------------------------------


@functools.cache
def closed_form_tapes(length: int, position: int, attach: str, steps: int
                      ) -> Tuple[str, ...]:
    """The texts of a single-head tape and of its next `steps` moving-head
    steps, built with families.single_head_tape from the closed form."""
    texts = []
    for _ in range(steps + 1):
        texts.append(single_head_tape(length, position, attach).to_text())
        position, attach = head_step(length, position, attach)
    return tuple(texts)


def head_step(length: int, position: int, attach: str) -> Tuple[int, str]:
    """Closed form of one moving-head step on a single-head tape.

    A cc head advances towards the last cell and flips to dd there; a dd
    head goes back and flips to cc at cell 0.
    """
    if attach == "cc":
        return (position + 1, "cc") if position + 1 < length else (position, "dd")
    return (position - 1, "dd") if position > 0 else (position, "cc")


def tape_file_text(rng: random.Random, length: int, position: int,
                   attach: str) -> str:
    """A single-head tape pointed at cell 0, written with random vertex ids,
    random half-edge order and shuffled declaration lines."""
    ids = [f"v{i:x}" for i in rng.sample(range(16 ** 6), length + 1)]
    cells, head = ids[:length], ids[length]

    def edge(u, p, w, q):
        halves = [f"{u}:{p}", f"{w}:{q}"]
        rng.shuffle(halves)
        return "edge " + " ".join(halves)

    port = attach[0]
    lines = [f"vertex {v} label=0" for v in ids]
    lines += [edge(cells[i], "a", cells[i + 1], "b") for i in range(length - 1)]
    lines.append(edge(cells[position], port, head, port))
    lines += ["ports a b c d", "vlabels 0", f"pointer {cells[0]}"]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _seeded_tape(rng: random.Random, work: str, tag: str, length: int
                 ) -> Tuple[str, int, str]:
    position = rng.randrange(length)
    attach = rng.choice(("cc", "dd"))
    path = os.path.join(work, f"tape-{tag}.graph")
    _write(path, tape_file_text(rng, length, position, attach))
    return path, position, attach


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _enum_verify(rng: random.Random, work: str, _n: Optional[int]
                 ) -> Tuple[List[Command], List[str]]:
    listing = os.path.join(work, "family.txt")
    known = answers.ENUM_VERIFY

    def enumerate_check(out: str, _known) -> List[str]:
        problems = report_problems(out, known["enumerate"]["report"])
        text = _read(listing)
        if text is None:
            return problems + [f"{listing} was not written"]
        header = text.split("\n", 1)[0]
        if header != known["enumerate"]["listing_header"]:
            problems.append(f"listing header {header!r}")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != known["enumerate"]["listing_sha256"]:
            problems.append(f"listing digest {digest}")
        return problems

    def verify(label: str, argv: List[str]) -> Command:
        entry = known[label]
        return Command(label, ["verify"] + argv, entry["exit"],
                       lambda out, _known: report_problems(out, entry["report"]),
                       graphs=int(entry["report"]["members"]))

    commands = [
        Command("enumerate",
                ["enumerate", "--ports", "a", "b", "--vlabels", "0", "1",
                 "--max-vertices", "5", "--output", listing],
                known["enumerate"]["exit"], enumerate_check,
                graphs=int(known["enumerate"]["report"]["members"]),
                outputs=(listing,)),
        verify("verify-moving-head-all",
               ["--dynamics", "moving-head", "--family", "all",
                "--max-vertices", "2"]),
        verify("verify-turtle-all",
               ["--dynamics", "turtle", "--family", "all",
                "--max-vertices", "5", "--expect-exceptions", "2"]),
        verify("verify-inflating-grid-all",
               ["--dynamics", "inflating-grid", "--family", "all",
                "--max-vertices", "2"]),
        verify("verify-moving-head-tape-closure",
               ["--dynamics", "moving-head", "--family", "tape-closure",
                "--max-vertices", "8"]),
    ]
    rng.shuffle(commands)
    return commands, []


def _brute_force_cross_check() -> List[str]:
    """Enumeration member counts against the brute-force generator."""
    problems = []
    for ports, vlabels, max_vertices, members in answers.BRUTE_FORCE:
        alphabets = Alphabets.make(ports, vertex_labels=tuple(vlabels))
        brute = brute_force_family(alphabets, max_vertices)
        search = enumerate_family(alphabets, max_vertices)
        if not len(brute) == len(search) == members:
            problems.append(
                f"{ports}/{vlabels} up to {max_vertices} vertices: brute force "
                f"{len(brute)}, enumeration {len(search)}, expected {members}")
        elif set(brute) != set(search):
            problems.append(f"{ports}/{vlabels}: brute force and enumeration "
                            f"disagree on members")
    return problems


def _tape_walk(rng: random.Random, work: str, n: Optional[int]
               ) -> Tuple[List[Command], List[str]]:
    commands = []
    for size, length in (("n", n), ("2n", 2 * n)):
        path, position, attach = _seeded_tape(rng, work, size, length)
        out_dir = os.path.join(work, f"walk-{size}")
        report = {**answers.RUN_MOVING_HEAD, "steps": str(WALK_STEPS),
                  "output_dir": out_dir}

        def check(out, texts, report=report, out_dir=out_dir):
            return report_problems(out, report) + trajectory_problems(out_dir, texts)

        commands.append(Command(
            f"run-moving-head-{size}",
            ["run", "--dynamics", "moving-head", "--steps", str(WALK_STEPS),
             "--input", path, "--output-dir", out_dir],
            0, check, graphs=WALK_STEPS, size=size, outputs=(out_dir,),
            known=functools.partial(closed_form_tapes, length, position,
                                    attach, WALK_STEPS)))
    return commands, []


def _identity_rule_text() -> Tuple[str, List[str]]:
    """The radius-1 identity rule tabulated over the disks of all bare and
    single-head tapes of at most 6 cells, round-tripped through the parser."""
    rule = identity_local_rule(1)
    entries = {}
    for X in shift_closure(bare_tapes(6) + single_head_tapes(6)):
        view = disk(X, 1)
        if view not in entries:
            entries[view] = rule.rule(view)
    text = serialize_rule_file(RuleTable(radius=1, entries=entries))
    parsed = parse_rule_file(text)
    problems = []
    if len(entries) != answers.IDENTITY_RULE_ENTRIES:
        problems.append(f"identity rule has {len(entries)} disks, expected "
                        f"{answers.IDENTITY_RULE_ENTRIES}")
    if parsed.entries != entries or serialize_rule_file(parsed) != text:
        problems.append("identity rule table does not survive a text round trip")
    return text, problems


def _tape_rule(rng: random.Random, work: str, n: Optional[int]
               ) -> Tuple[List[Command], List[str]]:
    rule_path = os.path.join(work, "identity-r1.rules")
    text, problems = _identity_rule_text()
    _write(rule_path, text)
    commands = []
    for size, length in (("n", n), ("2n", 2 * n)):
        path, position, attach = _seeded_tape(rng, work, size, length)
        out_dir = os.path.join(work, f"rule-{size}")
        report = {**answers.RUN_RULE_FILE, "steps": "1", "output_dir": out_dir}

        # The rule is the identity, so step001 equals step000.
        def check(out, texts, report=report, out_dir=out_dir):
            return report_problems(out, report) + trajectory_problems(out_dir, texts * 2)

        commands.append(Command(
            f"run-rule-file-{size}",
            ["run", "--rule-file", rule_path, "--steps", "1",
             "--input", path, "--output-dir", out_dir],
            0, check, graphs=1, size=size, outputs=(out_dir,),
            known=functools.partial(closed_form_tapes, length, position,
                                    attach, 0)))
    return commands, problems


def _tape_decompose(rng: random.Random, work: str, n: Optional[int]
                    ) -> Tuple[List[Command], List[str]]:
    commands = []
    for size, length in (("n", n), ("2n", 2 * n)):
        path, position, attach = _seeded_tape(rng, work, size, length)
        out_dir = os.path.join(work, f"decompose-{size}")
        # lift, one conjugate mark and one unmark per vertex, final
        stages = 2 * (length + 1) + 2
        report = {**answers.DECOMPOSE, "stages": str(stages), "output_dir": out_dir}

        def check(out, texts, report=report, out_dir=out_dir, stages=stages):
            problems = report_problems(out, report)
            last = os.path.join(out_dir, f"stage{stages - 1:03d}.graph")
            if _read(last) != f"# final\n{texts[1]}":
                problems.append(f"{last} is not the closed-form stepped tape")
            return problems

        # --trace writes the decomposed graph, so it can be checked.
        commands.append(Command(
            f"decompose-{size}",
            ["decompose", "--dynamics", "moving-head", "--input", path,
             "--trace", "--output-dir", out_dir],
            0, check, graphs=1, size=size, outputs=(out_dir,),
            known=functools.partial(closed_form_tapes, length, position,
                                    attach, 1)))
    blocks = answers.CHECK_BLOCKS
    commands.append(Command(
        "check-blocks",
        ["check-blocks", "--dynamics", "moving-head",
         "--max-vertices", str(CHECK_BLOCKS_MAX_VERTICES)],
        blocks["exit"], lambda out, _known: report_problems(out, blocks["report"]),
        graphs=int(blocks["report"]["members"])))
    return commands, []


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("enum-verify", None, None, _enum_verify, _brute_force_cross_check),
    Workload("tape-walk", 200, 20, _tape_walk),
    Workload("tape-rule", 50, 10, _tape_rule),
    Workload("tape-decompose", 6, 3, _tape_decompose),
)}
