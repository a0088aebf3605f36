"""Command-line front end: trajectories, verification suites, decomposition.

Commands: run, verify, enumerate, decompose, check-blocks, export-dot.
All outputs are plain text; machine-readable summaries are key=value lines.
Exit codes: 0 success, 1 a requested assertion failed, 2 bad configuration
or unparsable input, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
from collections import Counter
import os
import sys
from typing import List, Optional

from .blocks import (
    MAX_LOCALITY_RADIUS,
    BlockKit,
    MarkSpace,
    anchored_locality_radius,
    footprint,
)
from .dot import export_dot
from .dynamics import Dynamics, DynamicsError, builtin_dynamics, get_dynamics
from .families import (
    TAPE_ALPHABETS,
    bare_tapes,
    shift_closure,
    single_head_tapes,
)
from .modulo import CanonicalGraph, canonicalize_with_names
from .patches import LocalRuleDynamics, parse_rule_file
from .portgraph import Alphabets, GraphError, parse_graph
from .reversibility import (
    GraphFamily,
    OutOfFamilyError,
    enumerate_family,
    serialize_inverse_table,
    tabulate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3

# The least value each integer option accepts.
_LEAST = {"max_vertices": 1, "steps": 0}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


def _load_graph(path: str) -> CanonicalGraph:
    return canonicalize_with_names(parse_graph(_read_text(path)))[0]


def _load_dynamics(args) -> Dynamics:
    if getattr(args, "rule_file", None):
        table = parse_rule_file(_read_text(args.rule_file))
        return LocalRuleDynamics(table.as_rule())
    return get_dynamics(args.dynamics)


def _family_for(name: str, dynamics: Dynamics, max_vertices: int) -> GraphFamily:
    if name == "all":
        if dynamics.alphabets is None:
            raise DynamicsError(
                f"{dynamics.name} accepts any alphabets; choose a named family")
        return enumerate_family(dynamics.alphabets, max_vertices)
    if name not in ("single-head-tape", "tape-closure"):
        raise DynamicsError(f"unknown family {name!r} "
                            f"(known: all, single-head-tape, tape-closure)")
    members = single_head_tapes(max_vertices - 1)
    if name == "tape-closure":
        members = shift_closure(bare_tapes(max_vertices) + members)
    return _tape_family(dynamics, members)


def _tape_family(dynamics: Dynamics, tapes: List[CanonicalGraph]) -> GraphFamily:
    """The tapes as a family, for a dynamics over the tape alphabets."""
    if dynamics.alphabets not in (None, TAPE_ALPHABETS):
        raise DynamicsError(f"--dynamics {dynamics.name}: the tape families and block "
                            f"decomposition need a dynamics over the tape alphabets")
    return GraphFamily.from_graphs(tapes, TAPE_ALPHABETS)


def _refuse_empty(fam, name: str, max_vertices: int) -> None:
    """Every check passes on an empty family (single-head tapes below 2)."""
    if not fam:
        raise ValueError(f"family {name} is empty at --max-vertices "
                         f"{max_vertices}; use --max-vertices 2 or more")


def _tape_kit(dynamics: Dynamics) -> BlockKit:
    """The kit for tapes of any length, read off the bare tapes of at most
    2r + 4 cells and the single-head tapes of at most 2r + 3, each pointed
    at its first cell: read at every vertex, these show every radius-r disk
    that any bare or single-head tape shows.  The inverse's radius is
    inferred from the family it is read off, so the family starts at r = 1,
    or at the rule's radius for a rule file, and is rebuilt only if the
    inverse's radius comes out larger.
    """
    radius = 1
    if isinstance(dynamics, LocalRuleDynamics):
        radius = max(radius, dynamics.rule.radius)
    while True:
        kit = BlockKit.from_family(dynamics, _tape_family(
            dynamics, bare_tapes(2 * radius + 4) + single_head_tapes(2 * radius + 3)))
        if kit.inverse.rule.radius <= radius:
            return kit
        radius = kit.inverse.rule.radius


def _cmd_run(args) -> int:
    dynamics = _load_dynamics(args)
    X = _load_graph(args.input)
    out_dir = args.output_dir
    current = X
    for step in range(args.steps + 1):
        _write_text(os.path.join(out_dir, f"step{step:03d}.graph"),
                    current.to_text())
        if args.render:
            _write_text(os.path.join(out_dir, f"step{step:03d}.dot"),
                        export_dot(current))
        if step < args.steps:
            current = dynamics.apply(current)[0]
    print(f"dynamics={dynamics.name}")
    print(f"steps={args.steps}")
    print(f"output_dir={out_dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    dynamics = _load_dynamics(args)
    fam = _family_for(args.family, dynamics, args.max_vertices)
    _refuse_empty(fam, args.family, args.max_vertices)
    lines = [f"dynamics={dynamics.name}", f"family={args.family}",
             f"members={len(fam)}"]
    failures = 0

    try:
        tab = tabulate(dynamics, fam)
        problem = tab.bijectivity_problem()
    except (OutOfFamilyError, DynamicsError) as exc:
        # The dynamics failed on a member or left the family, so the family
        # does not even have a permutation to check further.
        lines += [f"bijective={exc}", "vertex_preserving=skipped",
                  "exception_set=", "class_preservation=skipped",
                  "inverse_composition=skipped", "result=fail"]
        return _emit_verify(lines, args)
    lines.append(f"bijective={'ok' if problem is None else problem}")
    failures += problem is not None

    exceptions = tab.vertex_exceptions()
    lines.append(f"vertex_preserving={'ok' if not exceptions else 'exceptions'}")
    lines.append("exception_set=" + ";".join(
        f"{len(g.vertices)}v" for g in exceptions))
    if args.expect_exceptions is not None:
        expected = args.expect_exceptions
        if len(exceptions) != expected:
            lines.append(f"exception_count_expected={expected}")
            failures += 1

    class_problem = tab.class_problem()
    lines.append(f"class_preservation={'ok' if class_problem is None else class_problem}")
    failures += class_problem is not None

    if failures == 0:
        # `inverse` builds `backward` as the inverse of `forward`.
        table = tab.inverse()
        lines.append("inverse_composition=ok")
        if args.output_dir:
            _write_text(os.path.join(args.output_dir, "inverse-table.txt"),
                        serialize_inverse_table(table))
    else:
        lines.append("inverse_composition=skipped")

    lines.append(f"result={'pass' if failures == 0 else 'fail'}")
    return _emit_verify(lines, args)


def _emit_verify(lines, args) -> int:
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.output_dir:
        _write_text(os.path.join(args.output_dir, "verify-report.txt"), report)
    return EXIT_OK if report.endswith("result=pass\n") else EXIT_CHECK_FAILED


def _cmd_enumerate(args) -> int:
    alphabets = Alphabets.make(args.ports, args.vlabels, args.elabels)
    fam = enumerate_family(alphabets, args.max_vertices)
    listing = f"# {len(fam)} graphs\n" + "\n".join(g.to_text() for g in fam)
    if args.output:
        _write_text(args.output, listing)
    else:
        sys.stdout.write(listing)
    print(f"members={len(fam)}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    if args.render and not args.trace:
        raise ValueError("--render needs --trace")
    dynamics = _load_dynamics(args)
    X = _load_graph(args.input)
    kit = _tape_kit(dynamics)
    trace = [] if args.trace else None
    result = kit.decompose_step(X, trace=trace)
    direct = dynamics.apply(X)[0]
    agree = result == direct
    if args.trace:
        for i, stage in enumerate(trace):
            base = os.path.join(args.output_dir, f"stage{i:03d}")
            _write_text(base + ".graph", f"# {stage.label}\n" + stage.graph.to_text())
            if args.render:
                space = None if stage.label == "final" else kit.space
                _write_text(base + ".dot", export_dot(stage.graph, space))
        print(f"stages={len(trace)}")
        print(f"output_dir={args.output_dir}")
    print(f"dynamics={dynamics.name}")
    print(f"matches_direct_step={'yes' if agree else 'no'}")
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_check_blocks(args) -> int:
    dynamics = _load_dynamics(args)
    tapes = single_head_tapes(args.max_vertices - 1)
    _refuse_empty(tapes, "single-head-tape", args.max_vertices)
    kit = _tape_kit(dynamics)
    failures = 0
    for X in tapes:
        if kit.decompose_step(X) != dynamics.apply(X)[0]:
            failures += 1
            print(f"mismatch={X!r}")
    print(f"dynamics={dynamics.name}")
    print(f"members={len(tapes)}")
    print(f"block_identity={'ok' if failures == 0 else f'{failures} mismatches'}")

    gates = [(X, list(kit.conjugate_marks(X, X.vertices)))
             for X in map(kit.space.lift, tapes)]
    radius = anchored_locality_radius(gates)
    found = radius if radius is not None else f"not found <= {MAX_LOCALITY_RADIUS}"
    print(f"locality_radius={found}")
    if radius is None:
        failures += 1
    else:
        depth_bound = len(kit.space.marked.ports) ** radius
        touching = [Counter(v for W, T in results for v in footprint(X, W, T))
                    for X, results in gates]
        worst = max((n for counts in touching for n in counts.values()), default=0)
        print(f"observed_depth={worst}")
        print(f"depth_bound={depth_bound}")
        if worst > depth_bound:
            failures += 1
    print(f"result={'pass' if failures == 0 else 'fail'}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _cmd_export_dot(args) -> int:
    X = _load_graph(args.input)
    space = MarkSpace.from_marked(X.alphabets) if args.marked else None
    text = export_dot(X, space)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache     # one parser per process, built on first use
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgd",
        description="Causal graph dynamics: run, verify, decompose.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = sorted(builtin_dynamics())

    def add_dynamics_args(p, rule_file=True):
        p.add_argument("--dynamics", choices=names, default="identity",
                       help="built-in dynamics name")
        if rule_file:
            p.add_argument("--rule-file",
                           help="local rule table file (overrides --dynamics)")

    p_run = sub.add_parser("run", help="write a trajectory as numbered graph files")
    add_dynamics_args(p_run)
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--steps", type=int, default=1)
    p_run.add_argument("--output-dir", default="out")
    p_run.add_argument("--render", action="store_true", help="also write DOT files")

    p_verify = sub.add_parser("verify", help="bijectivity and inverse report over a family")
    add_dynamics_args(p_verify, rule_file=False)
    p_verify.add_argument("--max-vertices", type=int, required=True)
    p_verify.add_argument("--family", default="all",
                          choices=["all", "single-head-tape", "tape-closure"])
    p_verify.add_argument("--output-dir")
    p_verify.add_argument("--expect-exceptions", type=int, default=None,
                          help="fail unless exactly this many members are "
                               "non-vertex-preserving")

    p_enum = sub.add_parser("enumerate", help="list all canonical graphs up to a size")
    p_enum.add_argument("--max-vertices", type=int, required=True)
    p_enum.add_argument("--ports", nargs="+", default=["a", "b"])
    p_enum.add_argument("--vlabels", nargs="*", default=["0"])
    p_enum.add_argument("--elabels", nargs="*", default=[])
    p_enum.add_argument("--output")

    p_dec = sub.add_parser("decompose", help="run one step as a circuit of local gates")
    add_dynamics_args(p_dec)
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--trace", action="store_true",
                       help="write every intermediate marked graph")
    p_dec.add_argument("--output-dir", default="decompose-out")
    p_dec.add_argument("--render", action="store_true")

    p_blocks = sub.add_parser("check-blocks",
                              help="block identity, locality radius and depth")
    add_dynamics_args(p_blocks)
    p_blocks.add_argument("--max-vertices", type=int, required=True)

    p_dot = sub.add_parser("export-dot", help="render a graph file as DOT")
    p_dot.add_argument("--input", required=True)
    p_dot.add_argument("--output")
    p_dot.add_argument("--marked", action="store_true",
                       help="treat labels/ports as carrying mark bits")
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "decompose": _cmd_decompose,
    "check-blocks": _cmd_check_blocks,
    "export-dot": _cmd_export_dot,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in _LEAST.items():
            value = getattr(args, dest, None)
            if value is not None and value < least:
                raise ValueError(f"--{dest.replace('_', '-')} must be at "
                                 f"least {least}, got {value}")
        code = _COMMANDS[args.command](args)
        # Flush here, so that a closed stdout is caught below, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull, so that the flush
        # at exit cannot raise again; a StringIO stdout has no descriptor.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass
        finally:
            os.close(devnull)
        return EXIT_IO
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
