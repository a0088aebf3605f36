"""Time to a correct verdict for the `cgd` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tape-rule --seed 1 --seconds 20 --trace 0

One single-threaded process imports `cgd` from `src/`, builds the
workload's seeded inputs, and then runs rounds of the workload's commands
through `cgd.cli.main` in a closed loop (each command starts when the
previous one returns) until `--seconds` have passed.  Every command's
verdict and output files are checked against a known answer after it
returns, outside the timed interval.  Each command's wall time is rescaled
to a reference host speed measured around it (see hostspeed.py).

With `--trace 0` the report gives the end-to-end metrics.  With `--trace 1`
the first third of the time runs untraced and the rest runs with every
layer's public functions wrapped in spans; the report gives the per-layer
metrics, a per-layer table and the tracing overhead.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

`--quick` uses the workload's smallest size, one set-up and as few as one
round; `selfcheck.py` uses it.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest size, one set-up, as few as one round")
    return parser.parse_args(argv)


class Tally:
    """Commands attempted; those that raised or exited with an unexpected
    code (errors); verdicts or outputs that differ from the known answer,
    set-up cross-checks included (wrong); and commands that did either."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.failed = 0

    def setup_problems(self, problems) -> None:
        for problem in problems:
            print(f"WRONG set-up: {problem}", file=sys.stderr)
        self.wrong += len(problems)
        self.failed += len(problems)

    def record(self, command, code, out, err) -> None:
        self.attempted += 1
        error = code is None or code != command.exit
        if error:
            self.errors += 1
            print(f"ERROR {command.label}: exit {code}, expected {command.exit}\n"
                  f"{err}", file=sys.stderr)
        problems = [] if code is None else command.check(out, command.known())
        if problems:
            self.wrong += 1
            print(f"WRONG {command.label}: " + "; ".join(problems[:5]),
                  file=sys.stderr)
        self.failed += error or bool(problems)


def run_command(cli, command):
    """Run one command in-process; returns (wall seconds, exit code or None,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(command.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else None
        except Exception:
            traceback.print_exc()
        finally:
            elapsed = perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


class Rounds:
    """Times of a closed loop of rounds: rescaled to the reference host
    speed per round and per command, raw wall time per round, and every
    host-speed probe."""

    def __init__(self, commands) -> None:
        self.scaled = []
        self.wall = []
        self.per_command = {c.label: [] for c in commands}
        self.probes = []


def run_rounds(cli, commands, seconds, min_rounds, tally, recorder=None):
    """Run rounds until `seconds` have passed and at least `min_rounds` ran."""
    log = Rounds(commands)
    start = perf_counter()
    while len(log.scaled) < min_rounds or perf_counter() - start < seconds:
        gc.collect()
        scaled = wall = 0.0
        before = hostspeed.probe()
        log.probes.append(before)
        for command in commands:
            command.clear_outputs()
            if recorder is not None:
                recorder.start_command(command.size or "fixed")
            elapsed, code, out, err = run_command(cli, command)
            after = hostspeed.probe()
            log.probes.append(after)
            seconds_at_reference = hostspeed.rescale(elapsed, before, after)
            if recorder is not None:
                recorder.end_command(seconds_at_reference / elapsed)
            before = after
            log.per_command[command.label].append(seconds_at_reference)
            scaled += seconds_at_reference
            wall += elapsed
            tally.record(command, code, out, err)
        log.scaled.append(scaled)
        log.wall.append(wall)
    return log


def tail(samples):
    """The highest whole percentile with at least ten samples above it, or
    the maximum (p100) when there are too few samples for one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return ordered[max(0, math.ceil(pct / 100 * n) - 1)], pct


def emit(name, value, unit, note=""):
    print(f"{name}={value:.6g} unit={unit}" + (f" {note}" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cgd", "__init__.py")):
        print(f"error: no cgd package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    before = hostspeed.probe()
    t0 = perf_counter()
    import cgd.cli as cli
    import_s = perf_counter() - t0
    import_s = hostspeed.rescale(import_s, before, hostspeed.probe())
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported cgd from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    n = workload.quick_n if args.quick else workload.n
    min_rounds = 1 if args.quick else MIN_ROUNDS

    work_root = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(work_root, f"{workload.name}-{os.getpid()}")
    tally = Tally()
    try:
        setup_times = []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            before = hostspeed.probe()
            t0 = perf_counter()
            os.makedirs(work)
            commands, problems = workload.build(random.Random(args.seed), work, n)
            elapsed = perf_counter() - t0
            setup_times.append(hostspeed.rescale(elapsed, before, hostspeed.probe()))
        setup_s = import_s + statistics.median(setup_times)
        tally.setup_problems(problems)
        for command in commands:
            command.known()
        if workload.cross_check is not None and not args.quick:
            tally.setup_problems(workload.cross_check())

        print(f"workload={workload.name} seed={args.seed} n={n} "
              f"trace={args.trace} commands={len(commands)}")
        if args.trace:
            metrics = traced_run(cli, spans, workload, commands, args, tally)
        else:
            metrics = untraced_run(cli, commands, setup_s, import_s,
                                   setup_times, args, min_rounds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    emit("wrong_verdicts", tally.wrong, "count",
         f"commands={tally.attempted}")
    emit("error_ratio", tally.errors / max(1, tally.attempted), "ratio",
         f"errors={tally.errors} commands={tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(cli, commands, setup_s, import_s, setup_times, args,
                 min_rounds, tally):
    log = run_rounds(cli, commands, args.seconds, min_rounds, tally)
    rounds = len(log.scaled)
    round_s = statistics.median(log.scaled)
    graphs = sum(c.graphs for c in commands)
    tail_s, pct = tail(log.scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    emit("setup_s", setup_s, "s",
         f"import_s={import_s:.6f} + median of {len(setup_times)} set-ups")
    emit("round_s", round_s, "s", f"median of {rounds} rounds")
    emit("round_tail_s", tail_s, "s",
         f"p{pct} of {rounds} rounds" + (
             " (fewer than 11 rounds: no percentile has ten beyond it, "
             "so this is the maximum)" if rounds < 11 else ""))
    emit("graphs_per_s", graphs / round_s, "1/s",
         f"{graphs} graphs per round over round_s")
    sized = {size: [t for c in commands if c.size == size
                    for t in log.per_command[c.label]] for size in ("n", "2n")}
    if sized["n"]:
        cmd_n_s = statistics.median(sized["n"])
        cmd_2n_s = statistics.median(sized["2n"])
        emit("cmd_n_s", cmd_n_s, "s", f"median of {len(sized['n'])} commands")
        emit("cmd_2n_s", cmd_2n_s, "s", f"median of {len(sized['2n'])} commands")
        emit("growth_exponent", math.log2(cmd_2n_s / cmd_n_s), "1",
             "log2(cmd_2n_s / cmd_n_s)")
    emit("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process")
    report_host(log)
    for c in commands:
        times = log.per_command[c.label]
        print(f"  command {c.label}: median {statistics.median(times):.4f} s "
              f"over {len(times)} runs")
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (round_s, "s"),
        "graphs_per_s": (graphs / round_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def report_host(log) -> None:
    """The raw wall times behind the rescaled ones, and the host speed."""
    emit("round_wall_s", statistics.median(log.wall), "s",
         f"median of {len(log.wall)} rounds, not rescaled")
    emit("host_speed", hostspeed.REFERENCE_S / statistics.median(log.probes),
         "ratio", f"reference probe time over the median of {len(log.probes)} "
         f"probes (1 = reference speed)")


def traced_run(cli, spans, workload, commands, args, tally):
    untraced = run_rounds(cli, commands, args.seconds / 3, 1, tally)
    recorder = spans.Recorder()
    wrapped = spans.instrument(recorder)
    traced = run_rounds(cli, commands, args.seconds - args.seconds / 3, 1,
                        tally, recorder)
    rounds = len(traced.scaled)
    untraced_s = statistics.median(untraced.scaled)
    traced_s = statistics.median(traced.scaled)
    overhead = traced_s / untraced_s - 1

    stats = spans.LayerStats(recorder)
    metrics = spans.layer_metrics(stats, rounds)
    metrics["traced_round_s"] = (traced_s, "s")
    metrics["tracing_overhead"] = (overhead, "ratio")

    sizes = [c for c in ("fixed", "n", "2n") if c in recorder.sizes]
    print(f"wrapped {wrapped} callables; {stats.span_count} spans over "
          f"{rounds} traced rounds")
    emit("round_s", untraced_s, "s",
         f"untraced, median of {len(untraced.scaled)} rounds")
    emit("traced_round_s", traced_s, "s", f"median of {rounds} rounds")
    emit("tracing_overhead", overhead, "ratio", "traced_round_s / round_s - 1")
    report_host(traced)
    print("per-layer self time, share of traced_round_s and calls, per round:")
    print(spans.summary_table(stats, rounds, traced_s, sizes))
    print("span names with the most self time, per round:")
    print(spans.top_spans(stats, rounds, traced_s))
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}.tsv.gz")
    count = recorder.write(path)
    print(f"wrote {count} spans to {os.path.relpath(path, ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
