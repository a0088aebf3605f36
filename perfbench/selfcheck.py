"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload once at its smallest size (`run.py --quick`), untraced
and traced, each in its own process.  It asserts that every end-to-end
metric prints by name with its unit, that `wrong_verdicts=0` and
`error_ratio=0`, and that the JSON result line carries exactly the metrics
`BENCHMARK.json` names.  Last, it copies only `BENCHMARK.json` and the
benchmark's files into a scratch directory of the checkout and asserts that
the benchmark fails there without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Printed by every untraced run, with the unit each must carry.
E2E_UNITS = {
    "setup_s": "s", "round_s": "s", "round_tail_s": "s", "graphs_per_s": "1/s",
    "peak_rss_mb": "MB", "wrong_verdicts": "count", "error_ratio": "ratio",
}
# Printed by the untraced runs of the tape workloads only.
TAPE_UNITS = {"cmd_n_s": "s", "cmd_2n_s": "s", "growth_exponent": "1"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def printed_units(stdout: str):
    units = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and "=" in fields[0] and fields[1].startswith("unit="):
            units[fields[0].split("=", 1)[0]] = fields[1][len("unit="):]
    return units


def check_run(workload: str, trace: int, spec) -> None:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--quick"])
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, f"{where}: {proc.stderr}"
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}, \
        f"{where}: result metrics differ from BENCHMARK.json"
    units = printed_units(proc.stdout)
    want = {k: v for k, v in E2E_UNITS.items() if not trace or k in
            ("round_s", "wrong_verdicts", "error_ratio")}
    if workload.startswith("tape-") and not trace:
        want.update(TAPE_UNITS)
    for name, unit in want.items():
        assert units.get(name) == unit, f"{where}: {name} printed as {units.get(name)!r}"
    report = {line.split("=", 1)[0]: line.split("=", 1)[1].split()[0]
              for line in proc.stdout.splitlines() if "=" in line}
    assert float(report["wrong_verdicts"]) == 0, where
    assert float(report["error_ratio"]) == 0, where
    print(f"ok  {where}: {result['attempted']} commands")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench-work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "tape-rule", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "benchmark ran without the program"
        assert '"correct"' not in proc.stdout, "printed a result without the program"
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
