"""The smallest bench workload runs and reports no failed operation.

`perfbench/run.py` is the repository's one bench script; this keeps a broken
bench from going unnoticed until it is next run by hand.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tape_rule_quick_round():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tape-rule",
         "--seed", "1", "--seconds", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0
