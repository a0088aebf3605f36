"""The smallest bench workloads run and report no failed operation.

`perfbench/run.py` is the repository's one bench script; this keeps a broken
bench from going unnoticed until it is next run by hand.  The `enum-verify`
round checks the SHA-256 of the enumeration listing and every `verify`
report against their known answers, so it guards the enumerator.  The
`tape-decompose` round checks `decompose` and `check-blocks` against their
closed-form answers, so it also guards the block kit's path.  The
`tape-walk` round compares every step file byte for byte with the text of
the closed-form tape, so it guards the names' text as well.  The traced
`tape-decompose` round runs `perfbench/spans.py`, which imports classes
from `cgd.blocks` and wraps its public functions, so it fails when a change
to `blocks` breaks the per-layer metrics.  The traced `tape-rule` round does
the same for `patches` and `modulo`: a change that takes the rule-file step
off `apply_local_rule` or off canonicalization zeroes a metric it asserts.
Every span name that `perfbench/spans.py` groups or hooks must name an
attribute under `cgd`, so a function that moves fails a test here rather
than zeroing its metric.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_round(workload, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_enum_verify_quick_round():
    result = quick_round("enum-verify")
    assert result["failed"] == 0
    assert result["attempted"] >= 5     # one round runs five commands


def test_tape_rule_quick_round():
    assert quick_round("tape-rule")["failed"] == 0


def test_tape_walk_quick_round():
    assert quick_round("tape-walk")["failed"] == 0


def test_tape_decompose_quick_round():
    assert quick_round("tape-decompose")["failed"] == 0


def test_tape_decompose_traced_round():
    result = quick_round("tape-decompose", "--trace", "1")
    assert result["failed"] == 0
    assert result["metrics"]["blocks.mark.calls"]["value"] > 0


def test_tape_rule_traced_round():
    result = quick_round("tape-rule", "--trace", "1")
    assert result["failed"] == 0
    assert result["metrics"]["patches.apply_local_rule.self_s"]["value"] > 0
    assert result["metrics"]["modulo.canonicalize.calls"]["value"] > 0


# Span names that `perfbench/spans.py` still lists though the code they
# named is gone; its next change removes them.
STALE_SPAN_NAMES = {"patches.union", "reversibility.TableDynamics.apply"}


def test_span_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = {n for group in spans.GROUPS.values() for n in group} | set(spans.HOOKS)
    unresolved = set()
    for name in names:
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"cgd.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            unresolved.add(name)
    assert unresolved == STALE_SPAN_NAMES
