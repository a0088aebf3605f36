"""Every public name in `src/cgd` is used somewhere in the package or the
bench, or is on a short list of entry points kept for callers outside them.

The match is by name alone: a function, class or method counts as called
when any `src/cgd` or `perfbench` module reads a variable or attribute of
that name, or when a span name in `perfbench/spans.py` holds it as one
dotted part.  So every `apply` method counts as called, since something
calls some `apply`, and a name that is only imported does not count."""
import ast
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cgd")
BENCH = os.path.join(ROOT, "perfbench")
MODULES = ("paths", "portgraph", "modulo", "families", "dynamics", "patches",
           "reversibility", "blocks", "dot", "cli")

# Public API that only the tests and outside callers use.
UNCALLED = {
    # The paper's checkers: one graph or one family at a time.
    "check_shift_invariance", "check_boundedness", "continuity_probe",
    "check_vertex_preserving", "vertex_preservation_exceptions",
    # Constructions on graphs and names.
    "primal_extension", "grid_graph", "Path.concat", "Path.reversed",
    # Mark predicates, and a kit's gate read as one dynamics.
    "MarkSpace.is_mark_consistent", "MarkSpace.raw_mark_consistent",
    "BlockKit.conjugate", "gate_footprint",
}


def parse_dir(directory):
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as f:
                trees[name[:-3]] = ast.parse(f.read(), path)
    return trees


def public_definitions(tree):
    """Public module-level functions and classes, and `Class.method` for
    the public methods of each public class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def referenced_names(trees, span_tree):
    """Every name read as a variable or attribute, and every dotted part of
    the span names: string constants in the span module that start with a
    package module."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    for node in ast.walk(span_tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and parts[0] in MODULES:
                names.update(parts[1:])
    return names


def uncalled_names(package_dir, bench_dir):
    package, bench = parse_dir(package_dir), parse_dir(bench_dir)
    used = referenced_names([*package.values(), *bench.values()], bench["spans"])
    return {name for module in MODULES
            for name in public_definitions(package[module])
            if name.rsplit(".", 1)[-1] not in used}


def test_every_public_name_is_used_or_listed():
    assert uncalled_names(PACKAGE, BENCH) == UNCALLED


def test_a_new_uncalled_function_is_found(tmp_path):
    package, bench = tmp_path / "cgd", tmp_path / "perfbench"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "modulo.py", "a", encoding="utf-8") as f:
        f.write("\n\ndef never_called_anywhere(X):\n    return X\n")
    assert uncalled_names(str(package), str(bench)) == {
        *UNCALLED, "never_called_anywhere"}
