"""The package's modules form layers: each imports only modules below it."""
import ast
import os

import cgd

# Lowest first.  `__init__` re-exports every layer and is exempt.
LAYERS = ("paths", "portgraph", "modulo", "families", "dynamics", "patches",
          "reversibility", "blocks", "dot", "cli")
PACKAGE = os.path.dirname(cgd.__file__)


def package_imports(tree: ast.AST):
    """(line, module) for each import of a `cgd` module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cgd" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "cgd":
                continue
            inner = parts if node.level else parts[1:]
            if inner and inner[0]:
                yield node.lineno, inner[0]
            else:       # `from . import x` or `from cgd import x`
                for alias in node.names:
                    yield node.lineno, alias.name


def layer_violations(package_dir: str):
    """Each import that does not go down `LAYERS`, as 'module:line imports x'."""
    found = []
    for i, module in enumerate(LAYERS):
        path = os.path.join(package_dir, module + ".py")
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for line, target in package_imports(tree):
            if target in LAYERS and LAYERS.index(target) >= i:
                found.append(f"{module}:{line} imports {target}")
    return found


def test_every_module_has_a_layer():
    modules = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}
    assert modules == {*LAYERS, "__init__"}


def test_imports_go_down_the_layers():
    assert layer_violations(PACKAGE) == []


def test_an_upward_import_is_found(tmp_path):
    for module in LAYERS:
        with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as f:
            text = f.read()
        if module == "portgraph":
            text += "\nfrom cgd.modulo import canonicalize\nfrom . import cli\n"
            last = len(text.splitlines())
        (tmp_path / (module + ".py")).write_text(text, encoding="utf-8")
    assert layer_violations(str(tmp_path)) == [
        f"portgraph:{last - 1} imports modulo", f"portgraph:{last} imports cli"]
