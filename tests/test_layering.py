"""Module layering: every sibling import sits at module top and points down
the order costs/errors -> model -> verify -> dynamics -> threeslot/sweep -> cli."""

import ast
import os

import chargegame

PACKAGE_DIR = os.path.dirname(os.path.abspath(chargegame.__file__))

# Modules of one rank may import each other; a module imports only its own
# rank or lower ones.  The package's __init__ re-exports everything.
RANKS = {
    "errors": 0,
    "costs": 0,
    "model": 1,
    "verify": 2,
    "dynamics": 3,
    "threeslot": 4,
    "sweep": 4,
    "cli": 5,
    "__init__": 6,
}


def parse_modules():
    names = sorted(f[:-3] for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))
    modules = {}
    for name in names:
        with open(os.path.join(PACKAGE_DIR, name + ".py")) as handle:
            modules[name] = ast.parse(handle.read())
    return modules


def sibling_imports(node):
    """The sibling modules an import statement names, relative or absolute."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            base = "chargegame." + base if base else "chargegame"
        if base == "chargegame":
            dotted = [f"chargegame.{alias.name}" for alias in node.names]
        else:
            dotted = [base]
    else:
        return []
    return [name.split(".")[1] for name in dotted if name.startswith("chargegame.")]


def test_no_function_imports_a_sibling_module():
    inside = []
    for name, tree in parse_modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    for target in sibling_imports(node):
                        inside.append(f"{name}.{func.name} imports {target}")
    assert inside == []


def test_imports_point_down_the_layer_order():
    upward = []
    for name, tree in parse_modules().items():
        for node in ast.walk(tree):
            for target in sibling_imports(node):
                if RANKS[target] > RANKS[name]:
                    upward.append(f"{name} imports {target}")
    assert upward == []
