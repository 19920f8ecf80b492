"""Module layering and public surface.

Every sibling import sits at module top and points down the order
costs/errors -> model -> verify -> dynamics -> threeslot/sweep -> cli, and
every name the benchmark in ``perfbench/`` reaches for exists."""

import ast
import importlib
import os
import types

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


def test_every_module_level_import_is_used():
    # A name a module imports at its top and never reads is left over from a
    # deletion; the package's __init__ reads its names through __all__.
    unused = []
    for name, tree in parse_modules().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{name} imports {bound}")
    assert unused == []


def test_imports_point_down_the_layer_order():
    upward = []
    for name, tree in parse_modules().items():
        for node in ast.walk(tree):
            for target in sibling_imports(node):
                if RANKS[target] > RANKS[name]:
                    upward.append(f"{name} imports {target}")
    assert upward == []


# --- public surface ----------------------------------------------------------
#
# The benchmark's tracer patches entry points by name and its workloads call
# the package through ``cg.<name>`` and ``cli.<name>``; a rename or a trim of
# the public surface must fail here, not silently in a traced run.

PERFBENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def parse_perfbench(name):
    with open(os.path.join(PERFBENCH_DIR, name)) as handle:
        return ast.parse(handle.read())


def test_tracer_layers_resolve():
    (layers,) = [
        ast.literal_eval(node.value)
        for node in parse_perfbench("tracer.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    missing = []
    for entries in layers.values():
        for module_name, attr in entries:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_workload_names_exist():
    owners = {"cg": chargegame, "cli": importlib.import_module("chargegame.cli")}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(parse_perfbench("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    }
    assert used
    assert sorted(f"{o}.{a}" for o, a in used if not hasattr(owners[o], a)) == []


def test_all_lists_exactly_the_package_names():
    defined = {
        name
        for name, value in vars(chargegame).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(chargegame.__all__) == sorted(defined)
