"""Every function, method and class in src/ has a caller outside tests.

A name counts as used when some module of the package other than
__init__ reads it (as a name or an attribute, not in a docstring), or when
the benchmark harness under perfbench/ names it.  The public constructors
below are the package's entry points for callers who build their own
inputs, and are kept without an internal caller.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stringcone"
PUBLIC_CONSTRUCTORS = {"degree_one_element", "boolean_lattice"}


def modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def defined_names(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("__")}


def read_names(tree):
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_every_name_in_src_has_a_caller_outside_tests():
    trees = modules()
    used = set().union(*map(read_names, trees.values()))
    harness = "\n".join(path.read_text(encoding="utf-8")
                        for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = sorted(
        f"{module}:{name}" for module, tree in trees.items()
        for name in defined_names(tree) - used - PUBLIC_CONSTRUCTORS
        if not re.search(rf"\b{re.escape(name)}\b", harness))
    assert unused == []
