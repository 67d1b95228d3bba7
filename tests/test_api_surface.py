"""Every function, method and class in src/ has a caller outside tests.

A function or class counts as used when some module of the package other
than __init__ reads it (as a name or an attribute, not in a docstring), a
method only when one reads it as an attribute, and either when the
benchmark harness under perfbench/ names it.  The public constructors
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
    """(functions and classes, methods) defined in a module."""
    methods = {node.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))} - methods
    return ({n for n in names if not n.startswith("__")},
            {n for n in methods if not n.startswith("__")})


def read_names(tree):
    """(names read as a plain name or an attribute, attributes read)."""
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    return attrs | {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}, attrs


def test_every_name_in_src_has_a_caller_outside_tests():
    # a method counts only as an attribute read, so that a parameter or a
    # local variable of the same name does not hide it
    trees = modules()
    reads = [read_names(tree) for tree in trees.values()]
    used, attrs = (set().union(*(r[k] for r in reads)) for k in (0, 1))
    harness = "\n".join(path.read_text(encoding="utf-8")
                        for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = sorted(
        f"{module}:{name}" for module, tree in trees.items()
        for names, seen in zip(defined_names(tree), (used, attrs))
        for name in names - seen - PUBLIC_CONSTRUCTORS
        if not re.search(rf"\b{re.escape(name)}\b", harness))
    assert unused == []
