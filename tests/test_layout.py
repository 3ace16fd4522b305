"""The library holds only code the program runs.

Every public module-level function or class in src/capalink, and every
public method of a public class, must be referenced by name somewhere in
src/capalink: by a call, an attribute access (getattr with a literal name
included) or an import.  Docstrings and comments do not count.  Helpers that
only tests call belong in tests/references.py.  The match is by name, so a
method that shares its name with a used attribute of another class passes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "capalink"

ENTRY_POINTS = {"cli.main"}
"Names run from outside the package: the console script."


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def unreferenced_names() -> list[str]:
    "Qualified public names of src/capalink that no module there refers to."
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.extend(_definitions(tree, path.stem))
        used.update(_references(tree))
    return [q for q, name in defined if name not in used and q not in ENTRY_POINTS]


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_names() == []
