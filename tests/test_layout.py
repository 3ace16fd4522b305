"""The library holds only code the program runs.

Every public module-level function or class in src/capalink, and every
public method of a public class, must be referenced by name somewhere in
src/capalink: by a call, an attribute access (getattr with a literal name
included) or an import.  Docstrings and comments do not count.  Helpers that
only tests call belong in tests/references.py.  The match is by name, so a
method that shares its name with a used attribute of another class passes.

The CLI computes no rates: cli.py imports neither uplink nor downlink, and
reads every rate and region through scenario.

Every number enters through one reader: each numeric command-line option is
typed by the CLI's wrapper of scenario.read_number, with its whole-number
range, if any, from scenario.LIMITS, and rejects the values just outside it.
"""

import argparse
import ast
from pathlib import Path

from capalink import cli
from capalink.scenario import LIMITS
from test_cli_fuzz import past_limits

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


def test_cli_imports_no_rate_module():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x, y
                imported.update(alias.name for alias in node.names)
            else:  # from .x import y
                imported.add(node.module.split(".")[0])
    assert imported, "cli.py has no relative imports to check"
    assert imported.isdisjoint({"uplink", "downlink"}), sorted(imported)


def _options(parser: argparse.ArgumentParser):
    "(command, action) for every option of every subcommand."
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                yield from ((command, a) for a in sub._actions if a.option_strings)


def test_every_numeric_option_is_read_by_the_one_reader():
    numeric = [
        (command, action)
        for command, action in _options(cli.build_parser())
        if action.type is not None or type(action.default) in (int, float)
    ]
    assert len(numeric) > 10
    for command, action in numeric:
        assert isinstance(action.type, cli._Number), (command, action.option_strings)
        assert action.type.limit is None or action.type.limit in LIMITS


def test_whole_number_options_reject_the_values_past_their_limits(capsys):
    # argparse reads an option's value as it meets it, before any work
    for command, action in _options(cli.build_parser()):
        limit = getattr(action.type, "limit", None)
        if limit is None:
            continue
        flag = action.option_strings[0]
        for value in past_limits(limit):
            argv = [command, *(["print"] if command == "scene" else []), flag, str(value)]
            assert cli.main(argv) == 1
            lo, hi = LIMITS[limit]
            assert capsys.readouterr().err.splitlines() == [
                f"error: argument {flag}: value must be a whole number "
                f"from {lo} to {hi}, got {value}"
            ]
