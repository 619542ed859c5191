"""Guard: every function, class, method, constant, dataclass field, attribute
set on self and CLI option in src/ has a reader.

A function, class, method or module-level constant counts as used when
src/ or perfbench/ mentions it outside its own definition, as a name, an
attribute or a word inside a string (perfbench wraps library functions by
their string names). A dataclass field counts as used when src/ or
perfbench/ reads it as an attribute of anything but the argparse namespace
`args`, whose options share names with fields; so does an attribute that a
src/ class sets on self. A subcommand's optional flag counts as used when
its handler, or a cli helper that the handler passes args to, reads
args.<dest>. Code that only the tests call, constants and
fields that only the tests read, and flags that nothing reads do not belong
in src/. A read counts by attribute name alone, so a field that shares its
name with another dataclass's field would pass on the other's readers: two
src/ dataclasses may share a field name only where SHARED_FIELDS names the
readers of each. A flag may not copy a setting that a sweep config holds.
A CectLabError subclass needs an except clause in src/ or perfbench/ that
names it: one that no caller tells apart is CectLabError under another name.
The count of settable values (CLI arguments, INI keys, environment reads) is
pinned, so a change that adds a setting has to say so here; so is the line
count of src/, so that each change's growth or shrinkage shows in its diff.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

from cect_lab import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cect_lab"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _words(tree: ast.AST) -> Counter:
    """Every identifier a syntax tree mentions, with its count."""
    words: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
        elif isinstance(node, ast.alias):
            words[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(_WORD.findall(node.value))
    return words


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of module-level defs, constants and non-dunder methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def _trees() -> dict[Path, ast.Module]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def _unreferenced() -> list[str]:
    trees = _trees()
    uses = sum((_words(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, name, node in _definitions(tree):
            # docstrings are strings too, so a definition's own text is not a use
            if uses[name] - _words(node)[name] <= 0:
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_src_has_no_code_only_tests_use():
    assert _unreferenced() == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _dataclass_fields(trees: dict[Path, ast.Module]):
    """(qualified class name, field name) of every field of a src/ dataclass."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{path.stem}.{node.name}", item.target.id


def _attribute_reads(trees: dict[Path, ast.Module]) -> set[str]:
    """Every attribute name read in src/ or perfbench/, args.<dest> aside."""
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }


def _unread_fields() -> list[str]:
    trees = _trees()
    reads = _attribute_reads(trees)
    return [f"{owner}.{name}" for owner, name in _dataclass_fields(trees) if name not in reads]


def test_every_dataclass_field_is_read():
    assert _unread_fields() == []


def _unread_self_attributes() -> list[str]:
    """(qualified class name).attr of each self.attr a src/ class assigns and nothing reads."""
    trees = _trees()
    reads = _attribute_reads(trees)
    unread = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in reads):
                    unread.add(f"{path.stem}.{cls.name}.{node.attr}")
    return sorted(unread)


def test_every_attribute_a_class_sets_is_read():
    # an attribute only tests read (an exception's line number, say) makes
    # every raise site pass it; the message names it instead
    assert _unread_self_attributes() == []


def _caught_names(trees: dict[Path, ast.Module]) -> set[str]:
    """Every exception name that an except clause in src/ or perfbench/ names."""
    caught = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(getattr(t, "attr", getattr(t, "id", None)) for t in types)
    return caught


def test_every_error_subclass_has_its_own_catcher():
    caught = _caught_names(_trees())
    subclasses = [
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.CectLabError)
        and value is not errors.CectLabError
    ]
    assert subclasses and [name for name in subclasses if name not in caught] == []


# Field names that more than one src/ dataclass declares, each with the
# readers of every declaration: the read guard above cannot tell them apart.
SHARED_FIELDS = {
    "mu": "RoutingMatrix.mu: cli solve, experiment._run_workload and fluidsim.simulate; "
          "SimResult.mu: cli simulate and perfbench's simulation checks",
    "edge_ids": "RoutingMatrix.edge_ids: routing.validate and routing.flow_edge_csr; "
                "XPathTable.edge_ids: XPathTable.label_edge_csr",
    "edge_keys": "RoutingMatrix.edge_keys: routing.validate and fluidsim.simulate; "
                 "Topology.edge_keys: Topology.check_edge_keys, routing._matrix, ecmp and xpath",
}


def _shared_field_names() -> dict[str, list[str]]:
    owners: dict[str, list[str]] = {}
    for owner, name in _dataclass_fields(_trees()):
        owners.setdefault(name, []).append(owner)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def test_no_two_dataclasses_share_an_unlisted_field_name():
    shared = _shared_field_names()
    assert {name: classes for name, classes in shared.items() if name not in SHARED_FIELDS} == {}
    # a listed name that no longer repeats is stale: take it off the list
    assert set(SHARED_FIELDS) <= set(shared)


def _args_reads(functions: dict[str, ast.FunctionDef], name: str, seen: set[str]) -> set[str]:
    """The args.<attr> names a cli function reads, itself or via helpers given args."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions and node.func.id not in seen
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            reads |= _args_reads(functions, node.func.id, seen)
    return reads


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    from cect_lab.cli import build_parser

    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices


def _unread_options() -> list[str]:
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unread = []
    for command, parser in _subcommands().items():
        reads = _args_reads(functions, parser.get_default("func").__name__, set())
        for action in parser._actions:
            # positionals are exempt: a caller cannot leave one out by mistake
            if action.option_strings and action.dest != "help" and action.dest not in reads:
                unread.append(f"{command} {action.option_strings[-1]}")
    return unread


def test_every_cli_option_is_read_by_its_handler():
    assert _unread_options() == []


def _settable_values() -> int:
    """Every subcommand's arguments (help aside), plus INI keys, plus environment reads in src/."""
    from cect_lab.experiment import _SETTINGS

    arguments = sum(
        not isinstance(action, argparse._HelpAction)
        for parser in _subcommands().values() for action in parser._actions
    )
    keys = sum(len(section) for section in _SETTINGS.values())
    env_reads = sum(
        (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        for path, tree in _trees().items() if path.parent == PACKAGE
        for node in ast.walk(tree)
    )
    return arguments + keys + env_reads


def test_settable_value_count_is_pinned():
    # 22 flags, 23 INI keys, no environment variable.
    # A change that adds or removes a setting updates this number.
    assert _settable_values() == 45


def _src_lines() -> int:
    """`cat src/cect_lab/*.py | wc -l`: the newlines in every module of the package."""
    return sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))


def test_src_line_count_is_pinned():
    # ROADMAP's design yardstick. A change that adds or removes lines in src/ updates this number.
    pinned = 2740
    assert _src_lines() == pinned, f"src/ is {_src_lines()} lines, and the pin says {pinned}"


def _options_copying_a_setting() -> list[str]:
    """CLI options whose dest is an INI key or an ExperimentConfig field."""
    from cect_lab.experiment import _SETTINGS, ExperimentConfig

    settings = {key for section in _SETTINGS.values() for key in section}
    settings |= {field.name for field in dataclasses.fields(ExperimentConfig)}
    # --seed seeds one stream (the flow draw or the GA), while [experiment]
    # seed is the master seed a sweep derives every cell's stream seeds from
    settings.discard("seed")
    return [
        f"{command} {action.option_strings[-1]}"
        for command, parser in _subcommands().items() for action in parser._actions
        if action.option_strings and action.dest in settings
    ]


def test_no_cli_option_copies_a_config_setting():
    # a setting a sweep config can hold is read from --config, not from a flag
    assert _options_copying_a_setting() == []
