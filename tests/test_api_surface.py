"""Guard: every function, class and method in src/ has a caller in the program.

A name counts as used when src/ or perfbench/ mentions it outside its own
definition, as a name, an attribute or a word inside a string (perfbench
wraps library functions by their string names). Code that only the tests
call does not belong in src/.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cect_lab"

# Public entry points that no code in the package calls itself.
ALLOWED = {
    "load_config",  # reads and checks an experiment config without running it
}

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
    """(qualified name, name, node) of module-level defs and non-dunder methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def _unreferenced() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    uses = sum((_words(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, name, node in _definitions(tree):
            # docstrings are strings too, so a definition's own text is not a use
            if name not in ALLOWED and uses[name] - _words(node)[name] <= 0:
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_src_has_no_code_only_tests_use():
    assert _unreferenced() == []
