"""No dead code in ``snsflow``: every module-level function, class and
constant, and every method of its classes, is read somewhere in the program,
``src/`` or ``perfbench/``, outside its own definition. A read in ``tests/``
does not count: a helper that only the tests call is dead code too.

Dunder names are exempt, and so is a method that overrides one of a base
class outside the package (``_Parser.error``), which its base calls.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snsflow"


def _definitions(tree: ast.Module):
    """(name, node, enclosing class name or None) of every checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, None
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, None
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item, node.name


def _reads() -> dict[str, list[tuple[Path, int]]]:
    """Every loaded name and attribute, with the file and line it is read on."""
    reads: dict[str, list[tuple[Path, int]]] = {}
    files = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    return reads


def _overrides(module: str, cls: str, name: str) -> bool:
    bases = getattr(importlib.import_module(f"snsflow.{module}"), cls).__mro__[1:]
    return any(name in vars(base) for base in bases)


def test_every_definition_is_read_outside_itself():
    reads = _reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, cls in _definitions(ast.parse(path.read_text(), str(path))):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [(p, line) for p, line in reads.get(name, [])
                       if not (p == path and node.lineno <= line <= node.end_lineno)]
            if outside or (cls and _overrides(path.stem, cls, name)):
                continue
            unread.append(f"{path.stem}.{cls + '.' if cls else ''}{name}")
    assert not unread, f"defined but never read: {unread}"
