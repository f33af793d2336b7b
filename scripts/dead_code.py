#!/usr/bin/env python3
"""Fail on dead code that a plain syntax-tree pass can see.

    python scripts/dead_code.py

Two rules, read from the source with `ast` and nothing imported:
- in `src/permclass`, `tests` and `scripts`, a name that a module imports
  and never reads (a package's `__init__.py` imports to re-export, and a
  name listed in a module's `__all__` counts as read);
- in `src/permclass`, a private module-level name (one leading underscore)
  that nothing in `src/permclass` reads outside its own definition, such as
  a package helper that only tests use.

It prints each finding as ``file:line: ...`` and exits 1 if there is any.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permclass"


def _loads(tree: ast.AST) -> Counter:
    """How often each name is read: loaded as a name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute))


def _exported(tree: ast.Module) -> set[str]:
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def _imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_imports(path: Path, tree: ast.Module) -> list[str]:
    if path.name == "__init__.py":
        return []
    # only a loaded name reads an import: ``obj.name`` does not
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | _exported(tree)
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {name} is imported and never read"
            for node in ast.walk(tree) for name in _imported(node) if name not in read]


def unread_private_names(trees: dict[Path, ast.Module]) -> list[str]:
    reads = sum((_loads(tree) for tree in trees.values()), Counter())
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {name} is read nowhere in the package"
            for path, tree in trees.items() for node in tree.body for name in _defined(node)
            if name.startswith("_") and not name.startswith("__")
            and reads[name] == _loads(node)[name]]


def main() -> int:
    paths = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                    *(ROOT / "scripts").glob("*.py")])
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    found = [line for path, tree in trees.items() for line in unread_imports(path, tree)]
    found += unread_private_names({p: t for p, t in trees.items() if p.parent == PACKAGE})
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
