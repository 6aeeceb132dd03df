"""No module of the package reads another module's private attributes.

An attribute whose name starts with one underscore is private to the module
that defines it: a module may read its own, through any object, but one it
does not define and another module does is that module's business. Reads
through ``self`` and ``cls`` are exempt, and so are names no module of the
package defines, such as numpy's.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scrubsim"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module defines: functions and classes at any
    depth, attributes it assigns, and names assigned at module or class
    level, which include dataclass fields."""
    names = set()
    bodies = [tree.body, *(node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
    for body in bodies:
        for stmt in body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if _private(n)}


def _private_reads(tree: ast.Module):
    """(line, name) of each private attribute read, except through self or cls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and _private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            yield node.lineno, node.attr


def cross_module_reads(package: Path) -> list[str]:
    """``module:line name`` for every read of a private attribute that only
    other modules of the package define."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    defined = {name: _defined(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        others = set().union(*(d for other, d in defined.items() if other != name))
        found += [f"{name}:{line} {attr}" for line, attr in sorted(_private_reads(tree))
                  if attr not in defined[name] and attr in others]
    return found


def test_no_module_reads_another_modules_private_attributes():
    assert cross_module_reads(PACKAGE) == []


def test_the_scan_finds_a_cross_module_read(tmp_path):
    (tmp_path / "owner.py").write_text(
        "class Graph:\n"
        "    _kind: str = 'g'\n"
        "    def __init__(self):\n"
        "        self._succ = {}\n"
        "        self._by_id = {}\n"
        "def _helper():\n"
        "    return 1\n")
    (tmp_path / "reader.py").write_text(
        "from . import owner\n"
        "class Plan:\n"
        "    def __init__(self, graph):\n"
        "        self._own = graph._by_id\n"
        "    def rules(self, other):\n"
        "        return self._own, self._succ, other._own, owner._helper(), other._kind\n"
        "def pools(graph, array):\n"
        "    return graph._succ, array._private_to_numpy\n")
    assert cross_module_reads(tmp_path) == [
        "reader.py:4 _by_id", "reader.py:6 _helper", "reader.py:6 _kind", "reader.py:8 _succ"]
