"""The package's own import graph."""

import ast
from pathlib import Path

import deltainv

PACKAGE = Path(deltainv.__file__).resolve().parent


def _relative_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports with ``from .x import``,
    anywhere in the file, function bodies included; ``from . import name``
    counts as an import of ``name`` when that is a module, else of
    ``__init__``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module:
                edges.add(node.module.split(".")[0])
            else:
                edges.update(
                    a.name if a.name in modules else "__init__" for a in node.names
                )
        graph[name] = edges
    return graph


def _find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            cycle = visit(start, [start])
            if cycle:
                return cycle
    return None


def test_package_import_graph_is_acyclic():
    # the search finds a cycle, and the graph sees the package's imports
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    graph = _relative_imports()
    assert "delta" in graph["bounds"]
    assert _find_cycle(graph) is None


# bounds imports one name it does not use: perfbench calls and traces it as
# deltainv.bounds.optimal_coefficients
_KEPT_UNUSED = {("bounds", "optimal_coefficients")}


def _unused_imports(source: str) -> set[str]:
    """The names that the imports of ``source`` bind, anywhere in the file,
    and that no expression in it reads; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    # __init__.py imports to export; every other module only to use
    source = "from __future__ import annotations\nimport os.path\nfrom .a import b as c\nos\n"
    assert _unused_imports(source) == {"c"}
    unused = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    }
    assert unused == _KEPT_UNUSED


# argparse calls this override itself; nothing in the package names it
_KEPT_UNREAD = {"cli._Parser._parse_optional"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _unread_private_names(sources: dict[str, str]) -> set[str]:
    """The module-level private functions, classes and constants, and the
    private methods, of ``sources`` (module name -> source) that no
    expression reads outside their own definition, in any of the modules:
    "module.name" or "module.Class.method"."""
    defined, reads = {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in filter(_private, names):
                defined[f"{module}.{name}"] = (name, module, node)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and _private(item.name):
                    defined[f"{module}.{node.name}.{item.name}"] = (item.name, module, item)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    return {
        key
        for key, (name, module, node) in defined.items()
        if all(
            where == module and node.lineno <= line <= node.end_lineno
            for where, line in reads.get(name, ())
        )
    }


def test_every_private_name_is_read():
    # a private helper, class, constant or method that nothing in the
    # package reads outside its own definition is dead code
    sources = {
        "a": "def _used():\n    pass\ndef _dead():\n    _dead()\n_LIMIT = 1\n"
             "class C:\n    def _m(self):\n        pass\n    def __init__(self):\n        pass\n",
        "b": "from .a import _used\n_used()\n",
    }
    assert _unread_private_names(sources) == {"a._dead", "a._LIMIT", "a.C._m"}
    package = {
        path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")
    }
    assert _unread_private_names(package) == _KEPT_UNREAD
