"""Every module-level import of src/slzkit is used in its module, and
every top-level private helper of src/slzkit is used in the package.

No linter runs on the package, so a name imported at module level and no
longer used (a leftover ``import mmap``), or a private function, class or
constant that nothing calls any more, is caught here, from the syntax
trees alone.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slzkit"


def unused_imports(source):
    """The names that a module's top-level imports bind and that its code
    never reads, in import order; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_names_each_top_level_import_the_code_never_reads():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport mmap\nimport numpy as np\n"
              "from . import io as slzio\nfrom .errors import ParseError\n\n"
              "def f(x: np.ndarray):\n    import re\n    raise ParseError(os.sep)\n")
    assert unused_imports(source) == ["mmap", "slzio"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_of_the_package_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_helpers(sources):
    """The top-level private names of a package, given as {module: source},
    that no code of the package reads outside their own definition, sorted,
    as "module.name". A private name is a function, class or assigned name
    with one leading underscore, so a helper that only calls itself counts
    as unreferenced. A read of module m's name is the name in m,
    ``from .m import name``, or ``alias.name`` where ``from . import m as
    alias`` binds alias anywhere in the reading module."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    reads = defaultdict(list)  # (module, name) -> the nodes that read it
    for mod, tree in trees.items():
        nodes = list(ast.walk(tree))
        bound = {alias.asname or alias.name: alias.name for node in nodes
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                 for alias in node.names}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[mod, node.id].append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in bound:
                reads[bound[node.value.id], node.attr].append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    reads[node.module, alias.name].append(alias)
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            unread += [f"{mod}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and all(id(r) in inside for r in reads[mod, name])]
    return sorted(unread)


def test_unreferenced_helpers_names_each_private_helper_the_package_never_reads():
    sources = {
        "a": ("_LIMIT = 3\n_SCALE, _SHIFT = 2, 1\n__version__ = '1'\n\n"
              "def _used(x):\n    return x * _SCALE\n\n"
              "def _alone(n):\n    return 0 if n == 0 else _alone(n - 1)\n\n"
              "class _Box:\n    def make(self):\n        return _Box()\n\n"
              "def _dead():\n    pass\n\n"
              "def public(x):\n    return _used(x)\n"),
        "b": ("from .a import _LIMIT\n\n"
              "def f(obj):\n    from . import a as mod_a\n"
              "    return mod_a._SHIFT, obj._dead, _LIMIT\n"),
    }
    assert unreferenced_helpers(sources) == ["a._Box", "a._alone", "a._dead"]


def test_every_private_helper_of_the_package_is_read():
    assert unreferenced_helpers({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []
