"""Every module-level import of src/slzkit is used in its module.

No linter runs on the package, so a name imported at module level and no
longer used (a leftover ``import mmap``) is caught here, from the syntax
tree alone.
"""

import ast
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
