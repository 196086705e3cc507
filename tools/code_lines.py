"""Print the code-only line count of each module of src/slzkit and their total.

A code-only line is a source line that is not blank, not a comment line
and not part of a docstring (of a module, class or function). Run it
from anywhere as ``python tools/code_lines.py``; it takes no options.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slzkit"


def code_lines(source):
    """The number of code-only lines of a Python module's source text."""
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            skip.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for n, line in enumerate(source.splitlines(), start=1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
