import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps its code line


class A:
    """Class docstring."""

    x = """not a docstring"""

    def f(self):
        """Function
        docstring."""
        return os.sep
'''


def test_code_lines_skips_blank_comment_and_docstring_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, class, x = ..., def, return
    assert tool.code_lines(FIXTURE) == 5
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    counts = {name: int(n) for name, n in (line.split() for line in out)}
    assert "geometry.py" in counts
    assert counts.pop("total") == sum(counts.values())
