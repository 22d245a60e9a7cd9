"""The code-line counter in ``tools/code_lines.py``."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a comment

# a comment line


class A:
    """Class docstring."""

    x = """a string that is data,
    not a docstring"""

    def f(self):
        """Function docstring."""
        return math.pi


def g(): """one-line docstring"""; return 1
'''


def test_counts_lines_outside_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # import, class, the data string's two lines, def, return, and g's line
    assert code_lines.code_lines(path) == 7


def test_counts_the_package(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
