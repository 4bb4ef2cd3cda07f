"""The line counter tools/loc.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loc = _loc()

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide code

# a comment line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi * self.size


async def wait():
    "One-line docstring."
    return None
'''


def test_counts_code_lines_only():
    # import, class, size, def, text (2 lines), return, async def, return
    assert loc.count(FIXTURE) == 9


def test_docstring_lines_span_each_docstring():
    import ast
    assert loc.docstring_lines(ast.parse(FIXTURE)) == {1, 2, 10, 15, 16, 23}


def test_count_tree_and_main(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# none\n")
    assert loc.count_tree(tmp_path / "pkg") == {"a.py": 9, "b.py": 1}
    assert loc.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     9  a.py", "     1  b.py", "    10  total", ""]
