"""``tools/code_lines.py`` counts the lines that hold code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
X = 1  # a comment after code


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string that is not a docstring
        counts on each line"""
        return (s,
                X)
'''


def test_docstrings_comments_and_blank_lines_are_skipped():
    # X = 1; class A; def f; the two lines of s; the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("Y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7 a.py", "     1 sub/b.py", "     8 total"]
