"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code

# a comment line


def f(a, b):
    """The function's docstring."""
    "a bare string statement"
    text = """a string that is
assigned spans two code lines"""
    return os.path.join(a,
                        b, text)
'''


def test_counts_code_lines_of_a_snippet():
    # import, def, text = (2 lines), return (2 lines)
    assert code_lines.code_lines(SNIPPET) == 6


def test_prints_each_file_once_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\ny = [x,\n     2]\n")
    assert code_lines.main([str(tmp_path), str(tmp_path / "a.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     6  {tmp_path / 'a.py'}", f"     3  {tmp_path / 'sub' / 'b.py'}", "     9  total"]
