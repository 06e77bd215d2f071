"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

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


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


def test_base_prints_each_count_at_the_revision_and_now(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "kept.py").write_text("x = 1\n")
    (pkg / "gone.py").write_text("a = 1\nb = 2\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "first")
    (pkg / "kept.py").write_text(SNIPPET)
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("y = [1,\n     2]\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "second")
    assert code_lines.main(["--base", "HEAD~1", str(pkg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     2 ->      -  {pkg / 'gone.py'}", f"     1 ->      6  {pkg / 'kept.py'}",
        f"     - ->      2  {pkg / 'new.py'}", "     3 ->      8  total"]
    # a file given by name
    assert code_lines.main(["--base", "HEAD~1", str(pkg / "kept.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     1 ->      6  {pkg / 'kept.py'}", "     1 ->      6  total"]


def test_base_that_names_no_commit_is_an_error(tmp_path, capsys):
    git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    with pytest.raises(SystemExit) as exc:
        code_lines.main(["--base", "nosuch", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("--base: 'nosuch' names no commit")


def test_missing_path_is_an_error_unless_the_base_has_it(tmp_path, capsys):
    missing, gone = tmp_path / "nosuch.py", tmp_path / "gone.py"
    with pytest.raises(SystemExit) as exc:
        code_lines.main([str(missing)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"{missing}: no such file or directory")
    git(tmp_path, "init", "-q")
    gone.write_text("a = 1\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "first")
    gone.unlink()
    # absent now but there at the revision: counted there
    assert code_lines.main(["--base", "HEAD", str(gone)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"     1 ->      -  {gone}",
                                                    "     1 ->      0  total"]
    with pytest.raises(SystemExit) as exc:
        code_lines.main(["--base", "HEAD", str(missing)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"{missing}: no such file or directory, now or at HEAD")
