"""Count the code lines of Python files.

    python tools/code_lines.py [--base REV] PATH...

A code line holds a token other than a comment and is not part of a
string-expression statement (a docstring, or any other bare string), so
blank lines, comment lines and docstrings do not count, while each line of
a wrapped statement does. Each PATH is a file or a directory, whose ``*.py``
files are counted at any depth. Prints the count of every file, then the
total, each file counted once.

With ``--base REV`` every line also gives the count at the git revision REV
(``git show REV:path``), as ``before -> after``; a directory then also lists
the files it held at REV, and a file absent on one side counts as ``-``.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

# tokens that are not code: layout, comments and the stream's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    strings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - strings)


def _git(where: Path, *args: str) -> subprocess.CompletedProcess:
    """``git args`` run in the directory ``where``, its output as text."""
    return subprocess.run(["git", "-C", str(where), *args], capture_output=True,
                          encoding="utf-8")


def _files(arg: Path, base: str | None) -> list[Path]:
    """The files PATH ``arg`` names: itself, or the ``*.py`` files under the
    directory, now and, with ``base``, at that revision."""
    if not arg.is_dir():
        return [arg]
    files = set(arg.rglob("*.py"))
    if base is not None:
        listed = _git(arg, "ls-tree", "-r", "--name-only", base, "--", ".").stdout
        files.update(arg / name for name in listed.splitlines() if name.endswith(".py"))
    return sorted(files)


def _count_at(base: str, path: Path) -> int | None:
    """The code lines of ``path`` at revision ``base``, None where it is absent."""
    shown = _git(path.parent, "show", f"{base}:./{path.name}")
    return code_lines(shown.stdout) if shown.returncode == 0 else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", metavar="REV", help="also count each file at git revision REV")
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    where = args.paths[0] if args.paths[0].is_dir() else args.paths[0].parent
    if args.base is not None and _git(where, "rev-parse", "--verify", "--quiet",
                                      f"{args.base}^{{commit}}").returncode:
        parser.error(f"--base: {args.base!r} names no commit")
    for path in args.paths:
        # a path absent now still counts when it is there at the revision
        if not path.exists() and (args.base is None or _git(
                path.parent, "cat-file", "-e", f"{args.base}:./{path.name}").returncode):
            at = "" if args.base is None else f", now or at {args.base}"
            parser.error(f"{path}: no such file or directory{at}")
    # each file once, also when two paths name it
    files = dict.fromkeys(f for arg in args.paths for f in _files(arg, args.base))
    counts = {path: code_lines(path.read_text(encoding="utf-8"))
              if args.base is None or path.exists() else None for path in files}
    counts["total"] = sum(filter(None, counts.values()))
    if args.base is not None:
        before = {path: _count_at(args.base, path) for path in files}
        before["total"] = sum(filter(None, before.values()))
    for path, count in counts.items():
        cells = [count] if args.base is None else [before[path], count]
        print(" -> ".join(f"{'-' if c is None else c:>6}" for c in cells), "", path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
