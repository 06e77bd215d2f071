"""Count the code lines of Python files.

    python tools/code_lines.py PATH...

A code line holds a token other than a comment and is not part of a
string-expression statement (a docstring, or any other bare string), so
blank lines, comment lines and docstrings do not count, while each line of
a wrapped statement does. Each PATH is a file or a directory, whose ``*.py``
files are counted at any depth. Prints the count of every file, then the
total, each file counted once.
"""

import ast
import io
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


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    # each file once, also when two paths name it
    files = dict.fromkeys(f for arg in map(Path, argv)
                          for f in (sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
