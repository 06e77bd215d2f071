"""Where a state field lives, in memory or in its bundle file, is known only
to ``io``, which makes ``BundleField``s, and to ``model.PosteriorDraws``,
which holds them: the readers above never name a ``BundleField`` or its
``read_rows``, and the CLI reads draws only through ``io.open_draws``.
Checked on the source with ``ast``."""

import ast
from pathlib import Path

import pytest

import factorint

SRC = Path(factorint.__file__).resolve().parent


def names(module: str) -> set[str]:
    """Every identifier ``module`` uses: names, attributes and imported names."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
    return found


@pytest.mark.parametrize("module", ["genomics", "simulate", "cli"])
def test_readers_do_not_know_where_a_field_lives(module):
    assert not names(module) & {"BundleField", "read_rows"}


def test_cli_reads_no_whole_draws_file():
    assert "open_draws" in names("cli")
    assert "load_draws" not in names("cli")
