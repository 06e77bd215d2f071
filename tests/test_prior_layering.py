"""``prior`` sits below both samplers: it imports nothing from the package
but ``errors``, and ``gp`` takes what ``prior`` defines from ``prior``
itself, not through ``mult``. Checked on the source with ``ast``, so an
import made only for a name's re-export shows too."""

import ast
from pathlib import Path

import factorint

SRC = Path(factorint.__file__).resolve().parent


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_prior_imports_only_errors_from_the_package():
    found = []
    for node in ast.walk(parse("prior")):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("factorint")):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("factorint")]
    assert found == [".errors"]


def test_gp_takes_no_prior_name_from_mult():
    prior = parse("prior")
    defined = {node.name for node in prior.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in prior.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    from_mult = {alias.name for node in ast.walk(parse("gp"))
                 if isinstance(node, ast.ImportFrom) and node.module in ("mult", "factorint.mult")
                 for alias in node.names}
    assert "build_layout" in defined and "draw_indicators" in from_mult
    assert not from_mult & defined, sorted(from_mult & defined)
