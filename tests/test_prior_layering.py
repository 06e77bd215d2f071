"""``prior`` sits below both samplers: it imports nothing from the package
but ``errors``, and ``gp`` takes what ``prior`` defines from ``prior``
itself, not through ``mult``. Every draw from the spike-and-slab prior is
defined in ``prior``, once, and in no other module. Checked on the source
with ``ast``, so an import made only for a name's re-export shows too."""

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


def defined_names(tree: ast.Module) -> list[str]:
    """Functions, classes and plain assignments at a module's top level."""
    names = [node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return names + [target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)]


def imported_names(tree: ast.Module, module: str) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module in (module, f"factorint.{module}")
            for alias in node.names}


# Every draw from the spike-and-slab prior, and the rule that a 0/1 fixed
# probability overrides the posterior.
PRIOR_DRAWS = ("draw_prior_indicators", "draw_indicators", "draw_slab_column",
               "sample_inclusion_probs", "_pin_fixed")


def test_prior_defines_every_spike_and_slab_draw_once():
    defined = defined_names(parse("prior"))
    assert {name: defined.count(name) for name in PRIOR_DRAWS} == dict.fromkeys(PRIOR_DRAWS, 1)


def test_no_other_module_draws_from_the_prior():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "prior":
            continue
        tree = parse(path.stem)
        found += [f"{path.stem}: defines {name}" for name in defined_names(tree)
                  if name == "_logit" or name in PRIOR_DRAWS]
        found += [f"{path.stem}:{node.lineno}: calls .beta(" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "beta"]
    assert not found, found


def test_gp_takes_no_prior_name_from_mult():
    defined = set(defined_names(parse("prior")))
    gp = parse("gp")
    from_mult = imported_names(gp, "mult")
    assert "draw_indicators" in imported_names(gp, "prior")
    assert not from_mult & defined, sorted(from_mult & defined)
