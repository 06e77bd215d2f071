"""Each decision has one owner module: ``io`` owns every file layout and
imports no analysis module, no module reaches into another's private names,
only ``io`` writes CSV, only ``model`` runs the spec rules, the CLI leaves
the truth bundle's layout to ``io``, and one writer writes every bundle.
Checked on the source with ``ast``, in the style of ``test_draws_layering``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import factorint
from factorint import io as fio
from factorint.model import SyntheticTruth

SRC = Path(factorint.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> list[ast.ImportFrom]:
    """The ``from ... import`` statements of ``module`` that read the package."""
    return [node for node in ast.walk(parse(module)) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "factorint")]


def test_io_imports_only_the_layers_below_it():
    found = set()
    for node in package_imports("io"):
        module = (node.module or "").removeprefix("factorint").lstrip(".")
        found |= {module} if module else {alias.name for alias in node.names}
    assert found == {"errors", "model", "prior", "BLAS_THREAD_VARS"}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name(module):
    private = [alias.name for node in package_imports(module) for alias in node.names
               if alias.name.startswith("_")]
    assert not private


@pytest.mark.parametrize("module", MODULES)
def test_only_io_imports_csv(module):
    # ``io.write_table`` states the CSV dialect of every artifact
    imported = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert ("csv" in imported) is (module == "io")


@pytest.mark.parametrize("module", MODULES)
def test_only_model_calls_validate_spec(module):
    # a ModelSpec runs its rules when built, so no caller needs to
    called = [node for node in ast.walk(parse(module)) if isinstance(node, ast.Call)
              and "validate_spec" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert bool(called) is (module == "model")


def truth_array_names(tmp_path) -> set[str]:
    """The array names of the truth bundle ``io.write_truth`` writes."""
    m, n = 4, 3
    truth = SyntheticTruth(loadings=np.zeros((m, 2)), scores=np.zeros((2, n)),
                           effects=np.zeros((m, n)), noise_var=np.ones(m),
                           affected=np.array([2]), seed_groups={0: np.array([0]),
                                                                1: np.array([1])})
    fio.write_truth(tmp_path / "truth.bin", truth, seed=0)
    _, arrays = fio.read_bundle(tmp_path / "truth.bin")
    return set(arrays)


def test_cli_leaves_the_truth_layout_to_io(tmp_path):
    tree = parse("cli")
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    arrays = truth_array_names(tmp_path)
    assert len(arrays) == 7
    assert not literals & arrays
    assert not names & {"read_bundle", "write_bundle"}
    assert {"read_truth", "write_truth"} <= names


def owners(picks) -> set[str]:
    """``module.name`` of each top-level function or class in the package
    holding a node that ``picks`` selects (``module.<module>`` for a
    top-level statement)."""
    return {f"{module}.{getattr(top, 'name', '<module>')}" for module in MODULES
            for top in parse(module).body if any(map(picks, ast.walk(top)))}


def uses(module: str, name: str):
    """A test of whether a node is ``module.name``, or imports ``name`` from
    ``module``."""
    return lambda node: (
        isinstance(node, ast.Attribute) and node.attr == name
        and getattr(node.value, "id", None) == module
        or isinstance(node, ast.ImportFrom) and node.module == module
        and any(alias.name == name for alias in node.names))


def opens_for_binary_writing(node) -> bool:
    """Whether a node calls ``open`` with a binary mode that writes."""
    if not (isinstance(node, ast.Call)
            and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
        return False
    modes = [arg.value for arg in (*node.args, *(kw.value for kw in node.keywords))
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return any(set(mode) <= set("rwxabt+") and "b" in mode and set(mode) & set("wax+")
               for mode in modes)


def test_one_writer_writes_every_bundle_and_one_function_hashes():
    # io._BundleFile places every bundle (truth, persisted and streamed
    # draws) and io._sha256 takes every digest
    assert owners(uses("os", "pwrite")) == {"io._BundleFile"}
    assert owners(opens_for_binary_writing) == {"io._BundleFile"}
    assert owners(uses("hashlib", "sha256")) == {"io._sha256"}
