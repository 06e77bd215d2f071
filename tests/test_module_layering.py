"""Each decision has one owner module: ``io`` owns every file layout and
imports no analysis module, no module reaches into another's private names,
only ``io`` writes CSV, only ``model`` runs the spec rules, the CLI leaves
the truth bundle's layout to ``io``, one writer writes every bundle, only
``io`` moves a file into place, and only ``io`` parses a configuration key
or states a default the CLI uses.
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


def test_only_io_moves_files_into_place():
    # io.landing moves a run's files into its output directory and
    # io._BundleFile a bundle onto its target; no other code renames a file
    assert owners(uses("os", "replace")) == {"io._BundleFile", "io.landing"}
    assert not owners(uses("os", "rename")) | owners(uses("shutil", "move"))


def test_cli_passes_no_default_and_only_io_names_a_parser():
    # io.KEYS states each key's parser and the CLI's defaults once: io has one
    # reader of a key, which takes the configuration and the key alone; cli
    # calls it with just those and takes no value out of a configuration
    # itself; and no module but io names the parser of a row
    readers = {node.name: [arg.arg for arg in (*node.args.args, *node.args.kwonlyargs)]
               for node in parse("io").body if isinstance(node, ast.FunctionDef)
               and [arg.arg for arg in node.args.args[:2]] == ["cfg", "key"]}
    assert readers == {"value": ["cfg", "key"]}
    cli = parse("cli")
    calls = [node for node in ast.walk(cli) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) in readers]
    assert len(calls) >= 8
    assert all(len(call.args) == 2 and not call.keywords for call in calls)
    assert not [node for node in ast.walk(cli) if isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load) and getattr(node.value, "id", None) == "cfg"]
    parsers = {row.parse for row in fio.KEYS.values()}
    names = {name for name, obj in vars(fio).items() if callable(obj) and obj in parsers}
    assert len(names) >= 6
    for module in MODULES:
        named = {node.attr for node in ast.walk(parse(module)) if isinstance(node, ast.Attribute)}
        named |= {node.id for node in ast.walk(parse(module)) if isinstance(node, ast.Name)}
        assert not named & names or module == "io", module


def test_one_gibbs_scan_for_both_samplers():
    # ``MultChain`` and ``GpChain`` inherit ``Chain.sweep`` and add only their
    # own blocks; ``SweepFactor.sweep`` is the score-column loop of a gp scan
    owners, defined = set(), 0
    for module in MODULES:
        tree = parse(module)
        defined += sum(isinstance(node, ast.FunctionDef) and node.name == "sweep"
                       for node in ast.walk(tree))
        owners |= {(module, node.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.FunctionDef) and item.name == "sweep"}
    assert owners == {("mult", "Chain"), ("kernels", "SweepFactor")}
    assert defined == len(owners)


def test_no_module_casts_to_the_mask_dtype():
    # ``model.STATE_DTYPES`` states the int8 of the masks once: the state's
    # own arrays are allocated with it and the samplers write into them
    casts = owners(lambda node: isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "astype"
                   and any(map(uses("np", "int8"), node.args)))
    assert not casts
