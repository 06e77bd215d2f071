"""The benchmark tracer's targets exist in the package, the CLI imports
them without scipy's heavy submodules, and a gp fit loads no
``scipy.spatial``.

``bench/tracer.py`` wraps the functions and methods it lists by name when a
traced benchmark run starts, so a rename or a move inside ``factorint`` would
otherwise show only there. The tracer is imported by path and not installed.
"""

import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import factorint
from factorint import generate_saddle_dataset, gp_spec, run_gp_chain, standardize_rows
from factorint import io as fio

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("factorint_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for table in (tracer.FUNCTIONS, tracer.METHODS):
        for layer, names in table.items():
            target_module = importlib.import_module(f"factorint.{layer}")
            for name in names:
                target = target_module
                for part in name.split("."):
                    target = getattr(target, part, None)
                if not callable(target):
                    missing.append(f"{layer}.{name}")
    assert not missing, f"bench/tracer.py names what factorint lacks: {missing}"


# Loaded on first use: the read-side commands never need them.
LAZY_SCIPY = ("scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.special")

STARTUP_SCRIPT = """
import json, sys
import factorint.cli as cli
imported = sorted(name for name in sys.modules if name.startswith("factorint."))
draws, out = sys.argv[1], sys.argv[2]
codes = [cli.main(["summarize", "--output-dir", out, "--set", "paths.draws=" + draws]),
         cli.main(["detect", "--output-dir", out, "--set", "paths.draws=" + draws]),
         cli.main(["export-surface", "--output-dir", out, "--set", "paths.draws=" + draws,
                   "--set", "surface.feature=0"]),
         cli.main(["test-overlap", "--output-dir", out, "--set", "overlap.population=60",
                   "--set", "overlap.counts=10,12", "--set", "overlap.observed=6",
                   "--set", "overlap.replicates=200"])]
print(json.dumps({"imported": imported, "codes": codes,
                  "scipy": sorted(name for name in sys.modules if name.startswith("scipy."))}))
"""


def test_cli_imports_traced_modules_and_no_scipy_submodules(tmp_path):
    rng = np.random.default_rng(0)
    data = standardize_rows(rng.normal(size=(6, 8)))
    draws = tmp_path / "draws.bin"
    fio.persist_draws(run_gp_chain(gp_spec(1), data, n_iters=30, burn_in=10, seed=1), draws)
    src = Path(factorint.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(draws), str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True, timeout=120)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0], done.stderr
    for name in ("summary.csv", "detected.csv", "surface.csv", "overlap.csv"):
        assert (tmp_path / name).exists()
    loaded = [name for name in LAZY_SCIPY if name in report["scipy"]]
    assert not loaded, f"the read-side commands loaded {loaded}"
    tracer = load_tracer()
    traced = {f"factorint.{layer}" for table in (tracer.FUNCTIONS, tracer.METHODS)
              for layer in table}
    assert traced <= set(report["imported"])


READ_SCRIPT = """
import json, sys
import factorint.cli as cli
draws, out = sys.argv[1], sys.argv[2]
report = {}
for command, *extra in (["summarize"], ["detect"], ["export-surface", "--set", "surface.feature=0"]):
    code = cli.main([command, "--output-dir", out, "--set", "paths.draws=" + draws, *extra])
    report[command] = [code, "numpy.ma" in sys.modules]
print(json.dumps(report))
"""


def test_read_commands_leave_numpy_ma_unloaded(tmp_path):
    # seeded features have inclusion 1, so the summary takes its intervals
    # of the included states as well as of whole traces
    data, truth = generate_saddle_dataset(20, 15, 0.2, seed=3)
    spec = gp_spec(1, seed_groups={k: frozenset(int(i) for i in v)
                                   for k, v in truth.seed_groups.items()})
    draws = tmp_path / "draws.bin"
    fio.persist_draws(run_gp_chain(spec, data, n_iters=30, burn_in=10, seed=1), draws)
    src = Path(factorint.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", READ_SCRIPT, str(draws), str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True, timeout=120)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report == {"summarize": [0, False], "detect": [0, False],
                      "export-surface": [0, False]}, done.stderr
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        assert any(float(row["inclusion_prob"] or 0) > 0.5 for row in csv.DictReader(fh))


GP_FIT_SCRIPT = """
import json, sys
import factorint.cli as cli
data, out = sys.argv[1], sys.argv[2]
code = cli.main(["fit", "--output-dir", out, "--set", "paths.data=" + data,
                 "--set", "model.family=gp", "--set", "mcmc.iters=40",
                 "--set", "mcmc.burn_in=20"])
print(json.dumps({"code": code,
                  "scipy": sorted(name for name in sys.modules if name.startswith("scipy."))}))
"""


def test_gp_fit_loads_no_scipy_spatial(tmp_path):
    rng = np.random.default_rng(1)
    fio.write_data_csv(tmp_path / "data.csv", standardize_rows(rng.normal(size=(6, 8))))
    src = Path(factorint.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", GP_FIT_SCRIPT, str(tmp_path / "data.csv"),
                           str(tmp_path)], env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["code"] == 0, done.stderr
    assert (tmp_path / "draws.bin").exists()
    assert "scipy.linalg" in report["scipy"]
    assert not [name for name in report["scipy"] if name.startswith("scipy.spatial")]
    # the spike-and-slab indicator draw takes its logistic from numpy
    assert not [name for name in report["scipy"] if name.startswith("scipy.special")]
