"""Pinned bytes of the command layer.

``test_golden_draws`` pins the draws of library fits; this pins what the
commands write around them. One subprocess with one BLAS thread runs small
``simulate``, ``fit``, ``summarize``, ``detect``, ``export-surface``,
``compare`` and ``test-overlap`` commands and reduces every CSV and bundle
they write to its sha256. Manifests are left out, as they record wall time,
peak memory and paths. A change that alters an artifact on purpose updates
these pins and says so.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import factorint

CLI_SCRIPT = """
import hashlib, json, sys
from pathlib import Path
from factorint.cli import main

root = Path(sys.argv[1])

def run(command, out, *settings, seed=None):
    argv = [command, "--output-dir", str(root / out)]
    argv += [] if seed is None else ["--seed", str(seed)]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 0, argv

run("simulate", "sim", "simulate.features=40", "simulate.samples=30", seed=5)
data = f"paths.data={root / 'sim' / 'data.csv'}"
seeded = ("model.seed_group.1=0,1,2,3,4", "model.seed_group.2=5,6,7,8,9")
short = ("mcmc.iters=60", "mcmc.burn_in=20")
fits = {
    "mult1": ("model.family=mult_approach1", "mcmc.thin=2", *seeded),
    "mult2": ("model.family=mult_approach2", "model.load_prob_model=grouped",
              "model.inter_prob_model=grouped", *seeded),
    "gp1": ("model.family=gp", "model.gp_variant=1", "model.length_scale=0.5",
            "model.beta=1,10", *seeded),
    "gp2": ("model.family=gp", "model.gp_variant=2", "mcmc.rw_step=0.3", *seeded),
}
for name, settings in fits.items():
    run("fit", name, data, *short, *settings, seed=8)
    draws = f"paths.draws={root / name / 'draws.bin'}"
    run("summarize", f"{name}/read", draws)
    run("detect", f"{name}/read", draws, "detect.threshold=0.3")
    run("export-surface", f"{name}/read", draws, "surface.feature=f0012")
run("fit", "gp1_chains", data, *short, *fits["gp1"], "mcmc.chains=2", seed=9)
run("export-surface", "gp1_chains/read", f"paths.draws={root / 'gp1_chains' / 'draws_001.bin'}",
    "surface.feature=12")

(root / "specs").mkdir()
(root / "specs" / "mult2.cfg").write_text("model.family = mult_approach2\\n")
(root / "specs" / "gp1.cfg").write_text("model.family = gp\\nmodel.length_scale = 0.5\\n")
run("compare", "cmp", data, f"paths.truth={root / 'sim' / 'truth.bin'}",
    f"compare.specs={root / 'specs' / 'mult2.cfg'}, {root / 'specs' / 'gp1.cfg'}",
    *short, seed=6)
run("test-overlap", "overlap", "overlap.population=500", "overlap.counts=40, 50, 60",
    "overlap.observed=30", "overlap.replicates=3000", seed=4)

print(json.dumps({path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(root.rglob("*"))
                  if path.suffix in (".csv", ".bin")}))
"""

PINNED = {
    "cmp/comparison.csv": "34e44fee63c281ef4f0fa371e121b2562be37d37debe95bf6b20679bdca27a57",
    "cmp/surface_gp1.csv": "b3fb4fc0f6e0d6eb4d8a0f0e79a52fcfbf74de138285ef72dc60a87a73c1e67d",
    "cmp/surface_mult2.csv": "c606c3682d1123c4782b1019d95789a880e62fab8d6da4c7b4232a9ab26060bd",
    "gp1/acceptance.csv": "3bcd22ccfd70da72e06f00738706606abd0e22b99241972d409c497b8bcc2702",
    "gp1/draws.bin": "969a366cee1cc4fd94659641be0cd878126b80d0f31e2d622c2b01777b2d5088",
    "gp1/read/detected.csv": "5d0fa91a2e40d29cdad76659a1442330c1886ef11e7e63e675db153998348c46",
    "gp1/read/summary.csv": "a2199d9f918b021b3d608fff16b3f5d0930d4fcabebf41d7b857821b6a7e1873",
    "gp1/read/surface.csv": "f7984ba45669abaed97bc3513dec86ee57ae8fac38ea4a263c206eca1007fc4b",
    "gp1/summary.csv": "a2199d9f918b021b3d608fff16b3f5d0930d4fcabebf41d7b857821b6a7e1873",
    "gp1_chains/acceptance.csv": "d38f716a169826fe301b91363e8fe64bd9ef05c4c6499de5b83e6bc9b6ae4b8a",
    "gp1_chains/draws_000.bin": "0130198e4fbfbb9cd251191339aa21c93e37d98eb05dc37501c5794682ad03e6",
    "gp1_chains/draws_001.bin": "59e6efe421ef34d5fde72c6b46d93068587560a7ea769005f1753ec0bb809f94",
    "gp1_chains/read/surface.csv": "c8702b35398ca8034a2b2084d45a7471b53d3d9589a84b0617ed3dc25154c586",
    "gp1_chains/summary.csv": "7bb913d2c4406c6414335ba9623990df5a895ca66167f6cc06a1c056fc3c272b",
    "gp2/acceptance.csv": "eaa23335a5c19458352274cfcf5436a6c123200db33601795c1617ca77cfa4fb",
    "gp2/draws.bin": "cd3d62d21fd089f10e3c266d7d71a600adc26cf8ccd37f59ff2ccf2eac5f9ee2",
    "gp2/read/detected.csv": "d4fe53fe016fe3ca5a66ed8c72fc275dc271348cc75b2f3319f6c4e7766f5e6e",
    "gp2/read/summary.csv": "470fa12a832225aae163810b52e438384235bd8317dee9f06ba83be6e65b5b99",
    "gp2/read/surface.csv": "557d5b02bafc57c40872083ccbc723ac2ff983c7bcc0a2c59dd31e40480b6095",
    "gp2/summary.csv": "470fa12a832225aae163810b52e438384235bd8317dee9f06ba83be6e65b5b99",
    "mult1/draws.bin": "81d88ae2edde0b59530061dcdcdf935885086bb212c36a2a983a6bf177c12da8",
    "mult1/read/detected.csv": "d5c6e2748c971039d8608d8530478982d868e3212b6f3f76e6dc09e1b146565e",
    "mult1/read/summary.csv": "2d2a2934756fa6207b590ccb6691300a0d2b3bb45dd2970547b4af0ba4dcdfbc",
    "mult1/read/surface.csv": "c77d171806fa992332f8d6b1de02a1356262db16c15668c47283550cd106fcf1",
    "mult1/summary.csv": "2d2a2934756fa6207b590ccb6691300a0d2b3bb45dd2970547b4af0ba4dcdfbc",
    "mult2/draws.bin": "db4502cc91147f10c4ec34743f68f2e5ad6c0db823d4a39d531ae0827417c84f",
    "mult2/read/detected.csv": "83d9c668e6580055bf90441e4b87d640584ec277a713ce2b286dad19e0632096",
    "mult2/read/summary.csv": "63ff139618b440e715a57d9aff4570fd89091e4964e24eb351d02ff0e2c5999e",
    "mult2/read/surface.csv": "2fb58508637b490e6a93bc2e2cf84aadea91529e21885cd995c483ad9d37c68a",
    "mult2/summary.csv": "63ff139618b440e715a57d9aff4570fd89091e4964e24eb351d02ff0e2c5999e",
    "overlap/overlap.csv": "c21604fa8ed752be40ed63f7360473d9c503593f69df3d398ebd9856db73d128",
    "sim/data.csv": "629b2cd2fd5d8c9848b80575f5a764b51d21107904a488da2681a5f595763548",
    "sim/truth.bin": "1b99de909e8ae61d41f6dfb62d3c9042f8a839bb36ba1139d83e469e73d6e38f",
}


def test_commands_reproduce_pinned_artifacts(tmp_path):
    src = Path(factorint.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in factorint.BLAS_THREAD_VARS}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CLI_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == PINNED
