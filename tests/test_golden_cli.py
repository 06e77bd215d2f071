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
    "cmp/comparison.csv": "d4ba04cd316bcbfd111c8c54d052f229a198a0e7cf8cf69b57b17f2e55e7d1b1",
    "cmp/surface_gp1.csv": "b2cd271c04122af178ed2ef28c6a54f537f4b345c63c52ce198745a94ecbd5b0",
    "cmp/surface_mult2.csv": "c606c3682d1123c4782b1019d95789a880e62fab8d6da4c7b4232a9ab26060bd",
    "gp1/acceptance.csv": "e42a42981723666ec75fa6964b5388cdc136a8e9eb4fa12d31071e4eefe73834",
    "gp1/draws.bin": "21bc1f8658b336036d552d374eb64d336e27892aee4a6ef99e151a29421373de",
    "gp1/read/detected.csv": "fbc31293aa523f013605856acf20db2d03a4932357e89e493d9bfe32ee7c0394",
    "gp1/read/summary.csv": "8f1ff1d7dffc63a97a94110b3e85b4b0ac15cab0143b2ce84e27fe048bcf655e",
    "gp1/read/surface.csv": "6cda6d20350bf24d494fdecfc70d04e5c2b7b0ee9f9400a0ccc89583599a27f3",
    "gp1/summary.csv": "8f1ff1d7dffc63a97a94110b3e85b4b0ac15cab0143b2ce84e27fe048bcf655e",
    "gp1_chains/acceptance.csv": "66e5e117b03df4d32bfc6617c6a7f52f5c3b471acaf4bb56515261e77acfd87b",
    "gp1_chains/draws_000.bin": "d26489461f0f803ad8601aebbca400a17a4100e512a16be7bdca8534754019de",
    "gp1_chains/draws_001.bin": "4e07de4b4667bcdd1cc9001afd822452b0ec0630b25d090cea9316ee530a51af",
    "gp1_chains/read/surface.csv": "0f09360f71e8a46b9975ef2b19ed9bbbd110d8ddcf33bebef2e0b1abdeeec2d9",
    "gp1_chains/summary.csv": "ca05a895785f1f1838aba8906f12d911d0ba0d59d23238abe3ea45e90325fd06",
    "gp2/acceptance.csv": "7e4ea70a8412f256a52227241dd14f1f813df0965c19217ba5d11588f6924dd8",
    "gp2/draws.bin": "0bcb53e3ba1dbeda08bb6c73e2590199ab1c26583041f4e005ea8c4ae3088d7b",
    "gp2/read/detected.csv": "28cc33fe4bd2503087352b27c5a5f963c7d2e74d5a5ed8eda8ccc6f6abf3edab",
    "gp2/read/summary.csv": "0649052a79333add979d657ff702aaecf034e273d8588c254618f00ae2e42d60",
    "gp2/read/surface.csv": "fe38f151418fc8f010b29e9bc48794ec657a5f535730e1724ada829b7676ed63",
    "gp2/summary.csv": "0649052a79333add979d657ff702aaecf034e273d8588c254618f00ae2e42d60",
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
