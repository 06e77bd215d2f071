"""Pinned draws of short fits, one per sampler configuration.

A refactor of the samplers must leave every draw unchanged for a fixed seed.
Each fit below runs in one subprocess with one BLAS thread, and its retained
arrays and Metropolis acceptance ledger are reduced to one sha256. A change
that alters draws on purpose updates these pins and says so.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import factorint

GOLDEN_SCRIPT = """
import hashlib, json
import numpy as np
from factorint import (InterProbModel, LoadProbModel, McmcSettings, generate_saddle_dataset,
                       gp_spec, mult_spec, two_factor_null_spec)
from factorint.simulate import fit_spec

data, truth = generate_saddle_dataset(40, 30, 0.2, seed=6)
groups = {k: frozenset(int(i) for i in v) for k, v in truth.seed_groups.items()}
grouped = dict(load_prob_model=LoadProbModel.GROUPED, inter_prob_model=InterProbModel.GROUPED)
specs = {
    "mult1": mult_spec(1, seed_groups=groups),
    "mult2": mult_spec(2, seed_groups=groups),
    "mult2_global": mult_spec(2, seed_groups=groups, inter_prob_model=InterProbModel.GLOBAL),
    "mult1_grouped": mult_spec(1, seed_groups=groups, **grouped),
    "two_factor_null": two_factor_null_spec(seed_groups=groups),
    **{f"gp{v}": gp_spec(v, seed_groups=groups) for v in range(1, 6)},
    "gp1_no_seed_groups": gp_spec(1),
}
settings = McmcSettings(n_iters=80, burn_in=40, seed=3)
out = {}
for name, spec in specs.items():
    draws = fit_spec(spec, data, settings)
    h = hashlib.sha256()
    arrays = sorted(draws.values.items())
    if draws.mh_accept_counts is not None:
        arrays.append(("mh_accept_counts", draws.mh_accept_counts))
    for key, arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{key}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())
    out[name] = h.hexdigest()
print(json.dumps(out))
"""

PINNED = {
    "mult1": "2312196c457594b7c13972fda79de35815dc6ea78d49db3f537562f2ff65d032",
    "mult2": "b6fae541ba3480fb0eef9328a8d71176c45346a55c2c1486fcd9dd590acc0c5f",
    "mult2_global": "41c818d4d4662c2136852bccd2a014654f8048952db91297be8c342e8a53ebee",
    "mult1_grouped": "6d8088cc9c986505586f66e0917d885a44ee9afe5746a47ff1f9a928003eb700",
    "two_factor_null": "3421633b51de61903fb68cabfbe67130047fbe5127d280f66bcf3d61c471a57a",
    "gp1": "c6cca7f354341094d5541e68d397d88972cbf3738e9002f4ffea0650ca5cbaef",
    "gp2": "b3c6abeed745ad51e71b846d9198f8fcd797d297c5c397fd05f2b4a2609352b3",
    "gp3": "7251faab21e33dd6426a0773808649c01719cdde1a7d2d97ce5b07dfe7eaf135",
    "gp4": "cf5bfed5a572b7e8becbaf40fd78ecb70d810b0c4a92fbc471557a06dd20e5bd",
    "gp5": "2faeeb237d48a785edc251779a653927435d956f458b99c9d2cd10fdf8a14577",
    "gp1_no_seed_groups": "99cd9c7abae091b0aa8087eaff21e52df2f33c741afc701c3d48e04e28eeb9d7",
}


def test_short_fits_reproduce_pinned_draws():
    src = Path(factorint.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", GOLDEN_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    hashes = json.loads(done.stdout.strip().splitlines()[-1])
    assert hashes == PINNED
