"""Pinned draws of short fits, one per sampler configuration.

A refactor of the samplers must leave every draw unchanged for a fixed seed.
Each fit below runs in one subprocess with one BLAS thread, and its retained
arrays and Metropolis acceptance ledger are reduced to one sha256. A change
that alters draws on purpose updates these pins and says so. The gp fits at
n = 100 are the benchmark's size, where a score-column decision that a
faster GP term flips would show first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import factorint

HASH_FITS = """
import hashlib, json
import numpy as np
from factorint.simulate import fit_spec

def hash_fits(specs, data, settings):
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
    return out
"""

GOLDEN_SCRIPT = HASH_FITS + """
from factorint import (InterProbModel, LoadProbModel, McmcSettings, generate_saddle_dataset,
                       gp_spec, mult_spec, two_factor_null_spec)

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
print(json.dumps(hash_fits(specs, data, McmcSettings(n_iters=80, burn_in=40, seed=3))))
"""

# gp_saddle's data and chain seeds and prior, cut to 40 iterations; ls = 0.5
# couples the columns more, and variant 2 puts one shared row under the prior
GP100_SCRIPT = HASH_FITS + """
from factorint import BetaTable, McmcSettings, generate_saddle_dataset, gp_spec

data, truth = generate_saddle_dataset(100, 100, 0.1, seed=7)
groups = {k: frozenset(int(i) for i in v) for k, v in truth.seed_groups.items()}
beta = BetaTable(default=(1.0, 10.0))
specs = {
    "gp1_ls0.2": gp_spec(1, seed_groups=groups, inter_prob_prior=beta),
    "gp1_ls0.5": gp_spec(1, length_scale=0.5, seed_groups=groups, inter_prob_prior=beta),
    "gp2_ls0.2": gp_spec(2, seed_groups=groups, inter_prob_prior=beta),
}
print(json.dumps(hash_fits(specs, data, McmcSettings(n_iters=40, burn_in=20, seed=8))))
"""

# Non-flat Beta priors on the inclusion probabilities: group (and one entry)
# overrides under the per-entry loading and per-feature interaction models
# with the seed constraints off, so every entry is free and its pair comes
# from its own group; and the grouped models with a distinct pair per group
GROUP_PRIOR_SCRIPT = HASH_FITS + """
from factorint import (BetaTable, InterProbModel, LoadProbModel, McmcSettings,
                       generate_saddle_dataset, gp_spec, mult_spec)

data, truth = generate_saddle_dataset(40, 30, 0.2, seed=6)
groups = {k: frozenset(int(i) for i in v) for k, v in truth.seed_groups.items()}
gamma = BetaTable(default=(1.0, 1.0),
                  groups={"expected": (9.0, 1.0), "excluded": (1.0, 9.0), "unknown": (2.0, 5.0)})
beta = BetaTable(default=(1.0, 10.0), groups={"seed": (1.0, 30.0), "unknown": (2.0, 6.0)})
free = dict(seed_groups=groups, seed_constraints=False)
per_entry = dict(free, load_prob_prior=BetaTable(default=gamma.default, groups=gamma.groups,
                                                 entries={(3, 1): (4.0, 4.0)}),
                 inter_prob_prior=BetaTable(default=beta.default, groups=beta.groups,
                                            entries={(5, 0): (3.0, 2.0)}))
grouped = dict(seed_groups=groups, load_prob_model=LoadProbModel.GROUPED,
               inter_prob_model=InterProbModel.GROUPED, load_prob_prior=gamma,
               inter_prob_prior=beta)
specs = {
    "mult2_per_feature_groups": mult_spec(2, **per_entry),
    "gp1_per_feature_groups": gp_spec(1, **free, load_prob_prior=gamma, inter_prob_prior=beta),
    "mult2_grouped_pairs": mult_spec(2, **grouped),
    "mult1_grouped_pairs_free": mult_spec(1, **grouped, seed_constraints=False),
    "gp5_grouped_pairs": gp_spec(5, **grouped),
}
print(json.dumps(hash_fits(specs, data, McmcSettings(n_iters=80, burn_in=40, seed=3))))
"""

PINNED = {
    "mult1": "2312196c457594b7c13972fda79de35815dc6ea78d49db3f537562f2ff65d032",
    "mult2": "b6fae541ba3480fb0eef9328a8d71176c45346a55c2c1486fcd9dd590acc0c5f",
    "mult2_global": "41c818d4d4662c2136852bccd2a014654f8048952db91297be8c342e8a53ebee",
    "mult1_grouped": "6d8088cc9c986505586f66e0917d885a44ee9afe5746a47ff1f9a928003eb700",
    "two_factor_null": "3421633b51de61903fb68cabfbe67130047fbe5127d280f66bcf3d61c471a57a",
    "gp1": "feba7504dc0bf5c36f1f81369b8f9059591b9a52e9cd3be6f43f6f0f9c3e9ed8",
    "gp2": "19b82eb1d1b897d3f78609c6dca796452e54910fdf80cec0a969865bd967b8b2",
    "gp3": "b9d19ce4d4e8b34a39bea95051f245e936b892f690b6c1f609e390d23cbf17e3",
    "gp4": "efaa6e2e9dfbfdfd526a2d4cb0b495c7890c94b81ee1cbd6631f5710d4ae0fcc",
    "gp5": "afa7c78d353305abec7936bfcb86da6dcb069b0951ceede0163a4b3c677a8efb",
    "gp1_no_seed_groups": "fdd69c404f04718dee096340ac5f310ec923055b284231ea67adf5412a4951b7",
}


PINNED_GP100 = {
    "gp1_ls0.2": "554bf4565c6899fbe4b9b02a6ac254b0ddb64a82b479f0c1afe0fe45e426d2cf",
    "gp1_ls0.5": "89bccb3be7cfeca74c8f105168720f4e8bf6a8f4fd0aa11746cf434237d295ea",
    "gp2_ls0.2": "32869dab966424b57a308de134dbbee8ab1945c5488a98056e9ab106a3c75198",
}

PINNED_GROUP_PRIORS = {
    "mult2_per_feature_groups": "20d0f3cb9f9766376b886a8f5b7a3ac0f5f47825a7e38249f419fb17f56b7d14",
    "gp1_per_feature_groups": "47a40caf7d13a6a6e3365987bfe1ef867deb420f11fcf060ac3f4bca10f63cc3",
    "mult2_grouped_pairs": "8a02c5a88fe8f9040af973717232025508362b2917f730d65e44a58ffce641f7",
    "mult1_grouped_pairs_free": "9fcd0b5548c6ba0bd8d7531b1f1b4b9676d1b9dfe4ff4940e19b78678cea3f50",
    "gp5_grouped_pairs": "59ed8183b1c26306ff1d383adbedb71bbb8554832ab0981dd3f1eb3f863cded6",
}


def run_hashes(script: str) -> dict[str, str]:
    src = Path(factorint.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_short_fits_reproduce_pinned_draws():
    assert run_hashes(GOLDEN_SCRIPT) == PINNED


def test_gp_fits_at_the_benchmark_size_reproduce_pinned_draws():
    assert run_hashes(GP100_SCRIPT) == PINNED_GP100


def test_fits_under_group_priors_reproduce_pinned_draws():
    assert run_hashes(GROUP_PRIOR_SCRIPT) == PINNED_GROUP_PRIORS
