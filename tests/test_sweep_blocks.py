"""The sweep is one table of named blocks, and every fit reports its profile.

``Chain.blocks()`` lists a sweep's blocks in order and ``Chain.sweep`` runs
them, adding each block's time to ``block_seconds``. ``fit`` writes each
chain's ``Chain.profile`` into ``manifest.json`` under ``run.chains``. The
benchmark's tracer replaces update functions by name, so every block calls
its update by name when it runs.
"""

import csv
import json
import sys

import pytest

from factorint import (
    GpChain,
    McmcSettings,
    MultChain,
    generate_saddle_dataset,
    gp_spec,
    mult_spec,
)
from factorint import gp, io as fio, mult
from factorint.cli import main as cli_main
from factorint.model import run_chain

MULT_BLOCKS = {1: ["loadings", "scores", "inter_scores", "inter_loadings", "noise", "probs"],
               2: ["loadings", "scores", "inter_loadings", "noise", "probs"]}
GP_BLOCKS = ["loadings", "score_columns", "step", "effect_rows", "noise", "probs"]
GP_COUNTS = ["kernel_builds", "jitter_escalations", "proposed_moves", "accepted_moves",
             "active_rows"]


def small_data(m: int = 12, n: int = 10):
    return generate_saddle_dataset(m, n, frac_affected=0.3, seed=5)[0]


def make_chain(spec):
    return (MultChain if spec.is_mult else GpChain)(spec, small_data(), McmcSettings(seed=3))


@pytest.mark.parametrize("spec, names", [
    (mult_spec(1), MULT_BLOCKS[1]), (mult_spec(2), MULT_BLOCKS[2]),
    *((gp_spec(v), GP_BLOCKS) for v in range(1, 6))],
    ids=["mult1", "mult2", *(f"gp{v}" for v in range(1, 6))])
def test_blocks_are_named_in_sweep_order(spec, names):
    chain = make_chain(spec)
    assert list(chain.blocks()) == names
    assert list(chain.block_seconds) == names
    for _ in range(3):
        chain.sweep()
    assert chain.iteration == 3
    assert all(seconds > 0 for seconds in chain.block_seconds.values())


@pytest.mark.parametrize("variant", [1, 2])
def test_gp_counts_cover_every_sweep(variant):
    settings = McmcSettings(n_iters=12, burn_in=5, seed=4)
    chain = GpChain(gp_spec(variant), small_data(), settings)
    active = 0
    kernel = chain.kernel
    builds = 1
    for _ in range(settings.n_iters):
        chain.sweep()
        active += int(chain.state.inter_mask.sum())
        builds += chain.kernel is not kernel
        kernel = chain.kernel
    counts = chain.profile()["counts"]
    assert list(counts) == GP_COUNTS
    assert counts["proposed_moves"] == 10 * settings.n_iters
    assert counts["accepted_moves"] >= chain.accept_counts[:, 0].sum()
    assert counts["active_rows"] == active
    assert counts["kernel_builds"] == builds
    assert 0 <= counts["jitter_escalations"] <= builds


def test_profile_rides_with_the_draws_but_not_the_bundle(tmp_path):
    chain = GpChain(gp_spec(1), small_data(), McmcSettings(n_iters=20, burn_in=10, seed=2))
    draws = run_chain(chain)
    profile = draws.profile
    assert profile["chain"] == 0 and profile["sweeps"] == 20
    assert [name for name, _ in profile["block_s"]] == GP_BLOCKS
    fio.persist_draws(draws, tmp_path / "draws.bin")
    assert fio.load_draws(tmp_path / "draws.bin").profile is None


# the update functions and methods the benchmark's tracer wraps by name
TRACED = ((mult, "update_loadings"), (mult, "update_scores"), (mult, "update_inter_loadings"),
          (mult, "update_noise"), (mult, "sample_inclusion_probs"), (gp, "update_effect_rows"),
          (gp, "update_shared_effect"), (GpChain, "update_score_columns"))


def counted_calls(monkeypatch) -> dict[str, int]:
    """Wrap every ``TRACED`` target as the tracer does: a function under
    every name a package module holds it by, a method on its class."""
    calls = dict.fromkeys((name for _, name in TRACED), 0)
    modules = [module for name, module in sys.modules.items()
               if name == "factorint" or name.startswith("factorint.")]

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for home, name in TRACED:
        original = getattr(home, name)
        wrapped = counting(name, original)
        if isinstance(home, type):
            monkeypatch.setattr(home, name, wrapped)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapped)
    return calls


@pytest.mark.parametrize("spec", [mult_spec(1), mult_spec(2),
                                  *(gp_spec(v) for v in range(1, 6))],
                         ids=["mult1", "mult2", *(f"gp{v}" for v in range(1, 6))])
def test_each_traced_update_runs_once_per_sweep(spec, monkeypatch):
    chain = make_chain(spec)  # built first: no block may keep an update it looked up then
    calls = counted_calls(monkeypatch)
    sweeps = 4
    for _ in range(sweeps):
        chain.sweep()
    ran = {"update_loadings", "update_noise", "sample_inclusion_probs"}
    if spec.is_mult:
        ran |= {"update_scores", "update_inter_loadings"}
    else:
        ran |= {"update_score_columns",
                "update_shared_effect" if spec.shared_effect else "update_effect_rows"}
    # the inclusion probabilities are drawn once per prior block: loadings, interactions
    expected = {name: sweeps * (name in ran) * (2 if name == "sample_inclusion_probs" else 1)
                for _, name in TRACED}
    assert calls == expected


def fit_manifest(tmp_path, family: str, *extra: str) -> dict:
    fio.write_data_csv(tmp_path / "data.csv", small_data())
    out = tmp_path / "out"
    args = ["fit", "--output-dir", str(out), "--seed", "6",
            "--set", f"paths.data={tmp_path / 'data.csv'}", "--set", "mcmc.iters=30",
            "--set", f"model.family={family}", *extra]
    assert cli_main(args) == 0
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("family, extra, names", [
    ("mult_approach1", (), MULT_BLOCKS[1]),
    ("mult_approach2", (), MULT_BLOCKS[2]),
    ("gp", ("--set", "model.gp_variant=1"), GP_BLOCKS),
    ("gp", ("--set", "model.gp_variant=2"), GP_BLOCKS),
], ids=["mult1", "mult2", "gp1", "gp2"])
def test_fit_manifest_profiles_its_chain(tmp_path, family, extra, names):
    manifest = fit_manifest(tmp_path, family, "--set", "mcmc.burn_in=0", *extra)
    (entry,) = manifest["run"]["chains"]
    assert entry["chain"] == 0 and entry["sweeps"] == 30
    assert [name for name, _ in entry["block_s"]] == names
    assert all(seconds >= 0 for _, seconds in entry["block_s"])
    if family != "gp":
        assert entry["counts"] == {}
        return
    assert sorted(entry["counts"]) == sorted(GP_COUNTS)
    assert entry["counts"]["proposed_moves"] == 10 * 30
    with open(tmp_path / "out" / "acceptance.csv", newline="", encoding="utf-8") as fh:
        accepted = sum(int(row["accepted"]) for row in csv.DictReader(fh))
    assert entry["counts"]["accepted_moves"] == accepted


def test_two_chain_fit_lists_both_chains(tmp_path):
    manifest = fit_manifest(tmp_path, "gp", "--set", "mcmc.chains=2", "--set", "mcmc.burn_in=10")
    chains = manifest["run"]["chains"]
    assert [entry["chain"] for entry in chains] == [0, 1]
    assert all(entry["sweeps"] == 30 for entry in chains)


def test_read_command_after_a_fit_writes_no_chain_profile(tmp_path):
    fit_manifest(tmp_path, "mult_approach2", "--set", "mcmc.burn_in=10")
    out = tmp_path / "read"
    assert cli_main(["summarize", "--output-dir", str(out),
                     "--set", f"paths.draws={tmp_path / 'out' / 'draws.bin'}"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert "chains" not in manifest["run"]
