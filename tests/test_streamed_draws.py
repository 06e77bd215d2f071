"""Draws streamed into their bundle as the chain runs, and summaries read
back from the file.

``fit`` hands each retained state to an ``io.DrawsWriter``, which writes it
into its slot of ``draws.bin``, and summarises from the files a block of
parameters at a time. The file must be the one ``persist_draws`` writes for
the same chain held in memory, a failed chain must leave nothing behind, and
the fit's memory must not grow with its retained draws. The writer returns
the draws it wrote, and every reader gives the same bits from draws held in
memory, returned by the writer, opened or loaded from the file.
"""

import csv
import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from factorint import (
    ConfigError,
    CorruptFile,
    GpChain,
    McmcSettings,
    MultChain,
    detect_interactions,
    fit_spec,
    generate_saddle_dataset,
    gp_spec,
    join_draws,
    mult_spec,
    posterior_mean_effects,
    posterior_summary,
)
from factorint import genomics
from factorint import io as fio
from factorint.cli import main as cli_main
from factorint.genomics import interaction_probabilities
from factorint.model import run_chain


def saddle_data(seed: int, m: int = 20, n: int = 15):
    data, truth = generate_saddle_dataset(m, n, frac_affected=0.3, seed=seed)
    groups = {k: frozenset(int(i) for i in v) for k, v in truth.seed_groups.items()}
    return data, groups


FITS = {
    "mult1": (mult_spec(1), 1, 0),
    "mult2": (mult_spec(2), 1, 0),
    "gp1": (gp_spec(1), 1, 0),
    "gp2_shared_effect": (gp_spec(2), 1, 0),
    "gp1_thin2": (gp_spec(1), 2, 0),
    "mult1_chain1": (mult_spec(1), 1, 1),
    "gp1_chain1": (gp_spec(1), 1, 1),
}


@pytest.mark.parametrize("spec, thin, chain", FITS.values(), ids=FITS)
def test_streamed_bundle_is_the_persisted_bundle(tmp_path, spec, thin, chain):
    data, groups = saddle_data(3)
    spec = replace(spec, seed_groups=groups)
    settings = McmcSettings(n_iters=40, burn_in=20, thin=thin, seed=3, n_chains=2)
    fio.persist_draws(fit_spec(spec, data, settings, chain), tmp_path / "held.bin")
    with fio.DrawsWriter(tmp_path / "streamed.bin") as writer:
        written = fit_spec(spec, data, settings, chain, writer)
    assert (tmp_path / "streamed.bin").read_bytes() == (tmp_path / "held.bin").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["held.bin", "streamed.bin"]
    assert_same_draws(written, fio.open_draws(tmp_path / "streamed.bin"))


DRAWS_META = ("spec", "burn_in", "thin", "n_iters", "seed", "chain", "feature_ids",
              "sample_ids", "rw_step_final")


def assert_same_draws(got, expected):
    """Same fields, dtypes and values, the same meta and acceptance ledger."""
    assert list(got.values) == list(expected.values)
    for name in got.values:
        a, b = got.stack(name), expected.stack(name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert [getattr(got, key) for key in DRAWS_META] \
        == [getattr(expected, key) for key in DRAWS_META]
    assert np.array_equal(got.mh_accept_counts, expected.mh_accept_counts)


READER_SPECS = {"mult1": mult_spec(1), "mult2": mult_spec(2), "gp1": gp_spec(1),
                "gp2": gp_spec(2)}


@pytest.mark.parametrize("rows_per_block", [None, 3])
@pytest.mark.parametrize("spec", READER_SPECS.values(), ids=READER_SPECS)
def test_every_reader_gives_the_same_answer(tmp_path, monkeypatch, spec, rows_per_block):
    data, groups = saddle_data(11)
    spec = replace(spec, seed_groups=groups)
    settings = McmcSettings(n_iters=50, burn_in=20, seed=11)
    path = tmp_path / "draws.bin"
    with fio.DrawsWriter(path) as writer:
        written = fit_spec(spec, data, settings, 0, writer)
    held = fit_spec(spec, data, settings)

    def blocks(params: int) -> None:
        """Blocks of ``rows_per_block`` runs of ``params`` parameters."""
        if rows_per_block is not None:
            monkeypatch.setattr(genomics, "_SUMMARY_BLOCK",
                                rows_per_block * params * 8 * len(held))

    def answers(draws):
        blocks(1)  # 3 parameters in the summary
        rows = [repr(row) for row in posterior_summary(draws).rows]
        blocks(data.n_samples)  # 3 feature rows in the mean effects
        return (detect_interactions(draws, 0.3), interaction_probabilities(draws).tobytes(),
                posterior_mean_effects(draws).tobytes(), rows)

    expected = answers(held)
    for name, draws in (("written", written), ("opened", fio.open_draws(path)),
                        ("loaded", fio.load_draws(path))):
        assert answers(draws) == expected, name


@pytest.mark.parametrize("chains", [1, 2])
def test_fit_never_reopens_its_own_files(tmp_path, monkeypatch, chains):
    data, _ = saddle_data(12, m=12, n=10)
    fio.write_data_csv(tmp_path / "data.csv", data)
    out = tmp_path / "fit"

    def refuse(path):
        raise AssertionError(f"{path} reopened")

    monkeypatch.setattr(fio, "_open_bundle", refuse)
    assert cli_main(["fit", "--output-dir", str(out), "--seed", "3",
                     "--set", f"paths.data={tmp_path / 'data.csv'}", *GP_FIT_ARGS,
                     "--set", f"mcmc.chains={chains}"]) == 0
    monkeypatch.undo()
    assert fio.verify_manifest(out)
    if chains == 1:
        assert cli_main(["summarize", "--output-dir", str(tmp_path / "sum"),
                         "--set", f"paths.draws={out / 'draws.bin'}"]) == 0
        assert (tmp_path / "sum" / "summary.csv").read_bytes() \
            == (out / "summary.csv").read_bytes()


@pytest.mark.parametrize("chains", [1, 2])
def test_each_draws_file_is_hashed_once_per_command(tmp_path, monkeypatch, chains):
    # the digest a writer appends, or open_draws checks, gives the whole
    # file's sha256 for the manifest
    data, _ = saddle_data(12, m=12, n=10)
    fio.write_data_csv(tmp_path / "data.csv", data)
    out = tmp_path / "fit"
    passes: dict[str, int] = {}
    hash_pass = fio._sha256

    def counted(fh, nbytes=None):
        name = Path(fh.name).name
        passes[name] = passes.get(name, 0) + 1
        return hash_pass(fh, nbytes)

    monkeypatch.setattr(fio, "_sha256", counted)
    assert cli_main(["fit", "--output-dir", str(out), "--seed", "3",
                     "--set", f"paths.data={tmp_path / 'data.csv'}", *GP_FIT_ARGS,
                     "--set", f"mcmc.chains={chains}"]) == 0
    names = ["draws.bin"] if chains == 1 else ["draws_000.bin", "draws_001.bin"]
    # the writer hashes its file under a temporary name
    assert {name: sum(n for key, n in passes.items() if key.startswith(f".{name}."))
            + passes.get(name, 0) for name in names} == dict.fromkeys(names, 1)
    # each file read alone, then the chains' files pooled in one read
    readings = [[name] for name in names] + ([names] if chains > 1 else [])
    for k, reading in enumerate(readings):
        passes.clear()
        assert cli_main(["detect", "--output-dir", str(tmp_path / f"detect_{k}"), "--set",
                         "paths.draws=" + ",".join(str(out / name) for name in reading)]) == 0
        assert passes == {**dict.fromkeys(reading, 1), "detected.csv": 1}
    monkeypatch.undo()
    assert fio.verify_manifest(out)
    for k, reading in enumerate(readings):
        assert fio.verify_manifest(tmp_path / f"detect_{k}")
        manifest = json.loads((tmp_path / f"detect_{k}" / "manifest.json").read_text())
        assert [entry["sha256"] for entry in manifest["inputs"]] == [
            hashlib.sha256((out / name).read_bytes()).hexdigest() for name in reading]


def test_a_truth_bundle_is_hashed_once_per_command(tmp_path, monkeypatch):
    # simulate takes the sha256 from the digest it writes, compare from the
    # digest it checks on reading
    passes: dict[str, int] = {}
    hash_pass = fio._sha256

    def counted(fh, nbytes=None):
        name = Path(fh.name).name
        passes[name] = passes.get(name, 0) + 1
        return hash_pass(fh, nbytes)

    monkeypatch.setattr(fio, "_sha256", counted)
    sim, out = tmp_path / "sim", tmp_path / "cmp"
    assert cli_main(["simulate", "--output-dir", str(sim), "--seed", "2",
                     "--set", "simulate.features=20", "--set", "simulate.samples=10"]) == 0
    assert passes.get("truth.bin", 0) == 0
    spec = tmp_path / "mult2.cfg"
    spec.write_text("model.family = mult_approach2\n")
    assert cli_main(["compare", "--output-dir", str(out), "--seed", "2",
                     "--set", f"paths.data={sim / 'data.csv'}",
                     "--set", f"paths.truth={sim / 'truth.bin'}",
                     "--set", f"compare.specs={spec}",
                     "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10"]) == 0
    assert passes["truth.bin"] == 1
    monkeypatch.undo()
    for run in (sim, out):
        assert fio.verify_manifest(run)
        manifest = json.loads((run / "manifest.json").read_text())
        for entry in manifest["artifacts"]:
            assert entry["sha256"] == sha256_of(run / entry["path"])
        for entry in manifest["inputs"]:
            assert entry["sha256"] == sha256_of(Path(entry["path"]))
    assert str(sim / "truth.bin") in [e["path"] for e in manifest["inputs"]]


@pytest.mark.parametrize("buffering", [-1, 0], ids=["buffered", "unbuffered"])
def test_hashing_holds_one_chunk(tmp_path, buffering):
    # sha256_file and open_draws hash a buffered file, DrawsWriter its
    # unbuffered FileIO; either way one chunk is held at a time
    path = tmp_path / "blob.bin"
    path.write_bytes(np.random.default_rng(0).bytes(4 * fio._HASH_CHUNK + 12345))
    expected = hashlib.sha256(path.read_bytes())
    partial = hashlib.sha256(path.read_bytes()[:3 * fio._HASH_CHUNK + 7])
    with open(path, "rb", buffering=buffering) as fh:
        tracemalloc.start()
        try:
            whole = fio._sha256(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fh.seek(0)
        assert fio._sha256(fh, 3 * fio._HASH_CHUNK + 7).digest() == partial.digest()
    assert whole.digest() == expected.digest()
    assert peak < 1.25 * fio._HASH_CHUNK, peak


def test_detect_reads_only_the_interaction_indicators(tmp_path, monkeypatch):
    data, _ = saddle_data(13)
    path = tmp_path / "draws.bin"
    with fio.DrawsWriter(path) as writer:
        fit_spec(gp_spec(1), data, McmcSettings(n_iters=40, burn_in=10, seed=13), 0, writer)
    names = {field.offset: name for name, field in fio.open_draws(path).values.items()}
    read, whole, rows = [], fio.BundleField.read, fio.BundleField.read_rows

    def read_whole(self):
        read.append(names.get(self.offset, "mh_accept_counts"))
        return whole(self)

    def read_rows(self, part):
        read.append(names[self.offset])
        return rows(self, part)

    monkeypatch.setattr(fio.BundleField, "read", read_whole)
    monkeypatch.setattr(fio.BundleField, "read_rows", read_rows)
    assert cli_main(["detect", "--output-dir", str(tmp_path / "detect"),
                     "--set", f"paths.draws={path}"]) == 0
    assert read == ["mh_accept_counts", "inter_mask"]


def test_a_moved_step_fails_the_writer_and_leaves_no_file(tmp_path):
    data, _ = saddle_data(4)
    sampler = GpChain(gp_spec(1), data, McmcSettings(n_iters=30, burn_in=10, seed=4))
    path = tmp_path / "draws.bin"

    class MovingStep(fio.DrawsWriter):
        def put(self, k, sampler):
            super().put(k, sampler)
            sampler.rw_step *= 2

    with pytest.raises(RuntimeError, match="MH step moved"):
        with MovingStep(path) as writer:
            run_chain(sampler, writer)
    assert list(tmp_path.iterdir()) == []


GP_FIT_ARGS = ("--set", "model.family=gp", "--set", "model.gp_variant=1",
               "--set", "mcmc.iters=40", "--set", "mcmc.burn_in=10")


def test_failed_fit_leaves_the_earlier_draws(tmp_path, capsys, monkeypatch):
    data, _ = saddle_data(5, m=12, n=10)
    fio.write_data_csv(tmp_path / "data.csv", data)
    out = tmp_path / "out"
    args = ("fit", "--output-dir", str(out), "--seed", "2",
            "--set", f"paths.data={tmp_path / 'data.csv'}", *GP_FIT_ARGS)
    assert cli_main(list(args)) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    sweep, calls = GpChain.sweep, []

    def failing_sweep(self):
        calls.append(1)
        if len(calls) == 25:  # the 15th retained sweep of 30
            raise FloatingPointError("injected")
        sweep(self)

    monkeypatch.setattr(GpChain, "sweep", failing_sweep)
    assert cli_main([*args[:4], "3", *args[5:]]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "ERROR FloatingPointError: injected"]
    assert len(calls) == 25
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


def test_failed_chain_leaves_every_earlier_draws_file(tmp_path, capsys, monkeypatch):
    data, _ = saddle_data(5, m=12, n=10)
    fio.write_data_csv(tmp_path / "data.csv", data)
    out = tmp_path / "out"
    args = ["fit", "--output-dir", str(out), "--seed", "2", "--set", "mcmc.chains=2",
            "--set", f"paths.data={tmp_path / 'data.csv'}", *GP_FIT_ARGS]
    assert cli_main(args) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"draws_000.bin", "draws_001.bin"} <= set(earlier)
    capsys.readouterr()

    sweep = GpChain.sweep

    def failing_sweep(self):
        if self.streams.chain == 1 and self.iteration == 20:
            raise FloatingPointError("injected")
        sweep(self)

    monkeypatch.setattr(GpChain, "sweep", failing_sweep)
    args[4] = "3"  # another seed, so that chain 0 writes other bytes
    assert cli_main(args) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "ERROR FloatingPointError: injected"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
    assert fio.verify_manifest(out)


@pytest.mark.parametrize("spec", READER_SPECS.values(), ids=READER_SPECS)
def test_mean_effect_rows_are_rows_of_the_whole_mean(tmp_path, monkeypatch, spec):
    data, groups = saddle_data(14)
    settings = McmcSettings(n_iters=40, burn_in=20, seed=14)
    spec = replace(spec, seed_groups=groups)
    path = tmp_path / "draws.bin"
    with fio.DrawsWriter(path) as writer:
        fit_spec(spec, data, settings, 0, writer)
    held = fit_spec(spec, data, settings)
    whole = posterior_mean_effects(held)
    m = data.n_features
    for rows_per_block in (None, 3):
        if rows_per_block is not None:
            monkeypatch.setattr(genomics, "_SUMMARY_BLOCK",
                                rows_per_block * data.n_samples * 8 * len(held))
        for name, draws in (("held", held), ("opened", fio.open_draws(path))):
            for f in range(m):
                row = posterior_mean_effects(draws, slice(f, f + 1))
                assert row.shape == (1, data.n_samples)
                assert row[0].tobytes() == whole[f].tobytes(), (name, f)
            part = posterior_mean_effects(draws, slice(2, m - 1))
            assert part.tobytes() == whole[2:m - 1].tobytes(), name


@pytest.mark.parametrize("spec", READER_SPECS.values(), ids=READER_SPECS)
def test_one_slice_rule_for_every_field_and_family(tmp_path, spec):
    # every reader refuses a slice whose step is not 1, and reads an empty
    # slice as 0 rows, from memory, from a file and from a join of the two
    data, groups = saddle_data(15)
    settings = McmcSettings(n_iters=30, burn_in=10, seed=15)
    spec = replace(spec, seed_groups=groups)
    path = tmp_path / "draws.bin"
    with fio.DrawsWriter(path) as writer:
        fit_spec(spec, data, settings, 0, writer)
    held = fit_spec(spec, data, settings, 1)
    m, n = data.n_features, data.n_samples
    for name, draws in (("held", held), ("opened", fio.open_draws(path)),
                        ("joined", join_draws(fio.open_draws(path), held))):
        for field in draws.values:
            with pytest.raises(ConfigError, match="step 1"):
                draws.traces(field, slice(0, 10, 2))
            for empty in (slice(3, 3), slice(5, 2)):
                assert draws.traces(field, empty).shape == (len(draws), 0), (name, field)
        for stepped in (slice(0, 10, 2), slice(None, None, -1)):
            with pytest.raises(ConfigError, match="step 1"):
                posterior_mean_effects(draws, stepped)
        for empty in (slice(4, 4), slice(5, 2), slice(m, None)):
            assert posterior_mean_effects(draws, empty).shape == (0, n), (name, empty)


@pytest.mark.parametrize("read", [fio.load_draws, fio.open_draws],
                         ids=["load_draws", "open_draws"])
@pytest.mark.parametrize("cut", [32, 1, 100])
def test_bundle_cut_before_its_digest_is_corrupt(tmp_path, read, cut):
    data, _ = saddle_data(6)
    path = tmp_path / "draws.bin"
    with fio.DrawsWriter(path) as writer:
        fit_spec(mult_spec(2), data, McmcSettings(n_iters=30, burn_in=10, seed=6), 0, writer)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CorruptFile):
        read(path)


def test_summary_rows_are_views_in_file_order(tmp_path):
    data, groups = saddle_data(7)
    draws = fit_spec(gp_spec(1, seed_groups=groups), data,
                     McmcSettings(n_iters=40, burn_in=10, seed=7))
    summary = posterior_summary(draws)
    rows = summary.rows
    summary.write_csv(tmp_path / "summary.csv")
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        names = [row[0] for row in csv.reader(fh)][1:]
    assert [r.name for r in rows] == names
    assert rows[-1] == rows[len(rows) - 1] == summary.by_name()[names[-1]]
    assert rows[3:5] == (rows[3], rows[4])
    with pytest.raises(IndexError):
        rows[len(rows)]


def test_fit_memory_does_not_grow_with_its_draws(tmp_path):
    data, _ = saddle_data(8, m=400, n=40)
    fio.write_data_csv(tmp_path / "data.csv", data)
    out = tmp_path / "out"
    args = ["fit", "--output-dir", str(out), "--seed", "1",
            "--set", f"paths.data={tmp_path / 'data.csv'}", "--set", "model.family=gp",
            "--set", "mcmc.burn_in=0"]
    # a short fit first, so that the modules a gp fit imports on first use
    # are not counted
    assert cli_main([*args, "--set", "mcmc.iters=30"]) == 0
    tracemalloc.start()
    try:
        code = cli_main([*args, "--set", "mcmc.iters=140"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    draws = fio.load_draws(out / "draws.bin")
    held = sum(arr.nbytes for arr in draws.values.values())
    assert held >= 16_000_000
    assert peak < held / 4, f"peak {peak / 1e6:.1f} MB for {held / 1e6:.1f} MB of draws"


@pytest.mark.parametrize("sampler, spec", [(MultChain, mult_spec(2)), (GpChain, gp_spec(1))],
                         ids=["MultChain", "GpChain"])
def test_negative_chain_index_is_a_config_error(sampler, spec):
    data, _ = saddle_data(9)
    with pytest.raises(ConfigError, match=r"^chain must be >= 0, got -1$"):
        sampler(spec, data, McmcSettings(), chain=-1)


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_records_every_input_file(tmp_path):
    data, _ = saddle_data(10, m=12, n=10)
    fio.write_data_csv(tmp_path / "data.csv", data)
    (tmp_path / "run.cfg").write_text("mcmc.iters = 30\nmcmc.burn_in = 10\n")
    out = tmp_path / "fit"
    assert cli_main(["fit", "--output-dir", str(out), "--config", str(tmp_path / "run.cfg"),
                     "--set", f"paths.data={tmp_path / 'data.csv'}"]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs == [{"path": str(tmp_path / name), "sha256": sha256_of(tmp_path / name),
                       "bytes": (tmp_path / name).stat().st_size}
                      for name in ("run.cfg", "data.csv")]
    assert fio.verify_manifest(out)

    # an edit to the data after the fit shows against the recorded hash
    recorded = inputs[1]["sha256"]
    with open(tmp_path / "data.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert fio.sha256_file(tmp_path / "data.csv") != recorded

    assert cli_main(["summarize", "--output-dir", str(tmp_path / "sum"),
                     "--set", f"paths.draws={out / 'draws.bin'}"]) == 0
    inputs = json.loads((tmp_path / "sum" / "manifest.json").read_text())["inputs"]
    assert inputs == [{"path": str(out / "draws.bin"), "sha256": sha256_of(out / "draws.bin"),
                       "bytes": (out / "draws.bin").stat().st_size}]


def test_compare_manifest_records_its_spec_files(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--output-dir", str(sim), "--seed", "2",
                     "--set", "simulate.features=20", "--set", "simulate.samples=10"]) == 0
    spec = tmp_path / "mult2.cfg"
    spec.write_text("model.family = mult_approach2\n")
    other = tmp_path / "mult1.cfg"
    other.write_text("model.family = mult_approach1\n")
    out = tmp_path / "cmp"
    assert cli_main(["compare", "--output-dir", str(out), "--seed", "2",
                     "--set", f"paths.data={sim / 'data.csv'}",
                     "--set", f"paths.truth={sim / 'truth.bin'}",
                     "--set", f"compare.specs={spec},{other}",
                     "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10"]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert [(e["path"], e["sha256"]) for e in inputs] == [
        (str(p), sha256_of(p)) for p in (spec, other, sim / "truth.bin", sim / "data.csv")]
