"""Persistence formats, configuration parsing, and the command-line workflow."""

import ast
import csv
import errno
import hashlib
import json
import os
import platform
import re
import resource
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import factorint
from factorint import (
    Annotation,
    ConfigError,
    CorruptFile,
    DataMatrix,
    FactorIntError,
    FormatVersionMismatch,
    SpecConflict,
    detect_interactions,
    export_surface,
    generate_saddle_dataset,
    gp_spec,
    mult_spec,
    posterior_mean_effects,
    posterior_summary,
    run_gp_chain,
    run_mult_chain,
    standardize_rows,
)
from factorint import io as fio
from factorint import cli
from factorint.cli import main as cli_main
from factorint.genomics import MIN_STATES, posterior_mean_scores
from factorint.model import Family, McmcSettings, ModelSpec, PosteriorDraws, state_shapes
from factorint.prior import BetaTable, InterProbModel, build_layout
from tests_support import states


def small_data(seed=0, m=8, n=10):
    rng = np.random.default_rng(seed)
    return standardize_rows(rng.normal(size=(m, n)))


class TestDataCsv:
    def test_round_trip_exact(self, tmp_path):
        data = small_data()
        path = tmp_path / "data.csv"
        fio.write_data_csv(path, data)
        back = fio.read_data_csv(path)
        np.testing.assert_array_equal(back.values, data.values)
        assert back.feature_ids == data.feature_ids
        assert back.sample_ids == data.sample_ids

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_id,s1,s2\nf1,1.0\n")
        with pytest.raises(ConfigError):
            fio.read_data_csv(path)

    def test_cell_beyond_the_field_limit_names_its_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"feature_id,s1,s2\nf1,1,2\nf2,{'1' * 200_000},3\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: field larger than "
                                              r"field limit \(131072\)$"):
            fio.read_data_csv(path)

    def test_read_holds_about_the_matrix(self, tmp_path):
        # the cells are parsed a row at a time: the read's peak is the row
        # arrays, their stack and the DataMatrix copy, not the file's text
        # and a Python float per cell (about 16x the matrix)
        m, n = 400, 250
        data = DataMatrix(np.random.default_rng(3).normal(size=(m, n)),
                          tuple(f"f{i}" for i in range(m)), tuple(f"s{j}" for j in range(n)))
        path = tmp_path / "data.csv"
        fio.write_data_csv(path, data)
        tracemalloc.start()
        try:
            back = fio.read_data_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.values, data.values)
        assert peak < 4 * data.values.nbytes


class TestAnnotationCsv:
    def test_round_trip(self, tmp_path):
        ann = Annotation(("p1", "p2"), ("22", "16"), np.array([100, 200]))
        path = tmp_path / "ann.csv"
        fio.write_annotation(path, ann)
        back = fio.read_annotation(path)
        assert back.probe_ids == ann.probe_ids
        assert back.chromosomes == ann.chromosomes
        np.testing.assert_array_equal(back.positions, ann.positions)

    def test_header_required(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("probe,chrom,pos\np1,22,100\n")
        with pytest.raises(ConfigError):
            fio.read_annotation(path)

    def test_cell_beyond_the_field_limit_names_its_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(f"probe_id,chromosome,position\np1,{'1' * 200_000},12\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: field larger than "
                                              r"field limit \(131072\)$"):
            fio.read_annotation(path)

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_bytes("probe_id,chromosome,position\npé,1,5\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            fio.read_annotation(path)


BOM = "\ufeff".encode("utf-8")


class TestByteOrderMark:
    """Each text reader drops one leading UTF-8 byte-order mark, and still
    names a byte that is not UTF-8 by its offset in the file."""

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(BOM + b"simulate.features = 12\nmcmc.seed = 3\n")
        assert fio.read_config(path) == {"simulate.features": "12", "mcmc.seed": "3"}

    def test_data_csv(self, tmp_path):
        data = small_data()
        path = tmp_path / "data.csv"
        fio.write_data_csv(path, data)
        path.write_bytes(BOM + path.read_bytes())
        back = fio.read_data_csv(path)
        np.testing.assert_array_equal(back.values, data.values)
        assert (back.feature_ids, back.sample_ids) == (data.feature_ids, data.sample_ids)

    def test_annotation_csv(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_bytes(BOM + b"probe_id,chromosome,position\np1,22,100\n")
        back = fio.read_annotation(path)
        assert (back.probe_ids, back.chromosomes, back.positions.tolist()) == (("p1",), ("22",),
                                                                               [100])

    @pytest.mark.parametrize("reader, body", [
        (fio.read_config, "model.family = gp  # caf\u00e9\n"),
        (fio.read_annotation, "probe_id,chromosome,position\np\u00e9,1,5\n"),
    ])
    def test_bad_byte_is_named_at_its_offset_in_the_file(self, tmp_path, reader, body):
        path = tmp_path / "bad.txt"
        blob = BOM + body.encode("latin-1")
        path.write_bytes(blob)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text "
                                              rf"\(invalid continuation byte at byte "
                                              rf"{blob.index(0xE9)}\)$"):
            reader(path)


class TestBundleFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.bin"
        arrays = {"a": np.arange(12.0).reshape(3, 4), "b": np.array([1, 2, 3], dtype=np.int8)}
        fio.write_bundle(path, {"kind": "test", "note": 7}, arrays)
        meta, back = fio.read_bundle(path)
        assert meta == {"kind": "test", "note": 7}
        np.testing.assert_array_equal(back["a"], arrays["a"])
        np.testing.assert_array_equal(back["b"], arrays["b"])
        assert back["b"].dtype == np.int8

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        fio.write_bundle(path, {"kind": "test"}, {"a": np.ones(5)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CorruptFile):
            fio.read_bundle(path)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        fio.write_bundle(path, {"kind": "test"}, {"a": np.ones(5)})
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            fio.read_bundle(path)

    def test_version_bump_reports_both_versions(self, tmp_path):
        path = tmp_path / "x.bin"
        fio.write_bundle(path, {"kind": "test"}, {"a": np.ones(5)})
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(fio.MAGIC), 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch) as err:
            fio.read_bundle(path)
        assert err.value.found == 99
        assert err.value.expected == fio.FORMAT_VERSION

    @pytest.mark.parametrize("fault", ["object_dtype", "disk_full"])
    def test_failed_write_leaves_the_earlier_file(self, tmp_path, monkeypatch, fault):
        # the bundle is written under a temporary name and moved into place
        # only when complete, so a write that fails after its header leaves
        # the earlier file and no temporary file
        path = tmp_path / "x.bin"
        fio.write_bundle(path, {"kind": "test"}, {"a": np.ones(5)})
        earlier = path.read_bytes()
        arrays = {"a": np.arange(4.0), "b": np.array([1, "x"], dtype=object)}
        offsets = []
        if fault == "disk_full":
            arrays, pwrite = {"a": np.arange(4.0)}, os.pwrite

            def full(fd, data, offset):
                offsets.append(offset)
                if offset:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return pwrite(fd, data, offset)

            monkeypatch.setattr(os, "pwrite", full)
        with pytest.raises(TypeError if fault == "object_dtype" else OSError):
            fio.write_bundle(path, {"kind": "later"}, arrays)
        if fault == "disk_full":
            assert offsets[0] == 0 and len(offsets) == 2  # the header went in
        assert path.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMINE!" + b"\x00" * 64)
        with pytest.raises(CorruptFile):
            fio.read_bundle(path)


def sealed_bundle(header, payload: bytes = b"") -> bytes:
    """Bundle bytes with a valid checksum around any JSON header."""
    raw = json.dumps(header).encode("utf-8")
    body = fio.MAGIC + struct.pack("<I", fio.FORMAT_VERSION) + struct.pack("<Q", len(raw))
    body += raw + payload
    return body + hashlib.sha256(body).digest()


def ones_entry(**changes) -> dict:
    """Header entry of a five-element float64 array, with fields replaced."""
    return {"name": "a", "dtype": "<f8", "shape": [5], "offset": 0, "nbytes": 40, **changes}


MALFORMED_HEADERS = {
    "no_arrays": {"meta": {"kind": "test"}},
    "list_header": [{"kind": "test"}],
    "unknown_dtype": {"meta": {}, "arrays": [ones_entry(dtype="zz")]},
    # numpy reads a comma in a dtype string as Python source: SyntaxError
    "unparsable_dtype": {"meta": {}, "arrays": [ones_entry(dtype=",")]},
    "shape_against_nbytes": {"meta": {}, "arrays": [ones_entry(shape=[4])]},
    "negative_offset": {"meta": {}, "arrays": [ones_entry(offset=-40)]},
    "inferred_shape": {"meta": {}, "arrays": [ones_entry(shape=[-1])]},
    "object_dtype": {"meta": {}, "arrays": [ones_entry(dtype="|O")]},
    "entry_not_a_dict": {"meta": {}, "arrays": ["a"]},
    "offset_past_payload": {"meta": {}, "arrays": [ones_entry(offset=8)]},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12)

array_entries = st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=4) | json_values,
    "dtype": st.sampled_from(["<f8", "|i1", "|b1", "zz", "|O", "|S0", "(2,)<f8", "<U1",
                              "f8,i4"]) | st.text(max_size=6) | json_values,
    "shape": st.lists(st.integers(-2, 12), max_size=3) | json_values,
    "offset": st.integers(-48, 96) | json_values,
    "nbytes": st.integers(-8, 96) | json_values,
})

headers = json_values | st.fixed_dictionaries(
    {}, optional={"meta": st.dictionaries(st.text(max_size=4), json_values, max_size=3)
                  | json_values,
                  "arrays": st.lists(array_entries, max_size=3) | json_values})


def drop_features(meta, arrays) -> None:
    """Leave no feature in a draws bundle: no feature ids, and no row in the
    feature axis of each state field that has one."""
    meta["feature_ids"] = []
    for name in ("loadings", "load_mask", "load_prob", "noise_var", "inter_mask", "inter_prob",
                 "inter_loadings", "effects"):
        if name in arrays:
            arrays[name] = arrays[name][:, :0]


DRAWS_FAULTS = {
    "no_state_fields": lambda meta, arrays: meta.pop("state_fields"),
    "no_loadings": lambda meta, arrays: arrays.pop("loadings"),
    "short_scores": lambda meta, arrays: arrays.update(scores=arrays["scores"][:2]),
    "no_states": lambda meta, arrays: arrays.update({k: v[:0] for k, v in arrays.items()}),
    "no_burn_in": lambda meta, arrays: meta.pop("burn_in"),
    "unknown_family": lambda meta, arrays: meta["spec"].update(family="nope"),
    "short_feature_ids": lambda meta, arrays: meta.update(feature_ids=meta["feature_ids"][:2]),
    "repeated_feature_ids": lambda meta, arrays: meta.update(
        feature_ids=meta["feature_ids"][:1] * 2 + meta["feature_ids"][2:]),
    "text_thin": lambda meta, arrays: meta.update(thin="x"),
    "narrow_noise_var": lambda meta, arrays: arrays.update(noise_var=arrays["noise_var"][:, :2]),
    "spec_factor_count": lambda meta, arrays: meta["spec"].update(n_factors=3),
    # a factor count far beyond the data, whose pairs are counted, not listed
    "spec_huge_factor_count": lambda meta, arrays: meta["spec"].update(n_factors=10**6),
    # a count or an index that is not an integer is refused, not truncated
    "spec_fractional_factor_count": lambda meta, arrays: meta["spec"].update(n_factors=2.5),
    "spec_fractional_seed_feature": lambda meta, arrays: meta["spec"].update(
        seed_groups={"0": [1.7]}),
    "flat_loadings": lambda meta, arrays: arrays.update(
        loadings=arrays["loadings"].reshape(len(arrays["loadings"]), -1)),
    # a spec without one of its fields, and a spec with a key that is no field
    "spec_without_seed_constraints": lambda meta, arrays: meta["spec"].pop("seed_constraints"),
    "spec_unknown_key": lambda meta, arrays: meta["spec"].update(gp_lengthscale=0.2),
    # a Beta table without one of its fields, and one with a key that is no field
    "beta_table_without_groups": lambda meta, arrays: meta["spec"]["load_prob_prior"].pop(
        "groups"),
    "beta_table_unknown_key": lambda meta, arrays: meta["spec"]["load_prob_prior"].update(
        entrys={}),
    # a state field that is not of its STATE_DTYPES dtype
    "float_load_mask": lambda meta, arrays: arrays.update(
        load_mask=arrays["load_mask"].astype(np.float64)),
    "float_inter_mask": lambda meta, arrays: arrays.update(
        inter_mask=arrays["inter_mask"].astype(np.float64)),
    "float32_loadings": lambda meta, arrays: arrays.update(
        loadings=arrays["loadings"].astype(np.float32)),
    "int_scores": lambda meta, arrays: arrays.update(scores=arrays["scores"].astype(np.int64)),
    # fewer features than a DataMatrix holds
    "no_features": drop_features,
    # run settings no chain runs under, and header entries the writer does not write
    "negative_seed": lambda meta, arrays: meta.update(seed=-1),
    "negative_thin": lambda meta, arrays: meta.update(thin=-3),
    "nan_rw_step": lambda meta, arrays: meta.update(rw_step_final=float("nan")),
    "no_rw_step": lambda meta, arrays: meta.pop("rw_step_final"),
    "unknown_entry": lambda meta, arrays: meta.update(n_chains=1),
    # an acceptance ledger that is not one (accepted, proposed) pair per sample
    "flat_ledger": lambda meta, arrays: arrays.update(mh_accept_counts=np.zeros(3, np.int64)),
    "float_ledger": lambda meta, arrays: arrays.update(
        mh_accept_counts=np.zeros((len(meta["sample_ids"]), 2))),
}
# the faults of a file with a valid checksum that loaded before the reader
# checked state dtypes, run settings, header entries and the ledger
READER_FAULTS = ("float_load_mask", "float_inter_mask", "float32_loadings", "int_scores",
                 "negative_seed", "negative_thin", "nan_rw_step", "no_rw_step", "unknown_entry",
                 "flat_ledger", "float_ledger", "no_features")

DRAWS_META_KEYS = ("kind", "burn_in", "thin", "n_iters", "seed", "chain", "state_fields",
                   "feature_ids", "sample_ids", "rw_step_final", "spec",
                   *(f"spec.{key}" for key in fio.spec_to_dict(mult_spec(2))))


@pytest.fixture(scope="module")
def gp_draws(tmp_path_factory):
    """The draws file of a gp chain, with its MH step, its ledger and the 20
    states a summary needs."""
    path = tmp_path_factory.mktemp("gp") / "draws.bin"
    fio.persist_draws(run_gp_chain(gp_spec(1), small_data(2), n_iters=24, burn_in=4, seed=3),
                      path)
    return path


def break_draws(source, target, fault: str) -> None:
    """Write the draws bundle at ``source`` to ``target`` with one of
    DRAWS_FAULTS applied and a valid checksum."""
    meta, arrays = fio.read_bundle(source)
    DRAWS_FAULTS[fault](meta, arrays)
    fio.write_bundle(target, meta, arrays)


class TestMalformedBundles:
    """A bundle that is not what ``write_bundle`` wrote fails with a package
    error, whether or not its checksum holds."""

    @pytest.mark.parametrize("header", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "x.bin"
        path.write_bytes(sealed_bundle(header, np.ones(5).tobytes()))
        with pytest.raises(CorruptFile):
            fio.read_bundle(path)

    @pytest.mark.parametrize("fault", DRAWS_FAULTS)
    def test_draws_bundle_with_bad_state_rejected(self, tmp_path, fault):
        path = tmp_path / "draws.bin"
        fio.persist_draws(run_mult_chain(mult_spec(1), small_data(1), n_iters=6,
                                         burn_in=2, seed=3), path)
        break_draws(path, path, fault)
        with pytest.raises(CorruptFile):
            fio.load_draws(path)

    @pytest.mark.parametrize("fault", READER_FAULTS)
    def test_gp_draws_fault_fails_each_reader_and_command(self, gp_draws, tmp_path, capsys,
                                                          fault):
        # a gp file carries the float MH step and the ledger that a
        # multiplicative one leaves out
        path = tmp_path / "draws.bin"
        break_draws(gp_draws, path, fault)
        for read in (fio.open_draws, fio.load_draws):
            with pytest.raises(CorruptFile):
                read(path)
        for command in ("summarize", "detect"):
            assert run_cli(command, "--output-dir", str(tmp_path / command),
                           "--set", f"paths.draws={path}") == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith(f"ERROR CorruptFile: {path}: "), err

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from([*state_shapes(gp_spec(1), 8, 10), "mh_accept_counts"]),
           dtype=st.sampled_from([np.float32, np.float64, np.int8, np.int64, np.bool_,
                                  np.complex128]))
    def test_random_draws_dtype_raises_only_package_errors(self, gp_draws, tmp_path, name,
                                                           dtype):
        meta, arrays = fio.read_bundle(gp_draws)
        with np.errstate(all="ignore"):
            arrays[name] = arrays[name].astype(dtype)
        path = tmp_path / "draws.bin"
        fio.write_bundle(path, meta, arrays)
        try:
            draws = fio.load_draws(path)
        except FactorIntError:
            return
        for reduce in (posterior_summary, detect_interactions):
            try:
                reduce(draws)
            except FactorIntError:
                pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(DRAWS_META_KEYS), remove=st.booleans(), value=json_values)
    def test_random_draws_meta_raises_only_package_errors(self, fitted, tmp_path, key,
                                                          remove, value):
        meta, arrays = fio.read_bundle(fitted / "draws.bin")
        *parents, leaf = key.split(".")
        entries = meta
        for parent in parents:
            entries = entries[parent]
        if remove:
            del entries[leaf]
        else:
            entries[leaf] = value
        path = tmp_path / "draws.bin"
        fio.write_bundle(path, meta, arrays)
        try:
            posterior_summary(fio.load_draws(path))
        except FactorIntError:
            pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=headers, payload=st.binary(max_size=96))
    def test_random_sealed_headers_raise_only_package_errors(self, tmp_path, header, payload):
        path = tmp_path / "x.bin"
        path.write_bytes(sealed_bundle(header, payload))
        try:
            fio.read_bundle(path)
        except FactorIntError:
            pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                          min_size=1, max_size=4),
           reseal=st.booleans())
    def test_byte_flips_raise_only_package_errors(self, tmp_path, flips, reseal):
        path = tmp_path / "x.bin"
        fio.write_bundle(path, {"kind": "test"},
                         {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2], np.int8)})
        blob = bytearray(path.read_bytes())
        body_len = len(blob) - 32 if reseal else len(blob)
        for position, mask in flips:
            blob[position % body_len] ^= mask
        if reseal:
            blob[-32:] = hashlib.sha256(bytes(blob[:-32])).digest()
        path.write_bytes(bytes(blob))
        try:
            fio.read_bundle(path)
        except FactorIntError:
            pass


class TestSpecSerialization:
    @pytest.mark.parametrize("spec", [
        mult_spec(1, n_factors=3),
        mult_spec(2, seed_groups={0: frozenset({0, 1}), 1: frozenset({2})}),
        gp_spec(1),
        gp_spec(5),
        gp_spec(4, fixed_inter_prob={3: 0.0}),
        # every field but the family-bound ones and load_prob_model away from its
        # default, which per-entry Beta pairs need
        mult_spec(1, n_factors=3, slab_var_loading=3.0, slab_var_inter=4.0,
                  noise_prior=(3.0, 2.0), product_var=1e-4,
                  inter_prob_model=InterProbModel.GROUPED,
                  load_prob_prior=BetaTable((2.0, 3.0), {"expected": (9.0, 1.0)},
                                            {(0, 1): (2.0, 2.0), (11, 2): (1.0, 5.0)}),
                  inter_prob_prior=BetaTable((1.0, 10.0), {"seed": (1.0, 4.0)}),
                  seed_groups={0: frozenset({0, 1, 10}), 2: frozenset({5})},
                  fixed_load_prob={(3, 0): 1.0, (3, 1): 0.0}, fixed_inter_prob={7: 0.0, 12: 1.0},
                  seed_constraints=False, include_interactions=False),
        gp_spec(5, length_scale=0.7, load_prob_prior=BetaTable(groups={"excluded": (1.0, 9.0)})),
    ])
    def test_round_trip(self, spec):
        assert fio.spec_from_dict(fio.spec_to_dict(spec)) == spec

    def test_every_field_has_a_reader_in_field_order(self):
        assert list(fio._SPEC_FIELDS) == [f.name for f in fields(ModelSpec)]

    @pytest.mark.parametrize("fault", ["spec_without_seed_constraints", "spec_unknown_key",
                                       "beta_table_without_groups", "beta_table_unknown_key"])
    @pytest.mark.parametrize("read", [fio.open_draws, fio.load_draws])
    def test_spec_with_a_missing_or_unknown_field_is_corrupt(self, fitted, tmp_path, fault,
                                                             read):
        path = tmp_path / "draws.bin"
        break_draws(fitted / "draws.bin", path, fault)
        with pytest.raises(CorruptFile, match="unreadable model spec"):
            read(path)


class TestDrawsPersistence:
    def test_mult_round_trip(self, tmp_path):
        data = small_data(1)
        draws = run_mult_chain(mult_spec(1), data, n_iters=14, burn_in=4, thin=2, seed=3)
        path = tmp_path / "draws.bin"
        fio.persist_draws(draws, path)
        back = fio.load_draws(path)
        assert back.spec == draws.spec
        assert (back.burn_in, back.thin, back.n_iters, back.seed) == (4, 2, 14, 3)
        assert back.feature_ids == data.feature_ids
        assert len(states(back)) == len(states(draws))
        for sa, sb in zip(states(draws), states(back)):
            np.testing.assert_array_equal(sa.loadings, sb.loadings)
            np.testing.assert_array_equal(sa.inter_scores, sb.inter_scores)
            np.testing.assert_array_equal(sa.load_mask, sb.load_mask)
        assert states(back)[0].effects is None

    def test_load_draws_holds_one_copy_of_the_file(self, tmp_path):
        draws = run_gp_chain(gp_spec(1), small_data(5, m=20, n=20), n_iters=4, burn_in=2,
                             seed=1)
        path = tmp_path / "draws.bin"
        fio.persist_draws(replace(draws, values={
            name: np.repeat(arr, 100, axis=0) for name, arr in draws.values.items()}), path)
        tracemalloc.start()
        try:
            back = fio.load_draws(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(back) == 200
        assert peak < 1.5 * path.stat().st_size

    def test_persist_draws_holds_no_copy_of_the_bundle(self, tmp_path):
        draws = run_gp_chain(gp_spec(1), small_data(5, m=20, n=20), n_iters=4, burn_in=2,
                             seed=1)
        big = replace(draws, values={
            name: np.repeat(arr, 100, axis=0) for name, arr in draws.values.items()})
        path = tmp_path / "draws.bin"
        tracemalloc.start()
        try:
            fio.persist_draws(big, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 500_000
        assert peak < 1.5 * path.stat().st_size
        assert len(fio.load_draws(path)) == 200

    def test_bundle_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "draws.bin"
        fio.persist_draws(run_gp_chain(gp_spec(1), small_data(6), n_iters=4, burn_in=2,
                                       seed=2), path)
        _, arrays = fio.read_bundle(path)
        back = fio.load_draws(path)
        for arr in [*arrays.values(), *back.values.values(), back.mh_accept_counts]:
            with pytest.raises(ValueError):
                arr.flat[0] = 1

    def test_gp_round_trip_with_ledger(self, tmp_path):
        data = small_data(2, m=5, n=6)
        draws = run_gp_chain(gp_spec(2), data, n_iters=12, burn_in=6, seed=4)
        path = tmp_path / "draws.bin"
        fio.persist_draws(draws, path)
        back = fio.load_draws(path)
        np.testing.assert_array_equal(back.mh_accept_counts, draws.mh_accept_counts)
        for sa, sb in zip(states(draws), states(back)):
            np.testing.assert_array_equal(sa.effects, sb.effects)
            np.testing.assert_array_equal(sa.shared_effect, sb.shared_effect)
        assert states(back)[0].inter_loadings is None


def config_key_names() -> list[str]:
    """Every key of CONFIG_KEYS, with concrete names for its placeholders."""
    names = []
    for line in fio.CONFIG_KEYS.strip().splitlines():
        key = line.split()[0]
        if key.endswith(".<group>"):
            names += [key.replace("<group>", g) for g in ("expected", "seed", "nope")]
        elif key.endswith(".<k>"):
            names += [key.replace("<k>", k) for k in ("1", "2", "3", "0", "x")]
        else:
            names.append(key)
    return names


# the first segment of every listed key; reading all of them reads every key
SECTIONS = tuple(sorted({key.split(".")[0] for key in config_key_names()}))

config_values = (
    st.sampled_from(["", "-", "--1", "²", "٣", "1e400", "nan", "-inf", "0", "-1", "1, 10",
                     "0,1,2", "3,4", ",", "2, x", "true", "off", "gp", "mult_approach1",
                     "mult_approach2", "per_entry", "grouped", "global", "per_feature"])
    | st.integers(-3, 12).map(str)
    | st.floats().map(str)
    | st.lists(st.integers(-2, 12).map(str) | st.sampled_from(["--1", "²", "f0", ""]),
               max_size=4).map(",".join)
    | st.text(max_size=6))


FAMILY_DEFAULTS = [("mult_approach1", mult_spec(1)), ("mult_approach2", mult_spec(2)),
                   ("gp", gp_spec(1))]


class TestConfigParsing:
    @settings(max_examples=300, deadline=None)
    @given(cfg=st.dictionaries(st.sampled_from(config_key_names()), config_values, max_size=6),
           with_data=st.booleans())
    @example(cfg={"model.seed_group.1": "--1"}, with_data=True)
    @example(cfg={"model.seed_group.1": "²"}, with_data=False)
    def test_random_config_raises_only_package_errors(self, cfg, with_data):
        data = small_data(3)
        try:
            build_layout(fio.spec_from_config(cfg, data if with_data else None), data.n_features)
        except FactorIntError:
            pass
        try:
            fio.settings_from_config(cfg)
        except FactorIntError:
            pass

    def test_comments_and_whitespace(self):
        cfg = fio.parse_config_text("""
            # a comment
            model.family = gp   # trailing comment
            mcmc.iters = 40
        """)
        assert cfg == {"model.family": "gp", "mcmc.iters": "40"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            fio.parse_config_text("model.family gp")

    def test_a_key_set_twice_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^run.cfg:4: model.family is set again "
                                              r"\(first at line 2\)$"):
            fio.parse_config_text("# run\nmodel.family = gp\nmcmc.iters = 5\n"
                                  "model.family=mult_approach1  # again\n", origin="run.cfg")

    def test_value_reads_a_key_by_its_row(self):
        assert fio.value({}, "overlap.replicates") == 100_000
        assert fio.value({"overlap.replicates": "7"}, "overlap.replicates") == 7
        assert fio.value({}, "overlap.population") is None
        assert fio.value({"model.gamma.seed": "1, 2"}, "model.gamma.seed") == (1.0, 2.0)
        assert fio.value({}, "model.family") is Family.MULT_APPROACH2
        assert fio.value({"compare.specs": " a.cfg, ,b.cfg"}, "compare.specs") == ("a.cfg",
                                                                                  "b.cfg")
        with pytest.raises(ConfigError, match="^simulate.noise_scale: expected a positive "
                                              "finite number, got '0'$"):
            fio.value({"simulate.noise_scale": "0"}, "simulate.noise_scale")

    def test_spec_from_config_gp_variant_defaults(self):
        cfg = {"model.family": "gp", "model.gp_variant": "5"}
        spec = fio.spec_from_config(cfg)
        assert spec.gp_variant == 5
        assert spec.load_prob_model.value == "grouped"
        assert spec.inter_prob_model.value == "grouped"

    def test_spec_from_config_seed_groups_by_id(self):
        data = small_data()
        cfg = {"model.family": "mult_approach2",
               "model.seed_group.1": f"{data.feature_ids[0]}, {data.feature_ids[1]}",
               "model.seed_group.2": "2, 3"}
        spec = fio.spec_from_config(cfg, data)
        assert spec.seed_groups[0] == frozenset({0, 1})
        assert spec.seed_groups[1] == frozenset({2, 3})

    def test_a_seed_group_token_is_an_id_before_an_index(self):
        data = small_data()
        data = DataMatrix(data.values, tuple(str(i + 1) for i in range(8)), data.sample_ids)
        spec = fio.spec_from_config({"model.seed_group.1": "1, 2", "model.seed_group.2": "8"}, data)
        assert spec.seed_groups == {0: frozenset({0, 1}), 1: frozenset({7})}
        # without data a token can only be an index
        assert fio.spec_from_config({"model.seed_group.1": "1, 2"}).seed_groups == {
            0: frozenset({1, 2})}
        with pytest.raises(ConfigError, match="^model.seed_group.1: 'f0001' is not a 0-based "
                                              "feature index, and no data file gives feature ids"):
            fio.spec_from_config({"model.seed_group.1": "f0001"})

    def test_beta_pair_and_group_overrides(self):
        cfg = {"model.family": "mult_approach1", "model.product_var": "1e-5",
               "model.beta": "1, 10", "model.gamma.expected": "9, 1"}
        spec = fio.spec_from_config(cfg)
        assert spec.inter_prob_prior.default == (1.0, 10.0)
        assert spec.load_prob_prior.groups["expected"] == (9.0, 1.0)

    def test_settings_from_config(self):
        s = fio.settings_from_config({"mcmc.iters": "100", "mcmc.burn_in": "50",
                                      "mcmc.seed": "9", "mcmc.rw_step": "0.25"})
        assert (s.n_iters, s.burn_in, s.seed, s.rw_step) == (100, 50, 9, 0.25)

    @pytest.mark.parametrize("family, spec", FAMILY_DEFAULTS)
    def test_config_defaults_are_the_model_defaults(self, family, spec):
        assert fio.spec_from_config({"model.family": family}) == spec

    def test_config_defaults_are_the_settings_defaults(self):
        assert fio.settings_from_config({}) == McmcSettings()

    @pytest.mark.parametrize("family, spec", FAMILY_DEFAULTS)
    def test_keys_of_other_families_are_refused(self, family, spec):
        own = {"mult_approach1": {"model.product_var"},
               "gp": {"model.length_scale", "model.gp_variant"}}.get(family, set())
        # slab_var_inter is the multiplicative families' own
        others = {"model.product_var", "model.length_scale", "model.gp_variant"} - own
        if family == "gp":
            others.add("model.slab_var_inter")
        for key in sorted(others):
            with pytest.raises(SpecConflict, match="^(product_var|gp_variant/length_scale|"
                                                   "slab_var_inter) appl(y|ies) only to "):
                fio.spec_from_config({"model.family": family, key: "1"})
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected "):
                fio.spec_from_config({"model.family": family, key: "x"})

    @pytest.mark.parametrize("key", ["model.gamma.expected", "model.beta.seed",
                                     "model.seed_group.3", "mcmc.iters", "overlap.replicates"])
    def test_listed_keys_and_placeholders_are_known(self, key):
        fio.check_config_keys({key: ""}, "test", (), SECTIONS)

    @pytest.mark.parametrize("key", ["model.familly", "mcmc.iter", "simulate.featurs",
                                     "paths.annotation", "model.gamma.", "model.gamma.a.b",
                                     "model.seed_group", "family", ""])
    def test_unlisted_key_is_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: unknown key$"):
            fio.check_config_keys({"mcmc.iters": "1", key: ""}, "test", (), SECTIONS)


ARTIFACT_SUFFIXES = (".csv", ".bin", ".json", ".cfg")


def test_every_config_key_literal_in_the_package_is_listed():
    """A string constant in ``factorint`` shaped like a config key is one the
    CLI accepts. A literal ending in a dot is the prefix of a placeholder key,
    and artifact file names such as ``surface.csv`` share the shape."""
    shape = re.compile(r"(model|mcmc|paths|simulate|detect|surface|compare|overlap)\.[\w.]*")
    literals = set()
    for path in sorted(Path(factorint.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and shape.fullmatch(node.value) and not node.value.endswith(ARTIFACT_SUFFIXES):
                literals.add(node.value + "1" if node.value.endswith(".") else node.value)
    assert {"model.family", "model.seed_group.1", "mcmc.iters", "overlap.replicates"} <= literals
    unknown = []
    for key in sorted(literals):
        try:
            fio.check_config_keys({key: ""}, "test", (), SECTIONS)
        except ConfigError:
            unknown.append(key)
    assert not unknown, f"key literals that CONFIG_KEYS does not list: {unknown}"


def reads_key(entries, key: str) -> bool:
    """Whether a reader of the table entries ``entries`` reads ``key``."""
    try:
        fio.check_config_keys({key: ""}, "reader", (), entries)
    except ConfigError:
        return False
    return True


def test_every_listed_key_is_read_and_every_read_entry_is_listed():
    """The command table and CONFIG_KEYS agree: a documented key that nothing
    reads, or a table entry that names no key or section, shows here."""
    listed = [line.split()[0] for line in fio.CONFIG_KEYS.strip().splitlines()]
    # each command's entries, and a compare.specs file's
    readers = [(*required, *reads) for _, required, reads in cli._COMMANDS.values()]
    readers.append(("model",))
    unread = [key for key in listed if not any(reads_key(entries, key) for entries in readers)]
    assert not unread, f"listed keys that no command reads: {unread}"
    sections = {key.split(".")[0] for key in listed}
    unlisted = [entry for entries in readers for entry in entries
                if entry not in listed and entry not in sections]
    assert not unlisted, f"table entries that are neither a listed key nor a section: {unlisted}"


def test_help_lists_every_key(capsys):
    """``factorint --help`` ends with CONFIG_KEYS, one line per row of KEYS."""
    with pytest.raises(SystemExit) as exited:
        cli_main(["--help"])
    assert exited.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text.endswith("configuration keys:" + fio.CONFIG_KEYS)
    listed = help_text.split("configuration keys:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in listed] == list(fio.KEYS)
    assert len(listed) == 38


def stated_defaults() -> dict[str, str]:
    """The "(default ...)" of each CONFIG_KEYS line that states one."""
    stated = {}
    for line in fio.CONFIG_KEYS.strip().splitlines():
        match = re.search(r"\((?:[^()]*, )?default ([^()]*)\)", line)
        if match:
            stated[line.split()[0]] = match.group(1)
    return stated


# config key: the value it sets, read off a ModelSpec
SPEC_FIELDS = {
    "model.factors": lambda spec: spec.n_factors,
    "model.length_scale": lambda spec: spec.length_scale,
    "model.product_var": lambda spec: spec.product_var,
    "model.slab_var_loading": lambda spec: spec.slab_var_loading,
    "model.slab_var_inter": lambda spec: spec.slab_var_inter,
    "model.noise_shape": lambda spec: spec.noise_prior[0],
    "model.noise_scale": lambda spec: spec.noise_prior[1],
    "model.seed_constraints": lambda spec: spec.seed_constraints,
    "model.include_interactions": lambda spec: spec.include_interactions,
}
# keys read by one family only
FAMILY_ONLY = {"model.length_scale": "gp", "model.product_var": "mult_approach1"}


def test_every_stated_default_is_the_value_used():
    """Each "(default ...)" in CONFIG_KEYS is what the code uses when the key
    is left out: the model specs and ``McmcSettings``, which own the model and
    run defaults, and the CLI's own defaults, each stated once in its row of
    ``io.KEYS`` and read through ``io.value``."""
    used = {key: fio.value({}, key) for key, row in fio.KEYS.items() if row.default}
    used["model.family"] = fio.spec_from_config({}).family.value
    used["model.gp_variant"] = fio.spec_from_config({"model.family": "gp"}).gp_variant
    for family in ("mult_approach1", "mult_approach2", "gp"):
        spec = fio.spec_from_config({"model.family": family})
        for key, field in SPEC_FIELDS.items():
            if FAMILY_ONLY.get(key, family) == family:
                value = field(spec)
                assert used.setdefault(key, value) == value, (key, family)
    settings = fio.settings_from_config({})
    used.update({"mcmc.iters": settings.n_iters, "mcmc.thin": settings.thin,
                 "mcmc.seed": settings.seed, "mcmc.chains": settings.n_chains,
                 "mcmc.rw_step": settings.rw_step})
    burn_in = {family: settings.resolve_burn_in(family) for family in Family}
    assert burn_in[Family.MULT_APPROACH1] == burn_in[Family.MULT_APPROACH2]
    used["mcmc.burn_in"] = f"{burn_in[Family.MULT_APPROACH2]} mult / {burn_in[Family.GP]} gp"

    stated = stated_defaults()
    assert stated.keys() == used.keys()
    for key, text in stated.items():
        value = used[key]
        if isinstance(value, bool):
            assert text == str(value).lower(), key
        elif isinstance(value, str):
            assert text == value, key
        else:
            assert float(text) == value, key
    assert stated["mcmc.burn_in"] == "400 mult / 300 gp"


def run_cli(*argv):
    return cli_main(list(argv))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Directory holding a small data file and the draws of a short fit on it,
    and under ``sim/`` a simulated data file, its truth bundle and a spec
    file for ``compare``."""
    out = tmp_path_factory.mktemp("fitted")
    fio.write_data_csv(out / "data.csv", small_data(8, m=6, n=8))
    assert run_cli("fit", "--output-dir", str(out), "--seed", "1",
                   "--set", f"paths.data={out / 'data.csv'}",
                   "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 0
    assert run_cli("simulate", "--output-dir", str(out / "sim"), "--seed", "1",
                   "--set", "simulate.features=20", "--set", "simulate.samples=10") == 0
    (out / "sim" / "mult2.cfg").write_text("model.family = mult_approach2\n")
    return out


def command_settings(root: Path, command: str) -> list[str]:
    """``key=value`` settings under which ``command`` runs on the files of the
    ``fitted`` directory ``root``; each is a key the command reads."""
    draws = f"paths.draws={root / 'draws.bin'}"
    return {
        "fit": [f"paths.data={root / 'data.csv'}", "mcmc.iters=30", "mcmc.burn_in=10"],
        "simulate": [],
        "test-overlap": ["overlap.population=100", "overlap.counts=10,10", "overlap.observed=0"],
        "detect": [draws],
        "export-surface": [draws, "surface.feature=0"],
        "summarize": [draws],
        "compare": [f"paths.data={root / 'sim' / 'data.csv'}",
                    f"paths.truth={root / 'sim' / 'truth.bin'}",
                    f"compare.specs={root / 'sim' / 'mult2.cfg'}"],
    }[command]


def fill_disk(monkeypatch, pattern: str, nth: int = 1) -> list[str]:
    """Make the ``nth`` file whose name matches ``pattern`` that ``io`` opens
    for text writing fail with ENOSPC once half its first line is written;
    returns the names of the matching files opened, in order."""
    opened = []

    def open_(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode and "b" not in mode and fnmatch(Path(file).name, pattern):
            opened.append(Path(file).name)
            if len(opened) == nth:
                write = fh.write

                def partial(text):
                    write(text[:len(text) // 2])
                    fh.flush()
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                fh.write = partial
        return fh

    monkeypatch.setattr(fio, "open", open_, raising=False)
    return opened


def option_args(item: str) -> list[str]:
    """``--config=PATH`` as the --config option, any other ``key=value`` as --set."""
    key, _, value = item.partition("=")
    return [key, value] if key == "--config" else ["--set", item]


# each names a file that does not exist, relative to the working directory
MISSING_FILE_CASES = [
    ("fit", "paths.data=no/such/data.csv"),
    ("summarize", "paths.draws=no/such/draws.bin"),
    ("detect", "paths.draws=no/such/draws.bin"),
    ("export-surface", "paths.draws=no/such/draws.bin"),
    ("compare", "paths.data=no/such/data.csv"),
    ("compare", "paths.truth=no/such/truth.bin"),
    ("compare", "compare.specs=no/such/spec.cfg"),
    ("fit", "--config=no/such/run.cfg"),
]


# per command, one listed key that it does not read
UNREAD_KEY_CASES = {
    "simulate": "model.family=gp",
    "fit": "detect.threshold=0.3",
    "summarize": "mcmc.seed=99",
    "detect": "model.length_scale=-3",
    "compare": "mcmc.chains=3",
    "test-overlap": "paths.data=/nonexistent",
    "export-surface": "paths.truth=truth.bin",
}


class TestCli:
    def test_simulate_fit_summarize_deterministic(self, tmp_path):
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            assert run_cli("simulate", "--output-dir", str(out), "--seed", "5",
                           "--set", "simulate.features=24", "--set", "simulate.samples=16") == 0
            assert run_cli("fit", "--output-dir", str(out), "--seed", "5",
                           "--set", f"paths.data={out / 'data.csv'}",
                           "--set", "model.family=mult_approach2",
                           "--set", "mcmc.iters=40", "--set", "mcmc.burn_in=20") == 0
            outs.append(out)
        a, b = outs
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "draws.bin").read_bytes() == (b / "draws.bin").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_two_chain_fit_summary_is_pinned(self, tmp_path):
        # gp_saddle's data and chain seeds, cut to 40 iterations; first pinned
        # when ``fit`` still summarised one pooled copy of the two chains, and
        # re-pinned when the gp sweep moved to fewer, larger draw calls
        data, truth = generate_saddle_dataset(100, 100, frac_affected=0.1, seed=7)
        fio.write_data_csv(tmp_path / "data.csv", data)
        groups = [",".join(str(int(i)) for i in truth.seed_groups[k]) for k in (0, 1)]
        assert run_cli("fit", "--output-dir", str(tmp_path / "fit"), "--seed", "8",
                       "--set", f"paths.data={tmp_path / 'data.csv'}",
                       "--set", "model.family=gp", "--set", "model.gp_variant=1",
                       "--set", "model.length_scale=0.2", "--set", "model.beta=1,10",
                       "--set", f"model.seed_group.1={groups[0]}",
                       "--set", f"model.seed_group.2={groups[1]}",
                       "--set", "mcmc.iters=40", "--set", "mcmc.burn_in=20",
                       "--set", "mcmc.chains=2") == 0
        summary = (tmp_path / "fit" / "summary.csv").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == (
            "66c7907163417b4ed5da311a560895b2ea1c1122c796c8d518c80adf7e391647")

    def test_manifest_checksums_verify(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--output-dir", str(out), "--seed", "3",
                       "--set", "simulate.features=20", "--set", "simulate.samples=12") == 0
        assert fio.verify_manifest(out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert {e["path"] for e in manifest["artifacts"]} == {"data.csv", "truth.bin"}

    def test_manifest_records_wall_time_and_peak_rss(self, tmp_path):
        out = tmp_path / "sim"
        started = time.perf_counter()
        assert run_cli("simulate", "--output-dir", str(out), "--seed", "3",
                       "--set", "simulate.features=20", "--set", "simulate.samples=12") == 0
        elapsed = time.perf_counter() - started
        peak_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run = json.loads((out / "manifest.json").read_text())["run"]
        assert 0 < run["wall_s"] <= elapsed
        assert 0 < run["peak_rss_mb"] <= peak_after
        assert fio.verify_manifest(out)

    def test_gp_fit_writes_acceptance_report(self, tmp_path):
        out = tmp_path / "gp"
        out.mkdir()
        fio.write_data_csv(out / "data.csv", small_data(4, m=6, n=8))
        assert run_cli("fit", "--output-dir", str(out), "--seed", "2",
                       "--set", f"paths.data={out / 'data.csv'}",
                       "--set", "model.family=gp", "--set", "model.gp_variant=1",
                       "--set", "mcmc.iters=40", "--set", "mcmc.burn_in=10") == 0
        lines = (out / "acceptance.csv").read_text().strip().splitlines()
        assert lines[0] == "chain,column,accepted,proposed,rate,rw_step_final"
        assert len(lines) == 1 + 8

    def test_gp_fit_without_burn_in_keeps_its_step(self, tmp_path):
        # mcmc.burn_in = 0 is the fixed-step chain: the step never adapts,
        # and every sweep's proposal of every column is counted
        out = tmp_path / "gp"
        out.mkdir()
        fio.write_data_csv(out / "data.csv", small_data(4, m=6, n=8))
        assert run_cli("fit", "--output-dir", str(out), "--seed", "2",
                       "--set", f"paths.data={out / 'data.csv'}", "--set", "model.family=gp",
                       "--set", "mcmc.iters=25", "--set", "mcmc.burn_in=0",
                       "--set", "mcmc.rw_step=0.37") == 0
        with open(out / "acceptance.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {row["rw_step_final"] for row in rows} == {"0.37"}
        assert {row["proposed"] for row in rows} == {"25"}
        draws = fio.open_draws(out / "draws.bin")
        assert draws.rw_step_final == 0.37
        np.testing.assert_array_equal(draws.mh_accept_counts[:, 1], 25)

    def test_detect_command(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        data = small_data(5, m=6, n=8)
        fio.write_data_csv(out / "data.csv", data)
        assert run_cli("fit", "--output-dir", str(out), "--seed", "2",
                       "--set", f"paths.data={out / 'data.csv'}",
                       "--set", "model.family=mult_approach2",
                       "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 0
        assert run_cli("detect", "--output-dir", str(out),
                       "--set", f"paths.draws={out / 'draws.bin'}") == 0
        header = (out / "detected.csv").read_text().splitlines()[0]
        assert header == "feature_id,probability"

    def test_overlap_command_matches_library(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("test-overlap", "--output-dir", str(out), "--seed", "4",
                       "--set", "overlap.population=100",
                       "--set", "overlap.counts=20, 25",
                       "--set", "overlap.observed=8",
                       "--set", "overlap.replicates=2000") == 0
        from factorint import OverlapTestInput, overlap_permutation_test
        p, _ = overlap_permutation_test(
            OverlapTestInput(100, (20, 25), 8, 2000), seed=4)
        line = (out / "overlap.csv").read_text().splitlines()[1]
        assert line.startswith(f"{p:.10g},")
        assert f"p_value={p:.10g}" in capsys.readouterr().out

    def test_export_surface_command(self, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        data = small_data(6, m=6, n=9)
        fio.write_data_csv(out / "data.csv", data)
        assert run_cli("fit", "--output-dir", str(out), "--seed", "1",
                       "--set", f"paths.data={out / 'data.csv'}",
                       "--set", "model.family=mult_approach2",
                       "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 0
        assert run_cli("export-surface", "--output-dir", str(out),
                       "--set", f"paths.draws={out / 'draws.bin'}",
                       "--set", f"surface.feature={data.feature_ids[2]}") == 0
        header = (out / "surface.csv").read_text().splitlines()[0]
        assert header == "lambda1,lambda2,effect,source"

    @pytest.mark.parametrize("user_setting, recorded", [(None, "1"), ("2", "2")])
    def test_manifest_records_blas_threads_and_versions(self, tmp_path, user_setting,
                                                        recorded):
        src = Path(factorint.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k not in factorint.BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        if user_setting is not None:
            env["OPENBLAS_NUM_THREADS"] = user_setting
        subprocess.run([sys.executable, "-m", "factorint.cli", "simulate",
                        "--output-dir", str(tmp_path), "--set", "simulate.features=12",
                        "--set", "simulate.samples=10"],
                       env=env, check=True, capture_output=True, timeout=120)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        environment = manifest["environment"]
        assert environment["threads"] == {"OPENBLAS_NUM_THREADS": recorded,
                                          "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        assert environment["numpy"] == np.__version__
        assert environment["scipy"] == scipy.__version__
        assert environment["python"] == platform.python_version()
        assert fio.verify_manifest(tmp_path)

    def test_failure_prints_single_error_line(self, tmp_path, capsys):
        code = run_cli("fit", "--output-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR ConfigError:")

    @pytest.mark.parametrize("command, setting", [
        ("fit", "model.factors=abc"),
        ("fit", "model.load_prob_model=bogus"),
        ("fit", "mcmc.iters=x"),
        ("fit", "model.gamma=1,x"),
        ("fit", "model.seed_group.x=1,2"),
        ("fit", "model.seed_group.1=--1"),
        ("fit", "model.seed_group.1=²"),
        ("fit", "mcmc.chains=0"),
        ("fit", "mcmc.rw_step=-1"),
        ("fit", "mcmc.rw_step=nan"),
        ("fit", "mcmc.rw_step=0"),
        ("fit", "mcmc.seed=-1"),
        ("simulate", "mcmc.seed=-1"),
        ("test-overlap", "mcmc.seed=-1"),
        ("simulate", "simulate.features=abc"),
        ("test-overlap", "overlap.counts=3,x"),
        ("test-overlap", "overlap.population=1000000000"),
        ("detect", "detect.threshold=abc"),
        ("export-surface", "surface.feature=999"),
        ("export-surface", "surface.feature=-1"),
        ("simulate", "simulate.noise_scale=nan"),
        ("simulate", "simulate.noise_scale=-1"),
        ("simulate", "simulate.noise_scale=0"),
        ("fit", "model.seed_group.3=1"),
        ("fit", "model.seed_group.0=1"),
        ("fit", "model.seed_group.1=99"),
        ("fit", "model.seed_group.2=nope"),
        ("fit", "model.factors"),
        ("fit", "mcmc.thin=0"),
        ("test-overlap", "overlap.counts=10"),
        ("test-overlap", "overlap.counts=10,200"),
        ("test-overlap", "overlap.replicates=0"),
        ("test-overlap", "overlap.observed=-1"),
        ("export-surface", "surface.feature=nope"),
        ("fit", "model.product_var=abc"),
        ("fit", "model.length_scale=abc"),
        *MISSING_FILE_CASES,
    ])
    def test_bad_config_value_prints_one_config_error(self, fitted, tmp_path, capsys,
                                                      command, setting):
        args = [command, "--output-dir", str(tmp_path)]
        for item in command_settings(fitted, command) + [setting]:
            args += option_args(item)
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR ConfigError:")

    @pytest.mark.parametrize("settings", [
        ("model.family=gp", "model.gp_variant=3", "model.beta.seed=5,5"),
        ("model.inter_prob_model=global", "model.beta.unknown=1,20"),
        ("model.family=gp", "model.gp_variant=4", "model.beta.nope=1,20"),
    ])
    def test_beta_override_the_model_ignores_prints_one_error(self, fitted, tmp_path, capsys,
                                                              settings):
        args = ["fit", "--output-dir", str(tmp_path), "--set", f"paths.data={fitted / 'data.csv'}"]
        for item in settings:
            args += ["--set", item]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR SpecConflict: model.beta: the global inclusion")

    @pytest.mark.parametrize("settings, message", [
        (("model.family=mult_approach2", "model.length_scale=0.5"),
         "gp_variant/length_scale apply only to the gp family"),
        (("model.family=gp", "model.product_var=1e-5"),
         "product_var applies only to multiplicative approach 1"),
        (("model.family=mult_approach1", "model.gp_variant=2"),
         "gp_variant/length_scale apply only to the gp family"),
        (("model.family=gp", "model.slab_var_inter=3"),
         "slab_var_inter applies only to the multiplicative families"),
    ], ids=["mult_approach2-length_scale", "gp-product_var", "mult_approach1-gp_variant",
            "gp-slab_var_inter"])
    def test_key_of_another_family_prints_one_error(self, fitted, tmp_path, capsys, settings,
                                                    message):
        args = ["fit", "--output-dir", str(tmp_path), "--set", f"paths.data={fitted / 'data.csv'}"]
        for item in settings:
            args += ["--set", item]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR SpecConflict: {message}"]
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("factors", ["7", "99999999999999999999"])
    def test_more_factors_than_features_prints_one_error(self, fitted, tmp_path, capsys,
                                                         factors):
        # the fitted data has 6 features
        assert run_cli("fit", "--output-dir", str(tmp_path), "--set",
                       f"paths.data={fitted / 'data.csv'}", "--set", f"model.factors={factors}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR InvalidFactorCount: {factors} factors on 6 features: at most one "
                       "factor per feature"]
        assert not (tmp_path / "manifest.json").exists()

    def test_data_cell_beyond_the_field_limit_prints_one_config_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(f"feature_id,s1,s2\nf1,1,2\nf2,{'1' * 200_000},3\n")
        assert run_cli("fit", "--output-dir", str(tmp_path / "out"), "--set",
                       f"paths.data={path}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: {path}:3: field larger than field limit (131072)"]

    def test_compare_spec_with_a_key_of_another_family_prints_one_error(self, fitted, tmp_path,
                                                                          capsys):
        spec = tmp_path / "spec" / "gp.cfg"
        spec.parent.mkdir()
        spec.write_text("model.family = gp\nmodel.product_var = 1e-5\n", encoding="utf-8")
        args = ["compare", "--output-dir", str(tmp_path / "out")]
        for item in command_settings(fitted, "compare")[:2] + [f"compare.specs={spec}"]:
            args += option_args(item)
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ERROR SpecConflict: product_var applies only to multiplicative approach 1"]
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command, setting", MISSING_FILE_CASES)
    def test_missing_input_file_names_the_key(self, fitted, tmp_path, capsys, command, setting):
        key, path = setting.split("=")
        args = [command, "--output-dir", str(tmp_path)]
        for item in command_settings(fitted, command) + [setting]:
            args += option_args(item)
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: {key}: no such file {path!r}"]

    @pytest.mark.parametrize("command, key", [("fit", "--config"), ("fit", "paths.data"),
                                              ("compare", "compare.specs")])
    def test_non_utf8_input_names_the_file(self, fitted, tmp_path, capsys, command, key):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("model.family = gp  # caf\u00e9\n".encode("latin-1"))
        args = [command, "--output-dir", str(tmp_path)]
        for item in command_settings(fitted, command) + [f"{key}={latin1}"]:
            args += option_args(item)
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: {latin1}: not UTF-8 text "
                       "(invalid continuation byte at byte 24)"]

    @pytest.mark.parametrize("case", ["no_arrays", "list_header", "unknown_dtype",
                                      "shape_against_nbytes", "offset_past_payload"])
    def test_malformed_bundle_prints_one_corrupt_file_error(self, tmp_path, capsys, case):
        path = tmp_path / "draws.bin"
        path.write_bytes(sealed_bundle(MALFORMED_HEADERS[case], np.ones(5).tobytes()))
        assert run_cli("summarize", "--output-dir", str(tmp_path / "out"),
                       "--set", f"paths.draws={path}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR CorruptFile:")

    @pytest.mark.parametrize("fault", ["no_burn_in", "unknown_family", "short_feature_ids",
                                       "text_thin", "flat_loadings"])
    def test_bad_draws_meta_prints_one_corrupt_file_error(self, fitted, tmp_path, capsys,
                                                          fault):
        path = tmp_path / "draws.bin"
        break_draws(fitted / "draws.bin", path, fault)
        assert run_cli("summarize", "--output-dir", str(tmp_path / "out"),
                       "--set", f"paths.draws={path}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR CorruptFile:")

    @pytest.mark.parametrize("command, settings, key", [
        ("simulate", ["simulate.featurs=20"], "simulate.featurs"),
        ("fit", ["mcmc.iter=30", "model.familly=gp"], "mcmc.iter"),
        ("fit", ["model.familly=gp"], "model.familly"),
        ("fit", ["mcmc.adapt_rw=false"], "mcmc.adapt_rw"),  # a fixed step is mcmc.burn_in=0
        ("fit", ["paths.annotation=annotation.csv"], "paths.annotation"),
        ("fit", ["model.beta.seed.x=1,2"], "model.beta.seed.x"),
        ("fit", ["--config=run.cfg"], "mcmc.iter"),
        ("compare", ["compare.specs=typo.cfg"], "model.familly"),
    ])
    def test_unknown_key_prints_one_config_error(self, fitted, tmp_path, capsys, command,
                                                 settings, key):
        (tmp_path / "run.cfg").write_text("mcmc.iters = 30\nmcmc.iter = 30\n")
        (tmp_path / "typo.cfg").write_text("model.familly = gp\n")
        args = [command, "--output-dir", str(tmp_path / "out")]
        for item in command_settings(fitted, command):
            args += ["--set", item]
        for item in settings:
            name, _, value = item.partition("=")
            args += option_args(f"{name}={tmp_path / value}" if value.endswith(".cfg") else item)
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: {key}: unknown key"]
        assert not (tmp_path / "out" / "data.csv").exists()

    def test_compare_checks_its_spec_files_before_it_reads_the_data(self, fitted, tmp_path,
                                                                    capsys):
        spec = tmp_path / "typo.cfg"
        spec.write_text("model.familly = gp\n")
        data = tmp_path / "data.csv"
        data.write_text("not,a\ndata file\n")
        out = tmp_path / "out"
        assert run_cli("compare", "--output-dir", str(out),
                       "--set", f"paths.data={data}",
                       "--set", f"paths.truth={fitted / 'sim' / 'truth.bin'}",
                       "--set", f"compare.specs={spec}") == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "ERROR ConfigError: model.familly: unknown key"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("line", ["mcmc.iters = 5", "paths.data = data.csv"])
    def test_spec_file_key_outside_model_prints_one_config_error(self, fitted, tmp_path,
                                                                 capsys, line):
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"model.family = mult_approach2\n{line}\n")
        out = tmp_path / "out"
        assert run_cli("compare", "--output-dir", str(out),
                       "--set", f"paths.data={fitted / 'sim' / 'data.csv'}",
                       "--set", f"paths.truth={fitted / 'sim' / 'truth.bin'}",
                       "--set", f"compare.specs={spec}") == 1
        key = line.split(" = ")[0]
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: {key}: {spec} does not read this key"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, names", [
        (["fit", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
        (["fit", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: command"),
    ], ids=["bad_seed", "unknown_command", "unknown_option", "no_command"])
    def test_argument_error_prints_one_config_error(self, tmp_path, capsys, monkeypatch, argv,
                                                    names):
        out = tmp_path / "out"
        monkeypatch.setenv("FACTORINT_OUTPUT_DIR", str(out))
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"ERROR ConfigError: {names}")
        assert captured.out == ""
        assert not out.exists()

    def test_duplicate_feature_id_prints_one_config_error(self, tmp_path, capsys):
        # rows 0 and 5 share an id, so model.seed_group.1=gA could name either
        rng = np.random.default_rng(2)
        ids = ["gA", "g1", "g2", "g3", "g4", "gA", "g6", "g7"]
        lines = ["feature_id,s0,s1,s2,s3,s4,s5"]
        lines += [",".join([fid, *map(str, rng.normal(size=6))]) for fid in ids]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli("fit", "--output-dir", str(out),
                       "--set", f"paths.data={tmp_path / 'data.csv'}",
                       "--set", "model.seed_group.1=gA,g1",
                       "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: {tmp_path / 'data.csv'}: duplicate feature id 'gA'"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("settings, retained", [
        (("mcmc.iters=20", "mcmc.burn_in=10"), 10),
        (("mcmc.iters=24", "mcmc.burn_in=10", "mcmc.thin=2", "mcmc.chains=2"), 14),
    ])
    def test_fit_too_short_to_summarise_fails_before_sampling(self, fitted, tmp_path, capsys,
                                                              settings, retained):
        out = tmp_path / "out"
        args = ["fit", "--output-dir", str(out), "--set", f"paths.data={fitted / 'data.csv'}"]
        for item in settings:
            args += ["--set", item]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR InsufficientDraws: need at least {MIN_STATES} retained states, "
                       f"have {retained}"]
        assert list(out.iterdir()) == []

    def test_config_file_with_set_override(self, tmp_path):
        out = tmp_path / "cfg"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("simulate.features = 30\nsimulate.samples = 14\nmcmc.seed = 6\n")
        assert run_cli("simulate", "--config", str(cfg), "--output-dir", str(out),
                       "--set", "simulate.features=22") == 0
        data = fio.read_data_csv(out / "data.csv")
        assert data.n_features == 22
        assert data.n_samples == 14

    def test_output_dir_environment_default(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FACTORINT_OUTPUT_DIR", str(target))
        assert run_cli("simulate", "--seed", "2",
                       "--set", "simulate.features=20", "--set", "simulate.samples=12") == 0
        assert (target / "data.csv").exists()

    def test_multi_chain_fit_writes_per_chain_draws(self, tmp_path):
        out = tmp_path / "chains"
        out.mkdir()
        fio.write_data_csv(out / "data.csv", small_data(7, m=6, n=8))
        assert run_cli("fit", "--output-dir", str(out), "--seed", "3",
                       "--set", f"paths.data={out / 'data.csv'}",
                       "--set", "model.family=mult_approach2",
                       "--set", "mcmc.chains=2",
                       "--set", "mcmc.iters=40", "--set", "mcmc.burn_in=20") == 0
        a = fio.load_draws(out / "draws_000.bin")
        b = fio.load_draws(out / "draws_001.bin")
        assert a.chain == 0 and b.chain == 1
        # distinct chains take distinct paths from the same run seed
        assert not np.array_equal(states(a)[0].scores, states(b)[0].scores)
        assert fio.verify_manifest(out)

    def test_compare_command(self, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("simulate", "--output-dir", str(out), "--seed", "6",
                       "--set", "simulate.features=30", "--set", "simulate.samples=20") == 0
        spec_a = tmp_path / "mult2.cfg"
        spec_a.write_text("model.family = mult_approach2\n")
        spec_b = tmp_path / "mult1.cfg"
        spec_b.write_text("model.family = mult_approach1\nmodel.product_var = 1e-5\n")
        assert run_cli("compare", "--output-dir", str(out), "--seed", "6",
                       "--set", f"paths.data={out / 'data.csv'}",
                       "--set", f"paths.truth={out / 'truth.bin'}",
                       "--set", f"compare.specs={spec_a}, {spec_b}",
                       "--set", "mcmc.iters=60", "--set", "mcmc.burn_in=30") == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert (out / "surface_mult2.csv").exists()
        assert (out / "surface_mult1.csv").exists()
        assert fio.verify_manifest(out)

    @pytest.mark.parametrize("command, key", [
        ("summarize", "paths.draws"), ("detect", "paths.draws"), ("export-surface", "paths.draws"),
        ("compare", "paths.data"), ("compare", "paths.truth"), ("compare", "compare.specs"),
        ("test-overlap", "overlap.population"), ("test-overlap", "overlap.counts"),
        ("test-overlap", "overlap.observed"),
    ])
    def test_missing_required_key_prints_one_config_error(self, fitted, tmp_path, capsys,
                                                          command, key):
        args = [command, "--output-dir", str(tmp_path)]
        for item in command_settings(fitted, command):
            if not item.startswith(f"{key}="):
                args += ["--set", item]
        assert run_cli(*args) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: {command} requires {key}"]

    @pytest.mark.parametrize("key, text, message", [
        ("paths.data", "", "{path}: empty data file"),
        ("paths.data", "feature_id,s0,s1\nf0,1,x\nf1,2,3\n",
         "{path}:2: could not convert string to float: 'x'"),
        ("paths.data", "feature_id,s0,s1\nf0,1,nan\nf1,2,3\n",
         "{path}:2: non-finite value 'nan' for sample 's1'"),
        ("paths.data", "feature_id,s0,s1\nf0,1,2\nf1,-inf,3\n",
         "{path}:3: non-finite value '-inf' for sample 's0'"),
        ("paths.data", "feature_id,s0,s1\nf0,1,2\n",
         "{path}: data matrix needs at least 2 features and 2 samples, got 1x2"),
        ("paths.data", "feature_id,s0\nf0,1\nf1,2\n",
         "{path}: data matrix needs at least 2 features and 2 samples, got 2x1"),
        ("paths.data", "feature_id,s0,s0\nf0,1,2\nf1,2,3\n", "{path}: duplicate sample id 's0'"),
        ("paths.data", "feature_id,s0,s1\n", "{path}: no data rows"),
        ("--config", "mcmc.iters = 30\n = 5\n", "{path}:2: empty key"),
        ("--config", "model.family = gp\nmcmc.iters = 30\nmodel.family = mult_approach1\n",
         "{path}:3: model.family is set again (first at line 1)"),
        ("--config", "mcmc.iters = 30  # short\n\n# longer\nmcmc.iters=40\n",
         "{path}:4: mcmc.iters is set again (first at line 1)"),
    ])
    def test_malformed_input_file_prints_one_config_error(self, tmp_path, capsys, key, text,
                                                          message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert run_cli("fit", "--output-dir", str(tmp_path / "out"),
                       *option_args(f"{key}={path}")) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: {message.format(path=path)}"]

    def test_bundle_shorter_than_its_digest_prints_one_corrupt_file_error(self, tmp_path,
                                                                          capsys):
        path = tmp_path / "draws.bin"
        path.write_bytes(fio.MAGIC + fio.FORMAT_VERSION.to_bytes(4, "little") + bytes(12))
        assert run_cli("summarize", "--output-dir", str(tmp_path / "out"),
                       "--set", f"paths.draws={path}") == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR CorruptFile: {path}: truncated"]

    @pytest.mark.parametrize("setting, message", [
        ("model.gp_variant=7", "gp_variant must be in 1..5, got 7"),
        ("model.include_interactions=false",
         "the nonlinear family has no interaction-free variant"),
    ])
    def test_gp_spec_rule_prints_one_spec_conflict(self, fitted, tmp_path, capsys, setting,
                                                    message):
        out = tmp_path / "out"
        assert run_cli("fit", "--output-dir", str(out),
                       "--set", f"paths.data={fitted / 'data.csv'}",
                       "--set", "model.family=gp", "--set", setting,
                       "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"ERROR SpecConflict: {message}"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("group", ["", " , "])
    def test_empty_seed_group_prints_one_config_error(self, fitted, tmp_path, capsys, group):
        out = tmp_path / "out"
        assert run_cli("fit", "--output-dir", str(out),
                       "--set", f"paths.data={fitted / 'data.csv'}",
                       "--set", f"model.seed_group.1={group}",
                       "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "ERROR ConfigError: model.seed_group.1: names no feature"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("second", ["b/x.cfg", "a/x.cfg"])
    def test_compare_specs_sharing_a_file_stem_print_one_config_error(self, fitted, tmp_path,
                                                                      capsys, monkeypatch,
                                                                      second):
        # the stem labels a model's row and its surface file, so two files of
        # one stem (or one file given twice) would overwrite one another
        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(factorint.simulate, "fit_spec", no_chain)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "x.cfg").write_text("model.family = mult_approach2\n")
        first, second = tmp_path / "a" / "x.cfg", tmp_path / second
        out = tmp_path / "out"
        assert run_cli("compare", "--output-dir", str(out),
                       "--set", f"paths.data={fitted / 'sim' / 'data.csv'}",
                       "--set", f"paths.truth={fitted / 'sim' / 'truth.bin'}",
                       "--set", f"compare.specs={first}, {second}",
                       "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: compare.specs: {str(first)!r} and {str(second)!r} share the "
            "file stem 'x', which labels a model's row and surface file"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("specs", ["", " , ", ","])
    def test_compare_specs_naming_no_file_prints_one_config_error(self, fitted, tmp_path,
                                                                  capsys, specs):
        out = tmp_path / "out"
        args = ["compare", "--output-dir", str(out)]
        for item in command_settings(fitted, "compare") + [f"compare.specs={specs}"]:
            args += option_args(item)
        assert run_cli(*args) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "ERROR ConfigError: compare.specs: names no spec file"]
        assert list(out.iterdir()) == []

    def test_a_key_set_twice_in_a_spec_file_prints_one_config_error(self, fitted, tmp_path,
                                                                     capsys):
        spec = tmp_path / "twice.cfg"
        spec.write_text("model.family = gp\nmodel.family = mult_approach1\n")
        out = tmp_path / "out"
        args = ["compare", "--output-dir", str(out)]
        for item in command_settings(fitted, "compare") + [f"compare.specs={spec}"]:
            args += option_args(item)
        assert run_cli(*args) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: {spec}:2: model.family is set again (first at line 1)"]
        assert list(out.iterdir()) == []

    def test_failed_truth_write_leaves_the_earlier_simulation(self, tmp_path, capsys,
                                                               monkeypatch):
        out = tmp_path / "sim"
        args = ["simulate", "--output-dir", str(out), "--set", "simulate.features=20",
                "--set", "simulate.samples=10"]
        assert run_cli(*args, "--seed", "1") == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()

        def full(fd, data, offset):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "pwrite", full)
        assert run_cli(*args, "--seed", "2") == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_failed_summary_write_leaves_the_earlier_fit(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        fio.write_data_csv(tmp_path / "data.csv", small_data(5, m=12, n=10))
        args = ["fit", "--output-dir", str(out), "--set", f"paths.data={tmp_path / 'data.csv'}",
                "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10"]
        assert run_cli(*args, "--seed", "1") == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()

        opened = fill_disk(monkeypatch, "summary.csv")
        assert run_cli(*args, "--seed", "2") == 1
        assert opened == ["summary.csv"]
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
        assert fio.verify_manifest(out)

    def test_failed_surface_write_leaves_the_earlier_comparison(self, fitted, tmp_path, capsys,
                                                                 monkeypatch):
        out = tmp_path / "cmp"
        (tmp_path / "gp.cfg").write_text("model.family = gp\n")
        args = ["compare", "--output-dir", str(out)]
        for item in command_settings(fitted, "compare")[:2] + [
                f"compare.specs={fitted / 'sim' / 'mult2.cfg'}, {tmp_path / 'gp.cfg'}",
                "mcmc.iters=30", "mcmc.burn_in=10"]:
            args += option_args(item)
        assert run_cli(*args, "--seed", "1") == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"surface_mult2.csv", "surface_gp.csv"} <= set(earlier)
        capsys.readouterr()

        opened = fill_disk(monkeypatch, "surface_*.csv", nth=2)
        assert run_cli(*args, "--seed", "2") == 1
        assert opened == ["surface_mult2.csv", "surface_gp.csv"]
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_a_run_leaves_its_artifacts_and_manifest_only(self, fitted, tmp_path, command):
        # no staging directory or temporary file is left beside them
        out = tmp_path / "out"
        args = [command, "--output-dir", str(out)]
        for item in command_settings(fitted, command):
            args += option_args(item)
        assert run_cli(*args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [entry["path"] for entry in manifest["artifacts"]] + ["manifest.json"])
        assert fio.verify_manifest(out)

    def test_missing_artifact_fails_the_manifest_check(self, fitted, tmp_path):
        out = tmp_path / "overlap"
        args = ["test-overlap", "--output-dir", str(out)]
        for item in command_settings(fitted, "test-overlap"):
            args += option_args(item)
        assert run_cli(*args) == 0
        assert fio.verify_manifest(out)
        (out / "overlap.csv").unlink()
        assert fio.verify_manifest(out) is False

    @pytest.mark.parametrize("via", ["option", "environment"])
    def test_output_dir_that_is_a_file_prints_one_config_error(self, tmp_path, capsys,
                                                                monkeypatch, via):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n")
        args = ["simulate", "--set", "simulate.features=20", "--set", "simulate.samples=10"]
        if via == "option":
            args += ["--output-dir", "afile"]
        else:
            monkeypatch.setenv("FACTORINT_OUTPUT_DIR", "afile")
        assert run_cli(*args) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "ERROR ConfigError: --output-dir: 'afile' is not a directory"]
        assert sorted(os.listdir()) == ["afile"]
        assert Path("afile").read_text() == "kept\n"

    def test_numeric_feature_ids_name_the_same_feature_in_both_keys(self, tmp_path,
                                                                     monkeypatch):
        # ids "1".."8": a token is the feature whose id it is, so "1" is row 0
        # for the seed groups as for the surface, and one function decides both
        data = small_data(9)
        data = DataMatrix(data.values, tuple(str(i + 1) for i in range(8)), data.sample_ids)
        fio.write_data_csv(tmp_path / "data.csv", data)
        keys = []
        resolve = fio.feature_index

        def recorded(token, labels, key):
            keys.append(key)
            return resolve(token, labels, key)

        monkeypatch.setattr(fio, "feature_index", recorded)
        out = tmp_path / "fit"
        assert run_cli("fit", "--output-dir", str(out), "--seed", "1",
                       "--set", f"paths.data={tmp_path / 'data.csv'}",
                       "--set", "model.seed_group.1=1, 2", "--set", "model.seed_group.2=8",
                       "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10") == 0
        assert run_cli("export-surface", "--output-dir", str(tmp_path / "surface"),
                       "--set", f"paths.draws={out / 'draws.bin'}",
                       "--set", "surface.feature=1") == 0
        assert sorted(set(keys)) == ["model.seed_group.1", "model.seed_group.2",
                                     "surface.feature"]
        draws = fio.open_draws(out / "draws.bin")
        assert draws.spec.seed_groups == {0: frozenset({0, 1}), 1: frozenset({7})}
        effect = posterior_mean_effects(draws, slice(0, 1))[0]
        export_surface(effect, posterior_mean_scores(draws)[:2]).write_csv(tmp_path / "row0.csv")
        assert (tmp_path / "surface" / "surface.csv").read_bytes() \
            == (tmp_path / "row0.csv").read_bytes()

    @pytest.mark.parametrize("command, key", [("fit", "model.seed_group.2"),
                                              ("export-surface", "surface.feature")])
    def test_a_feature_token_that_names_nothing_prints_one_config_error(self, fitted, tmp_path,
                                                                        capsys, command, key):
        args = [command, "--output-dir", str(tmp_path)]
        for item in command_settings(fitted, command) + [f"{key}=f0001, g9"]:
            args += ["--set", item]
        assert run_cli(*args) == 1
        token = "g9" if command == "fit" else "f0001, g9"
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: {key}: {token!r} is neither a feature id nor an index in 0..5"]

    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("command", UNREAD_KEY_CASES)
    def test_a_key_the_command_does_not_read_prints_one_config_error(self, tmp_path, capsys,
                                                                     command, via):
        # every input file the command needs is missing, so a command that
        # read one before checking its keys would fail on the file instead
        setting = UNREAD_KEY_CASES[command]
        (tmp_path / "run.cfg").write_text(setting.replace("=", " = ", 1) + "\n")
        out = tmp_path / "out"
        args = [command, "--output-dir", str(out)]
        for item in command_settings(tmp_path / "absent", command):
            args += ["--set", item]
        args += ["--config", str(tmp_path / "run.cfg")] if via == "--config" else ["--set", setting]
        assert run_cli(*args) == 1
        key = setting.split("=")[0]
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: {key}: {command} does not read this key"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["summarize", "detect", "export-surface"])
    def test_seed_option_of_a_command_without_a_seed_prints_one_config_error(
            self, fitted, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = [command, "--output-dir", str(out), "--seed", "99"]
        for item in command_settings(fitted, command):
            args += ["--set", item]
        assert run_cli(*args) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: mcmc.seed: {command} does not read this key"]
        assert not out.exists()

    @pytest.mark.parametrize("other", ["model.seed_group.01", "model.seed_group.+1"])
    def test_two_keys_of_one_seed_group_print_one_config_error(self, fitted, tmp_path, capsys,
                                                               other):
        out = tmp_path / "out"
        args = ["fit", "--output-dir", str(out)]
        for item in command_settings(fitted, "fit") + ["model.seed_group.1=0,1", f"{other}=5"]:
            args += ["--set", item]
        assert run_cli(*args) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"ERROR ConfigError: model.seed_group.1 and {other} both name seed group 1"]
        assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def pooled_fits(tmp_path_factory):
    """Directory holding 2-chain fits of seed 4 on ``data.csv``: ``gp``
    (variant 1) and ``mult2`` (``mcmc.thin=2``, so 10 states a chain); and
    one-chain gp fits of seed 5 that pool with neither: ``scale`` (another
    length scale), ``ids`` (the same values under other feature ids, in
    ``other.csv``) and ``long`` (other run counts)."""
    out = tmp_path_factory.mktemp("pooled")
    data = small_data(9, m=6, n=8)
    fio.write_data_csv(out / "data.csv", data)
    fio.write_data_csv(out / "other.csv", DataMatrix(
        data.values, tuple(f"other{i}" for i in range(6)), data.sample_ids))
    short = ("mcmc.iters=40", "mcmc.burn_in=20")
    fits = {
        "gp": ("4", "data.csv", "model.family=gp", "mcmc.chains=2", *short),
        "mult2": ("4", "data.csv", "model.family=mult_approach2", "mcmc.thin=2",
                  "mcmc.chains=2", *short),
        "scale": ("5", "data.csv", "model.family=gp", "model.length_scale=0.5", *short),
        "ids": ("5", "other.csv", "model.family=gp", *short),
        "long": ("5", "data.csv", "model.family=gp", "mcmc.iters=50", "mcmc.burn_in=30"),
    }
    for name, (seed, data_file, *settings) in fits.items():
        args = ["fit", "--output-dir", str(out / name), "--seed", seed,
                "--set", f"paths.data={out / data_file}"]
        for item in settings:
            args += ["--set", item]
        assert run_cli(*args) == 0
    return out


CHAIN_FILES = ("draws_000.bin", "draws_001.bin")


def pooled_chains(fit: Path) -> PosteriorDraws:
    """The chains of ``fit``, read whole and concatenated along the state axis."""
    chains = [fio.load_draws(fit / name) for name in CHAIN_FILES]
    return replace(chains[0], values={name: np.concatenate([c.values[name] for c in chains])
                                      for name in chains[0].values})


def both_chains(fit: Path) -> str:
    return "paths.draws=" + ",".join(str(fit / name) for name in CHAIN_FILES)


class TestPooledReads:
    """The read commands over the draws files of a fit's chains pool them
    as ``fit`` does."""

    @pytest.mark.parametrize("fit", ["gp", "mult2"])
    def test_summarize_over_the_chain_files_writes_the_fits_summary(self, pooled_fits,
                                                                    tmp_path, fit):
        out = tmp_path / "read"
        assert run_cli("summarize", "--output-dir", str(out),
                       "--set", both_chains(pooled_fits / fit)) == 0
        assert (out / "summary.csv").read_bytes() \
            == (pooled_fits / fit / "summary.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert [entry["path"] for entry in manifest["inputs"]] \
            == [str(pooled_fits / fit / name) for name in CHAIN_FILES]
        assert fio.verify_manifest(out)

    @pytest.mark.parametrize("fit", ["gp", "mult2"])
    def test_detect_over_the_chain_files_thresholds_the_pooled_indicators(self, pooled_fits,
                                                                          tmp_path, fit):
        out = tmp_path / "read"
        assert run_cli("detect", "--output-dir", str(out), "--set", both_chains(pooled_fits / fit),
                       "--set", "detect.threshold=0.3") == 0
        draws = pooled_chains(pooled_fits / fit)
        z = draws.values["inter_mask"]
        probs = (z.any(axis=2) if z.ndim == 3 else z.astype(bool)).mean(axis=0)
        detected = np.flatnonzero(probs > 0.3)
        assert 0 < detected.size < probs.size
        with open(out / "detected.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["feature_id"] for row in rows] == [draws.feature_ids[i] for i in detected]
        assert [float(row["probability"]) for row in rows] == pytest.approx(probs[detected])

    @pytest.mark.parametrize("fit", ["gp", "mult2"])
    def test_export_surface_over_the_chain_files_takes_the_pooled_means(self, pooled_fits,
                                                                        tmp_path, fit):
        out = tmp_path / "read"
        assert run_cli("export-surface", "--output-dir", str(out),
                       "--set", both_chains(pooled_fits / fit), "--set", "surface.feature=f0002") == 0
        draws = pooled_chains(pooled_fits / fit)
        export_surface(posterior_mean_effects(draws, slice(2, 3))[0],
                       posterior_mean_scores(draws)[:2]).write_csv(tmp_path / "expected.csv")
        assert (out / "surface.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_chains_too_short_alone_summarise_together(self, pooled_fits, tmp_path, capsys):
        # 10 states a chain: fit with mcmc.chains=2 accepts them, and so does
        # summarize over both files, but not over one
        fit = pooled_fits / "mult2"
        assert len(fio.open_draws(fit / CHAIN_FILES[0])) == 10
        assert run_cli("summarize", "--output-dir", str(tmp_path / "one"),
                       "--set", f"paths.draws={fit / CHAIN_FILES[0]}") == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "ERROR InsufficientDraws: need at least 20 retained states, have 10"]
        assert run_cli("summarize", "--output-dir", str(tmp_path / "both"),
                       "--set", both_chains(fit)) == 0

    @pytest.mark.parametrize("draws, message", [
        ("{0}/gp/draws_001.bin,{0}/gp/draws_001.bin", "chain 1 of seed 4 is given twice"),
        ("{0}/gp/draws_000.bin,{0}/scale/draws.bin", "chain 0 of seed 5 differs from chain 0 "
         "of seed 4 in spec: only chains of one fit pool"),
        ("{0}/gp/draws_001.bin,{0}/ids/draws.bin", "chain 0 of seed 5 differs from chain 1 "
         "of seed 4 in feature_ids: only chains of one fit pool"),
        ("{0}/gp/draws_000.bin,{0}/long/draws.bin", "chain 0 of seed 5 differs from chain 0 "
         "of seed 4 in burn_in, n_iters: only chains of one fit pool"),
        (",", "paths.draws: names no draws file"),
    ], ids=["named_twice", "spec", "feature_ids", "run_counts", "no_file"])
    @pytest.mark.parametrize("command", ["summarize", "detect", "export-surface"])
    def test_chains_that_do_not_pool_print_one_config_error(self, pooled_fits, tmp_path, capsys,
                                                            command, draws, message):
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.csv").write_text("kept\n")
        extra = ["--set", "surface.feature=0"] if command == "export-surface" else []
        assert run_cli(command, "--output-dir", str(out),
                       "--set", f"paths.draws={draws.format(pooled_fits)}", *extra) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"ERROR ConfigError: {message}"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {"earlier.csv": b"kept\n"}


class TestCompareTruth:
    """``compare`` checks its truth bundle against the data before it fits."""

    @pytest.fixture
    def compare_args(self, tmp_path, monkeypatch):
        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(factorint.simulate, "fit_spec", no_chain)
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--output-dir", str(sim), "--seed", "3",
                       "--set", "simulate.features=20", "--set", "simulate.samples=12") == 0
        (tmp_path / "mult2.cfg").write_text("model.family = mult_approach2\n")
        return ["compare", "--output-dir", str(tmp_path / "cmp"),
                "--set", f"paths.data={sim / 'data.csv'}",
                "--set", f"compare.specs={tmp_path / 'mult2.cfg'}",
                "--set", "mcmc.iters=30", "--set", "mcmc.burn_in=10"]

    def test_truth_missing_an_array_is_corrupt(self, compare_args, tmp_path, capsys):
        meta, arrays = fio.read_bundle(tmp_path / "sim" / "truth.bin")
        del arrays["affected"]
        fio.write_bundle(tmp_path / "truth.bin", meta, arrays)
        assert run_cli(*compare_args, "--set", f"paths.truth={tmp_path / 'truth.bin'}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR CorruptFile: paths.truth: {tmp_path / 'truth.bin'}: "
                       "truth bundle lacks 'affected'"]

    def test_truth_of_other_data_is_a_config_error(self, compare_args, tmp_path, capsys):
        other = tmp_path / "other"
        assert run_cli("simulate", "--output-dir", str(other), "--seed", "3",
                       "--set", "simulate.features=30", "--set", "simulate.samples=15") == 0
        assert run_cli(*compare_args, "--set", f"paths.truth={other / 'truth.bin'}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: paths.truth: {other / 'truth.bin'}: loadings "
                       "float64[30, 2] does not fit the 20x12 data"]

    def test_truth_index_outside_the_data_is_a_config_error(self, compare_args, tmp_path,
                                                             capsys):
        meta, arrays = fio.read_bundle(tmp_path / "sim" / "truth.bin")
        fio.write_bundle(tmp_path / "truth.bin", meta, {**arrays, "affected": np.array([20])})
        assert run_cli(*compare_args, "--set", f"paths.truth={tmp_path / 'truth.bin'}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ConfigError: paths.truth: ")
        assert "affected int64[1] does not fit the 20x12 data" in err[0]

    def test_bundle_of_another_kind_is_a_config_error(self, compare_args, fitted, capsys):
        assert run_cli(*compare_args, "--set", f"paths.truth={fitted / 'draws.bin'}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ERROR ConfigError: paths.truth: {fitted / 'draws.bin'}: "
                       "not a truth bundle"]


def test_export_surface_checks_its_feature_before_reading_draws(fitted, tmp_path, capsys,
                                                                monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} opened")

    monkeypatch.setattr(fio, "_open_bundle", refuse)
    assert run_cli("export-surface", "--output-dir", str(tmp_path),
                   "--set", f"paths.draws={fitted / 'draws.bin'}") == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "ERROR ConfigError: export-surface requires surface.feature"]
