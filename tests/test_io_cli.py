"""Persistence formats, configuration parsing, and the command-line workflow."""

import ast
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
from dataclasses import replace
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
from factorint.model import McmcSettings
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

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_bytes("probe_id,chromosome,position\npé,1,5\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            fio.read_annotation(path)


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
    "flat_loadings": lambda meta, arrays: arrays.update(
        loadings=arrays["loadings"].reshape(len(arrays["loadings"]), -1)),
}

DRAWS_META_KEYS = ("kind", "burn_in", "thin", "n_iters", "seed", "chain", "state_fields",
                   "feature_ids", "sample_ids", "rw_step_final", "spec",
                   *(f"spec.{key}" for key in fio.spec_to_dict(mult_spec(2))))


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
                                      "mcmc.seed": "9", "mcmc.adapt_rw": "false"})
        assert (s.n_iters, s.burn_in, s.seed, s.adapt_rw) == (100, 50, 9, False)

    @pytest.mark.parametrize("family, spec", FAMILY_DEFAULTS)
    def test_config_defaults_are_the_model_defaults(self, family, spec):
        assert fio.spec_from_config({"model.family": family}) == spec

    def test_config_defaults_are_the_settings_defaults(self):
        assert fio.settings_from_config({}) == McmcSettings()

    @pytest.mark.parametrize("family, spec", FAMILY_DEFAULTS)
    def test_keys_of_other_families_are_not_read(self, family, spec):
        own = {"mult_approach1": {"model.product_var"},
               "gp": {"model.length_scale", "model.gp_variant"}}.get(family, set())
        others = {"model.product_var", "model.length_scale", "model.gp_variant"} - own
        assert fio.spec_from_config({"model.family": family, **dict.fromkeys(others, "x")}) == spec

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
        # gp_saddle's data and chain seeds, cut to 40 iterations; pinned when
        # ``fit`` still summarised one pooled copy of the two chains
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
            "31cea328a61060268de58f099a5e8ed6f43e5c568585e0c10d726ac5c580f52a")

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
        assert err == ["ERROR ConfigError: duplicate feature id 'gA'"]
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
         "data matrix contains non-finite entries"),
        ("paths.data", "feature_id,s0,s1\nf0,1,2\n",
         "data matrix needs at least 2 features and 2 samples, got 1x2"),
        ("paths.data", "feature_id,s0,s1\n", "data matrix must be two-dimensional"),
        ("--config", "mcmc.iters = 30\n = 5\n", "{path}:2: empty key"),
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
