"""Domain types: standardization, pair enumeration, spec validation, and the
retain loop that fills the draws container."""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from factorint import (
    BetaTable,
    ConfigError,
    ConstantRow,
    DataMatrix,
    Family,
    GpChain,
    InterProbModel,
    InvalidFactorCount,
    LoadProbModel,
    McmcSettings,
    ModelSpec,
    MultChain,
    SpecConflict,
    factor_pairs,
    fit_spec,
    gp_spec,
    interaction_pair_count,
    mult_spec,
    run_gp_chain,
    run_mult_chain,
    standardize_rows,
    validate_spec,
)
from factorint import io as fio
from factorint import model
from factorint.model import GP_VARIANT_TABLE, STATE_FIELDS, run_chain, state_shapes
from factorint.prior import build_layout
from tests_support import states


class TestStandardizeRows:
    def test_symmetric_three_point_row(self):
        dm = standardize_rows(np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))
        np.testing.assert_allclose(dm.values[0], [-1.0, 0.0, 1.0], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        dm = standardize_rows(rng.normal(size=(6, 17), scale=3.0, loc=-2.0))
        again = standardize_rows(dm)
        np.testing.assert_allclose(again.values, dm.values, atol=1e-12)
        assert again.feature_ids == dm.feature_ids

    def test_constant_row_rejected(self):
        with pytest.raises(ConstantRow) as err:
            standardize_rows(np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]))
        assert err.value.row == 1

    def test_moments_after_standardization(self):
        rng = np.random.default_rng(1)
        dm = standardize_rows(rng.normal(size=(20, 40)) * rng.uniform(0.5, 4.0, size=(20, 1)))
        assert np.abs(dm.values.mean(axis=1)).max() < 1e-10
        assert np.abs(dm.values.var(axis=1, ddof=1) - 1.0).max() < 1e-8

    def test_ids_preserved(self):
        dm = standardize_rows(np.array([[1.0, 2.0], [4.0, 1.0]]),
                              feature_ids=("a", "b"), sample_ids=("s1", "s2"))
        assert dm.feature_ids == ("a", "b")
        assert dm.sample_ids == ("s1", "s2")

    def test_holds_one_working_copy(self):
        # the copy it centres and scales in place, and the one DataMatrix keeps
        raw = np.random.default_rng(3).normal(loc=5.0, scale=2.0, size=(400, 250))
        tracemalloc.start()
        try:
            standardize_rows(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * raw.nbytes

    def test_values_read_only(self):
        dm = standardize_rows(np.array([[1.0, 2.0], [4.0, 1.0]]))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 9.9

    @pytest.mark.parametrize("kind", ["feature", "sample"])
    def test_duplicate_ids_rejected(self, kind):
        ids = {"feature_ids": ("gA", "g1", "g2"), "sample_ids": ("s0", "s1", "s2")}
        ids[f"{kind}_ids"] = ("gA", "g1", "gA")
        with pytest.raises(ConfigError, match=f"duplicate {kind} id 'gA'"):
            DataMatrix(np.eye(3), **ids)


class TestFactorPairs:
    @pytest.mark.parametrize("n_factors,expected", [(2, 1), (3, 3), (5, 10)])
    def test_pair_count(self, n_factors, expected):
        assert interaction_pair_count(n_factors) == expected

    def test_rejects_single_factor(self):
        with pytest.raises(InvalidFactorCount):
            interaction_pair_count(1)

    @pytest.mark.parametrize("n_factors", range(2, 11))
    def test_enumeration_matches_count(self, n_factors):
        pairs = factor_pairs(n_factors)
        assert len(pairs) == interaction_pair_count(n_factors)
        assert all(l1 < l2 for l1, l2 in pairs)
        assert list(pairs) == sorted(pairs)

    def test_lexicographic_order(self):
        assert factor_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


# (valid spec, fields changed, error, message pattern): each change breaks one
# rule of ``validate_spec`` or of the inclusion-prior rules it runs; the enum
# rules are test_models_must_be_enum_members
BROKEN_SPECS = {
    "global_beta_group": (gp_spec(3),
                          {"inter_prob_prior": BetaTable(groups={"seed": (5.0, 5.0)})},
                          SpecConflict, "model.beta: the global"),
    "grouped_gamma_entry": (gp_spec(5),
                            {"load_prob_prior": BetaTable(entries={(0, 1): (2.0, 2.0)})},
                            SpecConflict, "model.gamma: grouped"),
    "unknown_gamma_group": (mult_spec(2),
                            {"load_prob_prior": BetaTable(groups={"expectd": (9.0, 1.0)})},
                            SpecConflict, "unknown group"),
    "zero_beta_pair": (mult_spec(2), {"inter_prob_prior": BetaTable(default=(0.0, 1.0))},
                       SpecConflict, "Beta hyperparameter"),
    "fixed_load_prob_not_0_or_1": (mult_spec(2), {"fixed_load_prob": {(0, 1): 0.5}}, SpecConflict,
                                   r"fixed loading probability at \(0, 1\)"),
    "fixed_inter_prob_not_0_or_1": (gp_spec(1), {"fixed_inter_prob": {3: 0.2}}, SpecConflict,
                                    "fixed interaction probability at 3"),
    "one_factor": (mult_spec(2), {"n_factors": 1}, InvalidFactorCount, "at least 2 factors"),
    "zero_slab_var": (mult_spec(2), {"slab_var_loading": 0.0}, SpecConflict, "slab_var_loading"),
    "gp_negative_slab_var_inter": (gp_spec(1), {"slab_var_inter": -1.0}, SpecConflict,
                                   "slab_var_inter"),
    "gp_with_slab_var_inter": (gp_spec(1), {"slab_var_inter": 3.0}, SpecConflict,
                               "^slab_var_inter applies only to the multiplicative families$"),
    "negative_noise_shape": (gp_spec(1), {"noise_prior": (-1.0, 1.1)}, SpecConflict,
                             "noise_prior shape"),
    "nan_noise_scale": (mult_spec(1), {"noise_prior": (2.1, float("nan"))}, SpecConflict,
                        "noise_prior scale"),
    "approach1_without_product_var": (mult_spec(1), {"product_var": None}, SpecConflict,
                                      "product_var must be"),
    "approach2_with_product_var": (mult_spec(2), {"product_var": 1e-5}, SpecConflict,
                                   "product_var applies only"),
    "gp_with_product_var": (gp_spec(1), {"product_var": 1e-5}, SpecConflict,
                            "product_var applies only"),
    "gp_variant_7": (gp_spec(1), {"gp_variant": 7}, SpecConflict, "gp_variant must be in 1..5"),
    "gp_without_variant": (gp_spec(1), {"gp_variant": None}, SpecConflict, "gp_variant must be"),
    "zero_length_scale": (gp_spec(2), {"length_scale": 0.0}, SpecConflict, "length_scale"),
    "gp_without_interactions": (gp_spec(1), {"include_interactions": False}, SpecConflict,
                                "no interaction-free variant"),
    "variant5_per_entry": (gp_spec(5), {"load_prob_model": LoadProbModel.PER_ENTRY}, SpecConflict,
                           "gp_variant 5 requires"),
    "mult_with_length_scale": (mult_spec(2), {"length_scale": 0.2}, SpecConflict,
                               "apply only to the gp family"),
    "negative_slab_var_inter": (mult_spec(2), {"slab_var_inter": -1.0}, SpecConflict,
                                "slab_var_inter"),
    "seed_group_factor_outside": (mult_spec(2), {"seed_groups": {2: frozenset({0})}},
                                  SpecConflict, r"seed group factor 2 outside 0\.\.1"),
    "negative_seed_feature": (gp_spec(1), {"seed_groups": {0: frozenset({-1})}}, SpecConflict,
                              "^seed feature index must be >= 0, got -1$"),
    "overlapping_seed_groups": (mult_spec(2), {"seed_groups": {0: frozenset({0, 1}),
                                                               1: frozenset({1, 2})}},
                                SpecConflict, r"overlap on features \[1\]"),
}


class TestValidateSpec:
    @pytest.mark.parametrize("base, changes, error, match", BROKEN_SPECS.values(),
                             ids=BROKEN_SPECS)
    def test_a_spec_that_breaks_a_rule_raises_when_built(self, base, changes, error, match):
        with pytest.raises(error, match=match):
            ModelSpec(**{**base.__dict__, **changes})
        with pytest.raises(error, match=match):
            replace(base, **changes)

    def test_gp_spec_with_product_var_conflicts(self):
        spec = gp_spec(1)
        with pytest.raises(SpecConflict):
            validate_spec(ModelSpec(**{**spec.__dict__, "product_var": 1e-5}))

    def test_mult_spec_with_gp_fields_conflicts(self):
        with pytest.raises(SpecConflict):
            validate_spec(ModelSpec(family=Family.MULT_APPROACH2, length_scale=0.2))

    def test_variant5_requires_grouped(self):
        spec = gp_spec(5)
        with pytest.raises(SpecConflict):
            validate_spec(ModelSpec(**{**spec.__dict__,
                                       "load_prob_model": LoadProbModel.PER_ENTRY}))

    @pytest.mark.parametrize("field, value", [
        ("family", "mult_approach2"), ("load_prob_model", "grouped"),
        ("inter_prob_model", "global"), ("load_prob_model", InterProbModel.GROUPED)])
    def test_models_must_be_enum_members(self, field, value):
        # a spec checks itself when built, so no sampler sees a bad one
        with pytest.raises(SpecConflict, match=field):
            ModelSpec(**{**mult_spec(2).__dict__, field: value})
        with pytest.raises(SpecConflict, match=field):
            replace(mult_spec(2), **{field: value})

    @pytest.mark.parametrize("table", [BetaTable(groups={"seed": (5.0, 5.0)}),
                                       BetaTable(entries={(0,): (5.0, 5.0)})])
    def test_global_probability_rejects_beta_overrides(self, table):
        with pytest.raises(SpecConflict, match="model.beta"):
            validate_spec(gp_spec(3, inter_prob_prior=table))
        with pytest.raises(SpecConflict, match="model.beta"):
            validate_spec(mult_spec(2, inter_prob_model=InterProbModel.GLOBAL,
                                    inter_prob_prior=table))

    def test_grouped_probabilities_reject_entry_overrides(self):
        with pytest.raises(SpecConflict, match="model.gamma"):
            validate_spec(gp_spec(5, load_prob_prior=BetaTable(entries={(0, 1): (2.0, 2.0)})))
        with pytest.raises(SpecConflict, match="model.beta"):
            validate_spec(gp_spec(5, inter_prob_prior=BetaTable(entries={(0,): (2.0, 2.0)})))
        validate_spec(gp_spec(5, load_prob_prior=BetaTable(groups={"expected": (9.0, 1.0)}),
                              inter_prob_prior=BetaTable(groups={"seed": (1.0, 9.0)})))

    @pytest.mark.parametrize("field, table", [
        ("load_prob_prior", BetaTable(groups={"expectd": (9.0, 1.0)})),
        ("inter_prob_prior", BetaTable(groups={"expected": (9.0, 1.0)}))])
    def test_unknown_beta_group_conflicts(self, field, table):
        with pytest.raises(SpecConflict, match="unknown group"):
            validate_spec(mult_spec(2, **{field: table}))

    def test_overlapping_seed_groups_conflict(self):
        with pytest.raises(SpecConflict):
            validate_spec(mult_spec(2, seed_groups={0: frozenset({0, 1}),
                                                    1: frozenset({1, 2})}))

    def test_variant_table_is_a_bijection(self):
        triples = set()
        for variant in range(1, 6):
            spec = validate_spec(gp_spec(variant))
            triple = (spec.load_prob_model, spec.shared_effect, spec.inter_prob_model)
            assert triple == GP_VARIANT_TABLE[variant][0:1] + GP_VARIANT_TABLE[variant][1:]
            triples.add(triple)
        assert len(triples) == 5

    @pytest.mark.parametrize("variant", range(1, 6))
    def test_shared_effect_follows_the_variant_table(self, variant, monkeypatch):
        shared = GP_VARIANT_TABLE[variant][1]
        spec = validate_spec(gp_spec(variant))
        assert spec.shared_effect is shared
        assert ("shared_effect" in state_shapes(spec, 4, 3)) is shared
        # the flag is read from the table, not restated
        flipped = dict(GP_VARIANT_TABLE)
        flipped[variant] = (flipped[variant][0], not shared, flipped[variant][2])
        monkeypatch.setattr(model, "GP_VARIANT_TABLE", flipped)
        assert spec.shared_effect is not shared
        assert ("shared_effect" in state_shapes(spec, 4, 3)) is not shared

    def test_approach1_requires_product_var(self):
        with pytest.raises(SpecConflict):
            validate_spec(ModelSpec(family=Family.MULT_APPROACH1))

    def test_valid_specs_pass(self):
        validate_spec(mult_spec(1))
        validate_spec(mult_spec(2, n_factors=3))
        for v in range(1, 6):
            validate_spec(gp_spec(v))


class TestLayout:
    def test_seed_constraints_become_degenerate_probabilities(self):
        spec = mult_spec(2, seed_groups={0: frozenset({0, 1}), 1: frozenset({2})})
        lay = build_layout(spec, 6)
        assert lay.load.fixed[0, 0] == 1.0 and lay.load.fixed[0, 1] == 0.0
        assert lay.load.fixed[2, 1] == 1.0 and lay.load.fixed[2, 0] == 0.0
        assert np.isnan(lay.load.fixed[4]).all()
        assert (lay.inter.fixed[:3] == 0.0).all()
        assert np.isnan(lay.inter.fixed[4]).all()

    def test_seed_constraints_can_be_disabled(self):
        spec = mult_spec(2, seed_groups={0: frozenset({0})}, seed_constraints=False)
        lay = build_layout(spec, 4)
        assert np.isnan(lay.load.fixed).all()
        assert np.isnan(lay.inter.fixed).all()
        # group labels survive for the grouped strategies: expected, excluded, unknown
        lay = build_layout(replace(spec, load_prob_model=LoadProbModel.GROUPED), 4)
        assert np.isnan(lay.load.fixed).all()
        assert lay.load.share.tolist() == [[0, 1], [2, 2], [2, 2], [2, 2]]

    @pytest.mark.parametrize("first_is_seed", [True, False])
    def test_shared_probabilities_take_their_own_beta_pair(self, first_is_seed):
        seeds = {0: frozenset({0 if first_is_seed else 2}), 1: frozenset({1})}
        lay = build_layout(gp_spec(3, seed_groups=seeds,
                                   inter_prob_prior=BetaTable(default=(1.0, 10.0))), 8)
        assert (lay.inter.a.tolist(), lay.inter.b.tolist()) == ([1.0], [10.0])
        assert (lay.inter.share == 0).all()
        grouped = BetaTable(default=(1.0, 10.0), groups={"seed": (5.0, 5.0)})
        lay = build_layout(gp_spec(5, seed_groups=seeds, inter_prob_prior=grouped), 8)
        # one share per label present, ascending: seed, then unknown
        assert (lay.inter.a.tolist(), lay.inter.b.tolist()) == ([5.0, 1.0], [5.0, 10.0])
        assert lay.inter.share.tolist() == [int(i not in seeds[0] | seeds[1]) for i in range(8)]
        assert lay.inter.trials.tolist() == [0.0, 6.0]  # seed genes are fixed at 0

    def test_per_entry_pairs_resolve_entry_then_group_then_default(self):
        table = BetaTable(default=(1.0, 1.0), groups={"expected": (9.0, 1.0)},
                          entries={(0, 1): (5.0, 6.0)})
        lay = build_layout(mult_spec(2, seed_groups={0: frozenset({0})}, load_prob_prior=table,
                                     seed_constraints=False), 3)
        assert lay.load.share.tolist() == [[0, 1], [2, 3], [4, 5]]
        assert lay.load.a.tolist() == [9.0, 5.0, 1.0, 1.0, 1.0, 1.0]
        assert lay.load.b.tolist() == [1.0, 6.0, 1.0, 1.0, 1.0, 1.0]
        with pytest.raises(SpecConflict):
            build_layout(mult_spec(2, load_prob_prior=BetaTable(entries={(3, 0): (2.0, 2.0)})), 3)

    def test_out_of_range_seed_index_rejected(self):
        spec = mult_spec(2, seed_groups={0: frozenset({10})})
        with pytest.raises(SpecConflict):
            build_layout(spec, 4)


class TestSettings:
    def test_family_defaults(self):
        s = McmcSettings(n_iters=600)
        assert s.resolve_burn_in(Family.MULT_APPROACH2) == 400
        assert s.resolve_burn_in(Family.GP) == 300

    def test_retained_count_divisibility_enforced(self):
        from factorint import ConfigError
        with pytest.raises(ConfigError):
            McmcSettings(n_iters=10, burn_in=3, thin=2).resolve_burn_in(Family.GP)

    @pytest.mark.parametrize("rw_step", [-1.0, float("nan"), float("inf"), 0.0, 10**400, "0.1",
                                         True])
    def test_bad_rw_step_rejected(self, rw_step):
        # a fixed step is burn_in = 0, so no step below the positive reals is kept
        from factorint import ConfigError
        with pytest.raises(ConfigError, match="rw_step must be a positive finite number"):
            McmcSettings(rw_step=rw_step)

    def test_burn_in_must_precede_end(self):
        from factorint import ConfigError
        with pytest.raises(ConfigError):
            McmcSettings(n_iters=10, burn_in=10).resolve_burn_in(Family.GP)

    @pytest.mark.parametrize("field, value", [
        ("thin", 1.5), ("n_iters", 40.0), ("seed", 1.5), ("n_chains", 1.5), ("burn_in", 10.0),
        *((field, True) for field in ("n_iters", "thin", "seed", "n_chains"))])
    def test_non_integer_count_rejected(self, field, value):
        # a fractional seed would be truncated by the streams, a float thin
        # or count would fail later with a bare TypeError or AttributeError
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            McmcSettings(**{field: value})

    def test_numpy_numbers_accepted(self, tmp_path):
        settings = McmcSettings(n_iters=np.int64(40), burn_in=np.int32(20), thin=np.uint8(2),
                                seed=np.int64(3), n_chains=np.int16(2), rw_step=np.float32(0.2))
        assert settings.retained(Family.GP) == 10
        # the settings keep the plain Python numbers
        assert settings == McmcSettings(n_iters=40, burn_in=20, thin=2, seed=3, n_chains=2,
                                        rw_step=float(np.float32(0.2)))
        assert {type(v) for v in settings.__dict__.values()} == {int, float}
        data = standardize_rows(np.random.default_rng(42).normal(size=(5, 6)))
        # a spec of numpy numbers writes a draws file that reads back to it
        spec = gp_spec(np.int64(1), n_factors=np.int32(2), length_scale=np.float32(0.5),
                       slab_var_loading=np.float64(5.0), noise_prior=(np.float32(2.5), np.int8(1)),
                       seed_groups={np.int64(0): frozenset({np.int32(1)})},
                       fixed_inter_prob={np.int64(4): np.float64(0.0)})
        with fio.DrawsWriter(tmp_path / "streamed.bin") as writer:
            assert len(fit_spec(spec, data, settings, np.int64(1), writer)) == 10
        fio.persist_draws(fit_spec(spec, data, settings), tmp_path / "kept.bin")
        for name, read, chain in (("streamed.bin", fio.open_draws, 1),
                                  ("kept.bin", fio.load_draws, 0)):
            draws = read(tmp_path / name)
            assert draws.spec == spec
            assert (draws.n_iters, draws.burn_in, draws.thin, draws.seed, draws.chain,
                    len(draws)) == (40, 20, 2, 3, chain, 10)


def copied_state_values(sampler) -> dict[str, np.ndarray]:
    """Reference retain loop: keep ``state.copy()`` of every retained sweep in a
    list, then stack each field (``run_chain``'s former implementation)."""
    settings = sampler.settings
    burn = settings.resolve_burn_in(sampler.spec.family)
    states = []
    for it in range(1, settings.n_iters + 1):
        sampler.sweep()
        if it > burn and (it - burn) % settings.thin == 0:
            states.append(sampler.state.copy())
    return {name: np.stack([getattr(s, name) for s in states]) for name in STATE_FIELDS
            if getattr(states[0], name) is not None}


SEEDED = {0: frozenset({0, 1}), 1: frozenset({2})}


class TestRunChain:
    @pytest.mark.parametrize("chain_type, spec", [
        (GpChain, gp_spec(2)),
        (GpChain, gp_spec(5, seed_groups=SEEDED)),
        (MultChain, mult_spec(1)),
        (MultChain, mult_spec(2, seed_groups=SEEDED)),
    ], ids=["gp_shared_effect", "gp_grouped", "mult_approach1", "mult_approach2"])
    def test_matches_the_copying_loop(self, chain_type, spec):
        data = standardize_rows(np.random.default_rng(41).normal(size=(6, 8)))
        settings = McmcSettings(n_iters=20, burn_in=8, thin=2, seed=9)
        expected = copied_state_values(chain_type(spec, data, settings))
        draws = run_chain(chain_type(spec, data, settings))
        assert list(draws.values) == list(expected)
        for name, arr in draws.values.items():
            assert arr.dtype == expected[name].dtype, name
            assert arr.shape == expected[name].shape == (6,) + arr.shape[1:], name
            assert arr.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("seed_groups", [None, SEEDED], ids=["unseeded", "seeded"])
    @pytest.mark.parametrize("make", [
        lambda **kw: mult_spec(1, **kw), lambda **kw: mult_spec(2, **kw),
        *(lambda variant=v, **kw: gp_spec(variant, **kw) for v in GP_VARIANT_TABLE)],
        ids=["mult1", "mult2", *(f"gp{v}" for v in GP_VARIANT_TABLE)])
    def test_swept_state_has_the_stated_shapes_and_dtypes(self, make, seed_groups):
        # the samplers write into the arrays ``initial_state`` allocated, so
        # every field keeps the shape of ``state_shapes`` and the dtype of
        # ``STATE_DTYPES``; the fields the family leaves out stay None
        spec = make(seed_groups=seed_groups)
        data = standardize_rows(np.random.default_rng(43).normal(size=(6, 8)))
        sampler = (MultChain if spec.is_mult else GpChain)(spec, data, McmcSettings(seed=2))
        for _ in range(3):
            sampler.sweep()
        shapes = state_shapes(spec, 6, 8)
        for name in STATE_FIELDS:
            value = getattr(sampler.state, name)
            if name in shapes:
                assert (value.shape, value.dtype) == (shapes[name], model.STATE_DTYPES[name]), name
            else:
                assert value is None, name

    @pytest.mark.parametrize("chain_type, spec", [(GpChain, gp_spec(1)), (MultChain, mult_spec(2))],
                             ids=["gp", "mult"])
    @pytest.mark.parametrize("settings, match", [
        (McmcSettings(n_iters=10, burn_in=10), r"burn_in 10 must lie in \[0, n_iters=10\)"),
        (McmcSettings(n_iters=10, burn_in=3, thin=2), "not divisible by thin = 2")],
        ids=["burn_in_past_the_end", "retained_not_divisible"])
    def test_bad_burn_in_raises_when_the_chain_is_built(self, chain_type, spec, settings, match):
        data = standardize_rows(np.random.default_rng(44).normal(size=(5, 6)))
        with pytest.raises(ConfigError, match=match):
            chain_type(spec, data, settings)

    def test_retained_arrays_are_read_only(self):
        data = standardize_rows(np.random.default_rng(42).normal(size=(5, 6)))
        draws = run_chain(MultChain(mult_spec(2), data,
                                    McmcSettings(n_iters=6, burn_in=2, seed=1)))
        with pytest.raises(ValueError):
            draws.stack("scores")[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            states(draws)[0].scores[0, 0] = 1.0


class TestChainSettings:
    """Every chain entry point takes its run settings as one ``McmcSettings``."""

    @pytest.mark.parametrize("entry, params", [
        (MultChain, ["spec", "data", "settings", "chain"]),
        (GpChain, ["spec", "data", "settings", "chain"]),
        (fit_spec, ["spec", "data", "settings", "chain", "sink"]),
        (run_chain, ["sampler", "sink"]),
    ], ids=["MultChain", "GpChain", "fit_spec", "run_chain"])
    def test_entry_point_takes_no_settings_of_its_own(self, entry, params):
        assert list(inspect.signature(entry).parameters) == params

    @pytest.mark.parametrize("runner", [run_mult_chain, run_gp_chain])
    def test_runner_forwards_keyword_settings(self, runner):
        params = inspect.signature(runner).parameters
        assert list(params) == ["spec", "data", "chain", "settings"]
        assert params["settings"].kind is inspect.Parameter.VAR_KEYWORD

    def test_draws_record_the_sampler_seed(self):
        data = standardize_rows(np.random.default_rng(42).normal(size=(5, 6)))
        sampler = MultChain(mult_spec(2), data, McmcSettings(n_iters=6, burn_in=2, seed=5))
        assert run_chain(sampler).seed == sampler.streams.seed == 5

    def test_negative_seed_is_a_config_error(self):
        data = standardize_rows(np.random.default_rng(42).normal(size=(5, 6)))
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            MultChain(mult_spec(2), data, McmcSettings(seed=-1))

    @pytest.mark.parametrize("rw_step", [-0.5, 0.0])
    def test_gp_runner_rejects_a_step_adaptation_cannot_use(self, rw_step):
        data = standardize_rows(np.random.default_rng(42).normal(size=(5, 6)))
        with pytest.raises(ConfigError, match="rw_step"):
            run_gp_chain(gp_spec(1), data, n_iters=12, burn_in=6, seed=1, rw_step=rw_step)
