"""Synthetic data generation, deviation statistics, surfaces, comparison."""

from dataclasses import replace

import numpy as np
import pytest

from factorint import (
    Family,
    InvalidFraction,
    McmcSettings,
    ShapeMismatch,
    aad,
    align_factors,
    compare_models,
    export_surface,
    fit_spec,
    generate_hidden_factor_dataset,
    generate_saddle_dataset,
    gp_spec,
    mult_spec,
    run_gp_chain,
    run_mult_chain,
    saddle_quadrant_recovery,
    standardize_rows,
)
from factorint.model import STATE_FIELDS
from tests_support import states


class TestGenerateSaddleDataset:
    def test_deterministic_given_seed(self):
        a_data, a_truth = generate_saddle_dataset(50, 30, 0.2, seed=5)
        b_data, b_truth = generate_saddle_dataset(50, 30, 0.2, seed=5)
        np.testing.assert_array_equal(a_data.values, b_data.values)
        np.testing.assert_array_equal(a_truth.effects, b_truth.effects)

    def test_zero_fraction_gives_no_effects(self):
        _, truth = generate_saddle_dataset(40, 20, 0.0, seed=1)
        assert truth.affected.size == 0
        assert (truth.effects == 0).all()

    def test_affected_count_is_exact(self):
        _, truth = generate_saddle_dataset(100, 100, 0.1, seed=2)
        candidates = 100 - 2 * 10
        assert truth.affected.size == round(0.1 * candidates)

    def test_affected_outside_seed_groups(self):
        _, truth = generate_saddle_dataset(60, 30, 0.3, seed=3)
        seeds = set(truth.seed_groups[0]) | set(truth.seed_groups[1])
        assert not (set(truth.affected) & seeds)
        outside = np.setdiff1d(np.arange(60), truth.affected)
        assert (truth.effects[outside] == 0).all()

    def test_rows_standardized(self):
        data, _ = generate_saddle_dataset(30, 25, 0.1, seed=4)
        assert np.abs(data.values.mean(axis=1)).max() < 1e-10
        assert np.abs(data.values.var(axis=1, ddof=1) - 1).max() < 1e-8

    def test_effect_rows_follow_the_score_product(self):
        _, truth = generate_saddle_dataset(40, 30, 0.2, seed=6)
        prod = truth.scores[0] * truth.scores[1]
        for i in truth.affected:
            ratio = truth.effects[i] / prod
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(InvalidFraction):
            generate_saddle_dataset(40, 20, 1.0, seed=0)
        with pytest.raises(InvalidFraction):
            generate_saddle_dataset(5, 20, 0.1, seed=0)

    def test_hidden_factor_dataset_has_no_effects(self):
        data, truth = generate_hidden_factor_dataset(60, 40, seed=9)
        assert truth.affected.size == 0
        assert (truth.effects == 0).all()
        assert data.n_features == 60


class TestAad:
    def test_exact_recovery_is_zero(self):
        x = np.arange(12.0).reshape(3, 4)
        assert aad(x, x) == 0.0

    def test_constant_offset(self):
        x = np.zeros((5, 5))
        assert aad(x + 1.0, x) == 1.0

    def test_hand_computed_two_by_two(self):
        est = np.array([[1.0, -2.0], [0.5, 3.0]])
        truth = np.array([[0.0, -1.0], [1.5, 1.0]])
        # |1| + |-1| + |-1| + |2| = 5, over 4 entries
        assert aad(est, truth) == 1.25

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            aad(np.zeros((2, 2)), np.zeros((2, 3)))


class TestAlignFactors:
    def test_recovers_permutation_and_signs(self):
        rng = np.random.default_rng(30)
        truth = rng.normal(size=(3, 40))
        noisy = truth + 0.05 * rng.normal(size=truth.shape)
        jumbled = np.array([-noisy[2], noisy[0], -noisy[1]])
        loadings = rng.normal(size=(7, 3))
        aligned, aligned_load, perm, signs = align_factors(jumbled, truth, loadings)
        for l in range(3):
            assert np.corrcoef(aligned[l], truth[l])[0, 1] > 0.99
        # loadings move with the same permutation/signs: the product is preserved
        np.testing.assert_allclose(aligned_load @ aligned, loadings @ jumbled, atol=1e-12)

    def test_matches_among_every_estimated_factor(self):
        # a fit with a third factor: the truth's second factor is the third one
        rng = np.random.default_rng(33)
        truth = rng.normal(size=(2, 40))
        estimated = np.array([-truth[0], rng.normal(size=40), 2 * truth[1]])
        loadings = rng.normal(size=(7, 3))
        aligned, aligned_load, perm, signs = align_factors(estimated, truth, loadings)
        np.testing.assert_array_equal(perm, [0, 2])
        np.testing.assert_array_equal(signs, [-1.0, 1.0])
        np.testing.assert_array_equal(aligned, [truth[0], 2 * truth[1]])
        np.testing.assert_array_equal(aligned_load, loadings[:, [0, 2]] * [-1.0, 1.0])


class TestSurfaces:
    def test_flat_zero_effect_gives_flat_grid(self):
        rng = np.random.default_rng(31)
        scores = rng.normal(size=(2, 30))
        grid = export_surface(np.zeros(30), scores)
        assert (grid.grid[:, 2] == 0).all()
        assert (grid.points[:, 2] == 0).all()

    def test_saddle_quadrant_signs_on_grid(self):
        rng = np.random.default_rng(32)
        scores = rng.normal(size=(2, 400))
        effect = scores[0] * scores[1]
        grid = export_surface(effect, scores)
        gx, gy, gz = grid.grid[:, 0], grid.grid[:, 1], grid.grid[:, 2]
        deep = (np.abs(gx) > 0.8) & (np.abs(gy) > 0.8)
        assert deep.any()
        assert (np.sign(gz[deep]) == np.sign(gx[deep] * gy[deep])).all()

    def test_sign_flip_negates_surface(self):
        rng = np.random.default_rng(33)
        scores = rng.normal(size=(2, 50))
        effect = scores[0] * scores[1]
        up = export_surface(effect, scores)
        down = export_surface(-effect, scores)
        np.testing.assert_allclose(down.grid[:, 2], -up.grid[:, 2], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            export_surface(np.zeros(5), np.zeros((2, 6)))

    def test_csv_round_shape(self, tmp_path):
        rng = np.random.default_rng(34)
        scores = rng.normal(size=(2, 10))
        grid = export_surface(rng.normal(size=10), scores)
        path = tmp_path / "surface.csv"
        grid.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda1,lambda2,effect,source"
        assert len(lines) == 1 + 10 + 625
        assert sum(1 for l in lines[1:] if l.endswith("sample")) == 10
        assert sum(1 for l in lines[1:] if l.endswith("grid")) == 625


def quadrant_recovery_loop(effects_est, truth) -> float:
    """``saddle_quadrant_recovery`` one feature and one quadrant at a time,
    as the reference for its array form."""
    if len(truth.affected) == 0:
        return 1.0
    s1, s2 = truth.scores[0], truth.scores[1]
    clear = (np.abs(s1) > 0.3) & (np.abs(s2) > 0.3)
    quads = [clear & (s1 > 0) & (s2 > 0), clear & (s1 < 0) & (s2 > 0),
             clear & (s1 > 0) & (s2 < 0), clear & (s1 < 0) & (s2 < 0)]
    hits = 0
    for i in truth.affected:
        ok = True
        for q in quads:
            if not q.any():
                continue
            if np.sign(effects_est[i, q].mean()) != np.sign(truth.effects[i, q].mean()):
                ok = False
                break
        hits += ok
    return hits / len(truth.affected)


class TestQuadrantRecovery:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_per_feature_loop(self, seed):
        # noisy estimates, so that some features miss some quadrants; the
        # scores are also folded into one quadrant, and squeezed onto the axes
        rng = np.random.default_rng(seed)
        _, truth = generate_saddle_dataset(60, int(rng.integers(20, 50)), 0.3, seed=seed)
        noisy = truth.effects + rng.normal(scale=rng.uniform(0.1, 3.0), size=truth.effects.shape)
        for scores in (truth.scores, np.abs(truth.scores), 0.01 * truth.scores):
            case = replace(truth, scores=scores)
            assert saddle_quadrant_recovery(noisy, case) == quadrant_recovery_loop(noisy, case)

    def test_truth_recovers_itself(self):
        _, truth = generate_saddle_dataset(50, 40, 0.2, seed=8)
        assert saddle_quadrant_recovery(truth.effects, truth) == 1.0

    def test_negated_effects_fail(self):
        _, truth = generate_saddle_dataset(50, 40, 0.2, seed=8)
        assert saddle_quadrant_recovery(-truth.effects, truth) == 0.0

    def test_no_affected_features_is_vacuous(self):
        _, truth = generate_saddle_dataset(50, 40, 0.0, seed=8)
        assert saddle_quadrant_recovery(np.zeros_like(truth.effects), truth) == 1.0


class TestCompareModels:
    def test_identical_specs_give_identical_rows(self):
        data, truth = generate_saddle_dataset(30, 24, 0.15, seed=10)
        sg = {0: frozenset(truth.seed_groups[0].tolist()),
              1: frozenset(truth.seed_groups[1].tolist())}
        spec = mult_spec(2, seed_groups=sg)
        settings = McmcSettings(n_iters=60, burn_in=30, seed=4)
        report = compare_models(data, truth, [spec, spec], settings,
                                labels=["one", "two"])
        a, b = report.rows
        assert a.aad_effects == b.aad_effects
        assert a.aad_scores == b.aad_scores
        assert (a.tp, a.fp, a.tn, a.fn) == (b.tp, b.fp, b.tn, b.fn)
        np.testing.assert_array_equal(a.surface.grid, b.surface.grid)

    def test_report_csv(self, tmp_path):
        data, truth = generate_saddle_dataset(30, 24, 0.15, seed=10)
        spec = mult_spec(2)
        settings = McmcSettings(n_iters=40, burn_in=20, seed=4)
        report = compare_models(data, truth, [spec], settings, labels=["m"])
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("label,aad_loadings")


def _same(a, b) -> bool:
    return (a is None and b is None) or np.array_equal(a, b)


class TestFitSpec:
    @pytest.mark.parametrize("spec, settings, chain", [
        (mult_spec(1), McmcSettings(n_iters=24, burn_in=10, thin=2, seed=3), 1),
        (mult_spec(2), McmcSettings(n_iters=20, burn_in=10, seed=5), 0),
        (gp_spec(1), McmcSettings(n_iters=24, burn_in=10, thin=2, seed=3), 1),
        # burn_in = 0: the step stays at rw_step throughout
        (gp_spec(2), McmcSettings(n_iters=20, burn_in=0, seed=6, rw_step=0.4), 0),
    ])
    def test_matches_the_family_runner(self, spec, settings, chain):
        data = standardize_rows(np.random.default_rng(31).normal(size=(6, 8)))
        via_settings = fit_spec(spec, data, settings, chain=chain)
        kwargs = dict(n_iters=settings.n_iters, burn_in=settings.burn_in, thin=settings.thin,
                      seed=settings.seed, chain=chain)
        if spec.family is Family.GP:
            direct = run_gp_chain(spec, data, rw_step=settings.rw_step, **kwargs)
        else:
            direct = run_mult_chain(spec, data, **kwargs)

        assert via_settings.chain == direct.chain == chain
        assert (len(via_settings) == len(direct)
                == (settings.n_iters - settings.burn_in) // settings.thin)
        for a, b in zip(states(via_settings), states(direct)):
            assert all(_same(getattr(a, name), getattr(b, name)) for name in STATE_FIELDS)
        assert _same(via_settings.mh_accept_counts, direct.mh_accept_counts)
        assert via_settings.rw_step_final == direct.rw_step_final
