"""Multiplicative-family Gibbs sampler: conditional correctness and contracts.

Gaussian conditionals are checked against finite differences of the log joint
(the conditionals are exactly quadratic, so central differences are exact up
to roundoff); inverse-gamma and Beta conditionals are checked by slicing the
log joint along the coordinate and verifying a constant offset from the
claimed density; indicator conditionals are checked against quadrature.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import beta as beta_dist
from scipy.stats import invgamma, kstest

from factorint import (
    BetaTable,
    DataMatrix,
    InterProbModel,
    LoadProbModel,
    McmcSettings,
    MultChain,
    mult_spec,
    run_mult_chain,
    standardize_rows,
)
from factorint.mult import (
    inter_score_conditional,
    log_joint,
    noise_conditional,
    refresh_products,
    residual_matrix,
    sample_inclusion_probs,
    score_conditional,
)
from factorint.prior import (
    INTER_GROUPS,
    LOAD_GROUPS,
    InclusionPrior,
    inclusion_posterior_params,
    slab_log_bayes_factor,
    slab_posterior,
)
from tests_support import states


def make_chain(approach: int, seed: int = 5, m: int = 3, n: int = 4, sweeps: int = 3):
    rng = np.random.default_rng(60 + approach)
    spec = mult_spec(approach, n_factors=2, slab_var_loading=2.0, slab_var_inter=2.0)
    data = standardize_rows(rng.normal(size=(m, n)))
    chain = MultChain(spec, data, McmcSettings(seed=seed))
    for _ in range(sweeps):
        chain.sweep()
    st = chain.state
    # put every coefficient in the slab so the Gaussian conditionals are live
    st.load_mask[:] = 1
    st.inter_mask[:] = 1
    st.loadings[:] = 0.5 * rng.normal(size=st.loadings.shape)
    st.inter_loadings[:] = 0.5 * rng.normal(size=st.inter_loadings.shape)
    return chain


def fd_gaussian(f, x0: float, h: float = 0.5):
    """Mean and variance implied by an exactly quadratic log density."""
    fp, f0, fm = f(x0 + h), f(x0), f(x0 - h)
    second = (fp - 2.0 * f0 + fm) / h**2
    first = (fp - fm) / (2.0 * h)
    var = -1.0 / second
    return x0 + var * first, var


class TestGaussianConditionals:
    @pytest.mark.parametrize("approach", [1, 2])
    def test_loading_conditional_matches_log_joint(self, approach):
        chain = make_chain(approach)
        st, data, spec, lay = chain.state, chain.data, chain.spec, chain.layout
        reg = st.scores[0]
        R = residual_matrix(st, data, spec) + np.outer(st.loadings[:, 0], reg)
        mean, var = slab_posterior(R, reg, st.noise_var, spec.slab_var_loading)

        def f(x):
            old = st.loadings[1, 0]
            st.loadings[1, 0] = x
            value = log_joint(st, data, spec, lay)
            st.loadings[1, 0] = old
            return value

        fd_mean, fd_var = fd_gaussian(f, st.loadings[1, 0])
        np.testing.assert_allclose(fd_mean, mean[1], rtol=1e-6)
        np.testing.assert_allclose(fd_var, var[1], rtol=1e-6)

    @pytest.mark.parametrize("approach", [1, 2])
    @pytest.mark.parametrize("l", [0, 1])
    def test_score_conditional_matches_log_joint(self, approach, l):
        chain = make_chain(approach)
        st, data, spec, lay = chain.state, chain.data, chain.spec, chain.layout
        mean, var = score_conditional(st, data, spec, l)
        j = 2

        def f(x):
            old = st.scores[l, j]
            st.scores[l, j] = x
            if approach == 2:
                refresh_products(st, spec)
            value = log_joint(st, data, spec, lay)
            st.scores[l, j] = old
            if approach == 2:
                refresh_products(st, spec)
            return value

        fd_mean, fd_var = fd_gaussian(f, st.scores[l, j])
        np.testing.assert_allclose(fd_mean, mean[j], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(fd_var, var[j], rtol=1e-6)

    def test_inter_score_conditional_matches_log_joint(self):
        chain = make_chain(1)
        st, data, spec, lay = chain.state, chain.data, chain.spec, chain.layout
        mean, var = inter_score_conditional(st, data, spec, 0)
        j = 1

        def f(x):
            old = st.inter_scores[0, j]
            st.inter_scores[0, j] = x
            value = log_joint(st, data, spec, lay)
            st.inter_scores[0, j] = old
            return value

        fd_mean, fd_var = fd_gaussian(f, st.inter_scores[0, j])
        np.testing.assert_allclose(fd_mean, mean[j], rtol=1e-6)
        np.testing.assert_allclose(fd_var, var[j], rtol=1e-6)

    def test_inter_loading_conditional_matches_log_joint(self):
        chain = make_chain(2)
        st, data, spec, lay = chain.state, chain.data, chain.spec, chain.layout
        reg = st.inter_scores[0]
        R = residual_matrix(st, data, spec) + np.outer(st.inter_loadings[:, 0], reg)
        mean, var = slab_posterior(R, reg, st.noise_var, spec.slab_var_inter)

        def f(x):
            old = st.inter_loadings[2, 0]
            st.inter_loadings[2, 0] = x
            value = log_joint(st, data, spec, lay)
            st.inter_loadings[2, 0] = old
            return value

        fd_mean, fd_var = fd_gaussian(f, st.inter_loadings[2, 0])
        np.testing.assert_allclose(fd_mean, mean[2], rtol=1e-6)
        np.testing.assert_allclose(fd_var, var[2], rtol=1e-6)


class TestNonGaussianConditionals:
    def test_noise_conditional_is_the_log_joint_slice(self):
        chain = make_chain(2)
        st, data, spec, lay = chain.state, chain.data, chain.spec, chain.layout
        shape, scale = noise_conditional(st, data, spec)
        offsets = []
        for s in np.linspace(0.3, 3.0, 9):
            old = st.noise_var[1]
            st.noise_var[1] = s
            value = log_joint(st, data, spec, lay)
            st.noise_var[1] = old
            offsets.append(value - invgamma.logpdf(s, a=shape, scale=scale[1]))
        assert max(offsets) - min(offsets) < 1e-8

    def test_noise_conditional_rss_zero(self):
        chain = make_chain(2)
        st, data, spec = chain.state, chain.data, chain.spec
        st.loadings[:] = 0.0
        st.inter_loadings[:] = 0.0
        data_zero = DataMatrix(np.zeros_like(data.values), data.feature_ids, data.sample_ids)
        shape, scale = noise_conditional(st, data_zero, spec)
        assert shape == spec.noise_prior[0] + data.n_samples / 2.0
        np.testing.assert_allclose(scale, spec.noise_prior[1])

    def test_noise_conditional_hyperparameter_arithmetic(self):
        # a = 2.1, b = 1.1, n = 100, rss = 100 -> IG(52.1, 51.1), mean 1.0
        shape = 2.1 + 100 / 2.0
        scale = 1.1 + 0.5 * 100.0
        assert shape == 52.1 and scale == 51.1
        np.testing.assert_allclose(invgamma.mean(a=shape, scale=scale), 1.0, atol=1e-12)

    def test_noise_draws_match_inverse_gamma(self):
        chain = make_chain(2, m=2, n=4)
        st, data, spec = chain.state, chain.data, chain.spec
        shape, scale = noise_conditional(st, data, spec)
        rng = np.random.default_rng(8)
        draws = scale[0] / rng.gamma(shape, 1.0, size=20_000)
        stat = kstest(draws, lambda x: invgamma.cdf(x, a=shape, scale=scale[0]))
        assert stat.pvalue > 0.01

    def test_inclusion_probability_conditional_is_the_log_joint_slice(self):
        chain = make_chain(2)
        st, data, spec, lay = chain.state, chain.data, chain.spec, chain.layout
        pa, pb = inclusion_posterior_params(lay.load, st.load_mask)
        share = lay.load.share[2, 1]
        offsets = []
        for p in np.linspace(0.05, 0.95, 9):
            old = st.load_prob[2, 1]
            st.load_prob[2, 1] = p
            value = log_joint(st, data, spec, lay)
            st.load_prob[2, 1] = old
            offsets.append(value - beta_dist.logpdf(p, pa[share], pb[share]))
        assert max(offsets) - min(offsets) < 1e-8

    @pytest.mark.parametrize("model", ["global", "grouped"])
    def test_shared_inclusion_probability_conditional_is_the_log_joint_slice(self, model):
        # feature 0 is a seed gene whose interaction probability is fixed at 0,
        # so it is the first entry of the share that is sliced below
        rng = np.random.default_rng(63)
        data = standardize_rows(rng.normal(size=(6, 5)))
        seeds = {0: frozenset({0}), 1: frozenset({1})}
        if model == "global":
            spec = mult_spec(2, seed_groups=seeds, inter_prob_model=InterProbModel.GLOBAL,
                             inter_prob_prior=BetaTable(default=(2.0, 3.0)))
        else:
            spec = mult_spec(2, seed_groups=seeds, seed_constraints=False,
                             fixed_inter_prob={0: 0.0},
                             inter_prob_model=InterProbModel.GROUPED,
                             inter_prob_prior=BetaTable(default=(1.0, 1.0),
                                                        groups={"seed": (2.0, 3.0)}))
        chain = MultChain(spec, data, McmcSettings(seed=7))
        for _ in range(3):
            chain.sweep()
        st, lay = chain.state, chain.layout
        share = lay.inter.share[1, 0]
        sliced = (lay.inter.share == share) & np.isnan(lay.inter.fixed)
        assert lay.inter.share[0, 0] == share and not sliced[0, 0]
        pa, pb = inclusion_posterior_params(lay.inter, st.inter_mask)
        assert (lay.inter.a[share], lay.inter.b[share]) == (2.0, 3.0)
        offsets = []
        for p in np.linspace(0.05, 0.95, 9):
            st.inter_prob[sliced] = p
            offsets.append(log_joint(st, data, spec, lay)
                           - beta_dist.logpdf(p, pa[share], pb[share]))
        assert max(offsets) - min(offsets) < 1e-8

    def test_global_inclusion_counts(self):
        mask = np.zeros(3744, dtype=np.int8)
        mask[:275] = 1
        prior = InclusionPrior.build(InterProbModel.GLOBAL, BetaTable(), INTER_GROUPS,
                                     np.zeros(3744, dtype=np.int8), np.full(3744, np.nan))
        pa, pb = inclusion_posterior_params(prior, mask)
        assert (pa.tolist(), pb.tolist()) == ([1.0 + 275], [1.0 + 3469])

    def test_per_entry_beta_counts(self):
        # indicator on with a flat prior: Beta(2, 1)
        mask = np.array([[1]], dtype=np.int8)
        prior = InclusionPrior.build(LoadProbModel.PER_ENTRY, BetaTable(), LOAD_GROUPS,
                                     np.zeros((1, 1), dtype=np.int8), np.full((1, 1), np.nan))
        pa, pb = inclusion_posterior_params(prior, mask)
        assert pa.tolist() == [2.0] and pb.tolist() == [1.0]

    def test_grouped_empty_group_returns_prior(self):
        mask = np.array([1, 1], dtype=np.int8)
        groups = np.zeros(2, dtype=np.int8)  # group 1 has no members
        prior = InclusionPrior.build(InterProbModel.GROUPED, BetaTable(default=(3.0, 4.0)),
                                     INTER_GROUPS, groups, np.array([np.nan, np.nan]))
        pa, pb = inclusion_posterior_params(prior, mask)
        assert (pa.tolist(), pb.tolist()) == ([5.0], [4.0])
        assert prior.share.tolist() == [0, 0]  # absent group has no share to draw


# The three-branch inclusion-probability code these blocks replaced, kept as
# the reference that the share-indexed draw must reproduce bit for bit.

def reference_entry_groups(groups: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(groups.reshape(groups.shape + (1,) * (len(shape) - groups.ndim)), shape)


def reference_inclusion_posterior_params(mask, fixed, groups, prior_a, prior_b, model: str):
    """Per-entry (a, b) arrays for the per-entry models, a scalar pair for the
    global model and a {group_label: (a, b)} dict for the grouped model."""
    free = np.isnan(fixed)
    k = mask.astype(float)
    if model in ("per_entry", "per_feature"):
        return prior_a + k, prior_b + 1.0 - k
    if model == "global":
        return (float(prior_a.flat[0] + k[free].sum()),
                float(prior_b.flat[0] + free.sum() - k[free].sum()))
    out = {}
    grp = reference_entry_groups(groups, mask.shape)
    for g in np.unique(grp):
        sel = free & (grp == g)
        a0 = prior_a[grp == g].flat[0]
        b0 = prior_b[grp == g].flat[0]
        out[int(g)] = (float(a0 + k[sel].sum()), float(b0 + sel.sum() - k[sel].sum()))
    return out


def reference_sample_inclusion_probs(rng, mask, fixed, groups, prior_a, prior_b, model: str):
    params = reference_inclusion_posterior_params(mask, fixed, groups, prior_a, prior_b, model)
    prob = np.empty(mask.shape, dtype=float)
    if model == "grouped":
        grp = reference_entry_groups(groups, mask.shape)
        for g, (a, b) in params.items():
            prob[grp == g] = rng.beta(a, b)
    else:
        prob[...] = rng.beta(*params)
    return np.where(np.isnan(fixed), prob, fixed)


PROB_MODELS = (LoadProbModel.PER_ENTRY, LoadProbModel.GROUPED, InterProbModel.PER_FEATURE,
               InterProbModel.GLOBAL, InterProbModel.GROUPED)
beta_pairs = hst.tuples(hst.floats(0.05, 20.0), hst.floats(0.05, 20.0))


class TestSharesMatchTheReference:
    @settings(max_examples=300, deadline=None)
    @given(model=hst.sampled_from(PROB_MODELS), m=hst.integers(1, 9),
           cols=hst.integers(0, 4), default=beta_pairs,
           group_pairs=hst.lists(hst.one_of(hst.none(), beta_pairs), min_size=3, max_size=3),
           fixed_share=hst.sampled_from([0.0, 0.3, 0.8, 1.0]), seed=hst.integers(0, 2**32 - 1))
    def test_posterior_params_and_draws(self, model, m, cols, default, group_pairs,
                                        fixed_share, seed):
        names = LOAD_GROUPS if isinstance(model, LoadProbModel) else INTER_GROUPS
        groups = {} if model is InterProbModel.GLOBAL else \
            {name: pair for name, pair in zip(names, group_pairs) if pair is not None}
        table = BetaTable(default=default, groups=groups)
        rng = np.random.default_rng(seed)
        shape = (m, cols) if cols else (m,)
        labels = rng.integers(0, len(names), size=shape).astype(np.int8)
        fixed = np.where(rng.random(shape) < fixed_share,
                         rng.integers(0, 2, size=shape).astype(float), np.nan)
        mask = rng.integers(0, 2, size=shape).astype(np.int8)
        pairs = np.array([table.groups.get(names[g], table.default) for g in labels.ravel()])
        pairs = pairs.reshape(shape + (2,))
        ref_args = (mask, fixed, labels, pairs[..., 0], pairs[..., 1], model.value)

        prior = InclusionPrior.build(model, table, names, labels, fixed)
        pa, pb = inclusion_posterior_params(prior, mask)
        ref = reference_inclusion_posterior_params(*ref_args)
        if isinstance(ref, dict):
            assert list(zip(pa.tolist(), pb.tolist())) == list(ref.values())
        else:
            np.testing.assert_array_equal(pa, np.ravel(ref[0]))
            np.testing.assert_array_equal(pb, np.ravel(ref[1]))

        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = sample_inclusion_probs(ours, prior, mask)
        expected = reference_sample_inclusion_probs(theirs, *ref_args)
        assert drawn.shape == expected.shape and drawn.tobytes() == expected.tobytes()
        assert ours.random() == theirs.random()  # the same number of variates consumed


class TestIndicatorConditional:
    def test_matches_quadrature(self):
        chain = make_chain(2)
        st, data, spec = chain.state, chain.data, chain.spec
        i, l = 1, 0
        reg = st.scores[l]
        R = residual_matrix(st, data, spec) + np.outer(st.loadings[:, l], reg)
        mean, var = slab_posterior(R, reg, st.noise_var, spec.slab_var_loading)
        log_bf = slab_log_bayes_factor(mean, var, spec.slab_var_loading)
        q = st.load_prob[i, l]
        p_code = expit(np.log(q / (1 - q)) + log_bf[i])

        r, s2, w = R[i], st.noise_var[i], spec.slab_var_loading

        def slab_integrand(a):
            return (np.exp(-0.5 * np.sum((r - a * reg) ** 2) / s2)
                    * np.exp(-0.5 * a * a / w) / np.sqrt(2 * np.pi * w))

        m1, _ = quad(slab_integrand, -30, 30, limit=200)
        m0 = np.exp(-0.5 * np.sum(r**2) / s2)
        p_oracle = q * m1 / (q * m1 + (1 - q) * m0)
        np.testing.assert_allclose(p_code, p_oracle, atol=1e-9)

    def test_vanishing_slab_gives_unit_bayes_factor(self):
        rng = np.random.default_rng(9)
        R = rng.normal(size=(3, 6))
        reg = rng.normal(size=6)
        for slab_var in (1e-6, 1e-9):
            mean, var = slab_posterior(R, reg, np.ones(3), slab_var)
            log_bf = slab_log_bayes_factor(mean, var, slab_var)
            assert np.abs(log_bf).max() < 5e-3 * np.sqrt(1e-6 / slab_var)


class TestChainContracts:
    def test_product_identity_exact_at_every_retained_state(self):
        rng = np.random.default_rng(10)
        data = standardize_rows(rng.normal(size=(8, 12)))
        draws = run_mult_chain(mult_spec(2, n_factors=3), data,
                               n_iters=40, burn_in=20, seed=4)
        from factorint import factor_pairs
        for st in states(draws):
            for t, (l1, l2) in enumerate(factor_pairs(3)):
                assert np.max(np.abs(st.inter_scores[t] - st.scores[l1] * st.scores[l2])) == 0.0

    def test_sparsity_coupling(self):
        rng = np.random.default_rng(11)
        data = standardize_rows(rng.normal(size=(6, 10)))
        draws = run_mult_chain(mult_spec(2), data, n_iters=40, burn_in=20, seed=6)
        for st in states(draws):
            assert ((st.loadings != 0) == (st.load_mask == 1)).all()
            assert ((st.inter_loadings != 0) == (st.inter_mask == 1)).all()

    def test_determinism(self):
        rng = np.random.default_rng(12)
        data = standardize_rows(rng.normal(size=(5, 8)))
        a = run_mult_chain(mult_spec(1), data, n_iters=30, burn_in=10, seed=9)
        b = run_mult_chain(mult_spec(1), data, n_iters=30, burn_in=10, seed=9)
        for sa, sb in zip(states(a), states(b)):
            np.testing.assert_array_equal(sa.loadings, sb.loadings)
            np.testing.assert_array_equal(sa.scores, sb.scores)
            np.testing.assert_array_equal(sa.noise_var, sb.noise_var)

    def test_retained_count(self):
        rng = np.random.default_rng(13)
        data = standardize_rows(rng.normal(size=(4, 8)))
        draws = run_mult_chain(mult_spec(2), data, n_iters=600, burn_in=400, thin=1, seed=2)
        assert len(draws) == 200

    def test_seed_constraints_force_structure(self):
        rng = np.random.default_rng(14)
        data = standardize_rows(rng.normal(size=(6, 10)))
        spec = mult_spec(2, seed_groups={0: frozenset({0, 1}), 1: frozenset({2, 3})})
        draws = run_mult_chain(spec, data, n_iters=30, burn_in=10, seed=3)
        for st in states(draws):
            assert (st.load_mask[[0, 1], 0] == 1).all()
            assert (st.loadings[[0, 1], 1] == 0).all()
            assert (st.inter_loadings[[0, 1, 2, 3]] == 0).all()

    def test_prior_recovery_for_scores(self):
        # all loadings pinned at zero: scores should sample their prior
        rng = np.random.default_rng(15)
        data = standardize_rows(rng.normal(size=(4, 6)))
        m = 4
        spec = mult_spec(2,
                         fixed_load_prob={(i, l): 0.0 for i in range(m) for l in range(2)},
                         fixed_inter_prob={i: 0.0 for i in range(m)})
        draws = run_mult_chain(spec, data, n_iters=10_200, burn_in=200, seed=8)
        pooled = np.concatenate([st.scores.ravel() for st in states(draws)])
        se_mean = pooled.std() / np.sqrt(pooled.size)
        assert abs(pooled.mean()) < 3 * se_mean
        assert abs(pooled.var() - 1.0) < 3 * np.sqrt(2.0 / pooled.size)

    def test_interaction_score_prior_when_loadings_zero(self):
        # approach 1 with the interaction loadings pinned at zero:
        # inter_scores[t,j] ~ N(scores_l1 * scores_l2, product_var)
        rng = np.random.default_rng(16)
        data = standardize_rows(rng.normal(size=(4, 6)))
        spec = mult_spec(1, product_var=1e-5,
                         fixed_inter_prob={i: 0.0 for i in range(4)})
        draws = run_mult_chain(spec, data, n_iters=60, burn_in=20, seed=5)
        for st in states(draws):
            prod = st.scores[0] * st.scores[1]
            assert np.abs(st.inter_scores[0] - prod).max() < 3 * np.sqrt(1e-5) * 4
