"""Nonlinear-family sampler: effect-row conditionals, the shared effect,
the score Metropolis step, and chain contracts."""

import copy

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import factorint.gp as gp_module
from factorint import (
    CholeskyFailure,
    DataMatrix,
    GpChain,
    McmcSettings,
    generate_saddle_dataset,
    gp_spec,
    run_gp_chain,
    se_kernel,
    standardize_rows,
)
from factorint.gp import (
    column_data_deltas,
    column_delta_log_joint,
    gp_prior_logdens,
    gp_rows,
    log_joint,
    shared_effect_posterior,
    update_shared_effect,
)
from factorint.kernels import KernelMatrix, SweepFactor, marginal_ratio_rows
from factorint.mult import initial_state
from factorint.prior import _logit, build_layout
from factorint.rng import stream
from tests_support import states


def make_chain(variant=1, m=4, n=6, seed=5, sweeps=4, **spec_kw):
    rng = np.random.default_rng(70 + variant)
    spec = gp_spec(variant, **spec_kw)
    data = standardize_rows(rng.normal(size=(m, n)))
    chain = GpChain(spec, data, McmcSettings(seed=seed))
    for _ in range(sweeps):
        chain.sweep()
    return chain


class TestEffectRowConditional:
    def test_mean_and_covariance_match_direct_algebra(self):
        chain = make_chain()
        st, k = chain.state, chain.kernel
        R = chain.data.values - st.loadings @ st.scores
        i, s2 = 2, st.noise_var[2]
        Kreg = k.regularized()
        gain_direct = Kreg @ np.linalg.inv(Kreg + s2 * np.eye(k.n))
        mean_direct = gain_direct @ R[i]
        cov_direct = Kreg - gain_direct @ Kreg

        d, U = k.eigensystem()
        gain = d / (d + s2)
        mean_eig = U @ (gain * (U.T @ R[i]))
        cov_eig = U @ np.diag(gain * s2) @ U.T
        np.testing.assert_allclose(mean_eig, mean_direct, atol=1e-10)
        np.testing.assert_allclose(cov_eig, cov_direct, atol=1e-10)

    def test_two_sample_case_by_hand(self):
        k = se_kernel(np.array([[0.0, 0.1]]), 0.2)
        Kreg = k.regularized()
        r = np.array([1.0, -0.5])
        s2 = 0.7
        A = Kreg @ np.linalg.inv(Kreg + s2 * np.eye(2))
        d, U = k.eigensystem()
        mean = U @ ((d / (d + s2)) * (U.T @ r))
        np.testing.assert_allclose(mean, A @ r, atol=1e-10)

    def test_large_noise_shrinks_conditional_mean_to_zero(self):
        chain = make_chain()
        k = chain.kernel
        d, U = k.eigensystem()
        r = np.ones(k.n)
        for s2, bound in ((1e4, 1e-3), (1e8, 1e-7)):
            mean = U @ ((d / (d + s2)) * (U.T @ r))
            assert np.abs(mean).max() < bound

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_indicator_log_odds_match_explicit_densities(self, n):
        rng = np.random.default_rng(400 + n)
        k = se_kernel(rng.normal(size=(2, n)), 0.4)
        R = rng.normal(size=(3, n))
        s2 = rng.uniform(0.4, 1.5, size=3)
        rho = rng.uniform(0.2, 0.8, size=3)
        logodds = _logit(rho) + marginal_ratio_rows(R, k, s2)
        for i in range(3):
            direct = (np.log(rho[i]) - np.log1p(-rho[i])
                      + multivariate_normal.logpdf(R[i], mean=np.zeros(n),
                                                   cov=k.regularized() + s2[i] * np.eye(n))
                      - multivariate_normal.logpdf(R[i], mean=np.zeros(n),
                                                   cov=s2[i] * np.eye(n)))
            np.testing.assert_allclose(logodds[i], direct, atol=1e-8)


class TestSharedEffect:
    def test_no_active_rows_gives_prior(self):
        chain = make_chain(variant=2)
        st = chain.state
        st.inter_mask[:] = 0
        R = chain.data.values - st.loadings @ st.scores
        mean, var_diag, U = shared_effect_posterior(st, R, chain.kernel)
        d, _ = chain.kernel.eigensystem()
        np.testing.assert_array_equal(mean, np.zeros(chain.kernel.n))
        np.testing.assert_allclose(var_diag, d, atol=1e-12)

    def test_single_active_row_identity_kernel(self):
        # far-apart columns: kernel is the identity; sigma2 = 1 gives mean r/2
        k = se_kernel(np.array([[0.0, 80.0], [0.0, -80.0]]), 0.2)
        rng = np.random.default_rng(17)
        data = standardize_rows(rng.normal(size=(2, 2)))
        spec = gp_spec(2)
        st = initial_state(spec, data, build_layout(spec, 2), stream(0, 0, "init"))
        st.loadings[:] = 0.0
        st.noise_var[:] = 1.0
        st.inter_mask = np.array([1, 0], dtype=np.int8)
        mean, var_diag, U = shared_effect_posterior(st, data.values, k)
        np.testing.assert_allclose(mean, data.values[0] / 2.0, atol=1e-8)
        np.testing.assert_allclose(var_diag, 0.5, atol=1e-8)

    def test_indicator_frequencies_match_enumeration_oracle(self):
        # freeze everything except (z, shared effect) and compare the chain's
        # z marginal with grid quadrature over the shared effect
        X = np.array([[1.1, -0.6], [0.9, -0.8]])
        data = DataMatrix(X, ("a", "b"), ("s1", "s2"))
        spec = gp_spec(2)
        layout = build_layout(spec, 2)
        k = se_kernel(np.array([[0.3, -0.5], [0.1, 0.4]]), 0.6)
        st = initial_state(spec, data, layout, stream(1, 0, "init"))
        st.loadings[:] = 0.0
        st.noise_var[:] = np.array([0.5, 0.8])
        st.inter_prob = np.array([0.45, 0.55])

        # oracle: p(z) * integral over the shared effect on a dense grid
        grid = np.linspace(-6, 6, 241)
        F1, F2 = np.meshgrid(grid, grid, indexing="ij")
        nodes = np.column_stack([F1.ravel(), F2.ravel()])
        prior = multivariate_normal.pdf(nodes, mean=np.zeros(2), cov=k.regularized())
        weights = {}
        for z0 in (0, 1):
            for z1 in (0, 1):
                like = np.ones(nodes.shape[0])
                for i, z in enumerate((z0, z1)):
                    target = nodes if z else np.zeros_like(nodes)
                    dev = X[i][None, :] - target
                    like = like * np.exp(-0.5 * np.sum(dev**2, axis=1) / st.noise_var[i]) \
                        / (2 * np.pi * st.noise_var[i])
                pz = (st.inter_prob[0] if z0 else 1 - st.inter_prob[0]) * \
                     (st.inter_prob[1] if z1 else 1 - st.inter_prob[1])
                weights[(z0, z1)] = pz * float(np.sum(prior * like))
        total = sum(weights.values())
        oracle = {cfg: w / total for cfg, w in weights.items()}

        rng = stream(2, 0, "effects")
        counts = {cfg: 0 for cfg in oracle}
        n_iter = 50_000
        for _ in range(n_iter):
            update_shared_effect(st, data, spec, layout, k, rng)
            counts[(int(st.inter_mask[0]), int(st.inter_mask[1]))] += 1
        tv = 0.5 * sum(abs(counts[cfg] / n_iter - oracle[cfg]) for cfg in oracle)
        assert tv < 0.02

    def test_active_rows_share_the_effect_exactly(self):
        chain = make_chain(variant=2, sweeps=6)
        st = chain.state
        active = st.inter_mask.astype(bool)
        if active.any():
            for i in np.flatnonzero(active):
                np.testing.assert_array_equal(st.effects[i], st.shared_effect)
        assert (st.effects[~active] == 0).all()

    def test_shared_effect_coherent_at_every_retained_state(self):
        rng = np.random.default_rng(27)
        data = standardize_rows(rng.normal(size=(5, 6)))
        draws = run_gp_chain(gp_spec(2), data, n_iters=40, burn_in=20, seed=6)
        for st in states(draws):
            active = st.inter_mask.astype(bool)
            for i in np.flatnonzero(active):
                np.testing.assert_array_equal(st.effects[i], st.shared_effect)
            assert (st.effects[~active] == 0).all()


class TestScoreMetropolis:
    def test_delta_matches_log_joint_difference(self):
        chain = make_chain()
        st, k, spec, data = chain.state, chain.kernel, chain.spec, chain.data
        rng = np.random.default_rng(18)
        st.inter_mask[:] = np.array([1, 0, 1, 0], dtype=np.int8)
        st.effects[1] = 0.0
        st.effects[3] = 0.0
        gp_cur = gp_prior_logdens(k, st, spec)
        for j in (0, 3):
            proposal = st.scores[:, j] + 0.3 * rng.normal(size=2)
            delta, k_prop, _ = column_delta_log_joint(st, data, spec, k, j, proposal, gp_cur)
            before = log_joint(st, data, spec, kernel=k)
            saved = st.scores[:, j].copy()
            st.scores[:, j] = proposal
            after = log_joint(st, data, spec, kernel=k_prop)
            st.scores[:, j] = saved
            np.testing.assert_allclose(delta, after - before, atol=1e-8)

    def test_zero_step_always_accepts_and_stays_put(self):
        rng = np.random.default_rng(19)
        data = standardize_rows(rng.normal(size=(4, 6)))
        chain = GpChain(gp_spec(1), data, McmcSettings(seed=7, rw_step=0.0, adapt_rw=False))
        start = chain.state.scores.copy()
        accepted = chain.update_score_columns()
        assert accepted == data.n_samples
        np.testing.assert_array_equal(chain.state.scores, start)

    def test_cholesky_failure_rejects_proposal(self, monkeypatch):
        # Columns 10 apart at ls 0.2 make K exactly the identity; held at zero
        # jitter, a proposal landing exactly on another column makes K singular,
        # so its conditional variance is 0 and the move must be rejected.
        rng = np.random.default_rng(19)
        data = standardize_rows(rng.normal(size=(4, 6)))
        chain = GpChain(gp_spec(1), data, McmcSettings(seed=7, rw_step=1.0, adapt_rw=False))
        st = chain.state
        st.scores[:] = 0.0
        st.scores[0] = 10.0 * np.arange(6)
        st.inter_mask[:] = 0
        st.inter_mask[1] = 1
        st.effects[:] = 0.0
        st.effects[1] = np.linspace(-1.0, 1.0, 6)
        K = se_kernel(st.scores, chain.spec.length_scale).K
        np.testing.assert_array_equal(K, np.eye(6))
        chain.kernel = KernelMatrix(K, chain.spec.length_scale, 0.0, np.eye(6))
        chain.adapting = False

        class OntoNextColumn:
            """Proposal noise moving column j exactly onto column j + 1."""

            def __init__(self, scores):
                self.scores, self.j = scores.copy(), 0

            def standard_normal(self, size=None, out=None):
                n = self.scores.shape[1]
                step = self.scores[:, (self.j + 1) % n] - self.scores[:, self.j]
                self.j += 1
                if out is None:
                    return step
                out[...] = step
                return out

            def random(self):
                return 0.5

        proposals = OntoNextColumn(st.scores)
        monkeypatch.setattr(chain.streams, "get", lambda purpose: proposals)
        before = st.scores.copy()
        kernel = chain.kernel
        accepted = chain.update_score_columns()
        assert accepted == 0
        np.testing.assert_array_equal(st.scores, before)
        assert chain.kernel is kernel
        np.testing.assert_array_equal(chain.accept_counts, [[0, 1]] * 6)

    def test_prior_recovery_with_likelihood_disabled(self):
        # loadings and effects pinned at zero: the score columns must sample
        # their standard-normal prior through the Metropolis kernel
        rng = np.random.default_rng(20)
        data = standardize_rows(rng.normal(size=(3, 8)))
        spec = gp_spec(1,
                       fixed_load_prob={(i, l): 0.0 for i in range(3) for l in range(2)},
                       fixed_inter_prob={i: 0.0 for i in range(3)})
        draws = run_gp_chain(spec, data, n_iters=4_000, burn_in=500, seed=21)
        pooled = np.stack([st.scores for st in states(draws)])  # (S, L, n)
        flat = pooled.reshape(pooled.shape[0], -1)
        # batch-means standard error over the sweep axis
        n_batches = 50
        batches = flat[: (flat.shape[0] // n_batches) * n_batches]
        batches = batches.reshape(n_batches, -1, flat.shape[1]).mean(axis=(1, 2))
        se = batches.std(ddof=1) / np.sqrt(n_batches)
        assert abs(flat.mean()) < 3 * se
        batch_var = flat.reshape(n_batches, -1, flat.shape[1])
        var_means = (batch_var**2).mean(axis=(1, 2))
        se_var = var_means.std(ddof=1) / np.sqrt(n_batches)
        assert abs((flat**2).mean() - 1.0) < 3 * se_var


def reference_update_score_columns(chain):
    """The score-column sweep with a full kernel rebuild per proposal."""
    rng = chain.streams.get("scores_mh")
    state, spec = chain.state, chain.spec
    gp_cur = gp_prior_logdens(chain.kernel, state, spec)
    accepted = 0
    for j in range(chain.data.n_samples):
        proposal = state.scores[:, j] + chain.rw_step * rng.standard_normal(spec.n_factors)
        log_u = np.log(rng.random())
        try:
            delta, kernel_prop, gp_prop = column_delta_log_joint(
                state, chain.data, spec, chain.kernel, j, proposal, gp_cur)
        except CholeskyFailure:
            if not chain.adapting:
                chain.accept_counts[j, 1] += 1
            continue
        if not chain.adapting:
            chain.accept_counts[j, 1] += 1
        if log_u < delta:
            state.scores[:, j] = proposal
            chain.kernel = kernel_prop
            gp_cur = gp_prop
            accepted += 1
            if not chain.adapting:
                chain.accept_counts[j, 0] += 1
    return accepted


def reference_column_data_delta(state, data, j, proposal):
    """Change in the data likelihood at column j plus the standard-normal
    score prior for replacing score column j with ``proposal``, one column at
    a time (the formula ``column_data_deltas`` vectorises)."""
    current = state.scores[:, j]
    x = data.values[:, j] - state.effects[:, j]
    w = 1.0 / state.noise_var
    res_cur = x - state.loadings @ current
    res_prop = x - state.loadings @ proposal
    delta = -0.5 * float((res_prop * res_prop - res_cur * res_cur) @ w)
    return delta - 0.5 * (float(proposal @ proposal) - float(current @ current))


class TestColumnDataDeltas:
    """The sweep's vectorised data term against the per-column formula."""

    @pytest.mark.parametrize("active", [True, False])
    def test_matches_per_column_reference(self, active):
        chain = make_chain(m=9, n=14, sweeps=5)
        st = chain.state
        rng = np.random.default_rng(40)
        st.loadings = rng.normal(size=st.loadings.shape)
        st.noise_var = rng.uniform(0.2, 2.0, size=st.noise_var.shape)
        st.inter_mask[:] = 0
        st.effects[:] = 0.0
        if active:
            st.inter_mask[[1, 4]] = 1
            st.effects[[1, 4]] = rng.normal(size=(2, 14))
        rng = np.random.default_rng(41)
        for step in (1e-3, 0.1, 2.0):
            proposals = st.scores + step * rng.standard_normal(st.scores.shape)
            deltas = column_data_deltas(st, chain.data, proposals)
            reference = [reference_column_data_delta(st, chain.data, j, proposals[:, j])
                         for j in range(chain.data.n_samples)]
            # relative to the magnitude of the terms differenced: at the
            # smallest step the delta itself is about 1e-4 and cancellation
            # leaves about 1e-15 in either formula
            x = chain.data.values - st.effects
            w = 1.0 / st.noise_var
            res_cur = x - st.loadings @ st.scores
            res_prop = x - st.loadings @ proposals
            scale = 0.5 * (w @ (res_prop**2 + res_cur**2)
                           + np.sum(proposals**2 + st.scores**2, axis=0))
            assert (np.abs(deltas - reference) <= 1e-12 * scale).all()
            if step == 2.0:
                np.testing.assert_allclose(deltas, reference, rtol=1e-12)

    def test_log_joint_delta_takes_its_column_entry(self):
        chain = make_chain(m=6, n=9, sweeps=3)
        st, k, spec, data = chain.state, chain.kernel, chain.spec, chain.data
        gp_cur = gp_prior_logdens(k, st, spec)
        rng = np.random.default_rng(42)
        for j in (0, 4, 8):
            proposal = st.scores[:, j] + 0.2 * rng.normal(size=2)
            delta, _, gp_prop = column_delta_log_joint(st, data, spec, k, j, proposal, gp_cur)
            reference = reference_column_data_delta(st, data, j, proposal)
            np.testing.assert_allclose(delta - (gp_prop - gp_cur), reference, rtol=1e-12)


class TestColumnFactorSweep:
    """The sweep through ``SweepFactor`` against the full-rebuild reference."""

    @pytest.mark.parametrize("variant, active", [(1, True), (1, False), (2, True)])
    def test_sweep_matches_full_rebuild_loop(self, variant, active):
        # ls = 0.8 couples the columns, so a stale factor would change decisions
        chain = make_chain(variant=variant, m=6, n=12, sweeps=6, length_scale=0.8)
        st = chain.state
        if variant == 1:
            st.inter_mask[:] = 0
            st.effects[:] = 0.0
            if active:
                st.inter_mask[[0, 3]] = 1
                st.effects[[0, 3]] = (np.linalg.cholesky(chain.kernel.regularized())
                                      @ np.random.default_rng(31).normal(size=(12, 2))).T
        chain.adapting = False
        twin = copy.deepcopy(chain)
        total = 0
        for _ in range(3):
            accepted = chain.update_score_columns()
            assert accepted == reference_update_score_columns(twin)
            total += accepted
            np.testing.assert_array_equal(chain.state.scores, twin.state.scores)
            np.testing.assert_array_equal(chain.accept_counts, twin.accept_counts)
            np.testing.assert_array_equal(chain.kernel.K, twin.kernel.K)
            assert chain.kernel.jitter == twin.kernel.jitter
        assert 0 < total < 3 * 12

    @pytest.mark.parametrize("active", [True, False])
    def test_at_most_one_kernel_build_per_sweep(self, monkeypatch, active):
        chain = make_chain(m=6, n=12, sweeps=4)
        chain.state.inter_mask[:] = 0
        chain.state.effects[:] = 0.0
        if active:
            chain.state.inter_mask[2] = 1
            chain.state.effects[2] = np.sin(np.arange(12.0))
        calls = []

        def counted(scores, length_scale):
            calls.append(1)
            return se_kernel(scores, length_scale)

        monkeypatch.setattr(gp_module, "se_kernel", counted)
        for sweep in range(1, 4):
            chain.update_score_columns()
            assert len(calls) <= sweep

    def test_a_sweep_with_active_rows_factors_its_kernel_once(self, monkeypatch):
        # the score step starts from the kernel's own factor, so the sweep's
        # factorisations are the rebuilt kernel's Cholesky and the effect
        # rows' eigendecomposition; QR is only for more rows than columns
        chain = make_chain(m=6, n=12, sweeps=4)
        calls = dict.fromkeys(("cholesky", "eigh", "qr"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for _ in range(3):
            st = chain.state
            st.inter_mask[:] = 0
            st.inter_mask[[1, 2]] = 1
            st.effects[:] = 0.0
            st.effects[[1, 2]] = np.sin(np.arange(24.0)).reshape(2, 12)
            calls.update(dict.fromkeys(calls, 0))
            kernel = chain.kernel
            chain.sweep()
            assert chain.kernel is not kernel    # a column moved
            assert calls == {"cholesky": 1, "eigh": 1, "qr": 0}

    @pytest.mark.parametrize("length_scale, rtol", [
        (0.2, 1e-8),
        # cond(K + jitter*I) is about 2e9 here: the full rebuild is itself off
        # from exact arithmetic by up to 2.5e-7 relative on such proposals
        # (mpmath), so agreement is bounded by conditioning, not 1e-8
        (0.5, 1e-4),
    ])
    def test_factor_delta_matches_full_rebuild(self, length_scale, rtol):
        data, _ = generate_saddle_dataset(40, 100, 0.3, seed=3)
        chain = GpChain(gp_spec(1, length_scale=length_scale), data, McmcSettings(seed=4))
        for _ in range(40):
            chain.sweep()
        st, spec = chain.state, chain.spec
        rows = gp_rows(st, spec)
        assert rows.shape[0] > 0
        kernel = chain.kernel
        gp_cur = gp_prior_logdens(kernel, st, spec)
        rng = np.random.default_rng(1)
        proposals, uniforms = np.empty_like(st.scores), np.empty(data.n_samples)
        for j in range(data.n_samples):
            proposals[:, j] = st.scores[:, j] + chain.rw_step * rng.standard_normal(2)
            uniforms[j] = rng.random()
        factor = SweepFactor(kernel, st.scores, proposals, rows)
        accepted = 0
        for j in range(data.n_samples):
            delta, kernel_prop, gp_prop = column_delta_log_joint(
                st, data, spec, kernel, j, proposals[:, j], gp_cur)
            assert kernel_prop.jitter == kernel.jitter
            fast = factor.column_delta(j)
            reference = gp_prop - gp_cur
            assert abs(fast - reference) <= rtol * max(1.0, abs(reference))
            if np.log(uniforms[j]) < delta:
                factor.accept()
                st.scores[:, j] = proposals[:, j]
                kernel, gp_cur = kernel_prop, gp_prop
                accepted += 1
        assert 0 < accepted < data.n_samples


class TestChainContracts:
    def test_kernel_state_coherence(self):
        chain = make_chain(sweeps=5)
        rebuilt = se_kernel(chain.state.scores, chain.spec.length_scale)
        np.testing.assert_array_equal(rebuilt.K, chain.kernel.K)
        assert rebuilt.jitter == chain.kernel.jitter

    def test_effect_mask_coupling(self):
        rng = np.random.default_rng(22)
        data = standardize_rows(rng.normal(size=(5, 7)))
        draws = run_gp_chain(gp_spec(1), data, n_iters=30, burn_in=10, seed=3)
        for st in states(draws):
            off = st.inter_mask == 0
            assert (st.effects[off] == 0).all()

    def test_seed_rows_have_exactly_zero_effects(self):
        rng = np.random.default_rng(23)
        data = standardize_rows(rng.normal(size=(6, 8)))
        spec = gp_spec(1, seed_groups={0: frozenset({0, 1}), 1: frozenset({2, 3})})
        draws = run_gp_chain(spec, data, n_iters=40, burn_in=20, seed=4)
        pooled = draws.stack("effects")
        assert np.abs(pooled[:, [0, 1, 2, 3], :]).max() == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(24)
        data = standardize_rows(rng.normal(size=(4, 6)))
        a = run_gp_chain(gp_spec(1), data, n_iters=24, burn_in=12, seed=9)
        b = run_gp_chain(gp_spec(1), data, n_iters=24, burn_in=12, seed=9)
        for sa, sb in zip(states(a), states(b)):
            np.testing.assert_array_equal(sa.scores, sb.scores)
            np.testing.assert_array_equal(sa.effects, sb.effects)
        np.testing.assert_array_equal(a.mh_accept_counts, b.mh_accept_counts)

    def test_retained_count_and_ledger_shape(self):
        rng = np.random.default_rng(25)
        data = standardize_rows(rng.normal(size=(4, 6)))
        draws = run_gp_chain(gp_spec(1), data, n_iters=600, burn_in=300, seed=2)
        assert len(draws) == 300
        assert draws.mh_accept_counts.shape == (6, 2)
        assert (draws.mh_accept_counts[:, 1] == 300).all()

    def test_global_probability_expands_to_every_feature(self):
        rng = np.random.default_rng(26)
        data = standardize_rows(rng.normal(size=(5, 7)))
        draws = run_gp_chain(gp_spec(3), data, n_iters=30, burn_in=10, seed=5)
        for st in states(draws):
            assert np.unique(st.inter_prob).size == 1
