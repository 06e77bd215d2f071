"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them). Expensive fits are shared through module-scoped fixtures; every
tolerance is stated inline. Oracles are independent of the code paths they
check: quadrature and enumeration for the conditionals, direct density
evaluation for the kernel machinery, planted synthetic truth for the
pipeline.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import beta as beta_dist
from scipy.stats import invgamma, multivariate_normal

import factorint as fi
from factorint.kernels import marginal_ratio_rows
from factorint.model import DataMatrix
from factorint.mult import (
    inter_score_conditional,
    log_joint,
    noise_conditional,
    refresh_products,
    residual_matrix,
    score_conditional,
    update_scores,
)
from factorint.prior import inclusion_posterior_params, slab_log_bayes_factor, slab_posterior
from factorint.rng import stream
from tests_support import states

SADDLE_SEED = 7
CHAIN_SEED = 8
THRESHOLD = 0.5


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


# ------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def saddle():
    return fi.generate_saddle_dataset(m=100, n=100, frac_affected=0.1,
                                      noise_scale=1.0, seed=SADDLE_SEED)


def _seed_groups(truth):
    return {0: frozenset(truth.seed_groups[0].tolist()),
            1: frozenset(truth.seed_groups[1].tolist())}


@pytest.fixture(scope="module")
def mult_fit(saddle):
    data, truth = saddle
    spec = fi.mult_spec(2, seed_groups=_seed_groups(truth),
                        inter_prob_prior=fi.BetaTable(default=(1.0, 10.0)))
    return fi.run_mult_chain(spec, data, n_iters=600, burn_in=400, seed=CHAIN_SEED)


def _gp_fit(saddle, length_scale):
    data, truth = saddle
    spec = fi.gp_spec(1, length_scale=length_scale, seed_groups=_seed_groups(truth),
                      inter_prob_prior=fi.BetaTable(default=(1.0, 10.0)))
    return fi.run_gp_chain(spec, data, n_iters=600, burn_in=300, seed=CHAIN_SEED)


@pytest.fixture(scope="module")
def gp_fit(saddle):
    return _gp_fit(saddle, 0.2)


@pytest.fixture(scope="module")
def gp_fit_wide(saddle):
    return _gp_fit(saddle, 0.5)


def classification(draws, truth, m):
    truly = np.zeros(m, dtype=bool)
    truly[truth.affected] = True
    flag = np.zeros(m, dtype=bool)
    flag[list(fi.detect_interactions(draws, THRESHOLD))] = True
    return truly, flag, float(np.mean(flag == truly))


# -------------------------------------------------- criterion 1 helpers

def toy_chain(approach, m=3, n=4, seed=5):
    rng = np.random.default_rng(60 + approach)
    spec = fi.mult_spec(approach, n_factors=2, slab_var_loading=2.0, slab_var_inter=2.0)
    data = fi.standardize_rows(rng.normal(size=(m, n)))
    chain = fi.MultChain(spec, data, fi.McmcSettings(seed=seed))
    for _ in range(3):
        chain.sweep()
    st = chain.state
    st.load_mask[:] = 1
    st.inter_mask[:] = 1
    st.loadings[:] = 0.5 * rng.normal(size=st.loadings.shape)
    st.inter_loadings[:] = 0.5 * rng.normal(size=st.inter_loadings.shape)
    return chain


def fd_gaussian(f, x0, h=0.5):
    fp, f0, fm = f(x0 + h), f(x0), f(x0 - h)
    var = -h * h / (fp - 2.0 * f0 + fm)
    return x0 + var * (fp - fm) / (2.0 * h), var


def check_gaussian_conditionals(approach, failures):
    chain = toy_chain(approach)
    st, data, spec, lay = chain.state, chain.data, chain.spec, chain.layout

    def slice_fn(holder, index, refresh=False):
        def f(x):
            old = holder[index]
            holder[index] = x
            if refresh:
                refresh_products(st, spec)
            value = log_joint(st, data, spec, lay)
            holder[index] = old
            if refresh:
                refresh_products(st, spec)
            return value
        return f

    def expect(label, got, want, rtol=1e-6):
        if not np.isclose(got, want, rtol=rtol, atol=1e-9):
            failures.append(f"approach {approach} {label}: {got} vs {want}")

    for l in range(2):
        reg = st.scores[l]
        R = residual_matrix(st, data, spec) + np.outer(st.loadings[:, l], reg)
        mean, var = slab_posterior(R, reg, st.noise_var, spec.slab_var_loading)
        for i in range(3):
            fd_mean, fd_var = fd_gaussian(slice_fn(st.loadings, (i, l)), st.loadings[i, l])
            expect(f"loading[{i},{l}] mean", fd_mean, mean[i])
            expect(f"loading[{i},{l}] var", fd_var, var[i])

    for l in range(2):
        mean, var = score_conditional(st, data, spec, l)
        for j in range(data.n_samples):
            f = slice_fn(st.scores, (l, j), refresh=(approach == 2))
            fd_mean, fd_var = fd_gaussian(f, st.scores[l, j])
            expect(f"score[{l},{j}] mean", fd_mean, mean[j])
            expect(f"score[{l},{j}] var", fd_var, var[j])

    reg = st.inter_scores[0]
    R = residual_matrix(st, data, spec) + np.outer(st.inter_loadings[:, 0], reg)
    mean, var = slab_posterior(R, reg, st.noise_var, spec.slab_var_inter)
    for i in range(3):
        fd_mean, fd_var = fd_gaussian(slice_fn(st.inter_loadings, (i, 0)),
                                      st.inter_loadings[i, 0])
        expect(f"inter_loading[{i}] mean", fd_mean, mean[i])
        expect(f"inter_loading[{i}] var", fd_var, var[i])

    if approach == 1:
        mean, var = inter_score_conditional(st, data, spec, 0)
        for j in range(data.n_samples):
            fd_mean, fd_var = fd_gaussian(slice_fn(st.inter_scores, (0, j)),
                                          st.inter_scores[0, j])
            expect(f"inter_score[{j}] mean", fd_mean, mean[j])
            expect(f"inter_score[{j}] var", fd_var, var[j])

    # inverse-gamma and Beta conditionals: constant offset between the log
    # joint slice and the claimed density
    shape, scale = noise_conditional(st, data, spec)
    offsets = []
    for s in np.linspace(0.3, 3.0, 9):
        old = st.noise_var[1]
        st.noise_var[1] = s
        offsets.append(log_joint(st, data, spec, lay)
                       - invgamma.logpdf(s, a=shape, scale=scale[1]))
        st.noise_var[1] = old
    if max(offsets) - min(offsets) > 1e-8:
        failures.append(f"approach {approach} noise conditional drifts")

    pa, pb = inclusion_posterior_params(lay.load, st.load_mask)
    share = lay.load.share[2, 1]
    offsets = []
    for p in np.linspace(0.05, 0.95, 9):
        old = st.load_prob[2, 1]
        st.load_prob[2, 1] = p
        offsets.append(log_joint(st, data, spec, lay)
                       - beta_dist.logpdf(p, pa[share], pb[share]))
        st.load_prob[2, 1] = old
    if max(offsets) - min(offsets) > 1e-8:
        failures.append(f"approach {approach} loading probability conditional drifts")

    ra, rb = inclusion_posterior_params(lay.inter, st.inter_mask)
    share = lay.inter.share[0, 0]
    offsets = []
    for p in np.linspace(0.05, 0.95, 9):
        old = st.inter_prob[0, 0]
        st.inter_prob[0, 0] = p
        offsets.append(log_joint(st, data, spec, lay)
                       - beta_dist.logpdf(p, ra[share], rb[share]))
        st.inter_prob[0, 0] = old
    if max(offsets) - min(offsets) > 1e-8:
        failures.append(f"approach {approach} interaction probability conditional drifts")

    # indicator conditional against quadrature over the coefficient
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
    if abs(p_code - p_oracle) > 1e-8:
        failures.append(f"approach {approach} indicator conditional vs quadrature")


def indicator_tv_vs_oracle():
    """Full-chain (h, z) marginal on a 2x2 toy against enumeration plus
    quadrature: the coefficients integrate analytically per row, the scores by
    Gauss-Hermite quadrature, the noise variances on a log grid."""
    X = np.array([[1.2, -0.9], [1.0, 1.4]])
    slab = 2.0
    ia, ib = 2.1, 1.1
    spec = fi.mult_spec(2, n_factors=2, slab_var_loading=slab, slab_var_inter=slab,
                        noise_prior=(ia, ib))
    data = DataMatrix(X, ("f1", "f2"), ("s1", "s2"))

    x_nodes, w_nodes = hermegauss(20)
    w_nodes = w_nodes / np.sqrt(2 * np.pi)
    G = np.stack(np.meshgrid(*([x_nodes] * 4), indexing="ij"), axis=-1).reshape(-1, 4)
    W = np.stack(np.meshgrid(*([w_nodes] * 4), indexing="ij"), axis=-1).reshape(-1, 4).prod(axis=1)
    lam0, lam1 = G[:, 0:2], G[:, 2:4]
    eta = lam0 * lam1

    log_s2 = np.linspace(np.log(0.005), np.log(40.0), 48)
    s2_grid = np.exp(log_s2)
    ig_w = s2_grid**(-ia) * np.exp(-ib / s2_grid) * np.gradient(log_s2)
    ig_w = ig_w / ig_w.sum()

    configs = [(h0, h1, z) for h0 in (0, 1) for h1 in (0, 1) for z in (0, 1)]
    row_like = []
    for i in range(2):
        xi = X[i]
        Li = np.zeros((G.shape[0], 8))
        for c, (h0, h1, z) in enumerate(configs):
            A0 = slab * (h0 * lam0[:, 0]**2 + h1 * lam1[:, 0]**2) + slab * z * eta[:, 0]**2
            C0 = slab * (h0 * lam0[:, 1]**2 + h1 * lam1[:, 1]**2) + slab * z * eta[:, 1]**2
            B0 = slab * (h0 * lam0[:, 0] * lam0[:, 1] + h1 * lam1[:, 0] * lam1[:, 1]) \
                + slab * z * eta[:, 0] * eta[:, 1]
            acc = np.zeros(G.shape[0])
            for s2, wg in zip(s2_grid, ig_w):
                A, C, B = A0 + s2, C0 + s2, B0
                det = A * C - B * B
                quad_form = (C * xi[0]**2 - 2 * B * xi[0] * xi[1] + A * xi[1]**2) / det
                acc += wg * np.exp(-0.5 * quad_form) / (2 * np.pi * np.sqrt(det))
            Li[:, c] = acc
        row_like.append(Li)
    joint = (row_like[0] * W[:, None]).T @ row_like[1]
    # flat Beta(1, 1) priors integrate to inclusion probability 1/2 per indicator
    oracle = joint / joint.sum()

    chain = fi.MultChain(spec, data, fi.McmcSettings(seed=42))
    index = {c: k for k, c in enumerate(configs)}
    counts = np.zeros((8, 8))
    warmup, sweeps = 200, 50_000
    for it in range(warmup + sweeps):
        chain.sweep()
        if it >= warmup:
            st = chain.state
            c1 = index[(int(st.load_mask[0, 0]), int(st.load_mask[0, 1]),
                        int(st.inter_mask[0, 0]))]
            c2 = index[(int(st.load_mask[1, 0]), int(st.load_mask[1, 1]),
                        int(st.inter_mask[1, 0]))]
            counts[c1, c2] += 1
    return 0.5 * np.abs(counts / counts.sum() - oracle).sum()


def score_column_tv_vs_grid():
    """Stationary distribution of one score column (both coordinates) under
    repeated single-coordinate updates against a dense 2-D grid posterior."""
    rng = np.random.default_rng(77)
    spec = fi.mult_spec(2, n_factors=2)
    data = fi.standardize_rows(rng.normal(size=(3, 2)))
    chain = fi.MultChain(spec, data, fi.McmcSettings(seed=11))
    st = chain.state
    st.load_mask[:] = 1
    st.inter_mask[:] = 1
    st.loadings[:] = np.array([[1.0, -0.6], [0.4, 0.8], [-0.7, 0.5]])
    st.inter_loadings[:] = np.array([[0.9], [-0.5], [0.6]])
    st.noise_var[:] = 0.4
    refresh_products(st, spec)

    # dense grid oracle for column 0
    grid = np.linspace(-4.0, 4.0, 401)
    L1, L2 = np.meshgrid(grid, grid, indexing="ij")
    logp = -0.5 * (L1**2 + L2**2)
    x0 = data.values[:, 0]
    for i in range(3):
        mean_i = st.loadings[i, 0] * L1 + st.loadings[i, 1] * L2 \
            + st.inter_loadings[i, 0] * L1 * L2
        logp = logp - 0.5 * (x0[i] - mean_i) ** 2 / st.noise_var[i]
    dens = np.exp(logp - logp.max())
    dens /= dens.sum()

    edges = np.linspace(-4.0, 4.0, 11)
    cell = np.digitize(grid, edges) - 1
    oracle = np.zeros((10, 10))
    for a in range(401):
        for b in range(401):
            oracle[min(cell[a], 9), min(cell[b], 9)] += dens[a, b]

    draws_rng = stream(5, 0, "tv-scores")
    counts = np.zeros((10, 10))
    warmup, sweeps = 200, 50_000
    for it in range(warmup + sweeps):
        update_scores(st, data, spec, draws_rng)
        if it >= warmup:
            a = np.clip(np.digitize(st.scores[0, 0], edges) - 1, 0, 9)
            b = np.clip(np.digitize(st.scores[1, 0], edges) - 1, 0, 9)
            counts[a, b] += 1
    return 0.5 * np.abs(counts / counts.sum() - oracle).sum()


class TestCriterion1ConditionalOracles:
    def test_conditional_oracle_suite(self):
        t0 = time.time()
        failures: list[str] = []
        for approach in (1, 2):
            check_gaussian_conditionals(approach, failures)

        # nonlinear-family indicator conditional against explicit densities
        rng = np.random.default_rng(90)
        kernel = fi.se_kernel(rng.normal(size=(2, 4)), 0.4)
        R = rng.normal(size=(3, 4))
        s2 = rng.uniform(0.4, 1.5, size=3)
        llr = marginal_ratio_rows(R, kernel, s2)
        for i in range(3):
            direct = (multivariate_normal.logpdf(
                          R[i], mean=np.zeros(4),
                          cov=kernel.regularized() + s2[i] * np.eye(4))
                      - multivariate_normal.logpdf(
                          R[i], mean=np.zeros(4), cov=s2[i] * np.eye(4)))
            if abs(llr[i] - direct) > 1e-8:
                failures.append(f"gp indicator log-odds row {i}")

        tv_indicators = indicator_tv_vs_oracle()
        if tv_indicators >= 0.05:
            failures.append(f"indicator TV {tv_indicators:.4f} >= 0.05")
        tv_scores = score_column_tv_vs_grid()
        if tv_scores >= 0.05:
            failures.append(f"score column TV {tv_scores:.4f} >= 0.05")

        elapsed = time.time() - t0
        if elapsed >= 300:
            failures.append(f"runtime {elapsed:.0f}s >= 300s")
        report(1, not failures,
               f"conditional oracles (indicator TV {tv_indicators:.3f}, "
               f"score TV {tv_scores:.3f}, {elapsed:.0f}s): "
               + ("; ".join(failures) if failures else "all conditionals match"))


class TestCriterion2ProductIdentity:
    def test_product_identity(self, mult_fit):
        worst = 0.0
        for st in states(mult_fit):
            gap = np.abs(st.inter_scores[0] - st.scores[0] * st.scores[1]).max()
            worst = max(worst, gap)
        report(2, worst == 0.0,
               f"product identity exact at all {len(states(mult_fit))} states "
               f"(max gap {worst})")


class TestCriterion3SaddleRecovery:
    def test_saddle_recovery(self, saddle, mult_fit, gp_fit):
        t0 = time.time()
        data, truth = saddle
        results = {}
        for name, draws in (("mult", mult_fit), ("gp", gp_fit)):
            effects = fi.posterior_mean_effects(draws)
            _, _, accuracy = classification(draws, truth, data.n_features)
            recovery = fi.saddle_quadrant_recovery(effects, truth)
            results[name] = (accuracy, recovery)
        ok = all(acc >= 0.9 and rec >= 0.9 for acc, rec in results.values())
        report(3, ok,
               "saddle recovery "
               + ", ".join(f"{k}: accuracy {a:.2f}, quadrant recovery {r:.2f}"
                           for k, (a, r) in results.items())
               + f" (thresholds 0.90, fits cached, check {time.time() - t0:.0f}s)")


class TestCriterion4LengthScaleOrdering:
    def test_length_scale_ordering(self, saddle, gp_fit, gp_fit_wide):
        _, truth = saddle
        aad_narrow = fi.aad(fi.posterior_mean_effects(gp_fit), truth.effects)
        aad_wide = fi.aad(fi.posterior_mean_effects(gp_fit_wide), truth.effects)
        report(4, aad_wide > aad_narrow,
               f"effect AAD at ls=0.5 ({aad_wide:.4f}) > ls=0.2 ({aad_narrow:.4f})")


class TestCriterion5ProductVarSensitivity:
    def test_product_variance_sensitivity(self):
        votes = []
        details = []
        for seed in (1, 2, 3):
            data, truth = fi.generate_hidden_factor_dataset(m=200, n=100, seed=seed)
            groups = _seed_groups(truth)
            corr = {}
            for nu in (1e-5, 1.0):
                spec = fi.mult_spec(1, product_var=nu, seed_groups=groups,
                                    inter_prob_prior=fi.BetaTable(default=(1.0, 10.0)))
                draws = fi.run_mult_chain(spec, data, n_iters=600, burn_in=400,
                                          seed=seed + 10)
                inter = draws.stack("inter_scores").mean(axis=0)[0]
                scores = draws.stack("scores").mean(axis=0)
                corr[nu] = abs(np.corrcoef(inter, scores[0] * scores[1])[0, 1])
            votes.append(corr[1e-5] > 0.9 and corr[1.0] < 0.5)
            details.append(f"seed {seed}: tight {corr[1e-5]:.3f}, loose {corr[1.0]:.3f}")
        report(5, sum(votes) >= 2,
               "product-tie correlation majority "
               f"{sum(votes)}/3 ({'; '.join(details)})")


class TestCriterion6PermutationTest:
    def test_permutation_test(self):
        t0 = time.time()
        inp = fi.OverlapTestInput(population_size=3704,
                                  per_dataset_counts=(314, 170, 244, 255),
                                  observed_overlap=136, n_replicates=100_000)
        p_value, reps = fi.overlap_permutation_test(inp, seed=17)

        pair = fi.OverlapTestInput(population_size=500, per_dataset_counts=(60, 80),
                                   observed_overlap=10, n_replicates=20_000)
        _, pair_reps = fi.overlap_permutation_test(pair, seed=18)
        expected = 60 * 80 / 500.0
        se = pair_reps.sd / np.sqrt(pair.n_replicates)
        mean_ok = abs(pair_reps.mean - expected) < 3 * se
        elapsed = time.time() - t0
        ok = p_value < 0.001 and mean_ok and elapsed < 120
        report(6, ok,
               f"overlap p-value {p_value:.5f} < 0.001 (mean overlap "
               f"{reps.mean:.1f}); two-set mean {pair_reps.mean:.2f} vs "
               f"hypergeometric {expected:.2f} within 3 SE; {elapsed:.0f}s")


class TestCriterion7KernelSuite:
    def test_kernel_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(123)
        failures = []
        for trial in range(6):
            L = int(rng.integers(1, 4))
            n = int(rng.integers(5, 51))
            ls = float(rng.uniform(0.1, 1.2))
            k = fi.se_kernel(rng.normal(size=(L, n)), ls)
            if np.linalg.eigvalsh(k.K).min() < -1e-8:
                failures.append("positive semidefiniteness")
            if not (np.diag(k.K) == 1.0).all():
                failures.append("unit diagonal")
            recon = np.linalg.norm(k.upper.T @ k.upper - k.regularized()[::-1, ::-1])
            if recon > 1e-10:
                failures.append(f"cholesky reconstruction {recon:.2e}")
        lam = rng.normal(size=(2, 12))
        previous = None
        for ls in (0.1, 0.25, 0.5, 1.0, 2.0):
            K = fi.se_kernel(lam, ls).K
            if previous is not None and not (K - previous >= -1e-15).all():
                failures.append("length-scale monotonicity")
            previous = K
        for n in (2, 6, 10):
            k = fi.se_kernel(rng.normal(size=(2, n)), 0.5)
            s2 = float(rng.uniform(0.3, 2.0))
            r = rng.normal(size=n)
            direct = (multivariate_normal.logpdf(r, mean=np.zeros(n),
                                                 cov=k.regularized() + s2 * np.eye(n))
                      - multivariate_normal.logpdf(r, mean=np.zeros(n),
                                                   cov=s2 * np.eye(n)))
            if abs(fi.gp_marginal_loglik_ratio(r, k, s2) - direct) > 1e-8:
                failures.append(f"marginal ratio n={n}")
        elapsed = time.time() - t0
        if elapsed >= 60:
            failures.append(f"runtime {elapsed:.0f}s")
        report(7, not failures,
               "kernel suite (PSD, diagonal, monotonicity, reconstruction, "
               f"marginal ratio; {elapsed:.0f}s)"
               + ("" if not failures else ": " + "; ".join(failures)))


class TestCriterion8MhSanity:
    def test_prior_recovery_with_likelihood_disabled(self):
        rng = np.random.default_rng(20)
        data = fi.standardize_rows(rng.normal(size=(3, 8)))
        spec = fi.gp_spec(1,
                          fixed_load_prob={(i, l): 0.0 for i in range(3) for l in range(2)},
                          fixed_inter_prob={i: 0.0 for i in range(3)})
        draws = fi.run_gp_chain(spec, data, n_iters=4_000, burn_in=500, seed=21)
        pooled = np.stack([st.scores for st in states(draws)])
        flat = pooled.reshape(pooled.shape[0], -1)
        n_batches = 50
        usable = flat[: (flat.shape[0] // n_batches) * n_batches]
        per_batch = usable.reshape(n_batches, -1, flat.shape[1])
        mean_batches = per_batch.mean(axis=(1, 2))
        se_mean = mean_batches.std(ddof=1) / np.sqrt(n_batches)
        var_batches = (per_batch**2).mean(axis=(1, 2))
        se_var = var_batches.std(ddof=1) / np.sqrt(n_batches)
        mean_ok = abs(flat.mean()) < 3 * se_mean
        var_ok = abs((flat**2).mean() - 1.0) < 3 * se_var
        report(8, mean_ok and var_ok,
               f"prior recovery: mean {flat.mean():+.4f} (3se {3 * se_mean:.4f}), "
               f"second moment {(flat**2).mean():.4f} (3se {3 * se_var:.4f})")

    def test_adapted_acceptance_in_band(self, gp_fit):
        counts = gp_fit.mh_accept_counts
        rate = counts[:, 0].sum() / counts[:, 1].sum()
        report(8, 0.2 <= rate <= 0.5,
               f"post burn-in acceptance {rate:.3f} in [0.2, 0.5] "
               f"(frozen step {gp_fit.rw_step_final:.3f})")


class TestCriterion9PipelinePlantedTruth:
    def test_cleaning_planted_violators(self):
        from tests_support import seed_structured

        failures = []
        settings = fi.McmcSettings(n_iters=200, burn_in=100, seed=1)
        for seed in range(5):
            data, g1, g2, planted = seed_structured(100 + seed)
            c1, c2, rep = fi.clean_seed_genes(data, g1, g2, settings)
            removed = {r.feature for r in rep}
            if removed != set(planted):
                failures.append(f"seed {seed}: removed {sorted(removed)} "
                                f"vs planted {sorted(planted)}")
        report(9, not failures,
               "cleaning removed exactly the planted violators over 5 seeds"
               + ("" if not failures else ": " + "; ".join(failures)))

    def test_candidate_selection_recovery(self):
        from tests_support import candidate_structured

        data, g1, g2, both, _, _ = candidate_structured(200)
        settings = fi.McmcSettings(n_iters=200, burn_in=100, seed=2)
        picked = fi.select_candidate_genes(data, g1, g2, settings)
        hits = np.intersect1d(picked, both).size
        report(9, hits >= 0.9 * both.size,
               f"candidate selection recovered {hits}/{both.size} planted "
               "two-factor genes")

    def test_detection_matches_planted_truth(self, saddle, gp_fit):
        data, truth = saddle
        truly, flag, accuracy = classification(gp_fit, truth, data.n_features)
        report(9, accuracy >= 0.9,
               f"detection accuracy {accuracy:.2f} against the planted "
               f"affected set (tp {int((flag & truly).sum())}, "
               f"fp {int((flag & ~truly).sum())})")


class TestCriterion10Reproducibility:
    def test_byte_identical_artifacts(self, tmp_path):
        from factorint.cli import main as cli_main

        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            args_sim = ["simulate", "--output-dir", str(out), "--seed", "13",
                        "--set", "simulate.features=40", "--set", "simulate.samples=30"]
            args_fit = ["fit", "--output-dir", str(out), "--seed", "13",
                        "--set", f"paths.data={out / 'data.csv'}",
                        "--set", "model.family=mult_approach2",
                        "--set", "mcmc.iters=120", "--set", "mcmc.burn_in=60"]
            assert cli_main(args_sim) == 0
            assert cli_main(args_fit) == 0
            assert cli_main(["summarize", "--output-dir", str(out),
                             "--set", f"paths.draws={out / 'draws.bin'}"]) == 0
            outputs.append(out)
        a, b = outputs
        same_draws = (a / "draws.bin").read_bytes() == (b / "draws.bin").read_bytes()
        same_summary = (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        same_data = (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        report(10, same_draws and same_summary and same_data,
               f"byte-identical artifacts across two runs (draws {same_draws}, "
               f"summary {same_summary}, data {same_data})")
