"""Squared-exponential kernel construction and marginal likelihood ratios."""

import numpy as np
import pytest
from scipy.linalg import qr_delete
from scipy.linalg.lapack import dtrtrs
from scipy.stats import multivariate_normal

from factorint import CholeskyFailure, ShapeMismatch, gp_marginal_loglik_ratio, se_kernel
from factorint.kernels import KernelMatrix, SweepFactor, marginal_ratio_rows, sq_distances


class TestSeKernel:
    def test_identical_columns_give_unit_covariance(self):
        lam = np.array([[0.4, 0.4, 1.0], [-1.2, -1.2, 0.3]])
        k = se_kernel(lam, 0.2)
        assert k.K[0, 1] == 1.0

    def test_hand_value(self):
        # one factor, columns 0 and 1, ls = 0.2: exp(-1 / (2 * 0.04))
        k = se_kernel(np.array([[0.0, 1.0]]), 0.2)
        np.testing.assert_allclose(k.K[0, 1], np.exp(-12.5), rtol=1e-12)
        np.testing.assert_allclose(k.K[0, 1], 3.7266531720786709e-06, rtol=1e-10)

    def test_unit_diagonal(self):
        rng = np.random.default_rng(2)
        k = se_kernel(rng.normal(size=(3, 12)), 0.7)
        np.testing.assert_array_equal(np.diag(k.K), np.ones(12))

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(3)
        k = se_kernel(rng.normal(size=(2, 15)), 0.4)
        assert np.abs(k.K - k.K.T).max() == 0.0

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(4)
        k = se_kernel(rng.normal(size=(2, 10)), 0.5)
        assert (k.K > 0).all() and (k.K <= 1).all()

    @pytest.mark.parametrize("trial", range(5))
    def test_positive_semidefinite_before_jitter(self, trial):
        rng = np.random.default_rng(100 + trial)
        L = rng.integers(1, 4)
        n = rng.integers(5, 51)
        k = se_kernel(rng.normal(size=(L, n)), rng.uniform(0.1, 1.5))
        assert np.linalg.eigvalsh(k.K).min() >= -1e-8

    @pytest.mark.parametrize("trial", range(5))
    def test_length_scale_monotonicity(self, trial):
        rng = np.random.default_rng(200 + trial)
        lam = rng.normal(size=(2, 12))
        grid = [0.1, 0.2, 0.35, 0.6, 1.0, 2.0]
        previous = None
        for ls in grid:
            K = se_kernel(lam, ls).K
            if previous is not None:
                assert (K - previous >= -1e-15).all()
            previous = K

    def test_distances_match_pdist_bit_for_bit(self):
        from scipy.spatial.distance import pdist, squareform

        rng = np.random.default_rng(9)
        for _ in range(300):
            L, n = int(rng.integers(1, 5)), int(rng.integers(1, 121))
            scores = rng.normal(scale=rng.uniform(0.1, 3.0), size=(L, n))
            np.testing.assert_array_equal(sq_distances(scores, scores),
                                          squareform(pdist(scores.T, "sqeuclidean")))

    def test_cholesky_reconstruction(self):
        rng = np.random.default_rng(5)
        k = se_kernel(rng.normal(size=(2, 30)), 0.3)
        recon = k.upper.T @ k.upper
        target = (k.K + k.jitter * np.eye(30))[::-1, ::-1]
        assert np.linalg.norm(recon - target) < 1e-10

    def test_duplicate_columns_still_factorizable(self):
        lam = np.zeros((2, 8))  # all columns identical: K is all ones
        k = se_kernel(lam, 0.2)
        recon = k.upper.T @ k.upper
        assert np.linalg.norm(recon - k.regularized()[::-1, ::-1]) < 1e-8

    def test_jitter_escalation_ladder(self):
        from factorint import CholeskyFailure
        from factorint.kernels import _chol_with_jitter

        # smallest eigenvalue -2e-6: the starting jitter fails, escalation succeeds
        mild = np.array([[1.0, 1.0 + 2e-6], [1.0 + 2e-6, 1.0]])
        _, jitter = _chol_with_jitter(mild)
        assert 2e-6 < jitter <= 1e-4
        # smallest eigenvalue -1e-3: beyond the maximum jitter
        severe = np.array([[1.0, 1.001], [1.001, 1.0]])
        with pytest.raises(CholeskyFailure):
            _chol_with_jitter(severe)


class TestMarginalLoglikRatio:
    def test_zero_residual_favors_null(self):
        rng = np.random.default_rng(6)
        k = se_kernel(rng.normal(size=(2, 7)), 0.4)
        value = gp_marginal_loglik_ratio(np.zeros(7), k, 0.8)
        expected = -0.5 * np.linalg.slogdet(k.regularized() / 0.8 + np.eye(7))[1]
        assert value < 0
        np.testing.assert_allclose(value, expected, atol=1e-10)

    def test_identity_kernel_closed_form(self):
        # far-apart columns underflow the kernel to the identity
        lam = np.array([[0.0, 60.0, -60.0, 120.0, -120.0]])
        k = se_kernel(lam, 0.2)
        rng = np.random.default_rng(7)
        r = rng.normal(size=5)
        value = gp_marginal_loglik_ratio(r, k, 1.0)
        np.testing.assert_allclose(value, -2.5 * np.log(2.0) + (r @ r) / 4.0, atol=1e-8)

    def test_scalar_case(self):
        k = se_kernel(np.zeros((1, 1)), 0.2)
        value = gp_marginal_loglik_ratio(np.array([2.0]), k, 1.0)
        np.testing.assert_allclose(value, -0.5 * np.log(2.0) + 1.0, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_agrees_with_direct_density_evaluation(self, n):
        rng = np.random.default_rng(300 + n)
        k = se_kernel(rng.normal(size=(2, n)), 0.5)
        sigma2 = rng.uniform(0.3, 2.0)
        r = rng.normal(size=n)
        direct = (multivariate_normal.logpdf(r, mean=np.zeros(n),
                                             cov=k.regularized() + sigma2 * np.eye(n))
                  - multivariate_normal.logpdf(r, mean=np.zeros(n),
                                               cov=sigma2 * np.eye(n)))
        np.testing.assert_allclose(gp_marginal_loglik_ratio(r, k, sigma2), direct, atol=1e-8)
        batched = marginal_ratio_rows(np.vstack([r, 2 * r]), k,
                                      np.array([sigma2, sigma2]))
        np.testing.assert_allclose(batched[0], direct, atol=1e-8)

    def test_precomputed_projection_gives_the_same_bits(self):
        rng = np.random.default_rng(10)
        k = se_kernel(rng.normal(size=(2, 9)), 0.5)
        residuals = rng.normal(size=(6, 9))
        sigma2 = rng.uniform(0.3, 2.0, size=6)
        proj = residuals @ k.eigensystem()[1]
        np.testing.assert_array_equal(marginal_ratio_rows(residuals, k, sigma2, proj=proj),
                                      marginal_ratio_rows(residuals, k, sigma2))

    def test_shape_mismatch_rejected(self):
        k = se_kernel(np.zeros((1, 3)), 0.2)
        with pytest.raises(ShapeMismatch):
            gp_marginal_loglik_ratio(np.zeros(4), k, 1.0)


def exact_gp_logdens(scores, length_scale, jitter, rows):
    """Summed N(0, K + jitter*I) log-density of ``rows`` in 30-digit arithmetic,
    with K built exactly from the (float) scores."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        cols = [[mp.mpf(float(x)) for x in col] for col in scores.T]
        n = len(cols)
        C = mp.matrix(n, n)
        for a in range(n):
            for b in range(a, n):
                d2 = sum((u - v) ** 2 for u, v in zip(cols[a], cols[b]))
                C[a, b] = C[b, a] = mp.exp(-d2 / (2 * mp.mpf(length_scale) ** 2))
            C[a, a] += mp.mpf(jitter)
        L = mp.cholesky(C)
        logdet = 2 * mp.fsum(mp.log(L[i, i]) for i in range(n))
        total = mp.mpf(0)
        for row in rows:
            y = []
            for i in range(n):
                y.append((mp.mpf(float(row[i])) - mp.fsum(L[i, k] * y[k] for k in range(i)))
                         / L[i, i])
            total += -(n * mp.log(2 * mp.pi) + logdet) / 2 - mp.fsum(v * v for v in y) / 2
        return total


class ReferenceColumnFactor:
    """The score-column factor the sampler used before ``SweepFactor``: it
    drops column j from the whole factor (``qr_delete`` through every later
    position, rotating an n x n scratch Q as well), solves for the kernel
    rows at the current and the proposed column and for every GP row, then
    appends the kept or the moved column. Columns may come in any order."""

    def __init__(self, kernel):
        self.length_scale = kernel.length_scale
        self.variance = 1.0 + kernel.jitter
        self.upper = np.array(np.linalg.cholesky(kernel.regularized()).T, order="F")
        self.order = np.arange(kernel.n)
        self._q = np.eye(kernel.n, order="F")

    def column_delta(self, scores, j, proposal, rows):
        """(delta, moved, kept): the change in the summed log-density of
        ``rows`` for moving column j to ``proposal``, and the last factor
        column for j at the proposal and at its current position; delta and
        moved are None when the proposal's conditional variance is not
        positive. One of the columns must go to ``append`` next."""
        p = int(np.flatnonzero(self.order == j)[0])
        qr_delete(self._q, self.upper, p, which="col", overwrite_qr=True, check_finite=False)
        self.order[p:-1] = self.order[p + 1:]
        self.order[-1] = j
        others = self.order[:-1]
        self.upper[:, -1] = 0.0
        self.upper[-1, -1] = 1.0

        points = np.column_stack([scores[:, j], proposal])
        d2 = np.sum((scores[:, others, None] - points[:, None, :]) ** 2, axis=0)
        rhs = np.zeros((self.order.size, 2 + rows.shape[0]))
        rhs[:-1, :2] = np.exp(-0.5 * d2 / self.length_scale**2)
        rhs[:-1, 2:] = rows[:, others].T
        solved, info = dtrtrs(self.upper, rhs, lower=0, trans=1, overwrite_b=1)
        if info:
            raise CholeskyFailure("column factor became singular")
        w, a = solved[:-1, :2], solved[:-1, 2:]
        var = self.variance - np.sum(w * w, axis=0)
        kept = np.append(w[:, 0], np.sqrt(var[0]))
        if not var[1] > 0.0:
            return None, None, kept
        resid = rows[:, j][None, :] - w.T @ a
        logdens = -0.5 * (rows.shape[0] * np.log(var) + np.sum(resid * resid, axis=1) / var)
        return float(logdens[1] - logdens[0]), np.append(w[:, 1], np.sqrt(var[1])), kept

    def append(self, column):
        self.upper[:, -1] = column


def identity_kernel_case():
    """Zero jitter and an identity kernel: proposing column 1 onto column 0
    makes its conditional variance exactly 0 while column 0 stays put."""
    scores = np.array([[0.0, 50.0, 100.0]])
    kernel = KernelMatrix(np.eye(3), 0.2, 0.0, np.eye(3))
    proposals = np.array([[25.0, 0.0, 75.0]])
    rows = np.array([[0.5, -1.0, 2.0]])
    return scores, kernel, proposals, rows


def forced(decisions):
    """``sweep`` arguments that accept exactly the columns marked True (those
    whose proposal has a positive conditional variance): log u of -inf or
    +inf, and a data term of 0."""
    decisions = np.asarray(decisions, dtype=bool)
    return np.where(decisions, -np.inf, np.inf), np.zeros(decisions.size)


def assert_factor_invariants(factor, scores, length_scale, jitter, rows):
    """After a sweep the factor is K + jitter*I at ``scores`` in column order,
    and the whitened rows map back to ``rows``, up to their Gram matrix when
    more rows than columns were replaced by the triangle of their QR."""
    n = scores.shape[1]
    C = se_kernel(scores, length_scale).K + jitter * np.eye(n)
    np.testing.assert_allclose(factor.upper.T @ factor.upper, C, atol=1e-12)
    back = factor.upper.T @ factor.whitened.T
    if rows.shape[0] > n:
        np.testing.assert_allclose(back @ back.T, rows.T @ rows, atol=1e-10)
    else:
        np.testing.assert_allclose(back, rows.T, atol=1e-12)


class TestColumnFactor:
    """``SweepFactor``, the factor that scores the score-column moves."""

    def test_nonpositive_conditional_variance_gives_no_delta(self):
        scores, kernel, proposals, rows = identity_kernel_case()
        factor = SweepFactor(kernel, scores, proposals, rows)
        # column 1 is asked to move, but its variance is 0 and it scores NaN
        accepted, gp_delta = factor.sweep(*forced([False, True, True]))
        np.testing.assert_array_equal(accepted, [False, False, True])
        np.testing.assert_array_equal(np.isnan(gp_delta), [False, True, False])
        np.testing.assert_array_equal(np.abs(factor.upper), np.eye(3))
        np.testing.assert_array_equal(factor.upper.T @ factor.whitened.T, rows.T)

    def test_factor_tracks_the_moved_kernel(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(2, 15))
        kernel = se_kernel(scores, 0.6)
        rows = rng.normal(size=(2, 15))
        proposals = scores + 0.2 * rng.normal(size=(2, 15))
        decisions = np.arange(15) % 3 == 0
        factor = SweepFactor(kernel, scores, proposals, rows)
        accepted, gp_delta = factor.sweep(*forced(decisions))
        assert np.isfinite(gp_delta).all()
        np.testing.assert_array_equal(accepted, decisions)
        scores[:, decisions] = proposals[:, decisions]
        # after a whole sweep the factor order is the column order again
        assert_factor_invariants(factor, scores, 0.6, kernel.jitter, rows)

    def test_more_rows_than_columns(self):
        # 9 rows over 6 columns go through the QR triangle of the rows
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(2, 6))
        kernel = se_kernel(scores, 0.5)
        rows = (np.linalg.cholesky(kernel.regularized()) @ rng.normal(size=(6, 9))).T
        proposals = scores + 0.3 * rng.normal(size=(2, 6))
        decisions = np.array([True, False, True, True, False, False])
        want = reference_sweep(kernel, scores, proposals, rows, lambda j, _: decisions[j])
        factor = SweepFactor(kernel, scores, proposals, rows)
        accepted, gp_delta = factor.sweep(*forced(decisions))
        np.testing.assert_array_equal(accepted, decisions)
        for got, ref in zip(gp_delta, want):
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
        moved = scores.copy()
        moved[:, decisions] = proposals[:, decisions]
        assert_factor_invariants(factor, moved, 0.5, kernel.jitter, rows)

    def test_delta_accuracy_against_mpmath_oracle(self):
        # n = 50, ls = 1.0 and cond(K + jitter*I) about 1e10. Both paths then
        # err by about 1e-8 to 1e-7 of the delta, the floor that rounding the
        # kernel entries sets; neither is closer on every proposal (here the
        # factor's worst error is 1.2x the rebuild's), so the factor, through
        # a run of rotations, must stay within 2x of the rebuild
        rng = np.random.default_rng(5)
        scores = 1.25 * rng.normal(size=(2, 50))
        kernel = se_kernel(scores, 1.0)
        assert 5e9 < np.linalg.cond(kernel.regularized()) < 5e10
        rows = (np.linalg.cholesky(kernel.regularized()) @ rng.normal(size=(50, 2))).T
        current = exact_gp_logdens(scores, 1.0, kernel.jitter, rows)
        proposals = scores.copy()
        for j in range(8):
            proposals[:, j] += 0.1 * rng.normal(size=2)
        factor = SweepFactor(kernel, scores, proposals, rows)
        _, gp_delta = factor.sweep(*forced(np.zeros(50, dtype=bool)))
        fast_err, full_err = [], []
        for j in range(8):
            moved = scores.copy()
            moved[:, j] = proposals[:, j]
            rebuilt = se_kernel(moved, 1.0)
            assert rebuilt.jitter == kernel.jitter
            full = rebuilt.logdens(rows) - kernel.logdens(rows)
            exact = exact_gp_logdens(moved, 1.0, kernel.jitter, rows) - current
            fast_err.append(abs(float(gp_delta[j] - exact)))
            full_err.append(abs(float(full - exact)))
        assert max(fast_err) <= 2.0 * max(full_err)

    def test_single_column(self):
        # with one column the kernel is [[1]] wherever the score moves
        kernel = se_kernel(np.array([[0.3]]), 0.2)
        factor = SweepFactor(kernel, np.array([[0.3]]), np.array([[1.7]]),
                             np.array([[0.4], [-2.0]]))
        accepted, gp_delta = factor.sweep(*forced([True]))
        assert accepted[0] and abs(gp_delta[0]) < 1e-12
        np.testing.assert_allclose(factor.upper, [[np.sqrt(1.0 + kernel.jitter)]], rtol=1e-15)


def reference_sweep(kernel, scores, proposals, rows, decide):
    """Deltas of one sweep over columns 0..n-1 through ``ReferenceColumnFactor``;
    ``decide(j, delta)`` accepts or rejects each move."""
    scores = scores.copy()
    factor = ReferenceColumnFactor(kernel)
    deltas = []
    for j in range(scores.shape[1]):
        delta, moved, kept = factor.column_delta(scores, j, proposals[:, j], rows)
        deltas.append(delta)
        if delta is not None and decide(j, delta):
            scores[:, j] = proposals[:, j]
            factor.append(moved)
        else:
            factor.append(kept)
    return deltas


SWEEP_CASES = [(n_rows, ls) for ls in (0.2, 0.5, 0.8) for n_rows in (1, 5, 60)]


class TestLeanColumnFactor:
    """Whole sweeps of ``SweepFactor`` against ``ReferenceColumnFactor``."""

    @pytest.mark.parametrize("n_rows, length_scale", SWEEP_CASES,
                             ids=[f"{n}" if ls == 0.2 else f"{n}-ls{ls}" for n, ls in SWEEP_CASES])
    def test_sweeps_match_the_reference(self, n_rows, length_scale):
        # 1 row is the shared effect's case, 60 rows exceed the 25 columns;
        # the longer length scales couple the columns more
        rng = np.random.default_rng(60 + n_rows)
        scores = rng.normal(size=(2, 25))
        accepted = rejected = 0
        for _ in range(3):
            kernel = se_kernel(scores, length_scale)
            rows = (np.linalg.cholesky(kernel.regularized()) @ rng.normal(size=(25, n_rows))).T
            proposals = scores + 0.3 * rng.normal(size=(2, 25))
            decisions = rng.random(25) < 0.4
            want = reference_sweep(kernel, scores, proposals, rows,
                                   lambda j, _: decisions[j])
            factor = SweepFactor(kernel, scores, proposals, rows)
            got, gp_delta = factor.sweep(*forced(decisions))
            np.testing.assert_array_equal(got, decisions)
            for j in range(25):
                assert abs(gp_delta[j] - want[j]) <= 1e-8 * max(1.0, abs(want[j]))
            scores[:, decisions] = proposals[:, decisions]
            accepted += int(decisions.sum())
            rejected += int((~decisions).sum())
        assert accepted > 10 and rejected > 10

    def test_nonpositive_variance_matches_the_reference(self):
        scores, kernel, proposals, rows = identity_kernel_case()
        want = reference_sweep(kernel, scores, proposals, rows, lambda j, _: False)
        factor = SweepFactor(kernel, scores, proposals, rows)
        accepted, got = factor.sweep(*forced(np.zeros(3, dtype=bool)))
        assert not accepted.any()
        assert np.isnan(got[1]) and want[1] is None
        np.testing.assert_allclose([got[0], got[2]], [want[0], want[2]], rtol=1e-15)
