"""Squared-exponential kernel construction and marginal likelihood ratios."""

import numpy as np
import pytest
from scipy.linalg import qr_delete
from scipy.linalg.lapack import dtrtrs
from scipy.stats import multivariate_normal

from factorint import CholeskyFailure, ShapeMismatch, gp_marginal_loglik_ratio, se_kernel
from factorint.kernels import ColumnFactor, KernelMatrix, marginal_ratio_rows


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

    def test_cholesky_reconstruction(self):
        rng = np.random.default_rng(5)
        k = se_kernel(rng.normal(size=(2, 30)), 0.3)
        recon = k.chol @ k.chol.T
        target = k.K + k.jitter * np.eye(30)
        assert np.linalg.norm(recon - target) < 1e-10

    def test_duplicate_columns_still_factorizable(self):
        lam = np.zeros((2, 8))  # all columns identical: K is all ones
        k = se_kernel(lam, 0.2)
        recon = k.chol @ k.chol.T
        assert np.linalg.norm(recon - k.regularized()) < 1e-8

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


class TestColumnFactor:
    def test_nonpositive_conditional_variance_gives_no_delta(self):
        # zero jitter, identity kernel: column 1 moved onto column 0 is singular
        scores = np.array([[0.0, 50.0, 100.0]])
        kernel = KernelMatrix(np.eye(3), 0.2, 0.0, np.eye(3))
        factor = ColumnFactor(kernel)
        rows = np.array([[0.5, -1.0, 2.0]])
        delta, moved, kept = factor.column_delta(scores, 1, np.array([0.0]), rows)
        assert delta is None and moved is None
        np.testing.assert_array_equal(kept, [0.0, 0.0, 1.0])
        factor.append(kept)
        np.testing.assert_array_equal(factor.order, [0, 2, 1])

    def test_factor_tracks_the_moved_kernel(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(2, 15))
        kernel = se_kernel(scores, 0.6)
        factor = ColumnFactor(kernel)
        rows = rng.normal(size=(2, 15))
        for j in (4, 0, 14, 4):
            proposal = scores[:, j] + 0.2 * rng.normal(size=2)
            _, moved, _ = factor.column_delta(scores, j, proposal, rows)
            factor.append(moved)
            scores[:, j] = proposal
        C = se_kernel(scores, 0.6).K + kernel.jitter * np.eye(15)
        order = factor.order
        np.testing.assert_allclose(factor.upper.T @ factor.upper, C[np.ix_(order, order)],
                                   atol=1e-12)

    def test_delta_accuracy_against_mpmath_oracle(self):
        # n = 50, ls = 1.0 and cond(K + jitter*I) about 1e10. Both paths then
        # err by about 1e-8 to 1e-7 of the delta, the floor that rounding the
        # kernel entries sets; neither is closer on every proposal (here the
        # factor's worst error is 1.2x the rebuild's), so the factor, through
        # a run of drops and appends, must stay within 2x of the rebuild
        rng = np.random.default_rng(5)
        scores = 1.25 * rng.normal(size=(2, 50))
        kernel = se_kernel(scores, 1.0)
        assert 5e9 < np.linalg.cond(kernel.regularized()) < 5e10
        rows = (kernel.chol @ rng.normal(size=(50, 2))).T
        current = exact_gp_logdens(scores, 1.0, kernel.jitter, rows)
        factor = ColumnFactor(kernel)
        fast_err, full_err = [], []
        for j in range(8):
            proposal = scores[:, j] + 0.1 * rng.normal(size=2)
            fast, _, kept = factor.column_delta(scores, j, proposal, rows)
            factor.append(kept)
            moved = scores.copy()
            moved[:, j] = proposal
            rebuilt = se_kernel(moved, 1.0)
            assert rebuilt.jitter == kernel.jitter
            full = rebuilt.logdens(rows) - kernel.logdens(rows)
            exact = exact_gp_logdens(moved, 1.0, kernel.jitter, rows) - current
            fast_err.append(abs(float(fast - exact)))
            full_err.append(abs(float(full - exact)))
        assert max(fast_err) <= 2.0 * max(full_err)


class ReferenceColumnFactor(ColumnFactor):
    """``ColumnFactor.column_delta`` as first written: a search for j's position,
    scipy's public ``qr_delete`` and fresh arrays for every intermediate. The
    lean path must reproduce it bit for bit."""

    def column_delta(self, scores, j, proposal, rows):
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


class TestLeanColumnFactor:
    """The lean per-proposal path against ``ReferenceColumnFactor``."""

    @pytest.mark.parametrize("n_rows", [1, 5])
    def test_random_moves_match_the_reference_bit_for_bit(self, n_rows):
        rng = np.random.default_rng(60 + n_rows)
        scores = rng.normal(size=(2, 25))
        kernel = se_kernel(scores, 0.5)
        rows = (kernel.chol @ rng.normal(size=(25, n_rows))).T
        lean, reference = ColumnFactor(kernel), ReferenceColumnFactor(kernel)
        accepted = 0
        for j in rng.integers(0, 25, size=120):
            proposal = scores[:, j] + 0.3 * rng.normal(size=2)
            got = lean.column_delta(scores, j, proposal, rows)
            want = reference.column_delta(scores, j, proposal, rows)
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(lean.order, reference.order)
            assert lean.order[lean.position[j]] == j
            np.testing.assert_array_equal(lean.order[lean.position], np.arange(25))
            accept = rng.random() < 0.4
            lean.append(got[1] if accept else got[2])
            reference.append(want[1] if accept else want[2])
            np.testing.assert_array_equal(lean.upper, reference.upper)
            if accept:
                scores[:, j] = proposal
                accepted += 1
        assert 20 < accepted < 100

    def test_returned_columns_are_not_reused(self):
        rng = np.random.default_rng(64)
        scores = rng.normal(size=(2, 12))
        kernel = se_kernel(scores, 0.6)
        rows = rng.normal(size=(3, 12))
        factor = ColumnFactor(kernel)
        _, moved, kept = factor.column_delta(scores, 3, scores[:, 3] + 0.1, rows)
        saved_moved, saved_kept = moved.copy(), kept.copy()
        factor.append(kept)
        later = factor.column_delta(scores, 7, scores[:, 7] - 0.2, rows)
        factor.append(later[1])
        np.testing.assert_array_equal(moved, saved_moved)
        np.testing.assert_array_equal(kept, saved_kept)
        for column in later[1:]:
            assert not np.shares_memory(column, factor.upper)
            assert not np.shares_memory(column, factor._rhs)

    def test_nonpositive_variance_matches_the_reference(self):
        scores = np.array([[0.0, 50.0, 100.0]])
        kernel = KernelMatrix(np.eye(3), 0.2, 0.0, np.eye(3))
        rows = np.array([[0.5, -1.0, 2.0]])
        lean, reference = ColumnFactor(kernel), ReferenceColumnFactor(kernel)
        got = lean.column_delta(scores, 1, np.array([0.0]), rows)
        want = reference.column_delta(scores, 1, np.array([0.0]), rows)
        assert got[:2] == want[:2] == (None, None)
        np.testing.assert_array_equal(got[2], want[2])
