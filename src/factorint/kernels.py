"""Squared-exponential covariance over factor-score columns.

The kernel K(scores)[j1, j2] = exp(-||s_j1 - s_j2||^2 / (2 ls^2)) drives the
Gaussian prior on interaction-effect rows. Construction factors K + jitter*I
with an escalating jitter, and the module provides the marginal log-likelihood
ratio used to decide whether a residual row carries a nonlinear effect, and
the updatable factor (``ColumnFactor``) that scores a move of one score column
at O(n^2) cost.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr_delete, solve_triangular
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import pdist, squareform

from .errors import CholeskyFailure, ShapeMismatch

# Jitter escalation, as fractions of trace(K)/n (= 1 for a unit-diagonal kernel).
JITTER_START = 1e-10
JITTER_MAX = 1e-4
JITTER_GROWTH = 10.0


class KernelMatrix:
    """Kernel over sample columns plus its jittered Cholesky factor.

    Treated as immutable after construction; the eigendecomposition of the
    regularized matrix is computed lazily and cached.
    """

    def __init__(self, K: np.ndarray, length_scale: float, jitter: float, chol: np.ndarray):
        self.K = K
        self.length_scale = float(length_scale)
        self.jitter = float(jitter)
        self.chol = chol
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def regularized(self) -> np.ndarray:
        """K + jitter*I, the covariance actually used for GP draws and densities."""
        return self.K + self.jitter * np.eye(self.n)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the regularized kernel, eigenvalues clipped at 0."""
        if self._eig is None:
            d, U = np.linalg.eigh(self.regularized())
            self._eig = (np.clip(d, 0.0, None), U)
        return self._eig

    def logdens(self, rows: np.ndarray) -> float:
        """Sum of N(0, K + jitter*I) log-densities over the given rows (k, n)."""
        rows = np.atleast_2d(rows)
        if rows.shape[1] != self.n:
            raise ShapeMismatch(f"rows have length {rows.shape[1]}, kernel is {self.n}x{self.n}")
        if rows.shape[0] == 0:
            return 0.0
        w = solve_triangular(self.chol, rows.T, lower=True)
        logdet = 2.0 * np.sum(np.log(np.diag(self.chol)))
        k = rows.shape[0]
        return -0.5 * k * (self.n * np.log(2.0 * np.pi) + logdet) - 0.5 * float(np.sum(w * w))


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    n = K.shape[0]
    base = np.trace(K) / n
    jitter = JITTER_START * base
    limit = JITTER_MAX * base
    eye = np.eye(n)
    while True:
        try:
            return np.linalg.cholesky(K + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= JITTER_GROWTH
            if jitter > limit * (1.0 + 1e-12):
                raise CholeskyFailure(
                    f"kernel not factorizable at maximum jitter {limit:.3e}"
                ) from None


def se_kernel(scores: np.ndarray, length_scale: float) -> KernelMatrix:
    """Squared-exponential kernel over the columns of an (L, n) score matrix."""
    if length_scale <= 0:
        raise ValueError(f"length_scale must be positive, got {length_scale}")
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n = scores.shape[1]
    if n == 1:
        K = np.ones((1, 1))
    else:
        d2 = squareform(pdist(scores.T, "sqeuclidean"))
        K = np.exp(-0.5 * d2 / length_scale**2)
        np.fill_diagonal(K, 1.0)
    chol, jitter = _chol_with_jitter(K)
    return KernelMatrix(K, length_scale, jitter, chol)


class ColumnFactor:
    """Cholesky factor of a kernel's K + jitter*I for moving one column at a time.

    Moving score column j changes only row and column j of the kernel, so the
    change in a row's N(0, K + jitter*I) log-density is the change in the
    conditional density of its entry j given the others. The factor is kept
    in a permuted column order: ``column_delta`` drops j with a stable O(n^2)
    rank-one update (Givens rotations through ``qr_delete`` on the upper
    factor; Seeger 2004, Golub & Van Loan 6.5.4), and ``append`` puts j back
    as the last column, at its old or its new position. The jitter stays the kernel's throughout; updates of
    the inverse would lose too much accuracy on these ill-conditioned kernels.
    """

    def __init__(self, kernel: KernelMatrix):
        self.length_scale = kernel.length_scale
        self.variance = 1.0 + kernel.jitter     # diagonal of K + jitter*I
        # C[order][:, order] = upper.T @ upper; Fortran order so that qr_delete
        # updates it in place (its rotations of Q go to a scratch buffer)
        self.upper = np.array(kernel.chol.T, order="F")
        self.order = np.arange(kernel.n)
        self._q = np.eye(kernel.n, order="F")

    def column_delta(self, scores: np.ndarray, j: int, proposal: np.ndarray,
                     rows: np.ndarray) -> tuple[float | None, np.ndarray | None, np.ndarray]:
        """Drop column j, then score moving it from ``scores[:, j]`` to ``proposal``.

        Returns (delta, moved, kept): the change in the summed log-density of
        ``rows`` (k, n), and the last factor column for j at the proposal and
        at its current position, one of which must go to ``append`` next.
        delta and moved are None when the proposal's conditional variance is
        not positive.
        """
        p = int(np.flatnonzero(self.order == j)[0])
        # overwrite_qr: the reduced factor is the first n-1 columns of self.upper
        qr_delete(self._q, self.upper, p, which="col", overwrite_qr=True, check_finite=False)
        self.order[p:-1] = self.order[p + 1:]
        self.order[-1] = j
        others = self.order[:-1]
        # a unit last column passes the padded last row of a solve through
        self.upper[:, -1] = 0.0
        self.upper[-1, -1] = 1.0

        points = np.column_stack([scores[:, j], proposal])
        d2 = np.sum((scores[:, others, None] - points[:, None, :]) ** 2, axis=0)
        rhs = np.zeros((self.order.size, 2 + rows.shape[0]))
        rhs[:-1, :2] = np.exp(-0.5 * d2 / self.length_scale**2)   # kernel rows
        rhs[:-1, 2:] = rows[:, others].T
        solved, info = dtrtrs(self.upper, rhs, lower=0, trans=1, overwrite_b=1)
        if info:
            raise CholeskyFailure("column factor became singular")
        w, a = solved[:-1, :2], solved[:-1, 2:]
        var = self.variance - np.sum(w * w, axis=0)
        kept = np.append(w[:, 0], np.sqrt(var[0]))
        if not var[1] > 0.0:
            return None, None, kept
        resid = rows[:, j][None, :] - w.T @ a                      # (2, k)
        logdens = -0.5 * (rows.shape[0] * np.log(var) + np.sum(resid * resid, axis=1) / var)
        return float(logdens[1] - logdens[0]), np.append(w[:, 1], np.sqrt(var[1])), kept

    def append(self, column: np.ndarray) -> None:
        """Complete ``column_delta``: the dropped column comes back as the last
        column of the factor, with last factor column ``column``."""
        self.upper[:, -1] = column


def gp_marginal_loglik_ratio(residual: np.ndarray, kernel: KernelMatrix, sigma2: float) -> float:
    """log N(r; 0, K + s2*I) - log N(r; 0, s2*I).

    The log Bayes factor between "this row carries a nonlinear effect" and
    "this row's effect is zero"; uses the jittered kernel for coherence with
    the effect draws.
    """
    r = np.asarray(residual, dtype=float).ravel()
    n = kernel.n
    if r.shape[0] != n:
        raise ShapeMismatch(f"residual has length {r.shape[0]}, kernel is {n}x{n}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    C = kernel.regularized() + sigma2 * np.eye(n)
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - C is SPD by construction
        raise CholeskyFailure("marginal covariance not factorizable") from exc
    w = solve_triangular(L, r, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (logdet - n * np.log(sigma2)) - 0.5 * (float(w @ w) - float(r @ r) / sigma2)


def marginal_ratio_rows(residuals: np.ndarray, kernel: KernelMatrix, sigma2: np.ndarray) -> np.ndarray:
    """Vectorized gp_marginal_loglik_ratio over the rows of an (m, n) residual
    matrix with per-row noise variances, via one eigendecomposition."""
    d, U = kernel.eigensystem()
    proj = residuals @ U                       # (m, n)
    s2 = np.asarray(sigma2, dtype=float)[:, None]
    logdet_term = np.sum(np.log1p(d[None, :] / s2), axis=1)
    quad_term = np.sum(proj * proj * (d[None, :] / (s2 * (d[None, :] + s2))), axis=1)
    return -0.5 * logdet_term + 0.5 * quad_term
