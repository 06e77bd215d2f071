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
        from scipy.linalg import solve_triangular

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
        from scipy.spatial.distance import pdist, squareform

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
    as the last column, at its old or its new position. The jitter stays the
    kernel's throughout; updates of the inverse would lose too much accuracy
    on these ill-conditioned kernels.

    ``order`` lists the kernel columns in factor order and ``position`` is its
    inverse (``order[position[j]] == j``), so finding j costs no search. A
    call does only tens of microseconds of LAPACK work, so the fixed costs
    around it are cut: the right-hand side of the triangular solve is one
    Fortran-order buffer, reused across calls and overwritten by the solve,
    and the LAPACK routines are bound once per factor (``qr_delete`` without
    scipy's batch wrapper, whose checks cost about as much as the rotations).
    The columns a call returns are fresh arrays, never views of the buffer.
    """

    def __init__(self, kernel: KernelMatrix):
        from scipy.linalg import qr_delete
        from scipy.linalg.lapack import dtrtrs

        self.length_scale = kernel.length_scale
        self.variance = 1.0 + kernel.jitter     # diagonal of K + jitter*I
        # C[order][:, order] = upper.T @ upper; Fortran order so that qr_delete
        # updates it in place (its rotations of Q go to a scratch buffer)
        self.upper = np.array(kernel.chol.T, order="F")
        self.order = np.arange(kernel.n)
        self.position = np.arange(kernel.n)
        self._q = np.eye(kernel.n, order="F")
        self._qr_delete = getattr(qr_delete, "__wrapped__", qr_delete)
        self._dtrtrs = dtrtrs
        # [kernel row at current, kernel row at proposal, rows...] per column;
        # the last row stays 0 (a solve passes it through)
        self._rhs = np.zeros((kernel.n, 2), order="F")

    def column_delta(self, scores: np.ndarray, j: int, proposal: np.ndarray,
                     rows: np.ndarray) -> tuple[float | None, np.ndarray | None, np.ndarray]:
        """Drop column j, then score moving it from ``scores[:, j]`` to ``proposal``.

        Returns (delta, moved, kept): the change in the summed log-density of
        ``rows`` (k, n), and the last factor column for j at the proposal and
        at its current position, one of which must go to ``append`` next.
        delta and moved are None when the proposal's conditional variance is
        not positive.
        """
        order, position, n = self.order, self.position, self.order.size
        p = int(position[j])
        # overwrite_qr: the reduced factor is the first n-1 columns of self.upper
        self._qr_delete(self._q, self.upper, p, which="col", overwrite_qr=True,
                        check_finite=False)
        order[p:-1] = order[p + 1:]
        order[-1] = j
        position[order[p:-1]] -= 1
        position[j] = n - 1
        others = order[:-1]
        # a unit last column passes the padded last row of a solve through
        self.upper[:, -1] = 0.0
        self.upper[-1, -1] = 1.0

        k = rows.shape[0]
        if self._rhs.shape[1] != 2 + k:
            self._rhs = np.zeros((n, 2 + k), order="F")
        rhs = self._rhs
        ends = np.empty((scores.shape[0], 2, 1))
        ends[:, 0, 0] = scores[:, j]
        ends[:, 1, 0] = proposal
        diff = scores.take(others, axis=1)[:, None, :] - ends        # (L, 2, n-1)
        d2 = (diff * diff).sum(axis=0)
        np.exp(-0.5 * d2 / self.length_scale**2, out=rhs[:-1, :2].T)   # kernel rows
        # mode "clip" writes straight into out ("raise" goes through a copy)
        rows.take(others, axis=1, out=rhs[:-1, 2:].T, mode="clip")
        solved, info = self._dtrtrs(self.upper, rhs, lower=0, trans=1, overwrite_b=1)
        if info:
            raise CholeskyFailure("column factor became singular")
        w, a = solved[:-1, :2], solved[:-1, 2:]
        var = self.variance - (w * w).sum(axis=0)
        kept = np.empty(n)
        kept[:-1] = w[:, 0]
        kept[-1] = np.sqrt(var[0])
        if not var[1] > 0.0:
            return None, None, kept
        moved = np.empty(n)
        moved[:-1] = w[:, 1]
        moved[-1] = np.sqrt(var[1])
        resid = rows[:, j][None, :] - w.T @ a                      # (2, k)
        # two entries: Python floats round exactly as the array ops would
        cur, prop = (-0.5 * (k * log_v + ss / v) for log_v, ss, v in zip(
            np.log(var).tolist(), (resid * resid).sum(axis=1).tolist(), var.tolist()))
        return prop - cur, moved, kept

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
    from scipy.linalg import solve_triangular

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
