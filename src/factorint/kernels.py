"""Squared-exponential covariance over factor-score columns.

The kernel K(scores)[j1, j2] = exp(-||s_j1 - s_j2||^2 / (2 ls^2)) drives the
Gaussian prior on interaction-effect rows. Construction factors K + jitter*I
with an escalating jitter, and the module provides the marginal log-likelihood
ratio used to decide whether a residual row carries a nonlinear effect, and
the per-sweep factor (``SweepFactor``) that scores the moves of the score
columns one after another, each by rotating only the columns already visited
and one triangular solve. Distances are computed with numpy
(``sq_distances``), so building a kernel imports no ``scipy.spatial``.
"""

from __future__ import annotations

import math

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


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of (L, n1) ``a`` and
    (L, n2) ``b``, as an (n1, n2) array; the sum runs over L in order, so the
    result is symmetric when ``a`` is ``b``."""
    diff = a[:, :, None] - b[:, None, :]
    return (diff * diff).sum(axis=0)


def se_kernel(scores: np.ndarray, length_scale: float) -> KernelMatrix:
    """Squared-exponential kernel over the columns of an (L, n) score matrix."""
    if length_scale <= 0:
        raise ValueError(f"length_scale must be positive, got {length_scale}")
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    K = np.exp(-0.5 * sq_distances(scores, scores) / length_scale**2)
    np.fill_diagonal(K, 1.0)
    chol, jitter = _chol_with_jitter(K)
    return KernelMatrix(K, length_scale, jitter, chol)


class SweepFactor:
    """Factor of a kernel's K + jitter*I for one Metropolis sweep that moves
    the score columns one at a time in the order 0, 1, ..., n-1.

    Moving column t changes only row and column t of the kernel, so the
    change in the summed N(0, K + jitter*I) log-density of the (k, n) GP rows
    is the change in the conditional density of their entry t given the
    other columns. ``upper.T @ upper`` is K + jitter*I in factor order, and
    ``upper.T @ whitened.T`` is the rows in factor order.

    The factor order starts as the visit order reversed, from one QR of the
    kernel's own Cholesky factor with its columns reversed (no second jitter
    choice, and it cannot fail). Column t then sits just before the t columns
    already visited, and ``column_delta(t)`` moves it to the end with Givens
    rotations of that trailing block alone (``qr_delete`` in place; Seeger
    2004, Golub & Van Loan 6.5.4). The whitened rows ride in ``qr_delete``'s
    orthogonal factor, so the same rotations reach them, and the current
    conditional is read off the rotated factor: variance ``upper[-1, -1]**2``,
    whitened residual ``whitened[:, -1]``. A proposal costs one triangular
    solve, for its kernel row; the kernel rows of every proposal against
    every current and proposed column come from one vectorised pass here.
    ``accept`` writes the proposal's factor column and whitened residual into
    the last slot; a rejected move changes nothing. After the sweep the
    factor order is 0, ..., n-1.

    More rows than columns are replaced by the triangle of their QR, which
    has the same Gram matrix and so gives the same densities.
    """

    def __init__(self, kernel: KernelMatrix, scores: np.ndarray, proposals: np.ndarray,
                 rows: np.ndarray):
        from scipy.linalg import qr_delete
        from scipy.linalg.lapack import dtrtrs

        n = kernel.n
        self._n_rows = rows.shape[0]
        if rows.shape[0] > n:
            rows = np.linalg.qr(rows, mode="r")
        k = rows.shape[0]
        self._variance = 1.0 + kernel.jitter     # diagonal of K + jitter*I
        # one spare column: the visited column is copied there, so that
        # qr_delete's shift lands it, rotated, in the last slot
        self._buffer = np.empty((n, n + 1), order="F")
        self.upper = self._buffer[:, :n]
        self.upper[...] = np.linalg.qr(kernel.chol.T[:, ::-1], mode="r")
        # qr_delete's orthogonal factor: the rotations reach these rows as
        # they reach the factor's; the rows below k stay 0
        self._q = np.zeros((n, n), order="F")
        self.whitened = self._q[:k]
        self._dtrtrs = dtrtrs
        self.whitened.T[...] = self._solve(rows[:, ::-1].T)
        # [t, s]: kernel between proposal t and column s, current or proposed,
        # rounded as in se_kernel
        ls2 = kernel.length_scale**2
        self._cross = np.exp(-0.5 * sq_distances(proposals, scores) / ls2)
        self._moved = np.exp(-0.5 * sq_distances(proposals, proposals) / ls2)
        self._row_columns = np.ascontiguousarray(rows.T)
        self._rhs = np.zeros(n)    # the last entry is 0 for every solve
        # the core routine under scipy's batch wrapper, whose checks cost
        # about as much as the rotations
        self._qr_delete = getattr(qr_delete, "__wrapped__", qr_delete)
        self._next = 0
        self._proposed: tuple[float, np.ndarray] | None = None

    def _solve(self, rhs: np.ndarray, overwrite: int = 0) -> np.ndarray:
        """upper.T^-1 rhs; with ``overwrite`` a 1-d float rhs is solved in place."""
        solved, info = self._dtrtrs(self.upper, rhs, lower=0, trans=1, overwrite_b=overwrite)
        if info:
            raise CholeskyFailure("column factor became singular")
        return solved

    def column_delta(self, t: int) -> float | None:
        """Move column t to the end of the factor, then score moving it to its
        proposal: the change in the summed log-density of the rows, or None
        when the proposal's conditional variance is not positive. Columns
        are visited in the order 0, 1, ..., n-1."""
        if t != self._next:
            raise ValueError(f"columns are visited in order: expected {self._next}, got {t}")
        self._next += 1
        buffer, n = self._buffer, self.upper.shape[0]
        p = n - 1 - t
        buffer[:, n] = buffer[:, p]
        self._qr_delete(self._q, buffer, p, which="col", overwrite_qr=True,
                        check_finite=False)
        # the proposal's kernel row in factor order: the unvisited columns
        # n-1, ..., t+1, then the visited 0, ..., t-1
        rhs = self._rhs
        rhs[:p] = self._cross[t, n - 1:t:-1]
        rhs[p:-1] = self._cross[t, :t]
        self._solve(rhs, overwrite=1)
        rhs[-1] = 0.0
        var = self._variance - float(rhs @ rhs)
        self._proposed = None
        if not var > 0.0:
            return None
        resid = self._row_columns[t] - self.whitened @ rhs
        self._proposed = (var, resid)
        k = self._n_rows
        r_last = float(self.upper[-1, -1])
        current = self.whitened[:, -1]
        cur = -0.5 * (k * math.log(r_last * r_last) + float(current @ current))
        prop = -0.5 * (k * math.log(var) + float(resid @ resid) / var)
        return prop - cur

    def accept(self) -> None:
        """Move the column last scored to its proposal."""
        if self._proposed is None:
            raise ValueError("no scored proposal to accept")
        var, resid = self._proposed
        t, sd = self._next - 1, math.sqrt(var)
        self.upper[:-1, -1] = self._rhs[:-1]
        self.upper[-1, -1] = sd
        self.whitened[:, -1] = resid / sd
        self._cross[t + 1:, t] = self._moved[t + 1:, t]
        self._proposed = None


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


def marginal_ratio_rows(residuals: np.ndarray, kernel: KernelMatrix, sigma2: np.ndarray,
                        proj: np.ndarray | None = None) -> np.ndarray:
    """Vectorized gp_marginal_loglik_ratio over the rows of an (m, n) residual
    matrix with per-row noise variances, via one eigendecomposition.

    ``proj`` is ``residuals @ U`` for the kernel's eigenvectors U, when the
    caller has already formed it.
    """
    d, U = kernel.eigensystem()
    if proj is None:
        proj = residuals @ U                   # (m, n)
    s2 = np.asarray(sigma2, dtype=float)[:, None]
    logdet_term = np.sum(np.log1p(d[None, :] / s2), axis=1)
    quad_term = np.sum(proj * proj * (d[None, :] / (s2 * (d[None, :] + s2))), axis=1)
    return -0.5 * logdet_term + 0.5 * quad_term
