"""Squared-exponential covariance over factor-score columns.

The kernel K(scores)[j1, j2] = exp(-||s_j1 - s_j2||^2 / (2 ls^2)) drives the
Gaussian prior on interaction-effect rows. Construction factors K + jitter*I
once, with an escalating jitter and the columns in reverse order, and the
module provides the marginal log-likelihood ratio used to decide whether a
residual row carries a nonlinear effect, and the per-sweep factor
(``SweepFactor``) whose one ``sweep`` call scores, decides and makes the
moves of every score column in turn: it starts from a copy of that factor,
and scores each move by rotating only the columns already visited and one
triangular solve.
Distances are computed with numpy (``sq_distances``), so building a kernel
imports no ``scipy.spatial``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CholeskyFailure, ShapeMismatch
from .prior import check_positive

# Jitter escalation, as fractions of trace(K)/n (= 1 for a unit-diagonal kernel).
JITTER_START = 1e-10
JITTER_MAX = 1e-4
JITTER_GROWTH = 10.0


class KernelMatrix:
    """Kernel over sample columns plus its jittered Cholesky factor.

    ``upper`` is the upper-triangular R with ``R.T @ R = J (K + jitter*I) J``,
    J the reversal of the column order: the Cholesky factor of the kernel
    with its columns in reverse order, the order a ``SweepFactor`` starts
    from. Treated as immutable after construction; the eigendecomposition of
    the regularized matrix is computed lazily and cached.
    """

    def __init__(self, K: np.ndarray, length_scale: float, jitter: float, upper: np.ndarray):
        self.K = K
        self.length_scale = float(length_scale)
        self.jitter = float(jitter)
        self.upper = upper
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @property
    def jitter_escalated(self) -> bool:
        """Whether the factor needed a jitter above the ladder's first."""
        return bool(self.jitter > JITTER_START * (np.trace(self.K) / self.n))

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

        # the rows' entries in the factor's (reversed) order
        w = solve_triangular(self.upper, rows[:, ::-1].T, trans="T")
        logdet = 2.0 * np.sum(np.log(np.diag(self.upper)))
        k = rows.shape[0]
        return -0.5 * k * (self.n * np.log(2.0 * np.pi) + logdet) - 0.5 * float(np.sum(w * w))


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """(R, jitter): the upper Cholesky factor R of J (K + jitter*I) J, J the
    reversal, at the first jitter of the escalation ladder that factors."""
    n = K.shape[0]
    base = np.trace(K) / n
    jitter = JITTER_START * base
    limit = JITTER_MAX * base
    flipped = K[::-1, ::-1]
    eye = np.eye(n)
    while True:
        try:
            return np.linalg.cholesky(flipped + jitter * eye).T, jitter
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


def _se_entries(a: np.ndarray, b: np.ndarray, length_scale: float) -> np.ndarray:
    """Squared-exponential kernel entries between the columns of ``a`` and
    ``b``. ``se_kernel`` and ``SweepFactor`` both take their entries from
    here, so a proposal's kernel row rounds as the rebuilt kernel's does."""
    return np.exp(-0.5 * sq_distances(a, b) / length_scale**2)


def se_kernel(scores: np.ndarray, length_scale: float) -> KernelMatrix:
    """Squared-exponential kernel over the columns of an (L, n) score matrix."""
    check_positive("length_scale", length_scale)
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    K = _se_entries(scores, scores, length_scale)
    np.fill_diagonal(K, 1.0)
    upper, jitter = _chol_with_jitter(K)
    return KernelMatrix(K, length_scale, jitter, upper)


@functools.lru_cache(maxsize=4)
def _visit_layout(n: int) -> np.ndarray:
    """(n, n) flat indices into an (n, n) array that put its row t in the
    factor order of visit t of a sweep: columns n-1, ..., t+1 (unvisited),
    0, ..., t-1 (visited), then t. Read-only, as the cache shares it."""
    i = np.arange(n)
    later = n - 1 - i[:, None]
    layout = np.where(i < later, n - 1 - i, i - later) + n * i[:, None]
    layout.flags.writeable = False
    return layout


class SweepFactor:
    """Factor of a kernel's K + jitter*I for one Metropolis sweep that moves
    the score columns one at a time in the order 0, 1, ..., n-1.

    Moving column t changes only row and column t of the kernel, so the
    change in the summed N(0, K + jitter*I) log-density of the (k, n) GP rows
    is the change in the conditional density of their entry t given the
    other columns. ``upper.T @ upper`` is K + jitter*I in factor order, and
    ``upper.T @ whitened.T`` is the rows in factor order.

    The factor order starts as the visit order reversed, which is the order
    the kernel's own factor ``kernel.upper`` is in, so the sweep starts from
    a copy of it (no second factorisation, and no second jitter choice).
    Column t then sits just before the t columns already visited, and the
    sweep moves it to the end with Givens rotations of that trailing block
    alone (``qr_delete`` in place; Seeger 2004, Golub & Van Loan 6.5.4). The
    whitened rows ride in ``qr_delete``'s orthogonal factor, so the same
    rotations reach them, and the current conditional is read off the
    rotated factor: variance ``upper[-1, -1]**2``, whitened residual
    ``whitened[:, -1]``. A proposal costs one triangular solve, in place, of
    its kernel row, which is laid out here in the factor order of its visit;
    the kernel rows of every proposal against every current and proposed
    column come from one vectorised pass. After the sweep the factor order
    is 0, ..., n-1.

    More rows than columns are replaced by the triangle of their QR, which
    has the same Gram matrix and so gives the same densities.
    """

    def __init__(self, kernel: KernelMatrix, scores: np.ndarray, proposals: np.ndarray,
                 rows: np.ndarray):
        from scipy.linalg.lapack import dtrtrs

        n = kernel.n
        self._n_rows = rows.shape[0]
        if rows.shape[0] > n:
            rows = np.linalg.qr(rows, mode="r")
        self._variance = 1.0 + kernel.jitter     # diagonal of K + jitter*I
        # one spare column: the visited column is copied there, so that
        # qr_delete's shift lands it, rotated, in the last slot
        self._buffer = np.empty((n, n + 1), order="F")
        self.upper = self._buffer[:, :n]
        self.upper[...] = kernel.upper
        # qr_delete's orthogonal factor: the rotations reach these rows as
        # they reach the factor's; the rows below k stay 0
        self._q = np.zeros((n, n), order="F")
        self.whitened = self._q[:rows.shape[0]]
        whitened, info = dtrtrs(self.upper, rows[:, ::-1].T, lower=0, trans=1)
        if info:
            raise CholeskyFailure("column factor became singular")
        self.whitened.T[...] = whitened
        self._row_columns = np.ascontiguousarray(rows.T)
        # [t, s]: kernel between proposal t and column s, current or proposed
        cross = _se_entries(proposals, scores, kernel.length_scale)
        self._moved = _se_entries(proposals, proposals, kernel.length_scale)
        # row t: proposal t against the columns in the factor order of its
        # visit, and a last 0 for itself; each row is solved in place at its
        # visit
        self._rhs = np.take(cross, _visit_layout(n))
        self._rhs[:, -1] = 0.0

    def sweep(self, log_u: np.ndarray, data_delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Visit columns 0, 1, ..., n-1 once each: score moving column t to
        its proposal, as the change ``gp_delta[t]`` in the summed log-density
        of the rows, and move it when ``log_u[t] < data_delta[t] +
        gp_delta[t]``. A proposal whose conditional variance is not positive
        scores NaN and is rejected. Returns (accepted, gp_delta), both (n,)."""
        from scipy.linalg import qr_delete
        from scipy.linalg.lapack import dtrtrs

        # the core routine under scipy's batch wrapper, whose checks cost
        # about as much as the rotations
        qr_delete = getattr(qr_delete, "__wrapped__", qr_delete)
        q, buffer, upper, whitened = self._q, self._buffer, self.upper, self.whitened
        n = upper.shape[0]
        last_slot = n - 1
        columns = list(buffer.T)      # column views, the spare last
        spare, last = columns[n], columns[last_slot]
        current, resid = whitened[:, -1], np.empty(whitened.shape[0])
        rhs_flat = self._rhs.reshape(-1)
        accepted = np.zeros(n, dtype=bool)
        gp_delta = np.full(n, np.nan)
        for t, (u, d) in enumerate(zip(log_u.tolist(), data_delta.tolist())):
            p = last_slot - t
            spare[...] = columns[p]
            # positional arguments, which both wrappers parse faster: p=1,
            # which="col", overwrite_qr, no check_finite; then lower=0,
            # trans=1, unitdiag=0, lda=n, overwrite_b=1 (the row is solved
            # in place)
            qr_delete(q, buffer, p, 1, "col", True, False)
            rhs = self._rhs[t]
            _, info = dtrtrs(upper, rhs, 0, 1, 0, n, 1)
            if info:
                raise CholeskyFailure("column factor became singular")
            rhs[-1] = 0.0
            var = self._variance - float(rhs.dot(rhs))
            if not var > 0.0:
                continue
            np.subtract(self._row_columns[t], whitened @ rhs, out=resid)
            r_last = last.item(-1)
            delta = 0.5 * (self._n_rows * math.log(r_last * r_last / var)
                           + float(current.dot(current)) - float(resid.dot(resid)) / var)
            gp_delta[t] = delta
            if not u < d + delta:
                continue
            # the proposal's factor column and whitened residual go to the
            # last slot, its kernel entries to the rows of the proposals
            # still to come: each later proposal v holds column t at position
            # (n-1-v) + t of its row, flat index (v+1)(n-1) + t, entries n-1
            # apart from v = t+1
            accepted[t] = True
            sd = math.sqrt(var)
            last[...] = rhs
            last[-1] = sd
            np.divide(resid, sd, out=current)
            if t < last_slot:
                start = (t + 2) * last_slot + t
                rhs_flat[start::last_slot][:last_slot - t] = self._moved[t, t + 1:]
        return accepted, gp_delta


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
    check_positive("sigma2", sigma2)
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
    logdet_term = np.sum(np.log1p(d / s2), axis=1)
    quad_term = np.sum(proj * proj * (posterior_gain(d, s2) / s2), axis=1)
    return -0.5 * logdet_term + 0.5 * quad_term


def posterior_gain(d: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """d / (d + s2): the share of a residual's component along a kernel
    eigenvector (eigenvalue d) that the posterior GP mean keeps, at noise
    variance s2."""
    return d / (d + s2)
