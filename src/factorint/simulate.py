"""Synthetic data with known ground truth and the model-comparison harness.

Generates two-factor datasets whose interaction effect is the saddle-shaped
score product, computes the average-absolute-deviation statistic against the
planted truth (after sign/permutation alignment of the factors), exports
interaction surfaces, and fits competing specifications side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFraction, ShapeMismatch
from .genomics import detect_interactions, posterior_mean_effects, posterior_mean_scores
from .gp import GpChain
from .io import write_table
from .kernels import sq_distances
from .model import (
    DataMatrix,
    Family,
    McmcSettings,
    ModelSpec,
    PosteriorDraws,
    SyntheticTruth,
    run_chain,
    standardize_rows,
)
from .mult import MultChain
from .rng import stream


def _seed_blocks(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two seed blocks, of max(5, m // 10) features each, and the
    candidate features after them, of which m > 10 leaves at least one."""
    if m <= 10 or n < 10:
        raise InvalidFraction(f"need m > 10 and n >= 10, got {m}x{n}")
    g = max(5, m // 10)
    return np.arange(g), np.arange(g, 2 * g), np.arange(2 * g, m)


def _planted_loadings(rng: np.random.Generator, m: int, g1: np.ndarray, g2: np.ndarray,
                      candidates: np.ndarray) -> np.ndarray:
    """Two-factor loadings: each seed block loads positively on its own factor
    only, and every candidate loads on both factors with random signs."""
    loadings = np.zeros((m, 2))
    loadings[g1, 0] = rng.uniform(1.0, 2.0, size=len(g1))
    loadings[g2, 1] = rng.uniform(1.0, 2.0, size=len(g2))
    signs = rng.choice([-1.0, 1.0], size=(len(candidates), 2))
    loadings[candidates] = signs * rng.uniform(0.7, 1.3, size=(len(candidates), 2))
    return loadings


def _standardized(raw: np.ndarray, loadings: np.ndarray, scores: np.ndarray,
                  effects: np.ndarray, noise_scale: float, affected: np.ndarray,
                  seed_groups: dict[int, np.ndarray]) -> tuple[DataMatrix, SyntheticTruth]:
    """The standardized rows of ``raw`` and the planted truth rescaled with
    them: each row's loadings, effects and noise scale over the row's sd."""
    sd = (raw - raw.mean(axis=1, keepdims=True)).std(axis=1, ddof=1)
    return standardize_rows(raw), SyntheticTruth(
        loadings=loadings / sd[:, None], scores=scores, effects=effects / sd[:, None],
        noise_var=(noise_scale / sd) ** 2, affected=affected, seed_groups=seed_groups)


def generate_saddle_dataset(m: int, n: int, frac_affected: float, noise_scale: float = 1.0,
                            seed: int = 0) -> tuple[DataMatrix, SyntheticTruth]:
    """Two-factor data where a fraction of the candidate features carries the
    saddle-shaped product interaction.

    Seed blocks load positively on a single factor each; the remaining
    features load on both factors, and ``frac_affected`` of them receive an
    effect row equal to the score product times a per-feature coefficient.
    Rows are standardized with the truth rescaled consistently.
    """
    g1, g2, candidates = _seed_blocks(m, n)
    if not 0.0 <= frac_affected < 1.0:
        raise InvalidFraction(f"frac_affected must lie in [0, 1), got {frac_affected}")
    rng = stream(seed, 0, "simulate")

    scores = rng.standard_normal((2, n))
    loadings = _planted_loadings(rng, m, g1, g2, candidates)

    n_affected = int(round(frac_affected * len(candidates)))
    affected = np.sort(rng.choice(candidates, size=n_affected, replace=False))
    effects = np.zeros((m, n))
    if n_affected:
        # effect dominating the row's factor signal, as in the plotted saddles
        coeff = rng.choice([-1.0, 1.0], size=n_affected) * rng.uniform(2.0, 3.0, size=n_affected)
        effects[affected] = coeff[:, None] * (scores[0] * scores[1])[None, :]

    raw = loadings @ scores + effects + noise_scale * rng.standard_normal((m, n))
    return _standardized(raw, loadings, scores, effects, noise_scale, affected, {0: g1, 1: g2})


def generate_hidden_factor_dataset(m: int, n: int, seed: int = 0,
                                   ) -> tuple[DataMatrix, SyntheticTruth]:
    """Two-factor data with no interaction but a strong unmodeled third factor
    over most candidate features. A loosely tied interaction column fitted to
    this data drifts toward the extra factor instead of the score product."""
    g1, g2, candidates = _seed_blocks(m, n)
    rng = stream(seed, 0, "simulate-hidden")

    scores = rng.standard_normal((2, n))
    hidden = rng.standard_normal(n)
    loadings = _planted_loadings(rng, m, g1, g2, candidates)

    hidden_load = np.zeros(m)
    carriers = rng.choice(candidates, size=int(round(0.6 * len(candidates))), replace=False)
    hidden_load[carriers] = rng.choice([-1.0, 1.0], size=len(carriers)) * rng.uniform(1.0, 2.0, size=len(carriers))

    raw = loadings @ scores + np.outer(hidden_load, hidden) + rng.standard_normal((m, n))
    return _standardized(raw, loadings, scores, np.zeros((m, n)), 1.0,
                         np.array([], dtype=int), {0: g1, 1: g2})


def aad(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Average absolute deviation between an estimate and the truth."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ShapeMismatch(f"shape {estimate.shape} vs {truth.shape}")
    return float(np.mean(np.abs(estimate - truth)))


def align_factors(scores_est: np.ndarray, scores_true: np.ndarray,
                  loadings_est: np.ndarray | None = None):
    """Match estimated factors to the truth by maximal absolute correlation and
    flip signs to agree; the loadings receive the same permutation and signs.
    Every estimated factor is a candidate, also when the fit has more factors
    than the truth; those left unmatched are dropped.

    Returns (aligned scores, aligned loadings or None, permutation, signs).
    """
    from scipy.optimize import linear_sum_assignment

    L = scores_true.shape[0]
    # true factors by rows, every estimated factor by columns
    corr = np.nan_to_num(np.corrcoef(scores_true, scores_est)[:L, L:])
    rows, perm = linear_sum_assignment(-np.abs(corr))
    signs = np.where(corr[rows, perm] >= 0, 1.0, -1.0)
    aligned_scores = scores_est[perm] * signs[:, None]
    aligned_loadings = None
    if loadings_est is not None:
        aligned_loadings = loadings_est[:, perm] * signs[None, :]
    return aligned_scores, aligned_loadings, perm, signs


def saddle_quadrant_recovery(effects_est: np.ndarray, truth: SyntheticTruth) -> float:
    """Fraction of truly affected features whose estimated effect matches the
    true effect's sign in all four quadrants of the true score plane.

    Samples within 0.3 of either axis are excluded from the quadrant means,
    and a quadrant with no sample left is not compared; 1.0 when no feature
    is affected or no sample is left.
    """
    s1, s2 = truth.scores[0], truth.scores[1]
    clear = (np.abs(s1) > 0.3) & (np.abs(s2) > 0.3)
    if len(truth.affected) == 0 or not clear.any():
        return 1.0
    quadrant = (s1 < 0) + 2 * (s2 < 0)
    quads = [q for k in range(4) if (q := clear & (quadrant == k)).any()]
    # the sign of each affected feature's mean effect in each quadrant that holds a sample
    est, true = (np.sign([effects[np.ix_(truth.affected, q)].mean(axis=1) for q in quads])
                 for effects in (effects_est, truth.effects))
    return float(np.mean((est == true).all(axis=0)))


@dataclass(frozen=True)
class SurfaceGrid:
    """Interaction surface: per-sample points plus a regular-grid interpolation."""

    points: np.ndarray  # (n, 3) columns score1, score2, effect
    grid: np.ndarray    # (g*g, 3)

    def write_csv(self, path) -> None:
        write_table(path, ["lambda1", "lambda2", "effect", "source"],
                    ([*(f"{v:.10g}" for v in row), source]
                     for rows, source in ((self.points, "sample"), (self.grid, "grid"))
                     for row in rows))


def export_surface(effect: np.ndarray, score_pair: np.ndarray) -> SurfaceGrid:
    """Surface of one feature's interaction effect over the score plane.

    ``effect`` holds the per-sample effect values and ``score_pair`` the (2, n)
    estimated scores. The regular 25 x 25 grid is filled by inverse-distance
    weighting over the 8 nearest samples.
    """
    effect = np.asarray(effect, dtype=float).ravel()
    score_pair = np.atleast_2d(np.asarray(score_pair, dtype=float))
    if score_pair.shape != (2, effect.shape[0]):
        raise ShapeMismatch(f"scores {score_pair.shape} do not match {effect.shape[0]} samples")
    points = np.column_stack([score_pair[0], score_pair[1], effect])

    xs = np.linspace(score_pair[0].min(), score_pair[0].max(), 25)
    ys = np.linspace(score_pair[1].min(), score_pair[1].max(), 25)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    dist = np.sqrt(sq_distances(nodes.T, score_pair))
    k = min(8, effect.shape[0])
    idx = np.argsort(dist, axis=1)[:, :k]
    nd = np.take_along_axis(dist, idx, axis=1)
    weights = 1.0 / np.maximum(nd, 1e-12) ** 2
    vals = (weights * effect[idx]).sum(axis=1) / weights.sum(axis=1)
    exact = nd[:, 0] < 1e-12
    vals[exact] = effect[idx[exact, 0]]
    grid = np.column_stack([nodes, vals])
    return SurfaceGrid(points=points, grid=grid)


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    aad_loadings: float
    aad_scores: float
    aad_effects: float
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    quadrant_recovery: float
    surface: SurfaceGrid


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...] = field(default_factory=tuple)

    def write_csv(self, path) -> None:
        write_table(path, ["label", "aad_loadings", "aad_scores", "aad_effects",
                           "tp", "fp", "tn", "fn", "accuracy", "quadrant_recovery"],
                    ([r.label, f"{r.aad_loadings:.10g}", f"{r.aad_scores:.10g}",
                      f"{r.aad_effects:.10g}", r.tp, r.fp, r.tn, r.fn,
                      f"{r.accuracy:.10g}", f"{r.quadrant_recovery:.10g}"] for r in self.rows))


def fit_spec(spec: ModelSpec, data: DataMatrix, settings: McmcSettings,
             chain: int = 0, sink=None) -> PosteriorDraws:
    """Run one chain of the family's sampler under ``settings``, its retained
    states going to ``sink`` as in ``run_chain`` (kept in memory by default)."""
    sampler = GpChain if spec.family is Family.GP else MultChain
    return run_chain(sampler(spec, data, settings, chain), sink)


def compare_models(data: DataMatrix, truth: SyntheticTruth, specs: list[ModelSpec],
                   settings: McmcSettings, labels: list[str] | None = None) -> ComparisonReport:
    """Fit every spec on the same data and report deviation from the planted
    truth, affected-set classification at ``detect_interactions``' default
    threshold, and a surface for the strongest estimated effect."""
    labels = labels or [f"model_{k}" for k in range(len(specs))]
    m = data.n_features
    truly = np.zeros(m, dtype=bool)
    truly[truth.affected] = True
    rows = []
    for label, spec in zip(labels, specs):
        draws = fit_spec(spec, data, settings)
        eff = posterior_mean_effects(draws)
        scores_mean = posterior_mean_scores(draws)
        loadings_mean = draws.stack("loadings").mean(axis=0)
        aligned_scores, aligned_loadings, _, _ = align_factors(
            scores_mean, truth.scores, loadings_mean)

        flag = np.zeros(m, dtype=bool)
        flag[list(detect_interactions(draws))] = True
        tp = int(np.sum(flag & truly))
        fp = int(np.sum(flag & ~truly))
        tn = int(np.sum(~flag & ~truly))
        fn = int(np.sum(~flag & truly))

        strongest = int(np.argmax(np.abs(eff).sum(axis=1)))
        surface = export_surface(eff[strongest], aligned_scores)
        rows.append(ComparisonRow(
            label=label,
            aad_loadings=aad(aligned_loadings, truth.loadings),
            aad_scores=aad(aligned_scores, truth.scores),
            aad_effects=aad(eff, truth.effects),
            tp=tp, fp=fp, tn=tn, fn=fn,
            accuracy=(tp + tn) / m,
            quadrant_recovery=saddle_quadrant_recovery(eff, truth),
            surface=surface,
        ))
    return ComparisonReport(rows=tuple(rows))
