"""Gibbs sampler for the multiplicative-interaction factor model.

The observation model is X = loadings @ scores + inter_loadings @ inter_scores
+ noise, with spike-and-slab priors on both loading matrices, standard-normal
priors on the scores, and inverse-gamma noise variances. Each interaction
score row follows the product of its two factor-score rows, either through a
tight Gaussian tie (approach 1) or exactly (approach 2).

Update scheme per sweep: loading rows (indicator integrated over the
coefficient, then the coefficient given the indicator), score columns by
single-coordinate Gibbs (the conditional stays Gaussian despite the score
product), interaction-score columns (approach 1), interaction-loading rows,
noise variances, inclusion probabilities. Every spike-and-slab draw (its
Bayes factor formed in log space) is made by ``prior``; this module owns the
residual each slab column is drawn from, and the blocks both families share.
"""

from __future__ import annotations

import numpy as np

from .errors import SpecConflict
from .model import (
    DataMatrix,
    Family,
    McmcSettings,
    McmcState,
    ModelSpec,
    PosteriorDraws,
    factor_pairs,
    run_chain,
    state_shapes,
)
from .prior import (
    PriorLayout,
    build_layout,
    draw_prior_indicators,
    draw_slab_column,
    inclusion_log_density,
    sample_inclusion_probs,
    slab_log_density,
)


def residual_matrix(state: McmcState, data: DataMatrix, spec: ModelSpec) -> np.ndarray:
    inter = state.inter_loadings @ state.inter_scores if spec.is_mult else state.effects
    return data.values - state.loadings @ state.scores - inter


def _update_slab_columns(coef: np.ndarray, mask: np.ndarray, prob: np.ndarray,
                         fixed: np.ndarray, regressors: np.ndarray, slab_var: float,
                         state: McmcState, data: DataMatrix, spec: ModelSpec,
                         rng: np.random.Generator) -> None:
    """Spike-and-slab update of every column of one coefficient block, in
    place, each drawn by ``draw_slab_column`` from the residual without its
    own contribution. Column l multiplies ``regressors[l]``."""
    for l in range(regressors.shape[0]):
        reg = regressors[l]
        R = residual_matrix(state, data, spec)
        R += np.outer(coef[:, l], reg)
        mask[:, l], coef[:, l] = draw_slab_column(rng, R, reg, state.noise_var, slab_var,
                                                  prob[:, l], fixed[:, l])


def update_loadings(state: McmcState, data: DataMatrix, spec: ModelSpec,
                    layout: PriorLayout, rng: np.random.Generator) -> None:
    """Spike-and-slab update of every loading column (shared by both families)."""
    _update_slab_columns(state.loadings, state.load_mask, state.load_prob, layout.load.fixed,
                         state.scores, spec.slab_var_loading, state, data, spec, rng)


def update_inter_loadings(state: McmcState, data: DataMatrix, spec: ModelSpec,
                          layout: PriorLayout, rng: np.random.Generator) -> None:
    _update_slab_columns(state.inter_loadings, state.inter_mask, state.inter_prob,
                         layout.inter.fixed, state.inter_scores, spec.slab_var_inter,
                         state, data, spec, rng)


def score_conditional(state: McmcState, data: DataMatrix, spec: ModelSpec,
                      l: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional (mean, variance) of score row l across all columns.

    Under approach 2 the effective regressor per cell folds in the interaction
    loadings times the partner scores; under approach 1 the product prior adds
    pseudo-observations from the interaction scores.
    """
    pairs = factor_pairs(spec.n_factors)
    w = 1.0 / state.noise_var
    if spec.family is Family.MULT_APPROACH2:
        c = np.repeat(state.loadings[:, l][:, None], data.n_samples, axis=1)
        for t, (l1, l2) in enumerate(pairs):
            if l == l1:
                c += np.outer(state.inter_loadings[:, t], state.scores[l2])
            elif l == l2:
                c += np.outer(state.inter_loadings[:, t], state.scores[l1])
        R = residual_matrix(state, data, spec) + c * state.scores[l][None, :]
        prec = 1.0 + (c * c * w[:, None]).sum(axis=0)
        num = (c * R * w[:, None]).sum(axis=0)
    else:
        a = state.loadings[:, l]
        R = residual_matrix(state, data, spec) + np.outer(a, state.scores[l])
        prec = np.full(data.n_samples, 1.0 + float(a * a @ w))
        num = (a * w) @ R
        for t, (l1, l2) in enumerate(pairs):
            partner = l2 if l == l1 else (l1 if l == l2 else None)
            if partner is None:
                continue
            other = state.scores[partner]
            prec += other * other / spec.product_var
            num += other * state.inter_scores[t] / spec.product_var
    var = 1.0 / prec
    return num * var, var


def score_products(scores: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """(T, n) score-row products of the factor pairs, the approach-2 interaction scores."""
    return np.stack([scores[l1] * scores[l2] for l1, l2 in factor_pairs(spec.n_factors)])


def refresh_products(state: McmcState, spec: ModelSpec) -> None:
    """Recompute the interaction scores as exact score products (approach 2)."""
    state.inter_scores[...] = score_products(state.scores, spec)


def update_scores(state: McmcState, data: DataMatrix, spec: ModelSpec,
                  rng: np.random.Generator) -> None:
    for l in range(spec.n_factors):
        mean, var = score_conditional(state, data, spec, l)
        state.scores[l] = mean + np.sqrt(var) * rng.standard_normal(data.n_samples)
        if spec.family is Family.MULT_APPROACH2:
            refresh_products(state, spec)


def inter_score_conditional(state: McmcState, data: DataMatrix, spec: ModelSpec,
                            t: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of interaction-score row t (approach 1 only)."""
    l1, l2 = factor_pairs(spec.n_factors)[t]
    th = state.inter_loadings[:, t]
    w = 1.0 / state.noise_var
    R = residual_matrix(state, data, spec) + np.outer(th, state.inter_scores[t])
    prior_mean = state.scores[l1] * state.scores[l2]
    prec = 1.0 / spec.product_var + float(th * th @ w)
    num = prior_mean / spec.product_var + (th * w) @ R
    var = np.full(data.n_samples, 1.0 / prec)
    return num * var, var


def update_inter_scores(state: McmcState, data: DataMatrix, spec: ModelSpec,
                        rng: np.random.Generator) -> None:
    for t in range(spec.n_pairs):
        mean, var = inter_score_conditional(state, data, spec, t)
        state.inter_scores[t] = mean + np.sqrt(var) * rng.standard_normal(data.n_samples)


def noise_conditional(state: McmcState, data: DataMatrix,
                      spec: ModelSpec) -> tuple[float, np.ndarray]:
    """Inverse-gamma conditional (shape, per-row scale) for the noise variances."""
    a, b = spec.noise_prior
    R = residual_matrix(state, data, spec)
    rss = np.sum(R * R, axis=1)
    return a + data.n_samples / 2.0, b + 0.5 * rss


def update_noise(state: McmcState, data: DataMatrix, spec: ModelSpec,
                 rng: np.random.Generator) -> None:
    shape, scale = noise_conditional(state, data, spec)
    state.noise_var = scale / rng.gamma(shape, 1.0, size=scale.shape)


def update_probs(state: McmcState, layout: PriorLayout, rng: np.random.Generator) -> None:
    state.load_prob = sample_inclusion_probs(rng, layout.load, state.load_mask)
    state.inter_prob = sample_inclusion_probs(rng, layout.inter, state.inter_mask)


def initial_state(spec: ModelSpec, data: DataMatrix, layout: PriorLayout,
                  rng: np.random.Generator) -> McmcState:
    """Zero loadings, standard-normal scores, unit noise variances; the
    inclusion probabilities start at their prior means (fixed entries at their
    degenerate values) and the indicators are drawn from them."""
    shapes = state_shapes(spec, data.n_features, data.n_samples)
    state = McmcState(**{name: np.zeros(shape) for name, shape in shapes.items()})
    state.scores = rng.standard_normal(shapes["scores"])
    state.load_prob, state.load_mask = draw_prior_indicators(rng, layout.load)
    state.inter_prob, state.inter_mask = draw_prior_indicators(rng, layout.inter)
    state.noise_var[:] = 1.0
    if spec.is_mult:
        refresh_products(state, spec)
    return state


class Chain:
    """Set-up of either sampler: family check against the subclass's
    ``is_mult``, spec, prior layout, streams and the initial state, drawn
    from the ``init`` stream."""

    def __init__(self, spec: ModelSpec, data: DataMatrix,
                 settings: McmcSettings = McmcSettings(), chain: int = 0):
        if spec.is_mult is not self.is_mult:
            raise SpecConflict(f"{type(self).__name__} requires a "
                               f"{'multiplicative' if self.is_mult else 'gp'} family spec")
        self.spec = spec
        self.data = data
        self.settings = settings
        self.layout = build_layout(spec, data.n_features)
        self.streams = settings.streams(chain)
        self.state = initial_state(spec, data, self.layout, self.streams.get("init"))


class MultChain(Chain):
    """One multiplicative-family chain over immutable data."""

    is_mult = True
    # plain Gibbs: no proposal to adapt and no Metropolis acceptance ledger
    adapting = False
    accept_counts = None
    rw_step = None

    def sweep(self) -> None:
        update_loadings(self.state, self.data, self.spec, self.layout,
                        self.streams.get("loadings"))
        update_scores(self.state, self.data, self.spec, self.streams.get("scores"))
        if self.spec.family is Family.MULT_APPROACH1:
            update_inter_scores(self.state, self.data, self.spec,
                                self.streams.get("inter_scores"))
        update_inter_loadings(self.state, self.data, self.spec, self.layout,
                              self.streams.get("inter_loadings"))
        update_noise(self.state, self.data, self.spec, self.streams.get("noise"))
        update_probs(self.state, self.layout, self.streams.get("probs"))


def run_mult_chain(spec: ModelSpec, data: DataMatrix, chain: int = 0,
                   **settings) -> PosteriorDraws:
    """Run one chain under ``McmcSettings(**settings)`` and return the
    retained states; deterministic given the seed."""
    return run_chain(MultChain(spec, data, McmcSettings(**settings), chain))


def shared_log_joint(state: McmcState, data: DataMatrix, spec: ModelSpec,
                     inter: np.ndarray, layout: PriorLayout | None) -> float:
    """Unnormalized log-joint terms of both families at a state with (m, n)
    interaction term ``inter``: Gaussian likelihood, N(0, 1) scores, loading
    slab, inverse-gamma noise and the inclusion blocks of ``layout`` (or of
    the spec's layout when None)."""
    if layout is None:
        layout = build_layout(spec, data.n_features)
    R = data.values - state.loadings @ state.scores - inter
    w = 1.0 / state.noise_var
    total = -0.5 * float(np.sum(R * R * w[:, None]))
    total -= 0.5 * data.n_samples * float(np.sum(np.log(state.noise_var)))
    total -= 0.5 * float(np.sum(state.scores ** 2))
    total += slab_log_density(state.loadings, state.load_mask, spec.slab_var_loading)
    a, b = spec.noise_prior
    total += float(np.sum(-(a + 1.0) * np.log(state.noise_var) - b / state.noise_var))
    return total + inclusion_log_density(state, layout)


def log_joint(state: McmcState, data: DataMatrix, spec: ModelSpec,
              layout: PriorLayout | None = None) -> float:
    """Unnormalized log joint density of the multiplicative model at a state:
    the shared terms, the interaction-loading slab and, under approach 1, the
    Gaussian tie of the interaction scores to the score products.

    Used by conditional-correctness checks; under approach 2 the interaction
    scores are recomputed from the current scores so the product constraint is
    honored when a score coordinate is perturbed.
    """
    products = score_products(state.scores, spec)
    approach1 = spec.family is Family.MULT_APPROACH1
    inter_scores = state.inter_scores if approach1 else products
    total = shared_log_joint(state, data, spec, state.inter_loadings @ inter_scores, layout)
    total += slab_log_density(state.inter_loadings, state.inter_mask, spec.slab_var_inter)
    if approach1:
        dev = state.inter_scores - products
        total -= 0.5 * float(np.sum(dev * dev)) / spec.product_var
    return total
