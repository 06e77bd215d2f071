"""Gibbs sampler for the multiplicative-interaction factor model.

The observation model is X = loadings @ scores + inter_loadings @ inter_scores
+ noise, with spike-and-slab priors on both loading matrices, standard-normal
priors on the scores, and inverse-gamma noise variances. Each interaction
score row follows the product of its two factor-score rows, either through a
tight Gaussian tie (approach 1) or exactly (approach 2).

Update scheme per sweep, one named block each (``MultChain.blocks``):
``loadings``, the loading rows (indicator integrated over the coefficient,
then the coefficient given the indicator); ``scores``, the score columns by
single-coordinate Gibbs (the conditional stays Gaussian despite the score
product); ``inter_scores``, the interaction-score columns (approach 1 only);
``inter_loadings``, the interaction-loading rows; ``noise``, the noise
variances; ``probs``, the inclusion probabilities. Every spike-and-slab draw
(its Bayes factor formed in log space) is made by ``prior``; this module owns
the residual each slab column is drawn from, and ``Chain``, whose ``sweep``
is the one scan both families run: it runs the table ``Chain.blocks``
returns (the loadings, the family's own blocks, then the noise and the
inclusion probabilities) and adds each block's time to the chain's tally.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .errors import SpecConflict
from .model import (
    DataMatrix,
    Family,
    McmcSettings,
    McmcState,
    ModelSpec,
    PosteriorDraws,
    STATE_DTYPES,
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
    # (pair index, the other factor) of every pair that holds factor l
    partners = [(t, l1 + l2 - l) for t, (l1, l2) in enumerate(factor_pairs(spec.n_factors))
                if l in (l1, l2)]
    w = 1.0 / state.noise_var
    if spec.family is Family.MULT_APPROACH2:
        c = np.repeat(state.loadings[:, l][:, None], data.n_samples, axis=1)
        for t, partner in partners:
            c += np.outer(state.inter_loadings[:, t], state.scores[partner])
        R = residual_matrix(state, data, spec) + c * state.scores[l][None, :]
        prec = 1.0 + (c * c * w[:, None]).sum(axis=0)
        num = (c * R * w[:, None]).sum(axis=0)
    else:
        a = state.loadings[:, l]
        R = residual_matrix(state, data, spec) + np.outer(a, state.scores[l])
        prec = np.full(data.n_samples, 1.0 + float(a * a @ w))
        num = (a * w) @ R
        for t, partner in partners:
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
    degenerate values) and the indicators are drawn from them. Every field is
    allocated with its ``STATE_DTYPES`` dtype, and the samplers write into it."""
    shapes = state_shapes(spec, data.n_features, data.n_samples)
    state = McmcState(**{k: np.zeros(shape, STATE_DTYPES[k]) for k, shape in shapes.items()})
    state.scores = rng.standard_normal(shapes["scores"])
    state.load_prob, state.load_mask[...] = draw_prior_indicators(rng, layout.load)
    state.inter_prob, state.inter_mask[...] = draw_prior_indicators(rng, layout.inter)
    state.noise_var[:] = 1.0
    if spec.is_mult:
        refresh_products(state, spec)
    return state


class Chain:
    """Set-up and Gibbs scan of either sampler: family check against the
    subclass's ``is_mult``, spec, prior layout, streams, the run's schedule
    and the initial state, drawn from the ``init`` stream.

    ``burn_in`` and ``n_retained`` are the settings' burn-in for the family
    and the number of states kept after it, resolved once here, so settings
    that no run of the family accepts raise ``ConfigError`` when the chain is
    built. ``iteration`` counts the sweeps run, and ``block_seconds`` holds the
    ``time.perf_counter`` time each block of ``blocks`` has taken over them,
    burn-in included; ``counts`` holds the family's own tallies."""

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
        self.burn_in = settings.resolve_burn_in(spec.family)
        self.n_retained = settings.retained(spec.family)
        self.state = initial_state(spec, data, self.layout, self.streams.get("init"))
        self.iteration = 0
        self.block_seconds = dict.fromkeys(self.blocks(), 0.0)

    def blocks(self) -> dict[str, Callable[[], object]]:
        """The sweep as an ordered table of named blocks: the loadings, the
        family's own blocks, the noise variances, the inclusion
        probabilities. Each block calls its update by name when it runs."""
        return {"loadings": lambda: update_loadings(self.state, self.data, self.spec, self.layout,
                                                    self.streams.get("loadings")),
                **self.family_blocks(),
                "noise": lambda: update_noise(self.state, self.data, self.spec,
                                              self.streams.get("noise")),
                "probs": lambda: update_probs(self.state, self.layout, self.streams.get("probs"))}

    def sweep(self) -> None:
        """One Gibbs scan of either family: every block of ``blocks`` in
        order, each one's time added to ``block_seconds``."""
        seconds = self.block_seconds
        for name, block in self.blocks().items():
            started = time.perf_counter()
            block()
            seconds[name] += time.perf_counter() - started
        self.iteration += 1

    def profile(self) -> dict:
        """The chain's sweeps, its time per block in sweep order and its
        counts, as ``fit`` writes them into the manifest."""
        return {"chain": self.streams.chain, "sweeps": self.iteration,
                "block_s": list(self.block_seconds.items()), "counts": dict(self.counts)}


class MultChain(Chain):
    """One multiplicative-family chain over immutable data."""

    is_mult = True
    # plain Gibbs: no Metropolis step or acceptance ledger, and no kernel or
    # moves to count
    accept_counts = None
    rw_step = None
    counts: dict[str, int] = {}

    def family_blocks(self) -> dict[str, Callable[[], object]]:
        """Scores, interaction scores (approach 1), interaction loadings."""
        blocks = {"scores": lambda: update_scores(self.state, self.data, self.spec,
                                                  self.streams.get("scores"))}
        if self.spec.family is Family.MULT_APPROACH1:
            blocks["inter_scores"] = lambda: update_inter_scores(
                self.state, self.data, self.spec, self.streams.get("inter_scores"))
        blocks["inter_loadings"] = lambda: update_inter_loadings(
            self.state, self.data, self.spec, self.layout, self.streams.get("inter_loadings"))
        return blocks


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
