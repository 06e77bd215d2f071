"""Metropolis-within-Gibbs sampler for the nonlinear-interaction factor model.

The observation model is X = loadings @ scores + effects + noise, where each
effect row is either zero or a draw from a Gaussian process over the score
columns (squared-exponential kernel). Its spike-and-slab prior and indicator
draw come from ``prior``; ``mult``'s ``Chain.sweep`` runs the scan, with the
loading, noise and probability blocks both families share. ``GpChain`` adds
three blocks: ``score_columns``, ``step`` (the burn-in step update) and
``effect_rows`` (the effect rows, or under variants 2 and 4 the shared
effect, with their indicators), and counts the kernels it builds, their
jitter escalations, the column moves proposed and accepted, and the active
rows, over every sweep. The chain keeps its own adaptation window: the step
adapts in its first ``burn_in`` sweeps and is fixed after them, and only
those later sweeps enter the acceptance ledger. Score columns move by
random-walk Metropolis because the kernel couples them to every active effect
row; a move of column j changes only row and column j of the kernel, so it is
scored by the change in the conditional GP density of entry j. A factor for
the visit order 0..n-1 (``kernels.SweepFactor``), copied at the start of each
sweep from the kernel's own Cholesky factor, runs the column loop in one
``sweep`` call: it brings each column to the end by rotating only the columns
already visited, so a proposal costs one triangular solve, and decides it
before the next; the kernel is rebuilt, and factored, once per sweep.
Indicator updates integrate the effect row out analytically, so the spike
never absorbs the chain; the row (or the shared effect) is redrawn afterwards.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .kernels import KernelMatrix, SweepFactor, marginal_ratio_rows, posterior_gain, se_kernel
from .model import DataMatrix, McmcSettings, McmcState, ModelSpec, PosteriorDraws, run_chain
from .mult import Chain, shared_log_joint
from .prior import PriorLayout, draw_indicators

# Burn-in step-size adaptation: Robbins-Monro decay with a gain floor, so the
# step keeps tracking the stiffening posterior (effect rows activating) until
# the freeze; only the frozen phase needs a fixed kernel.
_ADAPT_DECAY = 0.7
_ADAPT_GAIN_FLOOR = 0.1
_RW_STEP_BOUNDS = (1e-4, 10.0)
_MH_TARGET = 0.30  # acceptance rate the burn-in adaptation steers toward


def gp_rows(state: McmcState, spec: ModelSpec) -> np.ndarray:
    """The (k, n) rows under the GP prior: the shared row for the shared prior,
    the active rows (possibly none) for the per-row prior."""
    if spec.shared_effect:
        return state.shared_effect[None, :]
    return state.effects[state.inter_mask.astype(bool)]


def gp_prior_logdens(kernel: KernelMatrix, state: McmcState, spec: ModelSpec) -> float:
    """Log density of the latent effect structure under the kernel (0 when no
    row is under the prior)."""
    return kernel.logdens(gp_rows(state, spec))


def update_effect_rows(state: McmcState, data: DataMatrix, spec: ModelSpec,
                       layout: PriorLayout, kernel: KernelMatrix,
                       rng: np.random.Generator) -> None:
    """Marginalized indicator update followed by a conditional redraw of every
    active effect row (per-row effect prior): the stream gives one uniform
    per row, then one (k, n) block of normals for the k active rows; every
    other row is 0."""
    R = data.values - state.loadings @ state.scores
    d, U = kernel.eigensystem()
    proj = R @ U
    llr = marginal_ratio_rows(R, kernel, state.noise_var, proj=proj)
    mask = draw_indicators(rng, state.inter_prob, llr, layout.inter.fixed)
    s2 = state.noise_var[mask, None]
    gain = posterior_gain(d, s2)
    z = rng.standard_normal((s2.shape[0], proj.shape[1]))
    state.inter_mask[...] = mask
    state.effects = np.zeros_like(proj)
    state.effects[mask] = (gain * proj[mask] + np.sqrt(gain * s2) * z) @ U.T


def shared_effect_posterior(state: McmcState, R: np.ndarray,
                            kernel: KernelMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian conditional of the shared effect given the active rows of
    the (m, n) residual ``R`` = X - LS.

    Returns (mean, per-eigendirection variances, eigenvector basis); with no
    active rows this is the prior.
    """
    active = state.inter_mask.astype(bool)
    d, U = kernel.eigensystem()
    w = 1.0 / state.noise_var[active]
    total_w = float(w.sum())
    var_diag = d / (1.0 + total_w * d)
    if active.any():
        b = (R[active] * w[:, None]).sum(axis=0)
        mean = U @ (var_diag * (U.T @ b))
    else:
        mean = np.zeros(kernel.n)
    return mean, var_diag, U


def update_shared_effect(state: McmcState, data: DataMatrix, spec: ModelSpec,
                         layout: PriorLayout, kernel: KernelMatrix,
                         rng: np.random.Generator) -> None:
    """Draw the shared effect given the active rows, then flip each indicator
    by comparing the row likelihood under the shared effect versus zero."""
    R = data.values - state.loadings @ state.scores
    mean, var_diag, U = shared_effect_posterior(state, R, kernel)
    fstar = mean + U @ (np.sqrt(var_diag) * rng.standard_normal(kernel.n))
    state.shared_effect = fstar

    quad = R @ fstar
    ss = float(fstar @ fstar)
    mask = draw_indicators(rng, state.inter_prob, (quad - 0.5 * ss) / state.noise_var,
                           layout.inter.fixed)
    state.inter_mask[...] = mask
    state.effects = np.where(mask[:, None], fstar[None, :], 0.0)


def column_data_deltas(state: McmcState, data: DataMatrix,
                       proposals: np.ndarray) -> np.ndarray:
    """Change in the data likelihood at column j plus the standard-normal score
    prior for replacing score column j alone with ``proposals[:, j]``, for
    every column j at once (n,).

    Column j's term reads only its own current and proposed values, so the
    whole sweep's terms come from one (m, n) pass as long as the loadings,
    effects and noise stay fixed.
    """
    x = data.values - state.effects
    w = 1.0 / state.noise_var
    res_cur = x - state.loadings @ state.scores
    res_prop = x - state.loadings @ proposals
    delta = -0.5 * (w @ (res_prop * res_prop - res_cur * res_cur))
    prior = np.sum(proposals * proposals, axis=0) - np.sum(state.scores * state.scores, axis=0)
    return delta - 0.5 * prior


def column_delta_log_joint(state: McmcState, data: DataMatrix, spec: ModelSpec,
                           kernel: KernelMatrix, j: int, proposal: np.ndarray,
                           gp_logdens_current: float) -> tuple[float, KernelMatrix, float]:
    """Log-joint change for replacing score column j with ``proposal``.

    Covers the data likelihood at column j, the standard-normal score prior,
    and the GP density of the latent effect structure under the rebuilt
    kernel. Returns (delta, proposed kernel, proposed GP density). This full
    O(n^3) rebuild is the reference the sampler's factor updates are checked
    against.
    """
    scores_prop = state.scores.copy()
    scores_prop[:, j] = proposal
    delta = float(column_data_deltas(state, data, scores_prop)[j])
    kernel_prop = se_kernel(scores_prop, spec.length_scale)
    gp_prop = gp_prior_logdens(kernel_prop, state, spec)
    delta += gp_prop - gp_logdens_current
    return delta, kernel_prop, gp_prop


class GpChain(Chain):
    """One nonlinear-family chain; owns the kernel tied to the current scores.

    ``counts`` tallies, over every sweep, burn-in included: the kernels built
    (the initial one too) and those whose factor needed a jitter above the
    ladder's first, the score-column moves proposed and accepted, and the
    active effect rows after each sweep's effect block. While ``iteration``
    is below the chain's ``burn_in`` the ``step`` block adapts ``rw_step``;
    from then on the step is fixed and ``accept_counts`` tallies every
    column's proposals and acceptances, however the chain is swept."""

    is_mult = False

    def __init__(self, spec: ModelSpec, data: DataMatrix,
                 settings: McmcSettings = McmcSettings(), chain: int = 0):
        super().__init__(spec, data, settings, chain)
        self.counts = dict.fromkeys(("kernel_builds", "jitter_escalations", "proposed_moves",
                                     "accepted_moves", "active_rows"), 0)
        self.build_kernel()
        self.rw_step = float(settings.rw_step)
        self.accepted = 0  # score columns the sweep's score-column block moved
        # accepted / proposed per column, tallied only after burn-in
        self.accept_counts = np.zeros((data.n_samples, 2), dtype=np.int64)

    def family_blocks(self) -> dict[str, Callable[[], object]]:
        """Score columns, the step's burn-in update, then the effect rows (or
        the shared effect) and their indicators."""
        return {"score_columns": self.update_score_columns, "step": self.update_step,
                "effect_rows": self.update_effects}

    def build_kernel(self) -> None:
        """Rebuild the kernel from the current scores, and count it."""
        self.kernel = se_kernel(self.state.scores, self.spec.length_scale)
        self.counts["kernel_builds"] += 1
        self.counts["jitter_escalations"] += self.kernel.jitter_escalated

    def update_score_columns(self) -> int:
        """Random-walk Metropolis over every score column; returns the number
        of accepted proposals in this sweep, which it also keeps as
        ``accepted``.

        The sweep's steps are drawn first, as one (L, n) block of normals,
        then its n uniforms, and the data and score-prior terms of every
        column come from one vectorised pass: no earlier move in the sweep
        changes column j's term.
        The GP term is scored at the sweep's starting jitter, and every
        column decided, by one ``sweep`` of a ``SweepFactor`` of the current
        kernel built for this visit order; a proposal whose conditional
        variance is not positive there is rejected. With no row under the
        GP prior the term is 0, every column is decided at once and no
        kernel work is done. The kernel is rebuilt once, after the sweep, if
        any column moved.
        """
        rng = self.streams.get("scores_mh")
        state, spec = self.state, self.spec
        n = self.data.n_samples
        proposals = state.scores + self.rw_step * rng.standard_normal((spec.n_factors, n))
        log_u = np.log(rng.random(n))
        delta = column_data_deltas(state, self.data, proposals)
        rows = gp_rows(state, spec)
        if rows.shape[0]:
            accept, _ = SweepFactor(self.kernel, state.scores, proposals, rows).sweep(log_u, delta)
        else:
            accept = log_u < delta
        state.scores[:, accept] = proposals[:, accept]
        if self.iteration >= self.burn_in:
            self.accept_counts[:, 0] += accept
            self.accept_counts[:, 1] += 1
        self.accepted = int(np.count_nonzero(accept))
        self.counts["proposed_moves"] += n
        self.counts["accepted_moves"] += self.accepted
        if self.accepted:
            self.build_kernel()
        return self.accepted

    def update_step(self) -> None:
        """During the chain's first ``burn_in`` sweeps, move the log step
        toward the target acceptance by this sweep's rate (Robbins-Monro);
        afterwards the step stays fixed."""
        if self.iteration < self.burn_in:
            rate = self.accepted / self.data.n_samples
            gain = max((self.iteration + 1) ** -_ADAPT_DECAY, _ADAPT_GAIN_FLOOR)
            step = np.log(self.rw_step) + gain * (rate - _MH_TARGET)
            self.rw_step = float(np.clip(np.exp(step), *_RW_STEP_BOUNDS))

    def update_effects(self) -> None:
        """The effect rows (or the shared effect) and their indicators."""
        update = update_shared_effect if self.spec.shared_effect else update_effect_rows
        update(self.state, self.data, self.spec, self.layout, self.kernel,
               self.streams.get("effects"))
        self.counts["active_rows"] += int(np.count_nonzero(self.state.inter_mask))


def run_gp_chain(spec: ModelSpec, data: DataMatrix, chain: int = 0,
                 **settings) -> PosteriorDraws:
    """Run one chain under ``McmcSettings(**settings)``; the proposal scale
    adapts during burn-in (Robbins-Monro toward the target acceptance rate)
    and is frozen afterwards."""
    return run_chain(GpChain(spec, data, McmcSettings(**settings), chain))


def log_joint(state: McmcState, data: DataMatrix, spec: ModelSpec,
              kernel: KernelMatrix | None = None,
              layout: PriorLayout | None = None) -> float:
    """Unnormalized log joint of the nonlinear model at a state: the shared
    terms and the GP density of the effect structure (diagnostics and
    conditional-correctness checks)."""
    if kernel is None:
        kernel = se_kernel(state.scores, spec.length_scale)
    return (shared_log_joint(state, data, spec, state.effects, layout)
            + gp_prior_logdens(kernel, state, spec))
