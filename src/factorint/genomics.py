"""Applied pipeline: seed-gene windows, cleaning, candidate selection,
interaction detection, the cross-dataset overlap permutation test, and every
reduction of retained draws (posterior summaries, interaction probabilities,
posterior mean scores and effects).

Seed genes anchor the factor interpretation: each group is assumed to load on
exactly one factor with a common sign and to carry no interaction. Cleaning
removes group members whose fitted pattern violates that assumption;
candidate selection then keeps the remaining genes loading on both factors,
since those are the plausible carriers of interaction effects. Both decide
on each loading's estimate and inclusion probability as the ``loading`` rows
of ``posterior_summary`` (and so ``summary.csv``) report them: one
reduction, ``_field_summary``, serves the summary, cleaning and selection.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import product, repeat

import numpy as np

from .errors import AllRemoved, ConfigError, EmptyWindowWarning, InsufficientDraws
from .io import write_table
from .model import (Annotation, DataMatrix, McmcSettings, ModelSpec, PosteriorDraws, join_draws,
                    mult_spec, run_chain, slice_bounds)
from .mult import MultChain
from .prior import build_layout
from .rng import stream


def seed_gene_window(annotation: Annotation, chromosome: str, center: int,
                     half_width: int) -> np.ndarray:
    """Indices of probes on the chromosome within ``half_width`` of ``center``."""
    if half_width < 0:
        raise ConfigError(f"half_width must be nonnegative, got {half_width}")
    chrom = np.asarray(annotation.chromosomes) == str(chromosome)
    near = np.abs(annotation.positions - int(center)) <= int(half_width)
    idx = np.flatnonzero(chrom & near)
    if idx.size == 0:
        warnings.warn(
            f"window chr{chromosome}:{center}±{half_width} matched no probes",
            EmptyWindowWarning, stacklevel=2)
    return idx


def two_factor_null_spec(seed_groups: dict[int, frozenset[int]] | None = None,
                         **kwargs) -> ModelSpec:
    """Two-factor model with the interaction block disabled."""
    return mult_spec(2, n_factors=2, seed_groups=seed_groups,
                     include_interactions=False, **kwargs)


@dataclass(frozen=True)
class RemovalRecord:
    feature: int
    group: str
    reason: str  # low_own_inclusion | sign_mismatch | cross_loading


def _submatrix(data: DataMatrix, rows: np.ndarray) -> DataMatrix:
    return DataMatrix(data.values[rows], tuple(data.feature_ids[i] for i in rows),
                      data.sample_ids)


def _anchored_spec(group1, group2) -> ModelSpec:
    """The two-factor null spec anchored at the seed groups: ``group1`` on
    factor 0 and ``group2`` on factor 1; its rules judge the groups."""
    return two_factor_null_spec({0: frozenset(group1), 1: frozenset(group2)})


def clean_seed_genes(data: DataMatrix, group1, group2, settings: McmcSettings,
                     ) -> tuple[np.ndarray, np.ndarray, list[RemovalRecord]]:
    """Drop seed genes whose fitted pattern contradicts the group assumption.

    Fits an unconstrained two-factor no-interaction model to the stacked seed
    submatrix and matches factors to groups by mean inclusion. Each loading's
    estimate and inclusion probability are those of the ``loading`` rows of
    ``posterior_summary``. A gene is removed for the first rule it breaks, in
    this order: its own-factor inclusion probability is at most 0.5, its
    loading sign disagrees with the majority of its group's loaded members,
    or it loads on the other group's factor. An empty or overlapping group,
    or an index that is negative or outside the data, raises the
    SpecConflict that ``select_candidate_genes`` raises for it.
    """
    spec = _anchored_spec(group1, group2)
    # the fit below is unanchored, so the anchored spec's layout checks the indices
    build_layout(spec, data.n_features)
    g1, g2 = (np.asarray(sorted(spec.seed_groups[k]), dtype=int) for k in (0, 1))
    rows = np.concatenate([g1, g2])
    est, incl = _loading_estimates(
        run_chain(MultChain(two_factor_null_spec(), _submatrix(data, rows), settings)))

    in1 = np.arange(g1.size)
    in2 = np.arange(g1.size, rows.size)
    # assign each group its factor by the larger mean inclusion
    direct = incl[in1, 0].mean() + incl[in2, 1].mean()
    swapped = incl[in1, 1].mean() + incl[in2, 0].mean()
    f1, f2 = (0, 1) if direct >= swapped else (1, 0)

    report: list[RemovalRecord] = []
    kept = []
    for name, members, local, own, other in (("G1", g1, in1, f1, f2), ("G2", g2, in2, f2, f1)):
        loaded = incl[local, own] > 0.5
        signs = np.sign(est[local, own])
        majority = 1.0 if signs[loaded].sum() >= 0 else -1.0
        reasons = np.select([~loaded, signs != majority, incl[local, other] > 0.5],
                            ["low_own_inclusion", "sign_mismatch", "cross_loading"], "")
        report += [RemovalRecord(int(f), name, str(r)) for f, r in zip(members, reasons) if r]
        kept.append(members[reasons == ""])
        if not kept[-1].size:
            raise AllRemoved(name)
    return kept[0], kept[1], report


def select_candidate_genes(data: DataMatrix, group1, group2,
                           settings: McmcSettings) -> np.ndarray:
    """Candidate features for interaction effects: everything outside the seed
    groups whose loading inclusion probability, as ``posterior_summary``
    reports it, exceeds 0.5 on both factors.

    The underlying fit is the two-factor no-interaction model with degenerate
    seed priors keeping the factor interpretation anchored. An empty or
    overlapping group, or an index that is negative or outside the data,
    raises SpecConflict.
    """
    spec = _anchored_spec(group1, group2)
    _, incl = _loading_estimates(run_chain(MultChain(spec, data, settings)))
    mask = (incl > 0.5).all(axis=1)
    mask[list(spec.seed_union())] = False
    return np.flatnonzero(mask)


def interaction_probabilities(draws: PosteriorDraws) -> np.ndarray:
    """Per-feature posterior probability of carrying an interaction effect:
    the retained-state mean of the feature's indicator (any pair indicator for
    the multiplicative families)."""
    z = draws.stack("inter_mask")
    if z.ndim == 3:
        z = z.any(axis=2)
    return z.astype(float).mean(axis=0)


def detect_interactions(draws: PosteriorDraws, threshold: float = 0.5) -> dict[int, float]:
    """Features whose interaction probability exceeds the threshold."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    probs = interaction_probabilities(draws)
    return {i: float(probs[i]) for i in np.flatnonzero(probs > threshold).tolist()}


# numpy's hypergeometric sampler takes group sizes below 10**9 only.
MAX_POPULATION = 10**9

# Null replicates drawn together: working memory is O(block x n_sets), plus the
# histogram of overlaps, which spans their range whatever the replicate count.
_OVERLAP_BLOCK = 8192


@dataclass(frozen=True)
class OverlapTestInput:
    """Configuration of the cross-dataset overlap test."""

    population_size: int
    per_dataset_counts: tuple[int, ...]
    observed_overlap: int
    n_replicates: int = 100_000

    def __post_init__(self):
        if not 1 <= self.population_size < MAX_POPULATION:
            raise ConfigError(f"population_size must lie in [1, {MAX_POPULATION}), "
                              f"got {self.population_size}")
        if len(self.per_dataset_counts) < 2:
            raise ConfigError("need at least two datasets")
        if any(not 0 <= c <= self.population_size for c in self.per_dataset_counts):
            raise ConfigError("every dataset count must lie in [0, population_size]")
        if self.n_replicates < 1:
            raise ConfigError("n_replicates must be positive")
        if self.observed_overlap < 0:
            raise ConfigError("observed_overlap must be nonnegative")


@dataclass(frozen=True)
class OverlapReplicates:
    """The null as a histogram: ``counts[i]`` replicates drew the overlap
    ``values[i]``; ``values`` runs from the smallest overlap drawn to the
    largest, one apart. ``np.repeat(values, counts)`` lists the replicates
    in sorted order."""

    values: np.ndarray
    counts: np.ndarray
    mean: float
    sd: float
    n_at_least_observed: int


def overlap_permutation_test(inp: OverlapTestInput, seed: int = 0,
                             ) -> tuple[float, OverlapReplicates]:
    """Null distribution of the summed pairwise overlap between gene sets drawn
    uniformly at random without replacement, one set per dataset.

    The p-value is the fraction of replicates whose overlap reaches the
    observed value.

    The draw is exact without materialising any set. The summed pairwise
    overlap is the sum over elements of C(k, 2), where k counts the sets that
    contain the element, so only the number of elements in each group of
    equal k matters. The first set leaves N - c1 elements at k = 0 and c1 at
    k = 1. A further set of size s takes x ~ multivariate-hypergeometric(group
    sizes, s) from the groups, adds sum_k k * x_k to the overlap and moves the
    x_k elements up one group; x is drawn as a chain of conditional
    hypergeometric draws, each broadcast over a block of replicates. Each
    block's overlaps are tallied into one histogram and dropped, so memory is
    O(block x n_sets + range of overlaps), whatever the population size
    (which numpy's sampler bounds below ``MAX_POPULATION``) and the replicate
    count. The replicates depend on the block size.
    """
    rng = stream(seed, 0, "overlap")
    first, *later = inp.per_dataset_counts
    weights = np.arange(len(later) + 2)
    lowest, counts = None, np.zeros(0, dtype=np.int64)
    for start in range(0, inp.n_replicates, _OVERLAP_BLOCK):
        size = min(_OVERLAP_BLOCK, inp.n_replicates - start)
        block = np.zeros(size, dtype=np.int64)
        # groups[:, k]: elements that k of the sets placed so far contain
        groups = np.zeros((size, weights.size), dtype=np.int64)
        groups[:, 0] = inp.population_size - first
        groups[:, 1] = first
        for d, count in enumerate(later, start=1):
            taken = np.zeros_like(groups)
            left = np.full(size, count, dtype=np.int64)
            above = groups[:, 1:d + 1].sum(axis=1)
            for k in range(d):
                taken[:, k] = rng.hypergeometric(groups[:, k], above, left)
                left -= taken[:, k]
                above -= groups[:, k + 1]
            taken[:, d] = left
            block += taken @ weights
            groups -= taken
            groups[:, 1:] += taken[:, :-1]
        lowest, counts = _tally(block, lowest, counts)
    offsets = np.arange(counts.size, dtype=np.int64)
    values = lowest + offsets
    n = inp.n_replicates
    # the exact integer sum over n, so np.repeat(values, counts).mean() bit for
    # bit; summed from ``lowest`` so that no int64 sum can overflow
    mean = (lowest * n + int(counts @ offsets)) / n
    sd = math.sqrt(float(counts @ (values - mean) ** 2) / (n - 1)) if n > 1 else 0.0
    at_least = int(counts[max(inp.observed_overlap - lowest, 0):].sum())
    return at_least / n, OverlapReplicates(values=values, counts=counts, mean=mean, sd=sd,
                                           n_at_least_observed=at_least)


def _tally(block: np.ndarray, lowest: int | None,
           counts: np.ndarray) -> tuple[int, np.ndarray]:
    """The histogram ``counts`` of values from ``lowest`` on, with ``block``
    added; it widens only as far as the block reaches past it."""
    lo, hi = int(block.min()), int(block.max())
    if lowest is None:
        lowest = lo
    before, after = max(lowest - lo, 0), max(hi + 1 - lowest - counts.size, 0)
    if before or after:
        counts, lowest = np.pad(counts, (before, after)), lowest - before
    counts[lo - lowest:hi + 1 - lowest] += np.bincount(block - lo)
    return lowest, counts


def two_window_converged(trace: np.ndarray) -> bool | np.ndarray:
    """Mean-comparison diagnostic between the first 10% and last 50% of the
    retained trace; a standardized difference below 3 passes. Traces run
    along the last axis: one flag for a 1-D trace, one per row of a block."""
    trace = np.asarray(trace, dtype=float)
    s = trace.shape[-1]
    first = trace[..., :max(1, s // 10)]
    last = trace[..., s - max(1, s // 2):]
    v1 = first.var(axis=-1, ddof=1) / first.shape[-1] if first.shape[-1] > 1 else 0.0
    v2 = last.var(axis=-1, ddof=1) / last.shape[-1] if last.shape[-1] > 1 else 0.0
    diff = abs(first.mean(axis=-1) - last.mean(axis=-1))
    denom = np.sqrt(v1 + v2)
    scale = 1e-12 * (1.0 + abs(first.mean(axis=-1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        # a numerically constant trace passes when its windows agree
        flags = np.where(denom <= scale, diff <= scale, diff / denom < 3.0)
    return flags if flags.ndim else bool(flags)


@dataclass(frozen=True)
class ParameterSummary:
    name: str
    role: str
    estimate: float
    ci_low: float
    ci_high: float
    inclusion_prob: float | None
    converged: bool


@dataclass(frozen=True)
class FieldSummary:
    """The summary of every parameter of one state field: one array per
    column, in C order of the field's trailing axes, and ``labels``, one
    tuple of label strings per trailing axis."""

    name: str
    role: str
    labels: tuple[tuple[str, ...], ...]
    estimate: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    inclusion_prob: np.ndarray | None
    converged: np.ndarray

    def __len__(self) -> int:
        return self.estimate.size

    def names(self) -> Iterator[str]:
        return (f"{self.name}[{key}]" for key in map(",".join, product(*self.labels)))

    def rows(self) -> Iterator[ParameterSummary]:
        incl = repeat(None) if self.inclusion_prob is None else self.inclusion_prob.tolist()
        return map(ParameterSummary, self.names(), repeat(self.role), self.estimate.tolist(),
                   self.ci_low.tolist(), self.ci_high.tolist(), incl, self.converged.tolist())


# Rows that ``PosteriorSummary.write_csv`` formats at a time.
_CSV_ROWS = 4096


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-parameter summary of a fit, held as one ``FieldSummary`` per
    state field; ``rows`` and ``by_name`` build the parameter rows on demand."""

    fields: tuple[FieldSummary, ...] = ()

    @property
    def rows(self) -> tuple[ParameterSummary, ...]:
        return tuple(row for f in self.fields for row in f.rows())

    def write_csv(self, path) -> None:
        write_table(path, ["parameter", "role", "estimate", "ci_low", "ci_high",
                           "inclusion_prob", "converged"], self._csv_rows())

    def _csv_rows(self) -> Iterator[list[str]]:
        for f in self.fields:
            names = f.names()
            for start in range(0, len(f), _CSV_ROWS):
                part = slice(start, start + _CSV_ROWS)
                est, lo, hi, conv = (column[part].tolist() for column in
                                     (f.estimate, f.ci_low, f.ci_high, f.converged))
                incl = repeat(None) if f.inclusion_prob is None else \
                    f.inclusion_prob[part].tolist()
                # ``names`` last, so that zip stops before taking the next chunk's name
                for e, l, h, p, c, name in zip(est, lo, hi, incl, conv, names):
                    yield [name, f.role, f"{e:.10g}", f"{l:.10g}", f"{h:.10g}",
                           "" if p is None else f"{p:.10g}", "1" if c else "0"]

    def by_name(self) -> dict[str, ParameterSummary]:
        return {r.name: r for r in self.rows}


# Fewest retained states, pooled over the chains, that ``posterior_summary``
# summarises.
MIN_STATES = 20

# Bytes of traces that ``posterior_summary`` gathers into one block of
# parameters. Its working memory is a few such blocks, whatever the size of
# a field or the number of chains.
_SUMMARY_BLOCK = 1 << 19


def _gather(traces: np.ndarray, dtype=None) -> np.ndarray:
    """The (S, rows) ``traces`` as one C-contiguous (rows, S) block. Reducing
    a row along it sums in the same order as on that parameter's 1-D trace,
    so the results match a per-parameter computation bit for bit."""
    return np.ascontiguousarray(traces.T, dtype)


_TAILS = np.array([0.025, 0.975])    # the percentiles 2.5 and 97.5, over 100


def _interval(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and central 95% percentile interval of every row, as
    ``np.percentile(block, [2.5, 97.5], axis=1)`` gives them bit for bit
    (its default, linear interpolation between order statistics, and NaN
    for a row holding one). Written out because np.percentile calls
    np.unique, whose first call imports numpy.ma."""
    last = block.shape[1] - 1
    at = last * _TAILS
    below = np.floor(at)
    gamma = at - below
    below = below.astype(np.intp)
    above = np.minimum(below + 1, last)
    part = np.partition(block, np.concatenate(([0], below, above, [last])), axis=1)
    a, b = part[:, below], part[:, above]
    diff = b - a
    bounds = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    bounds[np.isnan(part[:, last])] = np.nan
    return block.mean(axis=1), bounds[:, 0], bounds[:, 1]


def _field_summary(draws: PosteriorDraws, name: str, mask: np.ndarray | None) -> tuple:
    """Estimate, interval, inclusion probability (None without ``mask``)
    and convergence flag of every parameter of state field ``name`` of
    ``draws``. The field is reduced in blocks of parameters of about
    ``_SUMMARY_BLOCK`` bytes of traces. With spike-and-slab indicators
    ``mask`` (an (S, k) array: one indicator per parameter, or one per run
    of parameters in C order, as the (S, m) indicators of an (S, m, n)
    field) the estimate and interval come from the dominant mixture
    component: the slab states when the inclusion probability exceeds 0.5,
    zero otherwise. A block's dominant rows with the same count k of slab
    states are reduced together as one (rows, k) block, in state order."""
    field = draws.values[name]
    states = len(draws)
    size = math.prod(field.shape[1:])
    step = max(1, _SUMMARY_BLOCK // (states * field.dtype.itemsize))
    est, lo, hi = np.zeros((3, size))
    converged = np.zeros(size, dtype=bool)
    incl = None
    if mask is not None:
        share = size // mask.shape[1]  # parameters per indicator
        counts = np.repeat(mask.sum(axis=0), share)
        incl = counts / states
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        block = _gather(draws.traces(name, rows))
        converged[rows] = two_window_converged(block)
        if mask is None:
            est[rows], lo[rows], hi[rows] = _interval(block)
            continue
        dominant = np.flatnonzero(incl[rows] > 0.5)
        on = _gather(mask[:, (start + dominant) // share], bool)
        slabs = counts[start + dominant]
        # the slab counts present, ascending (np.unique would load numpy.ma)
        for k in np.flatnonzero(np.bincount(slabs)):
            same = slabs == k
            at = start + dominant[same]
            est[at], lo[at], hi[at] = _interval(block[dominant[same]][on[same]].reshape(-1, k))
    return est, lo, hi, incl, converged


def _loading_estimates(draws: PosteriorDraws) -> tuple[np.ndarray, np.ndarray]:
    """The estimate and inclusion probability of every loading of one chain,
    each (m, L): the reduction the ``loading`` rows of ``posterior_summary``
    come from, refused on as few states as the summary refuses."""
    require_states(len(draws))
    est, _, _, incl, _ = _field_summary(
        draws, "loadings", draws.stack("load_mask").reshape(len(draws), -1))
    shape = draws.values["loadings"].shape[1:]
    return est.reshape(shape), incl.reshape(shape)


def require_states(states: int) -> None:
    """InsufficientDraws when fewer than ``MIN_STATES`` retained states would
    be summarised."""
    if states < MIN_STATES:
        raise InsufficientDraws(f"need at least {MIN_STATES} retained states, have {states}")


def posterior_summary(draws: PosteriorDraws, *more: PosteriorDraws) -> PosteriorSummary:
    """Mixture-aware per-parameter summary of the retained states of one or
    more chains of one fit, pooled in the order given by ``join_draws``,
    which holds no pooled copy and refuses chains of another fit. Each field
    is read a block of parameters at a time through
    ``PosteriorDraws.traces``, so only the indicator fields of draws left in
    their files are read whole. ``MIN_STATES`` counts the pooled states."""
    draws = join_draws(draws, *more)
    require_states(len(draws))

    def indicators(name: str) -> np.ndarray:
        return draws.stack(name).reshape(len(draws), -1)

    L, n = draws.values["scores"].shape[1:]
    fids = feature_labels(draws)
    sids = draws.sample_ids or tuple(str(j) for j in range(n))
    factors = tuple(str(l) for l in range(1, L + 1))
    # (name, role, labels of the trailing axes, state field, indicators or None)
    fields = [("loading", "loading", (fids, factors), "loadings", indicators("load_mask")),
              ("score", "factor_score", (factors, sids), "scores", None)]
    if draws.spec.is_mult:
        pairs = tuple(str(t) for t in range(1, draws.values["inter_scores"].shape[1] + 1))
        fields += [("inter_loading", "interaction_loading", (fids, pairs), "inter_loadings",
                    indicators("inter_mask")),
                   ("inter_score", "interaction_score", (pairs, sids), "inter_scores", None)]
    else:
        fields.append(("effect", "interaction_effect", (fids, sids), "effects",
                       indicators("inter_mask")))
    fields.append(("noise_var", "noise_variance", (fids,), "noise_var", None))
    return PosteriorSummary(fields=tuple(
        FieldSummary(name, role, labels, *_field_summary(draws, field, mask))
        for name, role, labels, field, mask in fields))


def feature_labels(draws: PosteriorDraws) -> tuple[str, ...]:
    """The feature ids of ``draws``, or the feature indices as strings when
    the draws carry no ids."""
    return draws.feature_ids or tuple(map(str, range(draws.values["noise_var"].shape[1])))


def posterior_mean_scores(draws: PosteriorDraws) -> np.ndarray:
    """Posterior mean of the (L, n) factor scores."""
    return draws.stack("scores").mean(axis=0)


def posterior_mean_effects(draws: PosteriorDraws, features: slice = slice(None)) -> np.ndarray:
    """Posterior mean of rows ``features`` (a slice under the rule of
    ``model.slice_bounds``; an empty one gives (0, n)) of the effect matrix
    (of all the per-state products for the multiplicative families).
    Only those gp rows are read, a block of whole rows at a time: n >= 2
    columns sum along the state axis in state order, as the whole mean does."""
    (S, m, _), n = draws.values["loadings"].shape, draws.values["scores"].shape[2]
    first, stop = slice_bounds(features, m)
    if draws.spec.is_mult:
        products = map(np.matmul, draws.stack("inter_loadings"), draws.stack("inter_scores"))
        return (reduce(np.add, products) / S)[first:stop]
    step = n * max(1, _SUMMARY_BLOCK // (S * n * 8))
    means = [draws.traces("effects", slice(start, min(start + step, stop * n))).mean(axis=0)
             for start in range(first * n, stop * n, step)]
    return np.concatenate(means or [np.empty(0)]).reshape(-1, n)
