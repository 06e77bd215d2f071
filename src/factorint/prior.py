"""The spike-and-slab prior shared by both sampler families.

Every loading and every interaction term has a binary inclusion indicator and
a Gaussian slab; the indicator's inclusion probability has a Beta prior, and
its posterior is the model's significance test. This module holds how those
probabilities are shared (per entry, global, or per group label derived from
the seed groups), the package's one rule for a real number (``as_real``), one
for an integer (``check_integer``) and a sequence of them
(``check_integers``), one for a positive number
(``check_positive``) and one for a pair of them (``check_pair``), the text a
refusal shows of a value (``shown``), the rules a
spec's prior settings must satisfy, the layout
``build_layout`` resolves for a feature count, and the closed forms the
samplers and the log joints read: the slab conditional and its Bayes factor,
the conjugate Beta update and the log densities. It also makes every draw from
this prior for both sampler families (starting indicators, indicators given a
Bayes factor, slab columns, probabilities); the samplers pass in the
residuals and the streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidFactorCount, SpecConflict


class LoadProbModel(str, Enum):
    """How the loading inclusion probabilities are shared."""

    PER_ENTRY = "per_entry"
    GROUPED = "grouped"


class InterProbModel(str, Enum):
    """How the interaction inclusion probabilities are shared."""

    PER_FEATURE = "per_feature"
    GLOBAL = "global"
    GROUPED = "grouped"


# Group labels used by the GROUPED strategies, derived from seed groups.
LOAD_GROUPS = ("expected", "excluded", "unknown")
INTER_GROUPS = ("seed", "unknown")


@dataclass(frozen=True)
class BetaTable:
    """Beta hyperparameters with optional per-group and per-entry overrides.

    ``entries`` keys are (feature, factor) for loadings, (feature, pair) or
    (feature,) for interactions; ``groups`` keys are group names.
    """

    default: tuple[float, float] = (1.0, 1.0)
    groups: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    entries: Mapping[tuple, tuple[float, float]] = field(default_factory=dict)


def shown(value) -> str:
    """``repr(value)`` for a refusal message, a numpy scalar shown as the
    Python number it holds, alone or in a tuple or list; an int too long to
    print in decimal (``sys.set_int_max_str_digits``), or a container
    holding one, is shown by its size instead, so that the message can
    always be built."""
    if type(value) in (tuple, list):
        value = type(value)(v.item() if isinstance(v, np.generic) else v for v in value)
    elif isinstance(value, np.generic):
        value = value.item()
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, Integral):
            return f"{'a negative' if value < 0 else 'an'} int of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"


def as_real(value) -> float:
    """``value`` as a plain float when it is a real number, numpy's
    included (an int beyond the float range as inf of its sign); NaN for
    anything else, ``bool``, strings and None included."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_positive(name: str, value, error: type[Exception] = SpecConflict) -> float:
    """``value`` as a plain float: it must be a real number (``as_real``)
    that is finite and above 0. ``error``, naming ``name``, otherwise."""
    number = as_real(value)
    if not 0 < number < math.inf:
        raise error(f"{name} must be a positive finite number, got {shown(value)}")
    return number


def check_integer(name: str, value, error: type[Exception] = SpecConflict,
                  low: int | None = None) -> int:
    """``value`` as a plain int: it must be an integral number, numpy's
    included, of at least ``low`` when given; ``bool``, strings and
    non-integral numbers such as 1.0 are not integers here. ``error``,
    naming ``name``, otherwise."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {shown(value)}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {shown(value)}")
    return int(value)


def check_integers(name: str, values, item: str, error: type[Exception] = SpecConflict,
                   low: int | None = None) -> list[int]:
    """``values`` as a list of plain ints: a one-dimensional sequence, each
    entry an ``item`` that ``check_integer`` accepts. ``error``, naming
    ``name`` or ``item``, otherwise."""
    array = np.asarray(values, dtype=object)
    if array.ndim != 1:
        raise error(f"{name} must be a one-dimensional sequence, got {array.ndim} dimensions")
    return [check_integer(item, v, error, low) for v in array.tolist()]


def check_pair(name: str, pair, parts: tuple[str, str]) -> tuple[float, float]:
    """``pair`` as two plain floats: it must hold exactly two values, each
    positive (``check_positive``). SpecConflict, naming ``name`` and its
    ``parts``, otherwise."""
    try:
        first, second = pair
    except (TypeError, ValueError):
        raise SpecConflict(f"{name} must be a ({', '.join(parts)}) pair, "
                           f"got {shown(pair)}") from None
    return (check_positive(f"{name} {parts[0]}", first),
            check_positive(f"{name} {parts[1]}", second))


def check_index(name: str, key: tuple, shape: tuple[int, ...]) -> None:
    """SpecConflict, naming ``name``, unless ``key`` indexes one entry of an
    array of ``shape``: one integer (``check_integer``) per axis, inside it."""
    if not (isinstance(key, tuple) and len(key) == len(shape)
            and all(0 <= check_integer(name, k) < n for k, n in zip(key, shape))):
        raise SpecConflict(f"{name} {shown(key)} outside the shape {shape}")


def validate_prior(spec) -> None:
    """The inclusion-prior rules of a ``ModelSpec``: enum probability models,
    only the Beta overrides each model uses, known group names, Beta pairs
    of two positive numbers (``check_pair``) and 0/1 fixed probabilities."""
    for name, kind in (("load_prob_model", LoadProbModel), ("inter_prob_model", InterProbModel)):
        if not isinstance(getattr(spec, name), kind):
            raise SpecConflict(f"{name} must be a {kind.__name__} member, "
                               f"got {getattr(spec, name)!r}")
    for model, table, key, names in (
            (spec.load_prob_model, spec.load_prob_prior, "model.gamma", LOAD_GROUPS),
            (spec.inter_prob_model, spec.inter_prob_prior, "model.beta", INTER_GROUPS)):
        if model is InterProbModel.GLOBAL and (table.groups or table.entries):
            raise SpecConflict(
                f"{key}: the global inclusion probability takes the default Beta pair only, "
                f"got overrides {sorted(table.groups) + sorted(table.entries)}")
        if model in (LoadProbModel.GROUPED, InterProbModel.GROUPED) and table.entries:
            raise SpecConflict(f"{key}: grouped inclusion probabilities take no per-entry "
                               f"Beta pairs, got {sorted(table.entries)}")
        unknown = sorted(set(table.groups) - set(names))
        if unknown:
            raise SpecConflict(f"{key}: unknown group {unknown}, expected one of {names}")
    for table in (spec.load_prob_prior, spec.inter_prob_prior):
        for pair in (table.default, *table.groups.values(), *table.entries.values()):
            check_pair("Beta hyperparameter", pair, ("a", "b"))
    for name, probs in (("loading", spec.fixed_load_prob), ("interaction", spec.fixed_inter_prob)):
        for key, v in (probs or {}).items():
            if v not in (0.0, 1.0):
                raise SpecConflict(f"fixed {name} probability at {shown(key)} must be 0 or 1, "
                                   f"got {shown(v)}")


@dataclass(frozen=True)
class InclusionPrior:
    """Beta prior of one block of inclusion probabilities, resolved per entry.

    ``fixed`` holds NaN where the probability is free and 0/1 where it is
    degenerate. Entries that take the same probability form a share:
    ``share`` holds each entry's share index, ``a``/``b`` one Beta pair per
    share, and ``trials`` how many indicators each share's count runs over,
    namely the entries marked ``counted``.
    """

    fixed: np.ndarray
    share: np.ndarray
    a: np.ndarray
    b: np.ndarray
    trials: np.ndarray
    counted: np.ndarray

    @classmethod
    def build(cls, model: LoadProbModel | InterProbModel, table: BetaTable,
              names: Sequence[str], group: np.ndarray, fixed: np.ndarray) -> "InclusionPrior":
        """Shares and their pairs under ``model``, for entries labelled by
        ``group`` (integer labels into ``names``). Per-entry: every entry is a
        share, whose pair is its entry override, else its group's, else the
        default; every indicator counts, degenerate ones included. Global:
        one share with the default pair. Grouped: one share per label present,
        in ascending order, with the group's pair. Shared probabilities count
        the free indicators only."""
        by_label = np.array([table.groups.get(n, table.default) for n in names], dtype=float)
        counted = np.isnan(fixed)
        if model is InterProbModel.GLOBAL:
            share = np.zeros(fixed.shape, dtype=np.intp)
            pairs = np.array([table.default], dtype=float)
        elif model in (LoadProbModel.GROUPED, InterProbModel.GROUPED):
            present, share = np.unique(group, return_inverse=True)
            share = share.reshape(fixed.shape)
            pairs = by_label[present]
        else:
            pairs = by_label[group]
            for key, pair in table.entries.items():
                check_index("Beta prior entry index", key, fixed.shape)
                pairs[key] = pair
            share = np.arange(fixed.size).reshape(fixed.shape)
            pairs = pairs.reshape(-1, 2)
            counted = np.ones(fixed.shape, dtype=bool)
        trials = np.bincount(share.ravel(), weights=counted.ravel(), minlength=pairs.shape[0])
        return cls(fixed, share, pairs[:, 0].copy(), pairs[:, 1].copy(), trials, counted)


@dataclass(frozen=True)
class PriorLayout:
    """The loading and interaction inclusion priors for a given feature
    count. Loading blocks are (m, L); interaction blocks are (m,) for the gp
    family and (m, n_pairs) for the multiplicative families."""

    load: InclusionPrior
    inter: InclusionPrior


def build_layout(spec, n_features: int) -> PriorLayout:
    """The inclusion priors of a ``ModelSpec`` on ``n_features`` features.
    InvalidFactorCount for more factors than features, before anything is
    allocated; SpecConflict for a seed feature, fixed probability or Beta
    entry whose index is not one of the layout's (``check_index``)."""
    m, L = n_features, spec.n_factors
    if L > m:
        raise InvalidFactorCount(f"{shown(L)} factors on {m} features: "
                                 "at most one factor per feature")
    fixed_load = np.full((m, L), np.nan)
    load_group = np.full((m, L), LOAD_GROUPS.index("unknown"), dtype=np.int8)

    inter_shape = (m, spec.n_pairs) if spec.is_mult else (m,)
    fixed_inter = np.full(inter_shape, np.nan)
    inter_group = np.full(inter_shape, INTER_GROUPS.index("unknown"), dtype=np.int8)

    seed_union = spec.seed_union()
    if seed_union and max(seed_union) >= m:
        raise SpecConflict(f"seed feature index {max(seed_union)} outside 0..{m - 1}")
    if spec.seed_groups:
        for factor, members in spec.seed_groups.items():
            idx = np.fromiter(members, dtype=int)
            load_group[idx, :] = LOAD_GROUPS.index("excluded")
            load_group[idx, factor] = LOAD_GROUPS.index("expected")
            if spec.seed_constraints:
                fixed_load[idx, :] = 0.0
                fixed_load[idx, factor] = 1.0
        seed_idx = np.fromiter(sorted(seed_union), dtype=int)
        inter_group[seed_idx, ...] = INTER_GROUPS.index("seed")
        if spec.seed_constraints:
            fixed_inter[seed_idx, ...] = 0.0

    if not spec.include_interactions:
        fixed_inter[...] = 0.0

    for key, v in (spec.fixed_load_prob or {}).items():
        check_index("fixed loading probability index", key, (m, L))
        fixed_load[key] = v
    for i, v in (spec.fixed_inter_prob or {}).items():
        check_index("fixed interaction probability index", (i,), (m,))
        fixed_inter[i, ...] = v

    return PriorLayout(
        InclusionPrior.build(spec.load_prob_model, spec.load_prob_prior, LOAD_GROUPS,
                             load_group, fixed_load),
        InclusionPrior.build(spec.inter_prob_model, spec.inter_prob_prior, INTER_GROUPS,
                             inter_group, fixed_inter))


def clip_prob(p: np.ndarray) -> np.ndarray:
    """Probabilities kept inside (0, 1), so their logs and log-odds stay finite."""
    return np.clip(p, 1e-300, 1.0 - 1e-16)


def _logit(p: np.ndarray) -> np.ndarray:
    p = clip_prob(p)
    return np.log(p) - np.log1p(-p)


def _pin_fixed(values: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """``values`` where ``fixed`` is NaN (a free probability), the fixed 0/1
    value where it is degenerate: that value overrides the posterior."""
    return np.where(np.isnan(fixed), values, fixed)


def slab_posterior(residual: np.ndarray, regressor: np.ndarray,
                   noise_var: np.ndarray, slab_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian slab conditional for one coefficient per row.

    ``residual`` (m, n) excludes the coefficient's own contribution;
    ``regressor`` (n,) multiplies the coefficient in the row means.
    Returns (mean, variance) arrays of length m.
    """
    ss = float(regressor @ regressor)
    var = 1.0 / (1.0 / slab_var + ss / noise_var)
    mean = var * (residual @ regressor) / noise_var
    return mean, var


def slab_log_bayes_factor(mean: np.ndarray, var: np.ndarray, slab_var: float) -> np.ndarray:
    """log of the slab/spike marginal likelihood ratio given the slab conditional."""
    return 0.5 * (np.log(var) - np.log(slab_var)) + 0.5 * mean * mean / var


def slab_log_density(coef: np.ndarray, mask: np.ndarray, slab_var: float) -> float:
    """Log-joint terms of one coefficient block's slabs: N(0, slab_var) at
    every coefficient whose indicator is on (normalizing constants omitted)."""
    on = mask.astype(bool)
    return (-0.5 * float(np.sum(coef[on] ** 2)) / slab_var
            - 0.5 * int(on.sum()) * math.log(slab_var))


def inclusion_posterior_params(prior: InclusionPrior,
                               mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Beta posterior parameters (a + k, b + trials - k), one pair per share,
    where k counts the share's counted indicators that are on."""
    k = np.bincount(prior.share.ravel(), weights=np.where(prior.counted, mask, 0).ravel(),
                    minlength=prior.a.size)
    return prior.a + k, prior.b + prior.trials - k


def inclusion_log_density(state, layout: PriorLayout) -> float:
    """Log-joint terms of both inclusion-probability blocks of an
    ``McmcState`` (shared by both families)."""
    return (_prob_block(layout.load, state.load_mask, state.load_prob)
            + _prob_block(layout.inter, state.inter_mask, state.inter_prob))


def _prob_block(prior: InclusionPrior, mask: np.ndarray, prob: np.ndarray) -> float:
    """Bernoulli terms over free entries plus one Beta prior term per share
    with a free entry, at the probability of its first free entry
    (normalizing constants omitted)."""
    free = np.isnan(prior.fixed)
    k = mask[free].astype(float)
    p = clip_prob(prob[free])
    total = float(np.sum(k * np.log(p) + (1 - k) * np.log1p(-p)))
    shares, first = np.unique(prior.share[free], return_index=True)
    q = p[first]
    return total + float(np.sum((prior.a[shares] - 1) * np.log(q)
                                + (prior.b[shares] - 1) * np.log1p(-q)))


def draw_prior_indicators(rng: np.random.Generator,
                          prior: InclusionPrior) -> tuple[np.ndarray, np.ndarray]:
    """A chain's starting (probabilities, bool indicators) of one block: each
    entry's prior mean, degenerate entries at their fixed value, and one
    indicator per entry drawn from it. The caller writes the indicators into
    the state's mask, whose dtype ``model.STATE_DTYPES`` states."""
    prob = _pin_fixed((prior.a / (prior.a + prior.b))[prior.share], prior.fixed)
    return prob, rng.random(prob.shape) < prob


def draw_indicators(rng: np.random.Generator, prob: np.ndarray, log_bf: np.ndarray,
                    fixed: np.ndarray) -> np.ndarray:
    """Draw one spike-and-slab indicator per entry: on with probability
    logistic(logit(prob) + log_bf), the prior odds times the slab/spike Bayes
    factor, unless ``fixed`` pins the entry (``_pin_fixed``)."""
    with np.errstate(over="ignore"):  # exp overflows to inf, giving p = 0
        p = 1.0 / (1.0 + np.exp(-(_logit(prob) + log_bf)))
    return rng.random(p.shape[0]) < _pin_fixed(p, fixed)


def draw_slab_column(rng: np.random.Generator, residual: np.ndarray, regressor: np.ndarray,
                     noise_var: np.ndarray, slab_var: float, prob: np.ndarray,
                     fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spike-and-slab draw of one coefficient per row, given the (m, n)
    ``residual`` without the column: returns the indicators, drawn with the
    coefficient integrated out, and the coefficients given them, 0 where off.
    A normal is drawn for every row."""
    mean, var = slab_posterior(residual, regressor, noise_var, slab_var)
    on = draw_indicators(rng, prob, slab_log_bayes_factor(mean, var, slab_var), fixed)
    draws = mean + np.sqrt(var) * rng.standard_normal(on.shape[0])
    return on, np.where(on, draws, 0.0)


def sample_inclusion_probs(rng: np.random.Generator, prior: InclusionPrior,
                           mask: np.ndarray) -> np.ndarray:
    """Draw one probability per share, in share order, and write it into every
    entry of the share; degenerate entries keep their fixed value.

    One Beta variate is drawn for every share, including the degenerate
    per-entry shares whose value is then overwritten, so the stream stays as
    it is: dropping those draws would move every later variate."""
    prob = rng.beta(*inclusion_posterior_params(prior, mask))[prior.share]
    return _pin_fixed(prob, prior.fixed)
