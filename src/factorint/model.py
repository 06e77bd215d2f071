"""Domain types shared by both sampler families.

Defines the standardized data matrix and the records read and written beside
it (the probe ``Annotation`` and the planted ``SyntheticTruth`` of a
simulated dataset), the declarative model specification
(family, factor count, inclusion-prior settings from ``prior``, seed-gene
constraints), the mutable sampler state, the container of retained posterior
draws, and the one loop (``run_chain``) that drives either sampler.

Retained draws are kept as one (S, ...) field per state field whose leading
axis runs over the retained states. ``run_chain`` hands each retained sweep
to a sink: ``StateArrays``, which writes it into its row of in-memory arrays,
or ``io.DrawsWriter``, which writes it into its slot of a bundle file laid
out the same way. Both return the chain's ``PosteriorDraws``, which also
carry the chain's profile (its time per sweep block and its counts); the
bundle does not keep it. ``join_draws`` pools the chains of one fit into one
``PosteriorDraws`` whose fields read theirs end to end, so every reduction
of draws serves one chain and several alike.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ConstantRow, InvalidFactorCount, SpecConflict
from .prior import (BetaTable, InterProbModel, LoadProbModel, check_integer, check_integers,
                    check_pair, check_positive, shown, validate_prior)
from .rng import RngStreams


class Family(str, Enum):
    MULT_APPROACH1 = "mult_approach1"  # score product enters as the mean of a Gaussian prior
    MULT_APPROACH2 = "mult_approach2"  # score product imposed exactly
    GP = "gp"                          # nonlinear interaction rows under a squared-exponential GP prior


# gp_variant -> (loading-prob model, shared interaction effect, interaction-prob model)
GP_VARIANT_TABLE: dict[int, tuple[LoadProbModel, bool, InterProbModel]] = {
    1: (LoadProbModel.PER_ENTRY, False, InterProbModel.PER_FEATURE),
    2: (LoadProbModel.PER_ENTRY, True, InterProbModel.PER_FEATURE),
    3: (LoadProbModel.PER_ENTRY, False, InterProbModel.GLOBAL),
    4: (LoadProbModel.PER_ENTRY, True, InterProbModel.GLOBAL),
    5: (LoadProbModel.GROUPED, False, InterProbModel.GROUPED),
}

_CONSTANT_ROW_TOL = 1e-12


@dataclass(frozen=True)
class DataMatrix:
    """Feature-by-sample matrix of finite values with distinct identifiers,
    held as given: ``standardize_rows`` makes the standardized one a fit
    takes, and ``io.read_data_csv`` returns a file's values as written."""

    values: np.ndarray
    feature_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ConfigError("data matrix must be two-dimensional")
        m, n = values.shape
        if m < 2 or n < 2:
            raise ConfigError(f"data matrix needs at least 2 features and 2 samples, got {m}x{n}")
        if not np.isfinite(values).all():
            raise ConfigError("data matrix contains non-finite entries")
        if len(self.feature_ids) != m or len(self.sample_ids) != n:
            raise ConfigError("identifier lengths do not match the matrix shape")
        for kind in ("feature", "sample"):
            ids = tuple(map(str, getattr(self, f"{kind}_ids")))
            repeated = [i for i, count in Counter(ids).items() if count > 1]
            if repeated:
                raise ConfigError(f"duplicate {kind} id {repeated[0]!r}")
            object.__setattr__(self, f"{kind}_ids", ids)
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Annotation:
    """Probe positions on the genome: a one-dimensional sequence of
    integers in [0, 2**63) (``prior.check_integers``), refused rather than
    truncated; ConfigError otherwise, and for columns of mismatched lengths
    or repeated probe ids."""

    probe_ids: tuple[str, ...]
    chromosomes: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self):
        try:
            positions = np.array(check_integers("annotation positions", self.positions,
                                                "annotation position", ConfigError, 0), np.int64)
        except OverflowError:
            raise ConfigError("annotation positions must lie below 2**63") from None
        if len(self.probe_ids) != len(self.chromosomes) or len(self.probe_ids) != positions.shape[0]:
            raise ConfigError("annotation columns have mismatched lengths")
        if len(set(self.probe_ids)) != len(self.probe_ids):
            raise ConfigError("annotation probe ids are not unique")
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "probe_ids", tuple(str(p) for p in self.probe_ids))
        object.__setattr__(self, "chromosomes", tuple(str(c) for c in self.chromosomes))

    def __len__(self) -> int:
        return len(self.probe_ids)


@dataclass(frozen=True)
class SyntheticTruth:
    """Planted quantities behind one synthetic dataset (post-standardization scale)."""

    loadings: np.ndarray          # (m, L)
    scores: np.ndarray            # (L, n)
    effects: np.ndarray           # (m, n)
    noise_var: np.ndarray         # (m,)
    affected: np.ndarray          # sorted feature indices with nonzero effect rows
    seed_groups: dict[int, np.ndarray]


def default_ids(prefix: str, count: int) -> tuple[str, ...]:
    width = max(4, len(str(count)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def standardize_rows(
    raw,
    feature_ids: Sequence[str] | None = None,
    sample_ids: Sequence[str] | None = None,
) -> DataMatrix:
    """Center each row at 0 and scale it to unit sample variance (n-1 denominator).

    Accepts a plain array or a DataMatrix; identifiers are preserved.
    Raises ConstantRow if any row has zero variance.
    """
    if isinstance(raw, DataMatrix):
        feature_ids = feature_ids or raw.feature_ids
        sample_ids = sample_ids or raw.sample_ids
        raw = raw.values
    values = np.array(raw, dtype=float)
    if values.ndim != 2:
        raise ConfigError("expected a two-dimensional matrix")
    m, n = values.shape
    feature_ids = tuple(feature_ids) if feature_ids is not None else default_ids("f", m)
    sample_ids = tuple(sample_ids) if sample_ids is not None else default_ids("s", n)

    # ``values`` is this call's own copy, so it is centred and scaled in place
    means = values.mean(axis=1)
    values -= means[:, None]
    sd = values.std(axis=1, ddof=1)
    tol = _CONSTANT_ROW_TOL * (1.0 + np.abs(means))
    for i in range(m):
        if sd[i] <= tol[i]:
            raise ConstantRow(i, feature_ids[i] if i < len(feature_ids) else None)
    values /= sd[:, None]
    return DataMatrix(values, feature_ids, sample_ids)


def interaction_pair_count(n_factors: int) -> int:
    """Number of unordered factor pairs, L(L-1)/2, counted without listing them."""
    if n_factors < 2:
        raise InvalidFactorCount(f"need at least 2 factors, got {n_factors}")
    return n_factors * (n_factors - 1) // 2


def factor_pairs(n_factors: int) -> tuple[tuple[int, int], ...]:
    """Unordered factor pairs (l1 < l2), lexicographic, 0-based."""
    interaction_pair_count(n_factors)  # the factor-count rule
    return tuple((l1, l2) for l1 in range(n_factors - 1) for l2 in range(l1 + 1, n_factors))


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one model variant.

    ``slab_var_loading`` is the slab variance of the factor loadings and
    ``slab_var_inter`` the slab variance of the interaction loadings
    (multiplicative families only). ``product_var`` is the variance tying the
    interaction scores to the score product (multiplicative approach 1 only).
    Seed groups map a factor to the features assumed to load on it alone;
    with ``seed_constraints`` these become degenerate inclusion probabilities
    (own factor 1, other factors 0, interactions 0). A spec that breaks a
    rule of ``validate_spec`` raises when built, also by ``dataclasses.replace``.
    """

    family: Family
    n_factors: int = 2
    slab_var_loading: float = 10.0
    slab_var_inter: float = 10.0
    noise_prior: tuple[float, float] = (2.1, 1.1)
    product_var: float | None = None
    gp_variant: int | None = None
    length_scale: float | None = None
    load_prob_model: LoadProbModel = LoadProbModel.PER_ENTRY
    inter_prob_model: InterProbModel = InterProbModel.PER_FEATURE
    load_prob_prior: BetaTable = field(default_factory=BetaTable)
    inter_prob_prior: BetaTable = field(default_factory=BetaTable)
    seed_groups: Mapping[int, frozenset[int]] | None = None
    fixed_load_prob: Mapping[tuple[int, int], float] | None = None
    fixed_inter_prob: Mapping[int, float] | None = None
    seed_constraints: bool = True
    include_interactions: bool = True

    def __post_init__(self):
        validate_spec(self)

    @property
    def n_pairs(self) -> int:
        return interaction_pair_count(self.n_factors)

    @property
    def is_mult(self) -> bool:
        return self.family in (Family.MULT_APPROACH1, Family.MULT_APPROACH2)

    @property
    def shared_effect(self) -> bool:
        return self.family is Family.GP and GP_VARIANT_TABLE[self.gp_variant][1]

    def seed_union(self) -> frozenset[int]:
        return frozenset().union(*(self.seed_groups or {}).values())


def mult_spec(approach: int, n_factors: int = 2, **kwargs) -> ModelSpec:
    """Multiplicative-interaction model; approach 1 ties the interaction scores
    to the score product through a Gaussian, approach 2 imposes the product."""
    if approach not in (1, 2):
        raise SpecConflict(f"multiplicative approach must be 1 or 2, got {shown(approach)}")
    family = Family.MULT_APPROACH1 if approach == 1 else Family.MULT_APPROACH2
    if approach == 1:
        kwargs.setdefault("product_var", 1e-5)
    return ModelSpec(family=family, n_factors=n_factors, **kwargs)


def gp_spec(variant: int, n_factors: int = 2, length_scale: float = 0.2, **kwargs) -> ModelSpec:
    """Nonlinear-interaction model; ``variant`` selects one of the five prior
    configurations (loading-probability model, shared effect, interaction-
    probability model)."""
    if variant in GP_VARIANT_TABLE:  # ModelSpec rejects any other
        load_model, _, inter_model = GP_VARIANT_TABLE[variant]
        kwargs.setdefault("load_prob_model", load_model)
        kwargs.setdefault("inter_prob_model", inter_model)
    return ModelSpec(
        family=Family.GP,
        n_factors=n_factors,
        gp_variant=variant,
        length_scale=length_scale,
        **kwargs,
    )


def validate_spec(spec: ModelSpec) -> ModelSpec:
    """The rules of a ``ModelSpec``, run when one is built; returns ``spec``.
    ``n_factors`` and ``gp_variant`` are integers and every variance a
    positive number, as ``prior.check_integer`` and ``prior.check_positive``
    judge them (so ``True``, ``"3"`` and ``2.5`` are refused and numpy's
    numbers accepted); ``noise_prior`` is a (shape, scale) pair of them.
    Each family's own fields are set for it alone (``product_var`` for
    approach 1, ``gp_variant`` and ``length_scale`` for gp, and a
    ``slab_var_inter`` other than its default for the multiplicative
    families), and each seed group names an integer factor inside
    ``n_factors`` and at least one integer feature index >= 0, no feature in
    two groups; ``prior.build_layout`` checks the indices against the data's
    features."""
    if not isinstance(spec.family, Family):
        raise SpecConflict(f"family must be a Family member, got {spec.family!r}")
    validate_prior(spec)
    if check_integer("n_factors", spec.n_factors, InvalidFactorCount) < 2:
        raise InvalidFactorCount(f"need at least 2 factors, got {shown(spec.n_factors)}")
    check_positive("slab_var_loading", spec.slab_var_loading)
    check_positive("slab_var_inter", spec.slab_var_inter)
    check_pair("noise_prior", spec.noise_prior, ("shape", "scale"))
    if spec.family is Family.MULT_APPROACH1:
        check_positive("product_var", spec.product_var)
    elif spec.product_var is not None:
        raise SpecConflict("product_var applies only to multiplicative approach 1")

    if spec.family is Family.GP:
        if check_integer("gp_variant", spec.gp_variant) not in GP_VARIANT_TABLE:
            raise SpecConflict(f"gp_variant must be in 1..5, got {shown(spec.gp_variant)}")
        check_positive("length_scale", spec.length_scale)
        if spec.slab_var_inter != ModelSpec.slab_var_inter:
            raise SpecConflict("slab_var_inter applies only to the multiplicative families")
        if not spec.include_interactions:
            raise SpecConflict("the nonlinear family has no interaction-free variant")
        load_model, _, inter_model = GP_VARIANT_TABLE[spec.gp_variant]
        if spec.load_prob_model is not load_model or spec.inter_prob_model is not inter_model:
            raise SpecConflict(
                f"gp_variant {spec.gp_variant} requires ({load_model.value}, {inter_model.value}) "
                f"probability models, got ({spec.load_prob_model.value}, {spec.inter_prob_model.value})"
            )
    else:
        if spec.gp_variant is not None or spec.length_scale is not None:
            raise SpecConflict("gp_variant/length_scale apply only to the gp family")

    seen: set[int] = set()
    for factor, members in (spec.seed_groups or {}).items():
        if not 0 <= check_integer("seed group factor", factor) < spec.n_factors:
            raise SpecConflict(f"seed group factor {shown(factor)} outside "
                               f"0..{spec.n_factors - 1}")
        if not members:
            raise SpecConflict(f"seed group {factor} is empty")
        for i in members:
            check_integer("seed feature index", i, low=0)
        overlap = seen.intersection(members)
        if overlap:
            raise SpecConflict(f"seed groups overlap on features {sorted(overlap)}")
        seen.update(members)
    return spec


@dataclass
class McmcState:
    """One full set of latent quantities at a sampler iteration.

    ``state_shapes`` gives the fields each family carries and their shapes,
    and ``STATE_DTYPES`` the dtype of each; the others are None. Masks are
    the int8 0/1 inclusion indicators; probability arrays mirror the mask
    shapes with shared values expanded per entry.
    """

    loadings: np.ndarray                     # (m, L)
    scores: np.ndarray                       # (L, n)
    load_mask: np.ndarray                    # (m, L) int8
    load_prob: np.ndarray                    # (m, L)
    noise_var: np.ndarray                    # (m,)
    inter_mask: np.ndarray                   # (m, T) int8 or (m,) int8
    inter_prob: np.ndarray                   # same shape as inter_mask
    inter_loadings: np.ndarray | None = None  # (m, T)
    inter_scores: np.ndarray | None = None    # (T, n)
    effects: np.ndarray | None = None         # (m, n)
    shared_effect: np.ndarray | None = None   # (n,)

    def copy(self) -> "McmcState":
        values = (getattr(self, name) for name in STATE_FIELDS)
        return McmcState(*(None if v is None else v.copy() for v in values))


STATE_FIELDS = tuple(f.name for f in fields(McmcState))
# the dtype of every state field: int8 for the two masks, float64 for the rest
STATE_DTYPES = {name: np.dtype(np.int8 if "mask" in name else np.float64) for name in STATE_FIELDS}


def state_shapes(spec: ModelSpec, m: int, n: int) -> dict[str, tuple[int, ...]]:
    """Shape of every state field a ``spec`` model carries on m x n data, in
    STATE_FIELDS order; the fields it leaves out stay None in ``McmcState``."""
    L = spec.n_factors
    shapes = {"loadings": (m, L), "scores": (L, n), "load_mask": (m, L), "load_prob": (m, L),
              "noise_var": (m,)}
    if spec.is_mult:
        T = spec.n_pairs
        shapes.update(inter_mask=(m, T), inter_prob=(m, T), inter_loadings=(m, T),
                      inter_scores=(T, n))
    else:
        shapes.update(inter_mask=(m,), inter_prob=(m,), effects=(m, n))
        if spec.shared_effect:
            shapes["shared_effect"] = (n,)
    return shapes


@dataclass
class PosteriorDraws:
    """Retained post-burn-in states plus the MH acceptance ledger.

    ``values`` maps each state field the family carries, in STATE_FIELDS
    order, to an (S, ...) field whose leading axis runs over the S retained
    states (``values["loadings"]`` is (S, m, L)): a read-only array, for
    draws of a bundle file an ``io.BundleField`` of that shape, which reads
    from the file on demand, or for a join of chains (``join_draws``) a
    ``JoinedField``, which reads the chains' fields one after another. Only
    this module and ``io`` know which: readers take shapes from
    ``values[name].shape`` and values from ``stack`` (the whole field as an
    array) or ``traces`` (a run of its parameters).
    """

    spec: ModelSpec
    values: dict[str, np.ndarray]
    burn_in: int
    thin: int
    n_iters: int
    seed: int
    chain: int = 0
    feature_ids: tuple[str, ...] | None = None
    sample_ids: tuple[str, ...] | None = None
    mh_accept_counts: np.ndarray | None = None  # (n, 2) accepted/proposed, post burn-in
    rw_step_final: float | None = None
    sha256: str | None = None  # of the whole draws file the fields live in, if any
    profile: dict | None = None  # the run's ``Chain.profile``; a bundle does not keep it

    def __post_init__(self):
        for arr in self.values.values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def __len__(self) -> int:
        return self.values["loadings"].shape[0]

    def stack(self, attr: str) -> np.ndarray:
        """Field ``attr`` as an (S, ...) array, read whole if it is in a file."""
        arr = self.values[attr]
        return arr if isinstance(arr, np.ndarray) else arr.read()

    def traces(self, attr: str, rows: slice) -> np.ndarray:
        """(S, k) traces of parameters ``rows``, a slice under the rule of
        ``slice_bounds``, over the trailing axes of field ``attr`` in C order."""
        arr = self.values[attr]
        rows = slice(*slice_bounds(rows, math.prod(arr.shape[1:])))
        if isinstance(arr, np.ndarray):
            return arr.reshape(len(arr), -1)[:, rows]
        return arr.read_rows(rows)


def slice_bounds(rows: slice, size: int) -> tuple[int, int]:
    """(start, stop) of ``rows`` over ``size`` entries, the one rule for a
    slice of draws: its step must be 1 (ConfigError otherwise), and an empty
    slice runs from start to start, so its read has 0 rows."""
    if rows.step not in (None, 1):
        raise ConfigError(f"a slice of draws must have step 1, got {rows}")
    start, stop, _ = rows.indices(size)
    return start, max(start, stop)


class JoinedField:
    """State field ``name`` of the ``chains``, their states end to end along
    the leading axis, read through each chain's ``stack`` or ``traces`` only
    when asked, so no pooled copy of the field is held."""

    def __init__(self, chains: Sequence[PosteriorDraws], name: str):
        self.chains, self.name = chains, name
        first = chains[0].values[name]
        self.shape = (sum(map(len, chains)), *first.shape[1:])
        self.dtype = first.dtype

    def read(self) -> np.ndarray:
        return np.concatenate([chain.stack(self.name) for chain in self.chains])

    def read_rows(self, rows: slice) -> np.ndarray:
        return np.concatenate([chain.traces(self.name, rows) for chain in self.chains])


# what the chains of one fit share, so that their states pool as one sample
_JOINED = ("spec", "feature_ids", "sample_ids", "burn_in", "thin", "n_iters")


def join_draws(draws: PosteriorDraws, *more: PosteriorDraws) -> PosteriorDraws:
    """The chains ``draws, *more`` of one fit as one ``PosteriorDraws``: each
    field a ``JoinedField`` of theirs, the states in the order given, with
    the run counts, ids and seed and chain number of ``draws``. ``draws``
    itself when it is the only chain. The per-chain entries (acceptance
    ledger, final MH step, digest, profile) stay with the chains.
    ConfigError for chains that differ in spec, feature or sample ids,
    the trailing shape of a field or the run counts, or that repeat a
    (seed, chain) pair, as a file named twice does."""
    if not more:
        return draws
    chains = (draws, *more)
    seen = set()
    for other in chains:
        differ = [what for what in _JOINED if getattr(other, what) != getattr(draws, what)]
        if other.values.keys() != draws.values.keys() or any(
                other.values[name].shape[1:] != arr.shape[1:] for name, arr in draws.values.items()):
            differ.append("field shapes")
        if differ:
            raise ConfigError(f"chain {other.chain} of seed {other.seed} differs from chain "
                              f"{draws.chain} of seed {draws.seed} in {', '.join(differ)}: "
                              "only chains of one fit pool")
        if (other.seed, other.chain) in seen:
            raise ConfigError(f"chain {other.chain} of seed {other.seed} is given twice")
        seen.add((other.seed, other.chain))
    return PosteriorDraws(draws.spec, {name: JoinedField(chains, name) for name in draws.values},
                          draws.burn_in, draws.thin, draws.n_iters, draws.seed, draws.chain,
                          draws.feature_ids, draws.sample_ids)


@dataclass(frozen=True)
class McmcSettings:
    """Chain-length and proposal configuration for one run: the only place
    these defaults are written. Each sampler keeps its own as ``settings``
    and resolves its burn-in and retained count from them once, when built;
    ``run_chain`` reads the run's length and thinning from there.

    Each count must be an integer (``prior.check_integer``: numpy's accepted,
    ``bool`` and 2.0 refused), ``seed`` >= 0 and ``thin`` and ``n_chains``
    >= 1, and ``rw_step`` a positive finite number (``prior.check_positive``);
    ConfigError otherwise. The fields hold the plain Python numbers the
    checks return, so settings of numpy numbers write the same draws file."""

    n_iters: int = 600
    burn_in: int | None = None  # None: 400 for multiplicative families, 300 for gp
    thin: int = 1
    seed: int = 0
    n_chains: int = 1
    rw_step: float = 0.1  # the gp step at the start; burn_in=0 is the one way to hold it fixed

    def __post_init__(self):
        for name, low in (("n_iters", None), ("burn_in", None), ("thin", 1), ("seed", 0),
                          ("n_chains", 1)):
            if not (name == "burn_in" and self.burn_in is None):
                object.__setattr__(self, name, check_integer(name, getattr(self, name),
                                                             ConfigError, low))
        object.__setattr__(self, "rw_step", check_positive("rw_step", self.rw_step, ConfigError))

    def streams(self, chain: int) -> RngStreams:
        """The random streams of chain ``chain`` of this run; ConfigError
        unless it is an integer >= 0 (``rng.RngStreams``)."""
        return RngStreams(self.seed, chain)

    def retained(self, family: Family) -> int:
        """Number of states a chain of ``family`` keeps under these settings."""
        return (self.n_iters - self.resolve_burn_in(family)) // self.thin

    def resolve_burn_in(self, family: Family) -> int:
        if self.burn_in is not None:
            burn = self.burn_in
        else:
            burn = 300 if family is Family.GP else 400
        if not 0 <= burn < self.n_iters:
            raise ConfigError(f"burn_in {shown(burn)} must lie in "
                              f"[0, n_iters={shown(self.n_iters)})")
        if (self.n_iters - burn) % self.thin:
            raise ConfigError(f"(n_iters - burn_in) = {shown(self.n_iters - burn)} is not "
                              f"divisible by thin = {shown(self.thin)}")
        return burn


def chain_draws(sampler, values: dict[str, np.ndarray]) -> PosteriorDraws:
    """The draws of ``sampler``'s chain with state fields ``values``, and its
    run settings, identifiers, acceptance ledger, MH step and profile as they
    stand."""
    settings = sampler.settings
    return PosteriorDraws(
        spec=sampler.spec, values=values, burn_in=sampler.burn_in,
        thin=settings.thin, n_iters=settings.n_iters, seed=settings.seed,
        chain=sampler.streams.chain, feature_ids=sampler.data.feature_ids,
        sample_ids=sampler.data.sample_ids, mh_accept_counts=sampler.accept_counts,
        rw_step_final=sampler.rw_step, profile=sampler.profile())


class StateArrays:
    """The default sink of ``run_chain``: one (S, ...) array per state field
    the sampler carries, allocated at the first retained state, each retained
    state copied into its row, and the filled arrays returned as the chain's
    ``PosteriorDraws`` at close."""

    def put(self, k: int, sampler) -> None:
        state = sampler.state
        if k == 0:
            self.values = {name: np.empty((sampler.n_retained, *v.shape), v.dtype)
                           for name in STATE_FIELDS if (v := getattr(state, name)) is not None}
        for name, arr in self.values.items():
            arr[k] = getattr(state, name)

    def close(self, sampler) -> PosteriorDraws:
        return chain_draws(sampler, self.values)


def run_chain(sampler, sink=None):
    """Sweep a ``MultChain`` or ``GpChain`` ``n_iters`` times under its
    ``settings`` and hand every ``thin``-th state after the chain's
    ``burn_in`` to ``sink``; it sets nothing on the chain.

    The sink gets ``put(k, sampler)`` for retained state k = 0, 1, ... as the
    chain reaches it, and ``close(sampler)`` after the last sweep, which
    returns the chain's ``PosteriorDraws``, as this does. The default sink,
    ``StateArrays``, keeps the states in memory; ``io.DrawsWriter`` leaves
    them in the file it wrote.

    Each ``sampler.sweep()`` runs the blocks of ``sampler.blocks()`` and
    times each one, so the draws' ``profile`` holds the chain's time per
    block and its counts over every sweep, burn-in included.

    A ``GpChain`` keeps its own adaptation window: its step adapts in its
    first ``burn_in`` sweeps and its acceptance ledger counts only the
    sweeps after them, so the retained states come from a fixed Metropolis
    kernel and the ledger counts only them, here as in a chain swept by hand.
    """
    settings, burn = sampler.settings, sampler.burn_in
    sink = StateArrays() if sink is None else sink
    for it in range(1, settings.n_iters + 1):
        sampler.sweep()
        if it > burn and (it - burn) % settings.thin == 0:
            sink.put((it - burn) // settings.thin - 1, sampler)
    return sink.close(sampler)
