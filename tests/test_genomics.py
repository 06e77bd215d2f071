"""Applied pipeline: windows, cleaning, selection, detection, the overlap
permutation test, and posterior summaries."""

import time
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from factorint import (
    AllRemoved,
    Annotation,
    ConfigError,
    DataMatrix,
    EmptyWindowWarning,
    InsufficientDraws,
    McmcSettings,
    McmcState,
    OverlapTestInput,
    PosteriorDraws,
    PosteriorSummary,
    clean_seed_genes,
    detect_interactions,
    fit_spec,
    generate_saddle_dataset,
    gp_spec,
    join_draws,
    mult_spec,
    overlap_permutation_test,
    posterior_mean_effects,
    posterior_summary,
    seed_gene_window,
    select_candidate_genes,
    standardize_rows,
)
from factorint import genomics
from factorint import io as fio
from factorint.genomics import (ParameterSummary, interaction_probabilities,
                                posterior_mean_scores, two_window_converged)
from factorint.model import STATE_FIELDS
from factorint.rng import stream


# ------------------------------------------------------------ windows

def synthetic_annotation():
    probes, chroms, positions = [], [], []
    # 50 probes packed inside the window around 35,152,961 on chromosome 22
    for k in range(50):
        probes.append(f"in{k}")
        chroms.append("22")
        positions.append(35_152_961 - 1_900_000 + k * 76_000)
    # distractors: same chromosome but outside, and other chromosomes
    for k in range(30):
        probes.append(f"far{k}")
        chroms.append("22")
        positions.append(40_000_000 + k * 50_000)
    for k in range(20):
        probes.append(f"chr16_{k}")
        chroms.append("16")
        positions.append(35_152_961 + k)
    return Annotation(tuple(probes), tuple(chroms), np.array(positions))


class TestAnnotation:
    def test_duplicate_probe_ids_rejected(self):
        from factorint import ConfigError
        with pytest.raises(ConfigError):
            Annotation(("p1", "p1"), ("22", "22"), np.array([1, 2]))

    def test_negative_positions_rejected(self):
        from factorint import ConfigError
        with pytest.raises(ConfigError):
            Annotation(("p1", "p2"), ("22", "22"), np.array([1, -2]))


class TestSeedGeneWindow:
    def test_constructed_fifty_gene_window(self):
        ann = synthetic_annotation()
        idx = seed_gene_window(ann, "22", 35_152_961, 2_000_000)
        assert idx.size == 50
        assert all(ann.probe_ids[i].startswith("in") for i in idx)

    def test_empty_window_warns(self):
        ann = synthetic_annotation()
        with pytest.warns(EmptyWindowWarning):
            idx = seed_gene_window(ann, "1", 1_000_000, 500_000)
        assert idx.size == 0

    def test_zero_half_width_matches_exact_positions_only(self):
        ann = synthetic_annotation()
        idx = seed_gene_window(ann, "16", 35_152_961, 0)
        assert idx.size == 1
        assert ann.probe_ids[idx[0]] == "chr16_0"


# ------------------------------------------------- cleaning and selection

from tests_support import candidate_structured, seed_structured


class TestCleanSeedGenes:
    settings = McmcSettings(n_iters=200, burn_in=100, seed=1)

    def test_planted_violators_removed_exactly(self):
        data, g1, g2, planted = seed_structured(40)
        c1, c2, report = clean_seed_genes(data, g1, g2, self.settings)
        removed = {r.feature: r.reason for r in report}
        assert set(removed) == set(planted)
        for feature, reason in planted.items():
            assert removed[feature] == reason
        assert set(c1) == set(g1) - set(planted)
        assert set(c2) == set(g2)

    def test_clean_input_removes_nothing(self):
        data, g1, g2, _ = seed_structured(41, violators=False)
        c1, c2, report = clean_seed_genes(data, g1, g2, self.settings)
        assert report == []
        assert set(c1) == set(g1) and set(c2) == set(g2)

    def test_idempotent_on_its_own_output(self):
        data, g1, g2, _ = seed_structured(42)
        c1, c2, _ = clean_seed_genes(data, g1, g2, self.settings)
        c1b, c2b, report = clean_seed_genes(data, c1, c2, self.settings)
        assert report == []
        assert set(c1b) == set(c1) and set(c2b) == set(c2)

    def test_all_removed_raises(self):
        rng = np.random.default_rng(43)
        # neither block has any factor structure: everything is removed
        data = standardize_rows(rng.normal(size=(8, 60)))
        with pytest.raises(AllRemoved):
            clean_seed_genes(data, np.arange(4), np.arange(4, 8), self.settings)


def reference_mixture_mean(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean over the states where the indicator is on (0 where never on)."""
    count = mask.sum(axis=0)
    total = (values * mask).sum(axis=0)
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def reference_cleaning(draws: PosteriorDraws, g1: np.ndarray, g2: np.ndarray):
    """Seed-gene cleaning of the draws of its fit by hand: the inclusion
    probabilities and slab means of the loadings taken directly from the
    states, and one decision per member. Returns (kept 1, kept 2, report),
    or the AllRemoved it raises."""
    masks = draws.stack("load_mask").astype(float)
    incl = masks.mean(axis=0)
    est = reference_mixture_mean(draws.stack("loadings"), masks)
    in1 = np.arange(g1.size)
    in2 = np.arange(g1.size, g1.size + g2.size)
    direct = incl[in1, 0].mean() + incl[in2, 1].mean()
    swapped = incl[in1, 1].mean() + incl[in2, 0].mean()
    f1, f2 = (0, 1) if direct >= swapped else (1, 0)
    report, keep1, keep2 = [], [], []
    for name, members, local, own, other, keep in (
        ("G1", g1, in1, f1, f2, keep1),
        ("G2", g2, in2, f2, f1, keep2),
    ):
        voting = np.sign(est[local, own])[incl[local, own] > 0.5]
        majority = 1.0 if voting.sum() >= 0 else -1.0
        for k, feature in zip(local, members):
            if incl[k, own] <= 0.5:
                report.append(genomics.RemovalRecord(int(feature), name, "low_own_inclusion"))
            elif np.sign(est[k, own]) != majority:
                report.append(genomics.RemovalRecord(int(feature), name, "sign_mismatch"))
            elif incl[k, other] > 0.5:
                report.append(genomics.RemovalRecord(int(feature), name, "cross_loading"))
            else:
                keep.append(int(feature))
        if not keep:
            return AllRemoved(name)
    return np.asarray(keep1, dtype=int), np.asarray(keep2, dtype=int), report


def reference_selection(draws: PosteriorDraws, g1, g2) -> np.ndarray:
    incl = draws.stack("load_mask").astype(float).mean(axis=0)
    mask = (incl > 0.5).all(axis=1)
    mask[list(set(g1) | set(g2))] = False
    return np.flatnonzero(mask)


def broken_seed_groups(seed: int):
    """A 60x30 saddle dataset whose first group-1 member has its row's sign
    flipped and whose group 1 also holds an affected candidate, with the
    settings its pipeline runs under."""
    data, truth = generate_saddle_dataset(60, 30, 0.2, seed=seed)
    g1, g2 = truth.seed_groups[0], truth.seed_groups[1]
    values = np.array(data.values)
    values[g1[0]] *= -1
    data = DataMatrix(values, data.feature_ids, data.sample_ids)
    settings = McmcSettings(n_iters=60 + 10 * (seed % 3), burn_in=30, seed=seed)
    return data, np.append(g1, truth.affected[0]), g2, settings


@pytest.fixture
def chains_run(monkeypatch):
    """The draws of every chain the pipeline runs, in order."""
    runs, run = [], genomics.run_chain

    def recorded(sampler, sink=None):
        runs.append(run(sampler, sink))
        return runs[-1]

    monkeypatch.setattr(genomics, "run_chain", recorded)
    return runs


class TestPipelineDecisions:
    """Cleaning and selection decide as the hand-written reductions of their
    draws do: the same kept genes, removal records and candidates."""

    def test_cleaning_and_selection_match_the_per_member_reference(self, chains_run):
        reasons = set()
        for seed in range(1, 13):
            data, g1, g2, settings = broken_seed_groups(seed)
            try:
                got = clean_seed_genes(data, g1, g2, settings)
            except AllRemoved as exc:
                got = exc
            expected = reference_cleaning(chains_run[-1], np.sort(g1), np.sort(g2))
            if isinstance(expected, AllRemoved):
                assert isinstance(got, AllRemoved) and str(got) == str(expected)
            else:
                np.testing.assert_array_equal(got[0], expected[0])
                np.testing.assert_array_equal(got[1], expected[1])
                assert got[0].dtype == expected[0].dtype and got[1].dtype == expected[1].dtype
                assert got[2] == expected[2]
                assert all(type(r.reason) is str for r in got[2])
                reasons.update(r.reason for r in got[2])
            picked = select_candidate_genes(data, g1, g2, settings)
            np.testing.assert_array_equal(picked, reference_selection(chains_run[-1], g1, g2))
        assert reasons == {"low_own_inclusion", "sign_mismatch", "cross_loading"}

    def test_cleaning_reads_the_loading_rows_of_the_summary(self, chains_run, monkeypatch):
        used, estimates = [], genomics._loading_estimates

        def recorded(draws):
            used.append(estimates(draws))
            return used[-1]

        monkeypatch.setattr(genomics, "_loading_estimates", recorded)
        data, g1, g2, settings = broken_seed_groups(1)
        clean_seed_genes(data, g1, g2, settings)
        select_candidate_genes(data, g1, g2, settings)
        assert len(used) == len(chains_run) == 2
        for (est, incl), draws in zip(used, chains_run):
            loading = posterior_summary(draws).fields[0]
            assert loading.name == "loading"
            assert est.tobytes() == loading.estimate.tobytes()
            assert incl.tobytes() == loading.inclusion_prob.tobytes()
            assert est.shape == incl.shape == draws.values["loadings"].shape[1:]
            # where the slab dominates, the hand-written slab mean up to the
            # rounding of a sum over the states taken in another order; the
            # inclusion probability bit for bit
            masks = draws.stack("load_mask").astype(float)
            assert incl.tobytes() == masks.mean(axis=0).tobytes()
            slab = incl > 0.5
            assert slab.any() and (est[~slab] == 0).all()
            np.testing.assert_allclose(
                est[slab], reference_mixture_mean(draws.stack("loadings"), masks)[slab],
                rtol=len(draws) * np.finfo(float).eps, atol=0)


class TestSelectCandidateGenes:
    settings = McmcSettings(n_iters=200, burn_in=100, seed=2)

    def test_recovers_planted_two_factor_genes(self):
        data, g1, g2, both, single, null = candidate_structured(50)
        picked = select_candidate_genes(data, g1, g2, self.settings)
        hits = np.intersect1d(picked, both)
        assert hits.size >= 18
        assert np.intersect1d(picked, null).size == 0
        assert np.intersect1d(picked, np.concatenate([g1, g2])).size == 0

    def test_single_factor_genes_excluded(self):
        data, g1, g2, both, single, null = candidate_structured(51)
        picked = select_candidate_genes(data, g1, g2, self.settings)
        assert np.intersect1d(picked, single).size == 0


class TestPipelineStateCount:
    """Cleaning and selection refuse the draws ``posterior_summary`` refuses:
    too few retained states is ``InsufficientDraws``, not a decision."""

    @pytest.mark.parametrize("retained", [1, genomics.MIN_STATES - 1])
    def test_too_few_states_are_insufficient_draws(self, retained):
        data, g1, g2, _ = seed_structured(40)
        settings = McmcSettings(n_iters=2 + retained, burn_in=2, seed=1)
        message = f"^need at least {genomics.MIN_STATES} retained states, have {retained}$"
        with pytest.raises(InsufficientDraws, match=message):
            clean_seed_genes(data, g1, g2, settings)
        with pytest.raises(InsufficientDraws, match=message):
            select_candidate_genes(data, g1, g2, settings)


# ------------------------------------------------------------- detection

def stacked(states: list[McmcState]) -> dict[str, np.ndarray]:
    """The per-field arrays of a PosteriorDraws holding these states."""
    return {name: np.stack([getattr(s, name) for s in states]) for name in STATE_FIELDS
            if getattr(states[0], name) is not None}


def fake_draws(z_draws: np.ndarray, mult: bool = False) -> PosteriorDraws:
    """Minimal retained states carrying the given indicator draws."""
    S = z_draws.shape[0]
    m = z_draws.shape[1]
    states = []
    for k in range(S):
        z = z_draws[k].astype(np.int8)
        states.append(McmcState(
            loadings=np.zeros((m, 2)), scores=np.zeros((2, 3)),
            load_mask=np.zeros((m, 2), np.int8), load_prob=np.full((m, 2), 0.5),
            noise_var=np.ones(m),
            inter_mask=z, inter_prob=np.full(z.shape, 0.5),
            inter_loadings=np.zeros((m, z.shape[1])) if mult else None,
            inter_scores=np.zeros((z.shape[1], 3)) if mult else None,
            effects=None if mult else np.zeros((m, 3)),
        ))
    spec = mult_spec(2) if mult else __import__("factorint").gp_spec(1)
    return PosteriorDraws(spec=spec, values=stacked(states), burn_in=0, thin=1,
                          n_iters=S, seed=0)


class TestDetectInteractions:
    def test_all_zero_indicators_give_empty_set(self):
        draws = fake_draws(np.zeros((40, 5)))
        assert detect_interactions(draws, 0.5) == {}

    def test_sixty_percent_indicator(self):
        z = np.zeros((100, 3))
        z[:60, 1] = 1
        detected = detect_interactions(fake_draws(z), 0.5)
        assert detected == {1: pytest.approx(0.6)}

    def test_mult_any_pair_counts(self):
        z = np.zeros((10, 2, 3))  # (states, features, pairs)
        z[:7, 0, 2] = 1           # feature 0: pair 3 active in 70% of states
        z[:3, 1, 0] = 1           # feature 1: only 30%
        detected = detect_interactions(fake_draws(z, mult=True), 0.5)
        assert detected == {0: pytest.approx(0.7)}

    def test_threshold_validated(self):
        from factorint import ConfigError
        with pytest.raises(ConfigError):
            detect_interactions(fake_draws(np.zeros((10, 2))), 1.0)


# ---------------------------------------------------------- permutation

class TestOverlapPermutationTest:
    def test_saturated_counts_give_p_one(self):
        inp = OverlapTestInput(population_size=20, per_dataset_counts=(20, 20, 20),
                               observed_overlap=60, n_replicates=50)
        p, reps = overlap_permutation_test(inp, seed=0)
        assert p == 1.0
        assert reps.values.tolist() == [60]
        assert reps.counts.tolist() == [50]

    def test_two_dataset_mean_matches_hypergeometric_expectation(self):
        inp = OverlapTestInput(population_size=200, per_dataset_counts=(40, 30),
                               observed_overlap=10, n_replicates=4000)
        p, reps = overlap_permutation_test(inp, seed=3)
        expected = 40 * 30 / 200.0
        se = reps.sd / np.sqrt(inp.n_replicates)
        assert abs(reps.mean - expected) < 3 * se

    def test_monotone_in_observed_overlap(self):
        base = dict(population_size=100, per_dataset_counts=(20, 25, 30),
                    n_replicates=3000)
        previous = 1.1
        for observed in (0, 5, 10, 15, 25, 60):
            p, _ = overlap_permutation_test(
                OverlapTestInput(observed_overlap=observed, **base), seed=7)
            assert p <= previous
            previous = p

    def test_seed_exchangeability(self):
        inp = OverlapTestInput(population_size=150, per_dataset_counts=(30, 40),
                               observed_overlap=9, n_replicates=6000)
        p1, _ = overlap_permutation_test(inp, seed=1)
        p2, _ = overlap_permutation_test(inp, seed=2)
        # binomial standard error at the observed rate
        pooled = (p1 + p2) / 2
        se = np.sqrt(2 * pooled * (1 - pooled) / inp.n_replicates)
        assert abs(p1 - p2) <= 3 * se + 1e-12

    def test_determinism(self):
        inp = OverlapTestInput(population_size=50, per_dataset_counts=(10, 12),
                               observed_overlap=3, n_replicates=500)
        p1, r1 = overlap_permutation_test(inp, seed=11)
        p2, r2 = overlap_permutation_test(inp, seed=11)
        assert p1 == p2
        np.testing.assert_array_equal(r1.values, r2.values)
        np.testing.assert_array_equal(r1.counts, r2.counts)

    def test_population_must_stay_below_the_hypergeometric_limit(self):
        with pytest.raises(ConfigError):
            OverlapTestInput(population_size=10**9, per_dataset_counts=(10, 10),
                             observed_overlap=0)

    def test_large_population_needs_no_population_sized_memory(self):
        # the per-replicate loop needed a 2 GB boolean array for this input
        inp = OverlapTestInput(population_size=10**9 - 1, per_dataset_counts=(1000, 1000),
                               observed_overlap=0, n_replicates=2000)
        t0 = time.perf_counter()
        p, reps = overlap_permutation_test(inp, seed=5)
        assert time.perf_counter() - t0 < 1.0
        assert p == 1.0
        assert reps.counts.sum() == 2000

    PAPER = dict(population_size=3704, per_dataset_counts=(314, 170, 244, 255),
                 observed_overlap=136)

    def test_memory_does_not_grow_with_the_replicate_count(self):
        # storing every replicate (and a float copy for the sd) added 8 bytes
        # or more per replicate: over 7 MB between these two counts
        peaks = []
        for n in (50_000, 500_000):
            tracemalloc.start()
            try:
                overlap_permutation_test(OverlapTestInput(n_replicates=n, **self.PAPER), seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6, f"peaks {peaks[0] / 1e6:.2f}, {peaks[1] / 1e6:.2f} MB"

    def test_statistics_are_those_of_the_replicates_the_histogram_lists(self):
        inp = OverlapTestInput(n_replicates=30_000, **self.PAPER)
        p, reps = overlap_permutation_test(replace(inp, observed_overlap=110), seed=9)
        replicates = np.repeat(reps.values, reps.counts)
        assert replicates.size == inp.n_replicates
        assert reps.mean == replicates.mean()
        assert reps.sd == pytest.approx(replicates.std(ddof=1), rel=1e-13)
        assert reps.n_at_least_observed == np.count_nonzero(replicates >= 110)
        assert p == reps.n_at_least_observed / inp.n_replicates

    @pytest.mark.parametrize("observed, expected", [(0, 1.0), (10**6, 0.0)])
    def test_observed_outside_the_histogram(self, observed, expected):
        inp = replace(OverlapTestInput(n_replicates=20_000, **self.PAPER),
                      observed_overlap=observed)
        p, reps = overlap_permutation_test(inp, seed=6)
        assert not reps.values[0] <= observed <= reps.values[-1]
        assert p == expected
        assert reps.n_at_least_observed == expected * inp.n_replicates

    def test_single_replicate(self):
        p, reps = overlap_permutation_test(OverlapTestInput(n_replicates=1, **self.PAPER),
                                           seed=2)
        assert reps.counts.tolist() == [1]
        assert reps.mean == float(reps.values[0])
        assert reps.sd == 0.0
        assert p == float(reps.values[0] >= 136)

    def test_histogram_spans_only_the_overlaps_drawn(self):
        # twelve sets of 300 in 1000: overlaps near C(12, 2) * 90 = 5940
        inp = OverlapTestInput(population_size=1000, per_dataset_counts=(300,) * 12,
                               observed_overlap=0, n_replicates=20_000)
        _, reps = overlap_permutation_test(inp, seed=8)
        assert reps.counts[0] > 0 and reps.counts[-1] > 0
        assert reps.counts.size == reps.values[-1] - reps.values[0] + 1
        np.testing.assert_array_equal(np.diff(reps.values), 1)
        assert reps.values[0] > 5000
        assert reps.counts.sum() == inp.n_replicates

    def test_tally_widens_the_histogram_both_ways(self):
        lowest, counts = None, np.zeros(0, dtype=np.int64)
        for block in ([5, 6], [3], [9], [4, 4], [6]):
            lowest, counts = genomics._tally(np.array(block), lowest, counts)
        assert lowest == 3
        assert counts.tolist() == [1, 2, 1, 2, 0, 0, 1]


def loop_overlaps(inp: OverlapTestInput, seed: int) -> np.ndarray:
    """Reference null: each replicate draws every set with ``rng.choice`` and
    counts the pairwise intersections (the sampler's former implementation)."""
    rng = stream(seed, 0, "overlap")
    n_sets = len(inp.per_dataset_counts)
    overlaps = np.empty(inp.n_replicates, dtype=np.int64)
    members = np.zeros((n_sets, inp.population_size), dtype=bool)
    for k in range(inp.n_replicates):
        members[:] = False
        for d, count in enumerate(inp.per_dataset_counts):
            members[d, rng.choice(inp.population_size, size=count, replace=False)] = True
        overlaps[k] = sum(int(np.count_nonzero(members[a] & members[b]))
                          for a in range(n_sets - 1) for b in range(a + 1, n_sets))
    return overlaps


def exact_overlap_pmf(population: int, counts: tuple[int, int, int]) -> np.ndarray:
    """Exact pmf of the summed pairwise overlap of three uniform random sets,
    by enumeration; the first set is fixed to its first elements by symmetry."""
    first = set(range(counts[0]))
    hist = np.zeros(sum(counts) + 1)
    for b in combinations(range(population), counts[1]):
        for c in combinations(range(population), counts[2]):
            b, c = set(b), set(c)
            hist[len(first & b) + len(first & c) + len(b & c)] += 1
    return hist / hist.sum()


class TestOverlapNullDistribution:
    """The sampler and the reference loop against the exact null."""

    TINY = dict(population_size=8, per_dataset_counts=(3, 4, 5), observed_overlap=0)

    @pytest.fixture(scope="class")
    def tiny_pmf(self):
        return exact_overlap_pmf(8, (3, 4, 5))

    @staticmethod
    def chi_square_p(values: np.ndarray, counts: np.ndarray, pmf: np.ndarray) -> float:
        """Chi-square p-value of the histogram (``counts`` of each of
        ``values``) against ``pmf``, which must cover every value drawn."""
        assert values.max() < pmf.size
        observed = np.zeros(pmf.size, dtype=np.int64)
        observed[values] = counts
        assert observed[pmf == 0].sum() == 0
        support = pmf > 0
        return stats.chisquare(observed[support], pmf[support] * counts.sum()).pvalue

    def test_enumeration_covers_every_combination(self, tiny_pmf):
        # 70 * 56 equally likely pairs of later sets, support 4..10
        assert np.flatnonzero(tiny_pmf).tolist() == list(range(4, 11))
        np.testing.assert_allclose(tiny_pmf * 70 * 56, np.rint(tiny_pmf * 70 * 56))

    def test_sampler_matches_exact_pmf(self, tiny_pmf):
        inp = OverlapTestInput(n_replicates=100_000, **self.TINY)
        _, reps = overlap_permutation_test(inp, seed=21)
        assert self.chi_square_p(reps.values, reps.counts, tiny_pmf) > 1e-3

    def test_reference_loop_matches_exact_pmf(self, tiny_pmf):
        inp = OverlapTestInput(n_replicates=20_000, **self.TINY)
        values, counts = np.unique(loop_overlaps(inp, seed=22), return_counts=True)
        assert self.chi_square_p(values, counts, tiny_pmf) > 1e-3

    def test_sampler_moments_at_the_paper_numbers(self):
        n, c = 3704, (314, 170, 244, 255)
        pairs = [(c[a], c[b]) for a in range(len(c)) for b in range(a + 1, len(c))]
        mean = sum(x * y for x, y in pairs) / n
        # pairwise overlaps are uncorrelated, so their hypergeometric variances add
        var = sum(x * y * (n - x) * (n - y) for x, y in pairs) / (n * n * (n - 1))
        assert mean == pytest.approx(96.4136, abs=5e-5)
        assert np.sqrt(var) == pytest.approx(9.14895, abs=5e-6)
        inp = OverlapTestInput(population_size=n, per_dataset_counts=c,
                               observed_overlap=0, n_replicates=100_000)
        _, reps = overlap_permutation_test(inp, seed=23)
        r = inp.n_replicates
        assert abs(reps.mean - mean) < 4 * np.sqrt(var / r)
        assert abs(reps.sd - np.sqrt(var)) < 4 * np.sqrt(var / (2 * (r - 1)))


# ------------------------------------------------------------ summaries

def gaussian_draws(mu: float, sd: float, n_states: int, seed: int) -> PosteriorDraws:
    rng = stream(seed, 0, "fake")
    states = []
    for _ in range(n_states):
        states.append(McmcState(
            loadings=np.array([[rng.normal(mu, sd), 0.0]]),
            scores=rng.normal(size=(2, 2)),
            load_mask=np.array([[1, 0]], np.int8),
            load_prob=np.full((1, 2), 0.5),
            noise_var=np.array([1.0]),
            inter_mask=np.array([0], np.int8),
            inter_prob=np.array([0.5]),
            effects=np.zeros((1, 2)),
        ))
    return PosteriorDraws(spec=__import__("factorint").gp_spec(1), values=stacked(states),
                          burn_in=0, thin=1, n_iters=n_states, seed=seed)


class TestPosteriorSummary:
    def test_requires_twenty_states(self):
        with pytest.raises(InsufficientDraws):
            posterior_summary(gaussian_draws(0.0, 1.0, 19, 0))

    def test_spike_dominated_parameter(self):
        z = np.zeros((50, 4))
        summary = posterior_summary(fake_draws(z))
        rows = summary.by_name()
        row = rows["effect[0,0]"]
        assert row.estimate == 0.0 and row.ci_low == 0.0 and row.ci_high == 0.0
        assert row.inclusion_prob == 0.0

    def test_interval_is_numpys_percentile_bit_for_bit(self):
        # rows of ties, a NaN, and down to one state, which fits do not give
        rng = np.random.default_rng(71)
        for trial in range(300):
            block = rng.normal(scale=rng.uniform(0.01, 100),
                               size=(int(rng.integers(1, 20)), int(rng.integers(1, 300))))
            if trial % 3 == 0:
                block = np.round(block, 1)
            if trial % 7 == 0:
                block[rng.integers(block.shape[0]), rng.integers(block.shape[1])] = np.nan
            _, lo, hi = genomics._interval(block)
            np.testing.assert_array_equal(np.stack([lo, hi]),
                                          np.percentile(block, [2.5, 97.5], axis=1))

    def test_interval_uses_dominant_component_only(self):
        # indicator on in 80% of states; the retained interval comes from the
        # slab states alone
        rng = np.random.default_rng(60)
        S, m = 200, 1
        states = []
        values = np.where(np.arange(S) < 160, rng.normal(5.0, 0.1, S), 0.0)
        order = rng.permutation(S)
        values = values[order]
        for k in range(S):
            on = values[k] != 0.0
            states.append(McmcState(
                loadings=np.array([[values[k], 0.0]]),
                scores=np.zeros((2, 2)),
                load_mask=np.array([[1 if on else 0, 0]], np.int8),
                load_prob=np.full((1, 2), 0.5),
                noise_var=np.ones(1),
                inter_mask=np.array([0], np.int8),
                inter_prob=np.array([0.5]),
                effects=np.zeros((1, 2)),
            ))
        draws = PosteriorDraws(spec=__import__("factorint").gp_spec(1), values=stacked(states),
                               burn_in=0, thin=1, n_iters=S, seed=0)
        row = posterior_summary(draws).by_name()["loading[0,1]"]
        assert row.inclusion_prob == pytest.approx(0.8)
        assert 4.5 < row.estimate < 5.5
        assert row.ci_low > 4.0  # the spike zeros do not drag the interval down

    def test_coverage_of_plain_intervals(self):
        # calibration: truth from the prior, one observation, exact Gaussian
        # posterior; the percentile interval of posterior draws should cover
        # the truth about 95% of the time over joint replications
        covered = 0
        reps = 300
        meta_rng = np.random.default_rng(62)
        for rep in range(reps):
            true_value = meta_rng.normal()
            y = true_value + meta_rng.normal()
            post_mean, post_sd = y / 2.0, np.sqrt(0.5)
            draws = gaussian_draws(post_mean, post_sd, 200, rep)
            row = posterior_summary(draws).by_name()["loading[0,1]"]
            if row.ci_low <= true_value <= row.ci_high:
                covered += 1
        assert 0.91 <= covered / reps <= 0.985

    def test_csv_columns(self, tmp_path):
        summary = posterior_summary(gaussian_draws(1.0, 0.5, 30, 5))
        path = tmp_path / "summary.csv"
        summary.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "parameter,role,estimate,ci_low,ci_high,inclusion_prob,converged"


def reference_two_window_converged(trace: np.ndarray, z_limit: float = 3.0) -> bool:
    """Two-window diagnostic of one 1-D trace (the former implementation)."""
    trace = np.asarray(trace, dtype=float)
    s = trace.shape[0]
    k1 = max(1, s // 10)
    first = trace[:k1]
    last = trace[s - max(1, s // 2):]
    v1 = first.var(ddof=1) / first.size if first.size > 1 else 0.0
    v2 = last.var(ddof=1) / last.size if last.size > 1 else 0.0
    diff = abs(first.mean() - last.mean())
    denom = np.sqrt(v1 + v2)
    scale = 1e-12 * (1.0 + abs(first.mean()))
    if denom <= scale:
        return bool(diff <= scale)
    return bool(diff / denom < z_limit)


def reference_summary(draws: PosteriorDraws) -> tuple[ParameterSummary, ...]:
    """Reference summary: one percentile and diagnostic call per parameter,
    looping over every index of every field (the former implementation)."""

    def plain(name, role, trace):
        lo, hi = np.percentile(trace, [2.5, 97.5])
        return ParameterSummary(name, role, float(trace.mean()), float(lo), float(hi),
                                None, reference_two_window_converged(trace))

    def mixture(name, role, trace, indicator):
        incl = float(indicator.mean())
        if incl > 0.5:
            sub = trace[indicator.astype(bool)]
            lo, hi = np.percentile(sub, [2.5, 97.5])
            est = float(sub.mean())
        else:
            est, lo, hi = 0.0, 0.0, 0.0
        return ParameterSummary(name, role, est, float(lo), float(hi), incl,
                                reference_two_window_converged(trace))

    loadings = draws.stack("loadings")
    load_mask = draws.stack("load_mask")
    scores = draws.stack("scores")
    m, L = loadings.shape[1], loadings.shape[2]
    fids = draws.feature_ids or tuple(str(i) for i in range(m))
    sids = draws.sample_ids or tuple(str(j) for j in range(scores.shape[2]))
    rows = []
    for i in range(m):
        for l in range(L):
            rows.append(mixture(f"loading[{fids[i]},{l + 1}]", "loading",
                                loadings[:, i, l], load_mask[:, i, l]))
    for l in range(scores.shape[1]):
        for j in range(scores.shape[2]):
            rows.append(plain(f"score[{l + 1},{sids[j]}]", "factor_score", scores[:, l, j]))
    if draws.spec.is_mult:
        inter = draws.stack("inter_loadings")
        imask = draws.stack("inter_mask")
        for i in range(m):
            for t in range(inter.shape[2]):
                rows.append(mixture(f"inter_loading[{fids[i]},{t + 1}]",
                                    "interaction_loading", inter[:, i, t], imask[:, i, t]))
        iscores = draws.stack("inter_scores")
        for t in range(iscores.shape[1]):
            for j in range(iscores.shape[2]):
                rows.append(plain(f"inter_score[{t + 1},{sids[j]}]", "interaction_score",
                                  iscores[:, t, j]))
    else:
        effects = draws.stack("effects")
        imask = draws.stack("inter_mask")
        for i in range(m):
            for j in range(effects.shape[2]):
                rows.append(mixture(f"effect[{fids[i]},{sids[j]}]", "interaction_effect",
                                    effects[:, i, j], imask[:, i]))
    noise = draws.stack("noise_var")
    for i in range(m):
        rows.append(plain(f"noise_var[{fids[i]}]", "noise_variance", noise[:, i]))
    return tuple(rows)


def assert_same_summary(draws: PosteriorDraws) -> PosteriorSummary:
    """The summary equals the per-parameter reference row by row, down to the
    type and bits of every field (``repr`` tells 0.0 from -0.0 and a numpy
    scalar from a Python one)."""
    got, expected = posterior_summary(draws), reference_summary(draws)
    assert len(got.rows) == len(expected)
    differ = [(a, b) for a, b in zip(got.rows, expected) if repr(a) != repr(b)]
    assert not differ, f"{len(differ)} rows differ, the first: {differ[0]}"
    return got


def saddle_chains(spec, seed: int, n_chains: int = 1, thin: int = 1) -> list[PosteriorDraws]:
    """Draws of short seeded fits of a 20x15 saddle dataset, one per chain."""
    data, truth = generate_saddle_dataset(20, 15, frac_affected=0.3, seed=seed)
    groups = {k: frozenset(int(i) for i in v) for k, v in truth.seed_groups.items()}
    spec = replace(spec, seed_groups=groups)
    settings = McmcSettings(n_iters=60, burn_in=20, thin=thin, seed=seed)
    return [fit_spec(spec, data, settings, chain=c) for c in range(n_chains)]


def pooled(chains: list[PosteriorDraws]) -> PosteriorDraws:
    """The chains concatenated along the state axis into one draws object."""
    return replace(chains[0], values={name: np.concatenate([d.values[name] for d in chains])
                                      for name in chains[0].values})


def saddle_fit(spec, seed: int, n_chains: int = 1, thin: int = 1) -> PosteriorDraws:
    """Draws of a short seeded fit of a 20x15 saddle dataset, the chains
    pooled."""
    return pooled(saddle_chains(spec, seed, n_chains, thin))


class TestSummaryMatchesReference:
    """The one-pass-per-field summary against the per-parameter reference."""

    @pytest.mark.parametrize("spec", [gp_spec(1), gp_spec(2), gp_spec(5), mult_spec(1),
                                      mult_spec(2)],
                             ids=["gp1", "gp2", "gp5", "mult1", "mult2"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_fitted_draws(self, spec, seed):
        summary = assert_same_summary(saddle_fit(spec, seed))
        incl = [r.inclusion_prob for r in summary.rows if r.inclusion_prob is not None]
        # the slab path runs, for more than one count of slab states
        assert len({p for p in incl if 0.5 < p}) > 1

    def test_pooled_two_chain_draws(self):
        draws = saddle_fit(mult_spec(1), 5, n_chains=2, thin=2)
        assert len(draws) == 40
        assert_same_summary(draws)

    def test_constructed_indicator_counts_and_constant_traces(self):
        rng = np.random.default_rng(70)
        S, m, n = 40, 6, 3
        # slab states per feature: none, one, half (spike-dominated), just over
        # half twice (one group of two rows), all but one, all
        counts = [0, 1, S // 2, S // 2 + 1, S // 2 + 1, S - 1]
        mask = np.zeros((S, m), np.int8)
        for i, k in enumerate(counts):
            mask[rng.permutation(S)[:k], i] = 1
        mask[:, -1] = 1
        effects = rng.normal(size=(S, m, n)) * mask[:, :, None]
        effects[:, 3, 1] = np.where(mask[:, 3], 2.5, 0.0)  # constant slab draws
        loadings = rng.normal(size=(S, m, 2))
        loadings[:, 5, 0] = -1.25                           # a constant trace
        load_mask = np.ones((S, m, 2), np.int8)
        load_mask[:, 4, 1] = mask[:, 4]
        scores = rng.normal(size=(S, 2, n))
        scores[:, 0, 2] = 0.75
        noise_var = np.full((S, m), 1.5)
        draws = PosteriorDraws(spec=gp_spec(1), burn_in=0, thin=1, n_iters=S, seed=0, values={
            "loadings": loadings, "scores": scores, "load_mask": load_mask,
            "load_prob": np.full((S, m, 2), 0.5), "noise_var": noise_var,
            "inter_mask": mask, "inter_prob": np.full((S, m), 0.5), "effects": effects})
        rows = assert_same_summary(draws).by_name()
        assert [rows[f"effect[{i},0]"].inclusion_prob * S for i in range(m)] \
            == pytest.approx(counts[:-1] + [S])
        assert rows["effect[2,0]"].estimate == 0.0
        assert rows["effect[3,1]"].ci_low == rows["effect[3,1]"].ci_high == 2.5
        assert rows["loading[5,1]"].converged and rows["noise_var[0]"].converged


def block_of_rows(states: int) -> int:
    """Parameters per block of the summary, for traces of ``states`` states."""
    return max(1, genomics._SUMMARY_BLOCK // (8 * states))


class TestBlockedSummary:
    """The summary reduced in blocks of parameters, from one or more chains."""

    @pytest.mark.parametrize("spec, field", [(gp_spec(1), "effects"),
                                             (mult_spec(2), "inter_loadings")],
                             ids=["gp1", "mult2"])
    def test_blocks_that_split_an_equal_count_group(self, spec, field, monkeypatch):
        draws = saddle_fit(spec, 3)
        S = len(draws)
        monkeypatch.setattr(genomics, "_SUMMARY_BLOCK", 7 * 8 * S)
        assert block_of_rows(S) == 7
        values = draws.stack(field)
        mask = draws.stack("inter_mask").reshape(S, values.shape[1], -1)
        counts = np.broadcast_to(mask, values.shape).reshape(S, -1).sum(axis=0)
        block = np.arange(counts.size) // block_of_rows(S)
        dominant = counts > S / 2
        assert block[-1] > 1
        # the dominant parameters of some slab count k sit in more than one block
        assert any(np.unique(block[dominant & (counts == k)]).size > 1
                   for k in np.unique(counts[dominant]))
        assert_same_summary(draws)

    @pytest.mark.parametrize("rows_per_block", [None, 5])
    @pytest.mark.parametrize("spec", [gp_spec(1), mult_spec(1)], ids=["gp1", "mult1"])
    def test_chains_summarise_as_their_concatenation(self, spec, rows_per_block, tmp_path,
                                                     monkeypatch):
        chains = saddle_chains(spec, 5, n_chains=2, thin=2)
        if rows_per_block is not None:
            states = sum(map(len, chains))
            monkeypatch.setattr(genomics, "_SUMMARY_BLOCK", rows_per_block * 8 * states)
        got = posterior_summary(*chains)
        expected = assert_same_summary(pooled(chains))
        assert [repr(r) for r in got.rows] == [repr(r) for r in expected.rows]
        got.write_csv(tmp_path / "chains.csv")
        expected.write_csv(tmp_path / "pooled.csv")
        assert (tmp_path / "chains.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()

    @pytest.mark.parametrize("rows_per_block", [None, 3])
    @pytest.mark.parametrize("spec", [gp_spec(1), gp_spec(2), mult_spec(1)],
                             ids=["gp1", "gp2", "mult1"])
    def test_chains_read_from_their_files_summarise_as_held(self, spec, rows_per_block,
                                                            tmp_path, monkeypatch):
        chains = saddle_chains(spec, 5, n_chains=2, thin=2)
        for draws in chains:
            fio.persist_draws(draws, tmp_path / f"draws_{draws.chain}.bin")
        opened = [fio.open_draws(tmp_path / f"draws_{c}.bin") for c in range(2)]
        assert all(isinstance(v, fio.BundleField) for v in opened[0].values.values())
        if rows_per_block is not None:
            states = sum(map(len, chains))
            monkeypatch.setattr(genomics, "_SUMMARY_BLOCK", rows_per_block * 8 * states)
        got, expected = posterior_summary(*opened), posterior_summary(*chains)
        assert len(got.rows) == len(expected.rows) > 0
        assert [repr(r) for r in got.rows] == [repr(r) for r in expected.rows]
        got.write_csv(tmp_path / "opened.csv")
        expected.write_csv(tmp_path / "held.csv")
        assert (tmp_path / "opened.csv").read_bytes() == (tmp_path / "held.csv").read_bytes()

    def test_min_states_counts_the_pooled_states(self):
        a, b = gaussian_draws(0.0, 1.0, 12, 1), gaussian_draws(0.0, 1.0, 12, 2)
        with pytest.raises(InsufficientDraws):
            posterior_summary(a)
        assert [repr(r) for r in posterior_summary(a, b).rows] \
            == [repr(r) for r in posterior_summary(pooled([a, b])).rows]

    @pytest.mark.parametrize("change", [
        {"spec": gp_spec(2)}, {"feature_ids": ("a",)}, {"sample_ids": ("x", "y")},
        {"burn_in": 1}, {"thin": 2}, {"n_iters": 31}, {"noise_var": np.ones((30, 2))},
        {"chain": 0}], ids=["spec", "feature_ids", "sample_ids", "burn_in", "thin", "n_iters",
                             "field_shapes", "repeated_chain"])
    def test_chains_of_different_models_rejected(self, change):
        a = gaussian_draws(0.0, 1.0, 30, 1)
        changed = {"chain": 1, **change}
        if "noise_var" in changed:
            changed["values"] = {**a.values, "noise_var": changed.pop("noise_var")}
        b = replace(a, **changed)
        for pool in (join_draws, posterior_summary):
            with pytest.raises(ConfigError):
                pool(a, b)

    def test_chains_of_other_feature_ids_rejected(self):
        # the same values under other ids are another dataset: pooled, every
        # row would carry the first chain's ids
        values = np.random.default_rng(72).normal(size=(8, 6))
        settings = McmcSettings(n_iters=30, burn_in=10)
        a = fit_spec(gp_spec(1), standardize_rows(values), settings, chain=0)
        b = fit_spec(gp_spec(1), standardize_rows(values, [f"other{i}" for i in range(8)]),
                     settings, chain=1)
        assert a.feature_ids[0] == "f0000" and b.feature_ids[0] == "other0"
        with pytest.raises(ConfigError, match="feature_ids"):
            posterior_summary(a, b)

    def test_peak_memory_is_bounded_by_the_block_not_the_field(self):
        draws = wide_gp_draws(2000, seed=71)
        field_bytes = draws.values["effects"].nbytes
        assert field_bytes >= 32_000_000
        rows, peak = traced_summary(draws)
        assert len(rows) == 20 * 2 + 2 * 100 + 20 * 100 + 20
        assert peak < field_bytes / 8, f"peak {peak / 1e6:.1f} MB"


def wide_gp_draws(S: int, seed: int, chain: int = 0) -> PosteriorDraws:
    """Draws of S states of a gp model on 20 features x 100 samples, whose
    interaction inclusion rates run from 0.2 (spike-dominated) to 1."""
    rng = np.random.default_rng(seed)
    m, n = 20, 100
    effects = rng.normal(size=(S, m, n))
    mask = (rng.random((S, m)) < np.linspace(0.2, 1.0, m)).astype(np.int8)
    effects *= mask[:, :, None]
    return PosteriorDraws(spec=gp_spec(1), burn_in=0, thin=1, n_iters=S, seed=0, chain=chain,
                          rw_step_final=0.1, values={
        "loadings": rng.normal(size=(S, m, 2)), "scores": rng.normal(size=(S, 2, n)),
        "load_mask": np.ones((S, m, 2), np.int8), "load_prob": np.full((S, m, 2), 0.5),
        "noise_var": np.ones((S, m)), "inter_mask": mask,
        "inter_prob": np.full((S, m), 0.5), "effects": effects})


def traced_summary(draws: PosteriorDraws) -> tuple[tuple, int]:
    """The summary rows of ``draws`` and the ``tracemalloc`` peak of making them."""
    tracemalloc.start()
    try:
        rows = posterior_summary(draws).rows
        return rows, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestJoinedChains:
    """``join_draws``: the chains of one fit read as one draws object."""

    @pytest.mark.parametrize("spec", [gp_spec(1), gp_spec(2), mult_spec(1)],
                             ids=["gp1", "gp2", "mult1"])
    def test_reductions_of_the_join_are_those_of_the_concatenation(self, spec):
        chains = saddle_chains(spec, 5, n_chains=2, thin=2)
        joined, held = join_draws(*chains), pooled(chains)
        assert len(joined) == len(held) == 40
        assert [repr(r) for r in posterior_summary(joined).rows] \
            == [repr(r) for r in posterior_summary(held).rows]
        assert detect_interactions(joined, 0.3) == detect_interactions(held, 0.3)
        for reduce in (interaction_probabilities, posterior_mean_scores, posterior_mean_effects,
                       lambda draws: posterior_mean_effects(draws, slice(6, 7))):
            assert same_bits(reduce(joined), reduce(held))

    def test_the_join_of_one_chain_is_that_chain(self):
        draws = gaussian_draws(0.0, 1.0, 30, 1)
        assert join_draws(draws) is draws

    def test_the_join_of_file_backed_chains_holds_no_pooled_copy(self, tmp_path):
        for chain in range(2):
            fio.persist_draws(wide_gp_draws(400, seed=73 + chain, chain=chain),
                              tmp_path / f"draws_{chain}.bin")
        chains = [fio.open_draws(tmp_path / f"draws_{chain}.bin") for chain in range(2)]
        field_bytes = 400 * 20 * 100 * 8
        assert field_bytes >= 6_000_000
        rows, peak = traced_summary(join_draws(*chains))
        assert len(rows) == 20 * 2 + 2 * 100 + 20 * 100 + 20
        assert peak < field_bytes, f"peak {peak / 1e6:.1f} MB"


class TestTwoWindowDiagnostic:
    def test_stationary_trace_converges(self):
        rng = np.random.default_rng(61)
        assert two_window_converged(rng.normal(size=400))

    def test_trending_trace_flagged(self):
        assert not two_window_converged(np.linspace(0.0, 5.0, 400))

    def test_constant_trace_converges(self):
        assert two_window_converged(np.full(100, 3.3))

    def test_block_gives_one_flag_per_row(self):
        rng = np.random.default_rng(62)
        block = np.stack([rng.normal(size=400), np.linspace(0.0, 5.0, 400),
                          np.full(400, 3.3), np.r_[np.zeros(40), np.ones(360)]])
        flags = two_window_converged(block)
        assert flags.tolist() == [True, False, True, False]
        assert flags.tolist() == [reference_two_window_converged(row) for row in block]
