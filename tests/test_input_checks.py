"""Every check on input from outside the program raises its package error.

One case per check that only a library caller reaches: the shapes of the
data matrix and the annotation, the annotation reader, the seed-gene
helpers, a sampler given the other family's spec, the prior layout, the
kernel, and each number a library caller passes that is not one, not an
integer or out of bounds: refused with a package error, never truncated.
The checks the CLI reaches run through it in ``test_io_cli``, which also
asserts the single ``ERROR`` line.
"""

import numpy as np
import pytest

from factorint import (
    Annotation,
    BetaTable,
    ConfigError,
    DataMatrix,
    Family,
    GpChain,
    InterProbModel,
    InvalidFactorCount,
    InvalidFraction,
    McmcSettings,
    MultChain,
    OverlapTestInput,
    ShapeMismatch,
    SpecConflict,
    clean_seed_genes,
    detect_interactions,
    generate_hidden_factor_dataset,
    generate_saddle_dataset,
    gp_marginal_loglik_ratio,
    gp_spec,
    mult_spec,
    overlap_permutation_test,
    run_mult_chain,
    se_kernel,
    seed_gene_window,
    select_candidate_genes,
    standardize_rows,
)
from factorint import io as fio
from factorint.prior import build_layout


def small_data(m=6, n=5):
    return standardize_rows(np.random.default_rng(3).normal(size=(m, n)))


def write(path, text: str):
    path.write_text(text, encoding="utf-8")
    return path


ANNOTATION = Annotation(("p1", "p2", "p3"), ("1", "1", "2"), np.array([10, 50, 10]))

# name -> (call, error class, message pattern); ``call`` takes a scratch directory
INPUT_CHECKS = {
    "ids_against_shape": (lambda d: DataMatrix(np.eye(2), ("a", "b", "c"), ("x", "y")),
                          ConfigError, "identifier lengths"),
    "annotation_lengths": (lambda d: Annotation(("p1", "p2"), ("1",), np.array([1, 2])),
                           ConfigError, "mismatched lengths"),
    "standardize_one_axis": (lambda d: standardize_rows(np.arange(4.0)), ConfigError,
                             "two-dimensional"),
    "mult_approach_3": (lambda d: mult_spec(3), SpecConflict, "approach must be 1 or 2, got 3"),
    "negative_window": (lambda d: seed_gene_window(ANNOTATION, "1", 10, -1), ConfigError,
                        "half_width must be >= 0, got -1"),
    **{f"{function.__name__}_seed_groups_{name}": (
        lambda d, function=function, group2=group2: function(small_data(), [0, 1], group2,
                                                             McmcSettings()),
        SpecConflict, match)
       for function in (clean_seed_genes, select_candidate_genes)
       for name, group2, match in (("empty", [], "^seed group 1 is empty$"),
                                   ("overlapping", [1, 2],
                                    r"^seed groups overlap on features \[1\]$"))},
    **{f"{function.__name__}_seed_index_{name}": (
        lambda d, function=function, index=index: function(small_data(), [0, index], [2, 3],
                                                           McmcSettings()),
        SpecConflict, match)
       for function in (clean_seed_genes, select_candidate_genes)
       for name, index, match in (("negative", -1, "^seed feature index must be >= 0, got -1$"),
                                  ("past_the_data", 6, r"seed feature index 6 outside 0\.\.5"))},
    "annotation_short_row": (
        lambda d: fio.read_annotation(write(d / "a.csv", "probe_id,chromosome,position\np1,1\n")),
        ConfigError, ":2: expected 3 cells"),
    "annotation_position_text": (
        lambda d: fio.read_annotation(write(d / "a.csv",
                                            "probe_id,chromosome,position\np1,1,12\np2,1,x\n")),
        ConfigError, ":3: invalid literal"),
    "mult_chain_of_a_gp_spec": (lambda d: MultChain(gp_spec(1), small_data()), SpecConflict,
                                "MultChain requires a multiplicative family spec"),
    "gp_chain_of_a_mult_spec": (lambda d: GpChain(mult_spec(2), small_data()), SpecConflict,
                                "GpChain requires a gp family spec"),
    "fixed_load_prob_outside": (
        lambda d: build_layout(mult_spec(2, fixed_load_prob={(6, 0): 1.0}), 6), SpecConflict,
        r"fixed loading probability index \(6, 0\) outside the shape \(6, 2\)"),
    "fixed_load_prob_factor_outside": (
        lambda d: build_layout(mult_spec(2, fixed_load_prob={(0, 2): 0.0}), 6), SpecConflict,
        r"index \(0, 2\) outside the shape \(6, 2\)"),
    "fixed_inter_prob_outside": (
        lambda d: build_layout(gp_spec(1, fixed_inter_prob={-1: 0.0}), 6), SpecConflict,
        r"fixed interaction probability index \(-1,\) outside the shape \(6,\)"),
    # a count, index or positive value of a spec that is not one: refused, not
    # truncated or failing with a bare Python error
    **{f"spec_{name}": (lambda d, make=make: make(), error, f"^{match}$")
       for name, make, error, match in (
           ("fractional_factor_count", lambda: mult_spec(2, n_factors=2.5), InvalidFactorCount,
            "n_factors must be an integer, got 2.5"),
           ("text_factor_count", lambda: mult_spec(2, n_factors="3"), InvalidFactorCount,
            "n_factors must be an integer, got '3'"),
           ("float_gp_variant", lambda: gp_spec(1.0), SpecConflict,
            "gp_variant must be an integer, got 1.0"),
           ("bool_slab_var", lambda: mult_spec(2, slab_var_loading=True), SpecConflict,
            "slab_var_loading must be a positive finite number, got True"),
           ("text_slab_var", lambda: mult_spec(2, slab_var_loading="1"), SpecConflict,
            "slab_var_loading must be a positive finite number, got '1'"),
           ("text_length_scale", lambda: gp_spec(1, length_scale="0.2"), SpecConflict,
            "length_scale must be a positive finite number, got '0.2'"),
           ("short_noise_prior", lambda: mult_spec(2, noise_prior=(1,)), SpecConflict,
            r"noise_prior must be a \(shape, scale\) pair, got \(1,\)"),
           ("fractional_seed_factor", lambda: mult_spec(2, seed_groups={0.5: frozenset({1})}),
            SpecConflict, "seed group factor must be an integer, got 0.5"),
           ("fractional_seed_feature", lambda: mult_spec(2, seed_groups={0: frozenset({1.7})}),
            SpecConflict, "seed feature index must be an integer, got 1.7"),
           ("bool_seed_feature", lambda: mult_spec(2, seed_groups={0: frozenset({True})}),
            SpecConflict, "seed feature index must be an integer, got True"),
           ("fractional_fixed_load_prob",
            lambda: build_layout(mult_spec(2, fixed_load_prob={(0.5, 1): 0.0}), 6), SpecConflict,
            "fixed loading probability index must be an integer, got 0.5"),
           ("fractional_beta_entry",
            lambda: build_layout(mult_spec(2, load_prob_prior=BetaTable(
                entries={(1.0, 0): (2.0, 2.0)})), 6), SpecConflict,
            "Beta prior entry index must be an integer, got 1.0"),
           ("text_fixed_inter_prob",
            lambda: build_layout(gp_spec(1, fixed_inter_prob={"3": 0.0}), 6), SpecConflict,
            "fixed interaction probability index must be an integer, got '3'"),
           ("bool_fixed_inter_prob",
            lambda: build_layout(gp_spec(1, fixed_inter_prob={True: 0.0}), 6), SpecConflict,
            "fixed interaction probability index must be an integer, got True"),
           ("more_factors_than_features", lambda: build_layout(mult_spec(2, n_factors=7), 6),
            InvalidFactorCount, "7 factors on 6 features: at most one factor per feature"),
           # a numpy number is shown as the Python number it holds
           ("more_numpy_factors_than_features",
            lambda: build_layout(mult_spec(2, n_factors=np.int64(7)), 6), InvalidFactorCount,
            "7 factors on 6 features: at most one factor per feature"),
           ("negative_numpy_seed_feature",
            lambda: mult_spec(2, seed_groups={0: frozenset({np.int64(-3)})}), SpecConflict,
            "seed feature index must be >= 0, got -3"),
           ("numpy_fixed_load_prob_outside",
            lambda: build_layout(mult_spec(2, fixed_load_prob={(np.int64(6), 0): 1.0}), 6),
            SpecConflict, r"fixed loading probability index \(6, 0\) outside the shape \(6, 2\)"),
       )},
    # a Beta pair that is not two numbers
    **{f"beta_pair_{name}": (lambda d, make=make: make(), SpecConflict,
                             rf"^Beta hyperparameter must be a \(a, b\) pair, got {match}$")
       for name, make, match in (
           ("short_default",
            lambda: mult_spec(2, inter_prob_prior=BetaTable(default=(1.0,))), r"\(1\.0,\)"),
           ("long_default",
            lambda: mult_spec(2, inter_prob_prior=BetaTable(default=(1.0, 2.0, 3.0))),
            r"\(1\.0, 2\.0, 3\.0\)"),
           ("long_group",
            lambda: mult_spec(2, inter_prob_model=InterProbModel.GROUPED,
                              inter_prob_prior=BetaTable(groups={"seed": (1.0, 2.0, 3.0)})),
            r"\(1\.0, 2\.0, 3\.0\)"),
           ("short_entry",
            lambda: mult_spec(2, load_prob_prior=BetaTable(entries={(0, 1): (1.0,)})),
            r"\(1\.0,\)"),
       )},
    # an int too long to print in decimal is shown by its size
    **{f"huge_int_{name}": (lambda d, make=make: make(), error, f"^{match}$")
       for name, make, error, match in (
           ("rw_step", lambda: McmcSettings(rw_step=10**5000), ConfigError,
            "rw_step must be a positive finite number, got an int of 16610 bits"),
           ("seed", lambda: McmcSettings(seed=-10**5000), ConfigError,
            "seed must be >= 0, got a negative int of 16610 bits"),
           ("n_iters", lambda: McmcSettings(n_iters=-10**5000).retained(Family.GP), ConfigError,
            r"burn_in 300 must lie in \[0, n_iters=a negative int of 16610 bits\)"),
           ("slab_var", lambda: mult_spec(2, slab_var_loading=-10**5000), SpecConflict,
            "slab_var_loading must be a positive finite number, got a negative int of 16610 bits"),
           ("factor_count", lambda: build_layout(mult_spec(2, n_factors=10**5000), 6),
            InvalidFactorCount,
            "an int of 16610 bits factors on 6 features: at most one factor per feature"),
           ("negative_factor_count", lambda: mult_spec(2, n_factors=-10**5000),
            InvalidFactorCount, "need at least 2 factors, got a negative int of 16610 bits"),
           ("fixed_load_prob_index",
            lambda: build_layout(mult_spec(2, fixed_load_prob={(10**5000, 1): 1.0}), 6),
            SpecConflict, r"fixed loading probability index a tuple holding an int too long "
                          r"to print outside the shape \(6, 2\)"),
       )},
    # the numbers of the simulators, the overlap test, the seed-gene window, the
    # annotation and the detection threshold
    **{f"{name}": (lambda d, make=make: make(), error, f"^{match}$")
       for name, make, error, match in (
           ("overlap_fractional_population", lambda: OverlapTestInput(10.5, (3, 4), 2, 2000),
            ConfigError, "population_size must be an integer, got 10.5"),
           ("overlap_fractional_count", lambda: OverlapTestInput(10, (3.9, 4), 2, 2000),
            ConfigError, "dataset count must be an integer, got 3.9"),
           ("overlap_bool_count", lambda: OverlapTestInput(10, (True, 4), 2, 2000),
            ConfigError, "dataset count must be an integer, got True"),
           ("overlap_count_not_a_sequence", lambda: OverlapTestInput(10, 5, 2), ConfigError,
            "per_dataset_counts must be a one-dimensional sequence, got 0 dimensions"),
           ("overlap_fractional_replicates",
            lambda: OverlapTestInput(10, (3, 4), 2, n_replicates=100.5), ConfigError,
            "n_replicates must be an integer, got 100.5"),
           ("window_fractional_center", lambda: seed_gene_window(ANNOTATION, "1", 10.9, 9.5),
            ConfigError, "center must be an integer, got 10.9"),
           ("window_nan_half_width", lambda: seed_gene_window(ANNOTATION, "1", 10, np.nan),
            ConfigError, "half_width must be an integer, got nan"),
           ("annotation_fractional_position",
            lambda: Annotation(("p1", "p2"), ("1", "1"), [1.7, 20]), ConfigError,
            "annotation position must be an integer, got 1.7"),
           ("annotation_position_not_a_sequence", lambda: Annotation(("a",), ("1",), 5),
            ConfigError,
            "annotation positions must be a one-dimensional sequence, got 0 dimensions"),
           ("annotation_positions_of_two_dimensions",
            lambda: Annotation(("a", "b"), ("1", "1"), np.array([[1], [2]])), ConfigError,
            "annotation positions must be a one-dimensional sequence, got 2 dimensions"),
           ("annotation_position_beyond_int64",
            lambda: Annotation(("p1", "p2"), ("1", "1"), [1, 2**63]), ConfigError,
            r"annotation positions must lie below 2\*\*63"),
           ("simulate_negative_noise", lambda: generate_saddle_dataset(30, 20, 0.1,
                                                                       noise_scale=-1.0),
            ConfigError, "noise_scale must be a positive finite number, got -1.0"),
           ("simulate_zero_noise", lambda: generate_saddle_dataset(30, 20, 0.1, noise_scale=0.0),
            ConfigError, "noise_scale must be a positive finite number, got 0.0"),
           ("simulate_fractional_features", lambda: generate_saddle_dataset(30.0, 20, 0.1),
            InvalidFraction, "m must be an integer, got 30.0"),
           ("hidden_fractional_features", lambda: generate_hidden_factor_dataset(30.0, 20),
            InvalidFraction, "m must be an integer, got 30.0"),
           ("simulate_text_fraction", lambda: generate_saddle_dataset(30, 20, "0.1"),
            InvalidFraction, r"frac_affected must lie in \[0, 1\), got '0.1'"),
           ("simulate_fractional_seed", lambda: generate_saddle_dataset(30, 20, 0.1, seed=1.5),
            ConfigError, "seed must be an integer, got 1.5"),
           ("hidden_negative_seed", lambda: generate_hidden_factor_dataset(30, 20, seed=-1),
            ConfigError, "seed must be >= 0, got -1"),
           ("overlap_fractional_seed",
            lambda: overlap_permutation_test(OverlapTestInput(10, (3, 4), 2, 10), seed=2.5),
            ConfigError, "seed must be an integer, got 2.5"),
           ("detect_text_threshold",
            lambda: detect_interactions(run_mult_chain(mult_spec(2), small_data(), n_iters=4,
                                                       burn_in=2), "0.5"),
            ConfigError, "threshold must be a positive finite number, got '0.5'"),
       )},
    "kernel_rows_of_another_length": (
        lambda d: se_kernel(np.random.default_rng(1).normal(size=(2, 5)), 0.5).logdens(
            np.zeros((2, 4))), ShapeMismatch, "rows have length 4, kernel is 5x5"),
    **{f"kernel_length_scale_{name}": (
        lambda d, value=value: se_kernel(np.random.default_rng(1).normal(size=(2, 5)), value),
        SpecConflict, f"^length_scale must be a positive finite number, got {value}$")
       for name, value in (("nan", np.nan), ("inf", np.inf), ("zero", 0.0), ("negative", -0.5))},
    **{f"marginal_ratio_sigma2_{name}": (
        lambda d, value=value: gp_marginal_loglik_ratio(
            np.zeros(5), se_kernel(np.random.default_rng(1).normal(size=(2, 5)), 0.5), value),
        SpecConflict, f"^sigma2 must be a positive finite number, got {value}$")
       for name, value in (("nan", np.nan), ("inf", np.inf), ("zero", 0.0), ("negative", -1.0))},
}


@pytest.mark.parametrize("call, error, match", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check_raises_its_package_error(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)
