"""Every check on input from outside the program raises its package error.

One case per check that only a library caller reaches: the shapes of the
data matrix and the annotation, the annotation reader, the seed-gene
helpers, a sampler given the other family's spec, the prior layout and the
kernel. The checks the CLI reaches run through it in ``test_io_cli``, which
also asserts the single ``ERROR`` line.
"""

import numpy as np
import pytest

from factorint import (
    Annotation,
    BetaTable,
    ConfigError,
    DataMatrix,
    GpChain,
    InvalidFactorCount,
    McmcSettings,
    MultChain,
    ShapeMismatch,
    SpecConflict,
    clean_seed_genes,
    gp_marginal_loglik_ratio,
    gp_spec,
    mult_spec,
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
                        "half_width must be nonnegative"),
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
