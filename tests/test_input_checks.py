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
    ConfigError,
    DataMatrix,
    GpChain,
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
    "empty_seed_group": (lambda d: clean_seed_genes(small_data(), [0, 1], [], McmcSettings()),
                         ConfigError, "both seed groups must be nonempty"),
    "overlapping_seed_groups": (lambda d: clean_seed_genes(small_data(), [0, 1], [1, 2],
                                                           McmcSettings()),
                                ConfigError, "seed groups overlap"),
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
        r"fixed loading probability index \(6,0\) out of range"),
    "fixed_load_prob_factor_outside": (
        lambda d: build_layout(mult_spec(2, fixed_load_prob={(0, 2): 0.0}), 6), SpecConflict,
        r"index \(0,2\) out of range"),
    "fixed_inter_prob_outside": (
        lambda d: build_layout(gp_spec(1, fixed_inter_prob={-1: 0.0}), 6), SpecConflict,
        "fixed interaction probability index -1 out of range"),
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
