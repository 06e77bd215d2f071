"""Bayesian sparse latent factor models with interaction effects.

Two model families over a standardized feature-by-sample matrix: pairwise
multiplicative interactions between latent factors (exact product or a tight
Gaussian tie) and general nonlinear interactions through a squared-exponential
Gaussian-process prior. Spike-and-slab priors give exact sparsity and
posterior inclusion probabilities for significance testing; fitting is Gibbs
sampling with a random-walk Metropolis step for the scores under the
nonlinear family.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless one of
``BLAS_THREAD_VARS`` is already set: the samplers make many small (n x n)
linear-algebra calls, which a BLAS thread pool slows down. Set any of those
variables before the import to choose the thread count yourself.
"""

import os as _os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Must run before numpy is first imported; BLAS reads these once, at load.
if not any(name in _os.environ for name in BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import (
    AllRemoved,
    CholeskyFailure,
    ConfigError,
    ConstantRow,
    CorruptFile,
    EmptyWindowWarning,
    FactorIntError,
    FormatVersionMismatch,
    InsufficientDraws,
    InvalidFactorCount,
    InvalidFraction,
    ShapeMismatch,
    SpecConflict,
)
from .genomics import (
    OverlapTestInput,
    PosteriorSummary,
    clean_seed_genes,
    detect_interactions,
    overlap_permutation_test,
    posterior_mean_effects,
    posterior_summary,
    seed_gene_window,
    select_candidate_genes,
    two_factor_null_spec,
)
from .gp import GpChain, run_gp_chain
from .kernels import KernelMatrix, gp_marginal_loglik_ratio, se_kernel
from .model import (
    Annotation,
    DataMatrix,
    Family,
    McmcSettings,
    McmcState,
    ModelSpec,
    PosteriorDraws,
    SyntheticTruth,
    factor_pairs,
    gp_spec,
    interaction_pair_count,
    join_draws,
    mult_spec,
    standardize_rows,
    validate_spec,
)
from .mult import MultChain, run_mult_chain
from .prior import BetaTable, InterProbModel, LoadProbModel
from .simulate import (
    ComparisonReport,
    SurfaceGrid,
    aad,
    align_factors,
    compare_models,
    export_surface,
    fit_spec,
    generate_hidden_factor_dataset,
    generate_saddle_dataset,
    saddle_quadrant_recovery,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
