"""Planted-truth dataset builders shared by the genomics and acceptance
tests, per-state views of retained draws, and the columns of a posterior
summary as arrays."""

import numpy as np

from factorint import standardize_rows
from factorint.model import McmcState


# the columns of ``summary.csv`` after ``parameter`` and ``role``
SUMMARY_COLUMNS = ("estimate", "ci_low", "ci_high", "inclusion_prob", "converged")


def summary_columns(summary) -> dict[str, np.ndarray]:
    """The columns of ``summary.csv`` as arrays over every parameter, joined
    from the ``FieldSummary`` arrays of ``summary``: ``parameter`` and
    ``role`` as strings, and ``inclusion_prob`` NaN where a field has none."""
    fields = summary.fields
    columns = {"parameter": np.array([name for f in fields for name in f.names()]),
               "role": np.array([f.role for f in fields for _ in range(len(f))])}
    for key in SUMMARY_COLUMNS:
        columns[key] = np.concatenate([np.full(len(f), np.nan) if getattr(f, key) is None
                                       else getattr(f, key) for f in fields])
    return columns


def assert_same_columns(got: dict[str, np.ndarray], expected: dict[str, np.ndarray]) -> None:
    """Each column of ``got`` equals that of ``expected`` bit for bit: the
    same dtype and shape, NaN where it has NaN, and each other value equal
    and of the same sign, so that 0.0 and -0.0 differ."""
    assert got.keys() == expected.keys()
    for key, column in got.items():
        np.testing.assert_array_equal(column, expected[key], err_msg=key, strict=True)
        if column.dtype.kind == "f":
            numbers = ~np.isnan(column)
            np.testing.assert_array_equal(np.signbit(column[numbers]),
                                          np.signbit(expected[key][numbers]), err_msg=key)


def states(draws):
    """One read-only ``McmcState`` view per retained state of ``draws``."""
    return [McmcState(**{name: arr[k] for name, arr in draws.values.items()})
            for k in range(len(draws))]


def seed_structured(seed: int, violators: bool = True):
    """Two seed blocks with planted violations in the first block.

    Returns (data, g1, g2, planted) where ``planted`` maps each violating
    feature index to its expected removal reason.
    """
    rng = np.random.default_rng(seed)
    n = 80
    g1 = np.arange(0, 8)
    g2 = np.arange(8, 14)
    m = 14
    scores = rng.normal(size=(2, n))
    loadings = np.zeros((m, 2))
    loadings[g1, 0] = rng.uniform(2.0, 3.0, g1.size)
    loadings[g2, 1] = rng.uniform(2.0, 3.0, g2.size)
    planted = {}
    if violators:
        loadings[1, 0] = -2.5                      # sign flipped within G1
        planted[1] = "sign_mismatch"
        loadings[3, :] = 0.0                       # unrelated to either factor
        planted[3] = "low_own_inclusion"
        loadings[5, 1] = 2.5                       # loads on the other factor too
        planted[5] = "cross_loading"
    raw = loadings @ scores + 0.5 * rng.normal(size=(m, n))
    return standardize_rows(raw), g1, g2, planted


def candidate_structured(seed: int):
    """Seed blocks plus planted two-factor genes among single-factor and null
    distractors. Returns (data, g1, g2, both, single, null)."""
    rng = np.random.default_rng(seed)
    n = 80
    g1 = np.arange(0, 5)
    g2 = np.arange(5, 10)
    both = np.arange(10, 30)
    single = np.arange(30, 45)
    null = np.arange(45, 60)
    m = 60
    scores = rng.normal(size=(2, n))
    loadings = np.zeros((m, 2))
    loadings[g1, 0] = rng.uniform(2.0, 3.0, g1.size)
    loadings[g2, 1] = rng.uniform(2.0, 3.0, g2.size)
    signs = rng.choice([-1.0, 1.0], size=(both.size, 2))
    loadings[both] = signs * rng.uniform(1.2, 2.0, size=(both.size, 2))
    which = rng.integers(0, 2, single.size)
    loadings[single, which] = (rng.choice([-1.0, 1.0], single.size)
                               * rng.uniform(1.2, 2.0, single.size))
    raw = loadings @ scores + 0.6 * rng.normal(size=(m, n))
    return standardize_rows(raw), g1, g2, both, single, null
