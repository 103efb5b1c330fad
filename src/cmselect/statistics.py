"""The two moment-inequality test statistics and their shifted forms.

Both statistics are functions S(g, Sigma) that are nonincreasing in g, scale
invariant, nonnegative, and homogeneous of degree two. One kernel,
`shifted_statistic_batch`, evaluates S on a stack of vectors: inside
critical-value simulation at shifted draws with Sigma a correlation-scale
matrix, and on data (through `evaluate`, the entry point there) as a batch of
one at g = sqrt(n) * mean with Sigma the divisor-n covariance. A boolean
``omit`` mask marks the moments omitted from the computation: they contribute
zero to the sum statistic and are deleted (row and column) before the
quadratic-form statistic is solved, which reproduces the limit of sending the
entry to infinity.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DegenerateColumn, SingularCovariance
from .moments import MomentSummary
from .qp import nonneg_projection_batch

# The quadratic-form statistic shrinks toward the diagonal when the
# correlation determinant falls below this constant.
ADJUSTMENT_CUTOFF = 0.012


class StatisticKind(enum.Enum):
    """Which test statistic to evaluate."""

    MMM = "mmm"
    AQLR = "aqlr"


def adjusted_sigma(sigma: np.ndarray) -> np.ndarray:
    """Diagonal-inflated covariance used by the quadratic-form statistic.

    Adds max(0, 0.012 - det(correlation)) times the variance diagonal, which
    leaves well-conditioned covariances untouched and regularizes
    near-singular ones.
    """
    sigma = np.asarray(sigma, dtype=float)
    var = np.diag(sigma)
    if np.any(var <= 0):
        raise DegenerateColumn(int(np.argmin(var)))
    inv_sd = 1.0 / np.sqrt(var)
    corr = sigma * np.outer(inv_sd, inv_sd)
    bump = max(0.0, ADJUSTMENT_CUTOFF - float(np.linalg.det(corr)))
    if bump == 0.0:
        return sigma.copy()
    return sigma + bump * np.diag(var)


def adjusted_sigma_batch(sigma: np.ndarray) -> np.ndarray:
    """Batched `adjusted_sigma` for a stack of covariance matrices (B, J, J).

    The correlations are formed on the flat (B, J²) rows, since `det` takes
    the C-contiguous (B, J, J) stack: the matrices are not bitwise
    symmetric, so a transposed stack would change the determinant's bytes.
    The diagonal bump is added moment-major, from one contiguous length-B
    row of variances per moment.
    """
    batch, k, _ = sigma.shape
    flat = sigma.reshape(batch, k * k)
    var = flat[:, :: k + 1]
    inv_sd = 1.0 / np.sqrt(var)
    corr = flat * np.repeat(inv_sd, k, axis=1)
    corr *= np.tile(inv_sd, k)
    bump = np.maximum(0.0, ADJUSTMENT_CUTOFF - np.linalg.det(corr.reshape(batch, k, k)))
    del corr
    out = flat.copy()
    out.T[:: k + 1] += bump * var.T.copy()
    return out.reshape(batch, k, k)


def evaluate(kind: StatisticKind, summary: MomentSummary) -> float:
    """Evaluate a statistic on data: S(sqrt(n) mean, covariance).

    By degree-two homogeneity this is n S(mean, covariance), read through
    `shifted_statistic_batch` as a batch of one with no moment omitted; a
    column with no variance raises DegenerateColumn. For the quadratic-form
    statistic the covariance is first adjusted (`adjusted_sigma`), must be
    positive definite (its Cholesky factorization is the check;
    SingularCovariance otherwise), and is studentized: the pair
    (D^(-1) mean, D^(-1) Sigma D^(-1)), D the standard deviations, has the
    same value and reaches the solver in the scale of the critical-value
    draws, so the solver's tolerances do not depend on the units of the data.
    """
    vec, sigma = summary.mean, summary.covariance
    var = np.diag(sigma)
    if np.any(var <= 0):
        raise DegenerateColumn(int(np.argmin(var)))
    if kind is StatisticKind.AQLR:
        sigma = adjusted_sigma(sigma)
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise SingularCovariance("covariance is not positive definite")
        inv_sd = 1.0 / np.sqrt(np.diag(sigma))
        vec, sigma = vec * inv_sd, sigma * np.outer(inv_sd, inv_sd)
    return float(summary.n * shifted_statistic_batch(kind, vec[None], sigma)[0])


def shifted_statistic_batch(
    kind: StatisticKind,
    vec: np.ndarray,
    sigma: np.ndarray,
    omit: np.ndarray | None = None,
    clamped: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate S(vec_b, sigma_b) across a stack of draws.

    ``vec`` has shape (B, J) with finite entries; ``omit`` is a length-J
    boolean mask of omitted moments shared by every draw (the selection is
    computed from the data, not per draw). ``sigma`` is (B, J, J) or (J, J)
    and is used as supplied: callers of the quadratic-form statistic apply
    the determinant adjustment to the full matrices first (`adjusted_sigma`
    or `adjusted_sigma_batch`), and omitted rows and columns are deleted
    after it.

    ``clamped`` is an optional (B, J) boolean array on the full moment grid
    that carries the quadratic program's clamped sets from one call to the
    next on the same draws. Its kept columns are read as the solver's first
    guess; then every kept column is overwritten with the final ``t == 0``
    and every omitted column with False, so a moment slack in this call
    never starts clamped in the next. The guess changes the solver's work,
    not its result.
    """
    batch, j_total = vec.shape
    if omit is None:
        omit = np.zeros(j_total, dtype=bool)
    keep = np.nonzero(~omit)[0]
    if keep.size == 0:
        if clamped is not None:
            clamped[:] = False
        return np.zeros(batch)

    if kind is StatisticKind.MMM:
        var = np.diagonal(sigma, axis1=-2, axis2=-1)[..., keep]
        z = vec[:, keep] / np.sqrt(var)
        return np.sum(np.minimum(z, 0.0) ** 2, axis=1)

    if keep.size == j_total:
        sub, v = sigma, vec
    else:
        sub, v = sigma[..., keep, :][..., keep], vec[:, keep]
    start = None if clamped is None else clamped[:, keep]
    t, values = nonneg_projection_batch(sub, v, start=start)
    if clamped is not None:
        clamped[:, omit] = False
        clamped[:, keep] = t == 0.0
    return values
