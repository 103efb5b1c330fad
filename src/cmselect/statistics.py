"""The two moment-inequality test statistics and their shifted forms.

Both statistics are functions S(g, Sigma) that are nonincreasing in g, scale
invariant, nonnegative, and homogeneous of degree two. On data they are
evaluated at g = sqrt(n) * mean with Sigma the divisor-n covariance; inside
critical-value simulation they are evaluated at shifted draws with Sigma a
correlation-scale matrix. Entries of g equal to +inf mark moments omitted
from the computation: they contribute zero to the sum statistic and are
deleted (row and column) before the quadratic-form statistic is solved, which
reproduces the limit of sending the entry to infinity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ShiftedInput:
    """Argument pair (vector, scale matrix) for a statistic evaluation.

    ``vec`` may contain +inf entries, which mark omitted moments. ``sigma``
    must be symmetric on the non-omitted block.
    """

    vec: np.ndarray
    sigma: np.ndarray
    omitted: frozenset = field(init=False)

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if vec.ndim != 1 or sigma.shape != (vec.size, vec.size):
            raise ValueError("vec must be length J and sigma J-by-J")
        if np.any(np.isnan(vec)) or np.any(np.isneginf(vec)):
            raise ValueError("vec entries must be finite or +inf")
        omitted = frozenset(int(j) for j in np.nonzero(np.isposinf(vec))[0])
        keep = [j for j in range(vec.size) if j not in omitted]
        if keep:
            block = sigma[np.ix_(keep, keep)]
            denom = max(1.0, float(np.abs(block).max()))
            if np.abs(block - block.T).max() > 1e-10 * denom:
                raise ValueError("sigma is not symmetric on the kept block")
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "omitted", omitted)

    @property
    def kept(self) -> np.ndarray:
        return np.array([j for j in range(self.vec.size) if j not in self.omitted], dtype=int)


@dataclass(frozen=True)
class AqlrResult:
    """Optimal value of the quadratic program and its minimizer.

    ``minimizer`` is reported on the full J grid with zeros in omitted slots.
    """

    value: float
    minimizer: np.ndarray


def adjust_covariance(summary: MomentSummary) -> np.ndarray:
    """Diagonal-inflated covariance used by the quadratic-form statistic.

    Adds max(0, 0.012 - det(correlation)) times the variance diagonal, which
    leaves well-conditioned covariances untouched and regularizes
    near-singular ones.
    """
    return adjusted_sigma(summary.covariance)


def adjusted_sigma(sigma: np.ndarray) -> np.ndarray:
    """Apply the determinant-cutoff adjustment to a raw covariance matrix."""
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
    """Batched `adjusted_sigma` for a stack of covariance matrices (B, J, J),
    computed on the flat (B, J²) rows."""
    batch, k, _ = sigma.shape
    flat = sigma.reshape(batch, k * k)
    var = flat[:, :: k + 1]
    inv_sd = 1.0 / np.sqrt(var)
    corr = flat * np.repeat(inv_sd, k, axis=1)
    corr *= np.tile(inv_sd, k)
    bump = np.maximum(0.0, ADJUSTMENT_CUTOFF - np.linalg.det(corr.reshape(batch, k, k)))
    out = flat.copy()
    out[:, :: k + 1] += bump[:, None] * var
    return out.reshape(batch, k, k)


def mmm(shifted: ShiftedInput, n: int = 1) -> float:
    """Sum of squared negative parts of the studentized vector, scaled by n.

    Omitted coordinates contribute zero.
    """
    keep = shifted.kept
    if keep.size == 0:
        return 0.0
    var = np.diag(shifted.sigma)[keep]
    if np.any(var <= 0):
        raise DegenerateColumn(int(keep[np.argmin(var)]))
    z = shifted.vec[keep] / np.sqrt(var)
    return float(n * np.sum(np.minimum(z, 0.0) ** 2))


def aqlr(shifted: ShiftedInput, n: int = 1) -> AqlrResult:
    """Quadratic-form distance from the vector to the nonnegative orthant.

    The value is n times min_{t >= 0} (v - t)' Sigma^(-1) (v - t).
    ``shifted.sigma`` is used as supplied; callers evaluating on data apply
    `adjust_covariance` first. Omitted coordinates are deleted from the vector
    and from the matrix, and the kept block must be positive definite (its
    Cholesky factorization is the check; SingularCovariance otherwise).

    The program is solved as a batch of one by `nonneg_projection_batch`,
    which pivots on Sigma itself, so no inverse is formed. It is solved on
    the studentized pair (D^(-1) v, D^(-1) Sigma D^(-1)), D the standard
    deviations, which has the same value and the minimizer D^(-1) t: the
    critical-value draws reach the solver in that scale too, and the solver's
    tolerances then do not depend on the units of the data.
    """
    keep = shifted.kept
    j_total = shifted.vec.size
    if keep.size == 0:
        return AqlrResult(0.0, np.zeros(j_total))
    sub = shifted.sigma[np.ix_(keep, keep)]
    try:
        np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance sub-block is not positive definite")
    sd = np.sqrt(np.diag(sub))
    inv_sd = 1.0 / sd
    corr = sub * np.outer(inv_sd, inv_sd)
    t_stud, values = nonneg_projection_batch(corr[None], (shifted.vec[keep] * inv_sd)[None])
    minimizer = np.zeros(j_total)
    minimizer[keep] = t_stud[0] * sd
    return AqlrResult(float(n * values[0]), minimizer)


def evaluate(kind: StatisticKind, summary: MomentSummary) -> float:
    """Evaluate a statistic on data: S(sqrt(n) mean, covariance)."""
    if kind is StatisticKind.MMM:
        return mmm(ShiftedInput(summary.mean, summary.covariance), summary.n)
    sigma = adjust_covariance(summary)
    return aqlr(ShiftedInput(summary.mean, sigma), summary.n).value


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
    and is used as supplied, like the scalar `aqlr`: callers of the
    quadratic-form statistic apply the determinant adjustment to the full
    matrices first (`adjusted_sigma_batch`), and omitted rows and columns are
    deleted after it.

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
