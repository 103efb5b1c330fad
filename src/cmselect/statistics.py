"""The two moment-inequality test statistics and their shifted forms.

Both statistics are functions S(g, Sigma) that are nonincreasing in g, scale
invariant, nonnegative, and homogeneous of degree two. One kernel,
`shifted_statistic_batch`, evaluates S on a stack of vectors: inside
critical-value simulation at shifted draws with Sigma a correlation-scale
matrix, and on data (through `evaluate`, the entry point there) as a batch of
one at g = sqrt(n) * mean with Sigma the divisor-n covariance. A boolean
``omit`` mask marks the moments omitted from the computation: they contribute
zero to the sum statistic, and the quadratic program sees them as +inf, the
limit that omission reproduces, which it never clamps.
`qp.nonneg_projection_batch` alone solves the quadratic programs
(QPNoConvergence at its round cap); `qp.nonneg_projection` is only the
tests' oracle.

A QP value and its multipliers depend on (Sigma_AA, v_A) alone, A the
certified clamped set: an omitted or free moment never touches their bits,
so the value equals that of the program with the omitted rows and columns
deleted, bit for bit. That makes the solver's certificates reusable: a
later call on the same draws takes a draw's value from its certificate
when the draw's vector is bitwise unchanged on A and the solver's own KKT
test still passes (`shifted_statistic_batch`, `qp.certified`), and
re-solves only the other draws.

The quadratic-form statistic reads Sigma after the determinant adjustment of
Andrews and Barwick (2012), one routine for every caller,
`adjusted_sigma_batch`: the statistic on data passes a batch of one, and
the draws objects' one adjusted Omega (`critical._Draws`) the asymptotic
correlation as a batch of one or the whole bootstrap (B, J, J) stack. Its
determinant, `correlation_det`, factors the whole stack on moment-major rows
with the batch QP's unpivoted LDL^T kernel (`qp.ldl_factor`), not with a
LAPACK LU per matrix.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DegenerateColumn, SingularCovariance
from .moments import MomentSummary
from .qp import certified, displacement_rows, ldl_factor, nonneg_projection_batch

# The quadratic-form statistic shrinks toward the diagonal when the
# correlation determinant falls below this constant.
ADJUSTMENT_CUTOFF = 0.012


class StatisticKind(enum.Enum):
    """Which test statistic to evaluate."""

    MMM = "mmm"
    AQLR = "aqlr"


def adjusted_sigma_batch(sigma: np.ndarray) -> np.ndarray:
    """Diagonal-inflated covariances used by the quadratic-form statistic, for
    a stack of covariance matrices (B, K, K); a single matrix is a batch of
    one.

    Each matrix gets max(0, 0.012 - det(correlation)) times its variance
    diagonal (`correlation_det`), which leaves well-conditioned covariances
    untouched and regularizes near-singular ones.
    """
    batch, k, _ = sigma.shape
    bump = np.maximum(0.0, ADJUSTMENT_CUTOFF - correlation_det(sigma))
    out = sigma.reshape(batch, k * k).copy()
    if bump.any():
        diagonal = out.T[:: k + 1]
        diagonal += bump * diagonal
    return out.reshape(batch, k, k)


def correlation_det(sigma: np.ndarray) -> np.ndarray:
    """det(correlation) of each covariance matrix in a stack (B, K, K).

    The lower triangles are copied moment-major, (K, K, B), so that the QP's
    LDL^T kernel (`qp.ldl_factor`) factors every matrix at once on
    contiguous length-B rows, and the determinant is the product of the
    pivot ratios d_i / var_i, so no correlation is formed. A matrix with a
    non-positive or NaN pivot is singular or indefinite; for those alone
    the determinant is LAPACK's, of the explicit correlation.
    """
    batch, k, _ = sigma.shape
    work = np.empty((k, k, batch))
    for i in range(k):
        work[i, : i + 1] = sigma[:, i, : i + 1].T
    var = np.diagonal(work).T.copy()
    pivots = ldl_factor(work, [batch] * k)
    factored = (pivots > 0.0).all(axis=0)
    # Past a failed pivot a matrix's entries, and its det, are garbage.
    with np.errstate(divide="ignore", invalid="ignore"):
        det = pivots[0] / var[0]
        for j in range(1, k):
            det *= pivots[j] / var[j]
    if not factored.all():
        det[~factored] = _explicit_correlation_det(sigma[~factored])
    return det


def _explicit_correlation_det(sigma: np.ndarray) -> np.ndarray:
    """LAPACK's determinant of each matrix's correlation, formed on flat
    (B, K²) rows."""
    batch, k, _ = sigma.shape
    flat = sigma.reshape(batch, k * k)
    inv_sd = 1.0 / np.sqrt(flat[:, :: k + 1])
    corr = flat * np.repeat(inv_sd, k, axis=1)
    corr *= np.tile(inv_sd, k)
    return np.linalg.det(corr.reshape(batch, k, k))


def evaluate(kind: StatisticKind, summary: MomentSummary) -> float:
    """Evaluate a statistic on data: S(sqrt(n) mean, covariance).

    By degree-two homogeneity this is n S(mean, covariance), read through
    `shifted_statistic_batch` as a batch of one with no moment omitted; a
    column with no variance raises DegenerateColumn. For the quadratic-form
    statistic the covariance is first adjusted (`adjusted_sigma_batch`, a
    batch of one), must be positive definite (its Cholesky factorization is
    the check; SingularCovariance otherwise), and is studentized: the pair
    (D^(-1) mean, D^(-1) Sigma D^(-1)), D the standard deviations, has the
    same value and reaches the solver in the scale of the critical-value
    draws, so the solver's tolerances do not depend on the units of the data.
    """
    vec, sigma = summary.mean, summary.covariance
    var = np.diag(sigma)
    if np.any(var <= 0):
        raise DegenerateColumn(int(np.argmin(var)))
    if kind is StatisticKind.AQLR:
        sigma = adjusted_sigma_batch(sigma[None])[0]
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise SingularCovariance("covariance is not positive definite")
        inv_sd = 1.0 / np.sqrt(np.diag(sigma))
        vec, sigma = vec * inv_sd, sigma * np.outer(inv_sd, inv_sd)
    return float(summary.n * shifted_statistic_batch(kind, vec[None], sigma)[0])


class Certificates:
    """The QP certificates of a stack of draws, carried from one AQLR call on
    them to the next: for each draw (a column, moment-major, as the solver
    works) the clamped set `qp.nonneg_projection_batch` certified, that
    solve's raw multipliers and displacement Sigma s, and the vector it
    solved, +inf at the moments that call omitted. Empty until the first
    call, which keeps the solver's own arrays and its vector, uncopied."""

    sets = multipliers = displacements = vectors = None


def shifted_statistic_batch(
    kind: StatisticKind,
    vec: np.ndarray,
    sigma: np.ndarray,
    omit: np.ndarray | None = None,
    certificates: Certificates | None = None,
) -> np.ndarray:
    """Evaluate S(vec_b, sigma_b) across a stack of draws.

    ``vec`` has shape (B, J) with finite entries; ``omit`` is a length-J
    boolean mask of omitted moments shared by every draw (the selection is
    computed from the data, not per draw). ``sigma`` is (B, J, J) or (J, J)
    and is used as supplied: callers of the quadratic-form statistic apply
    the determinant adjustment to the full matrices first
    (`adjusted_sigma_batch`). The quadratic program sees an omitted moment
    as +inf, which it never clamps, and returns bit for bit the value of
    the program with the omitted rows and columns deleted.

    ``certificates`` carries, on the same draws, each draw's certificate
    from the last call that solved it. A QP value and its multipliers
    depend on (Sigma_AA, v_A) alone, A the certified clamped set, so a draw
    whose vector is bitwise unchanged on A (an omitted moment reads +inf,
    so no set that holds one qualifies) would get the same multipliers
    and Sigma s from a new solve; if they also pass the
    solver's own KKT test at the new vector (`qp.certified`), the draw
    takes the value they give, which is the solver's value bit for bit.
    Only the other draws go to the solver, which starts them from its own
    first guess, and their new certificates replace the old.
    """
    batch, j_total = vec.shape
    if omit is None:
        omit = np.zeros(j_total, dtype=bool)
    keep = np.nonzero(~omit)[0]
    if keep.size == 0:
        return np.zeros(batch)

    if kind is StatisticKind.MMM:
        var = np.diagonal(sigma, axis1=-2, axis2=-1)[..., keep]
        z = vec[:, keep] / np.sqrt(var)
        return np.sum(np.minimum(z, 0.0) ** 2, axis=1)

    v = np.where(omit, np.inf, vec) if keep.size < j_total else vec
    if certificates is None:
        return nonneg_projection_batch(sigma, v)[1]
    return _reuse_or_solve(sigma, v, certificates)


def _reuse_or_solve(sigma, v, certificates: Certificates):
    """The values of the draws (sigma, v): those whose certificates hold
    reuse them, the rest are solved, and their certificates replaced."""
    if certificates.sets is None:
        solved = nonneg_projection_batch(sigma, v)
        certificates.sets, certificates.multipliers, certificates.displacements = (
            solved.clamped.T, solved.multipliers.T, solved.displacement.T
        )
        certificates.vectors = v.T
        return solved[1]
    # Bitwise equality: -0.0 and +0.0 give different multipliers.
    same = v.T.view(np.int64) == certificates.vectors.view(np.int64)
    reuse = (same | ~certificates.sets).all(axis=0)
    # Sigma s was left unsummed on the moments the certifying call omitted.
    gaps = np.isnan(certificates.displacements) & (v.T < np.inf)
    rows = gaps.any(axis=1).nonzero()[0]
    if rows.size:
        summed = displacement_rows(sigma, rows, certificates.sets.T, certificates.multipliers.T)
        certificates.displacements[rows] = np.where(gaps[rows], summed, certificates.displacements[rows])
    parts = certificates.sets, certificates.multipliers, certificates.displacements, certificates.vectors
    ok, _, values = certified(v, *(part.T for part in parts[:3]))
    fresh = (~(reuse & ok)).nonzero()[0]
    if fresh.size:
        solved = nonneg_projection_batch(sigma if sigma.ndim == 2 else sigma[fresh], v[fresh])
        values[fresh] = solved[1]
        for part, new in zip(parts, (solved.clamped, solved.multipliers, solved.displacement, v[fresh])):
            part[:, fresh] = new.T
    return values
