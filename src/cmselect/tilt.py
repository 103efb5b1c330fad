"""Constrained empirical-likelihood tilting of a moment sample.

The primal problem maximizes sum(log p_i) over probability vectors subject to
the moment inequality constraints sum_i p_i g_ij >= 0 for every column j. The
objective is strictly concave on the simplex, so a feasible problem has a
unique solution.

The solver works on the dual: maximize sum_i log(1 + lam' g_i) over lam <= 0,
with the implied probabilities p_i = 1 / (n (1 + lam' g_i)). At the dual
optimum the probabilities sum to one automatically (complementary slackness
kills the correction term), are primal feasible, and satisfy the full KKT
system. The dual has dimension J, which is small, so a projected Newton
method with a feasibility safeguard on 1 + lam' g_i > 0 converges in a
handful of iterations. Duplicated or collinear violated columns make the
Newton system singular; its minimum-norm solution then gives the step, and
the tilt equals that of the sample without the redundant columns.

A failed Newton solve leaves a direction d = lam / max|lam| <= 0. If every
g_i'd > 0 beyond rounding, then (G'p)'d > 0 for each probability vector p,
so some (G'p)_j < 0 and no p is feasible (Gordan's theorem; Owen, Empirical
Likelihood, 2001, ch. 3). Without such a direction the failure is the solver's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .moments import MomentSample

_MAX_ITER = 200
_KKT_TOL = 1e-10
_ARMIJO_C = 1e-4
# The free columns count as collinear when the smallest eigenvalue of their
# Newton Hessian, scaled to unit diagonal, is at most this.
_COLLINEAR = 1e-12
# A coordinate of the tilted mean counts as binding when it is this close to
# zero, relative to the column scale.
_BINDING_TOL = 1e-7


@dataclass(frozen=True)
class TiltResult:
    """Solution of the constrained empirical-likelihood problem.

    ``status`` is "Solved" or "Infeasible"; numeric fields are None when
    infeasible. Multipliers are nonpositive; ``binding_set`` collects the
    columns whose tilted mean is (numerically) zero.
    """

    status: str
    probabilities: np.ndarray | None = None
    multipliers: np.ndarray | None = None
    tilted_mean: np.ndarray | None = None
    tilted_cov: np.ndarray | None = None
    binding_set: frozenset = frozenset()
    objective: float | None = None
    iterations: int = 0
    kkt_residual: float = 0.0

    @property
    def solved(self) -> bool:
        return self.status == "Solved"

    def dual_objective(self, sample: MomentSample) -> float:
        """Value of the dual bound at the returned multipliers.

        Equals the primal objective at the optimum (strong duality).
        """
        if not self.solved:
            raise ValueError("tilt was not solved")
        n = sample.n
        u = 1.0 + sample.values @ self.multipliers
        return float(-n * np.log(n) - np.sum(np.log(u)))

    def diagnostics(self) -> dict:
        """JSON-ready record of solver behavior for harness debugging."""
        return {
            "status": self.status,
            "iterations": self.iterations,
            "kkt_residual": self.kkt_residual,
            "binding_set": sorted(self.binding_set),
        }


def tilt(sample: MomentSample) -> TiltResult:
    """Solve the constrained empirical-likelihood problem for a sample.

    Returns the uniform solution untouched when the sample mean already
    satisfies every constraint, a full solution otherwise, or a result with
    status "Infeasible" when a certificate proves that no probability vector
    works: an all-negative column or a failed solve's dual direction. Raises
    NoConvergence when the dual solve diverges or stalls without one, a
    solver failure on a sample not proven infeasible.
    """
    g = sample.values
    n, j = g.shape
    mean = g.mean(axis=0)

    if np.all(mean >= 0.0):
        return _uniform_result(sample, mean)

    if np.any(g.max(axis=0) < 0.0):
        return TiltResult(status="Infeasible")

    lam, iterations, residual, failure = _dual_newton(g)
    if failure is None:
        return _build_result(sample, lam, iterations, residual)
    if _separates(g, lam):
        return TiltResult(status="Infeasible")
    raise NoConvergence(failure)


def _uniform_result(sample: MomentSample, mean: np.ndarray) -> TiltResult:
    g = sample.values
    n, j = g.shape
    centered = g - mean
    cov = centered.T @ centered / n
    return TiltResult(
        status="Solved",
        probabilities=np.full(n, 1.0 / n),
        multipliers=np.zeros(j),
        tilted_mean=mean.copy(),
        tilted_cov=cov,
        binding_set=_binding_set(mean, np.sqrt(np.maximum(np.diag(cov), 0.0))),
        objective=float(-n * np.log(n)),
        iterations=0,
        kkt_residual=0.0,
    )


def _dual_newton(g: np.ndarray):
    """Maximize sum log(1 + lam'g_i) over lam <= 0 by projected Newton.

    Returns (lam, iterations, residual, failure), ``failure`` being None on
    convergence and else the message to raise if ``lam`` certifies nothing.
    """
    n, j = g.shape
    scale = max(1.0, float(np.abs(g).max()))
    tol = _KKT_TOL * scale
    lam = np.zeros(j)
    u = np.ones(n)
    h_val = 0.0

    for iteration in range(1, _MAX_ITER + 1):
        residual, moments = _residual(g, lam, u, tol, scale)
        if residual <= tol:
            return lam, iteration - 1, residual, None

        grad = n * moments
        # Coordinates pinned at zero whose gradient pushes outward stay fixed.
        free = (lam < -tol) | (grad < 0.0)
        direction = np.zeros(j)
        if free.any():
            a = g[:, free] / u[:, None]
            hess = a.T @ a
            # Scaled to unit diagonal, the spectrum does not depend on column scales.
            d = np.sqrt(np.diag(hess))
            unit = hess / d / d[:, None]
            if np.linalg.eigvalsh(unit)[0] > _COLLINEAR:
                direction[free] = np.linalg.solve(hess, grad[free])
            else:
                # Duplicated or collinear free columns: the minimum-norm step.
                direction[free] = np.linalg.lstsq(unit, grad[free] / d, rcond=_COLLINEAR)[0] / d
        else:
            direction = grad.copy()

        found = None
        if residual <= 1e-4 * scale:
            # Local regime: the full Newton step is contractive, and the
            # Armijo test would stall once objective gains fall below float
            # resolution. Require the residual itself to shrink so the phase
            # stays monotone.
            candidate = np.minimum(lam + direction, 0.0)
            u_cand = 1.0 + g @ candidate
            if np.min(u_cand) > 0.0:
                r_cand = _residual(g, candidate, u_cand, tol, scale)[0]
                if r_cand < residual:
                    found = (candidate, u_cand, float(np.sum(np.log(u_cand))))
        if found is None:
            found = _line_search(g, lam, h_val, grad, direction)
        if found is None and not np.array_equal(direction, grad):
            found = _line_search(g, lam, h_val, grad, grad)
        if found is None:
            break
        lam, u, h_val = found
        if np.abs(lam).max() > 1e12:
            # Diverging multipliers: the dual is unbounded, meaning the primal
            # has no interior point. The caller reads the direction.
            return lam, iteration, None, "EL dual diverged, but its direction does not certify infeasibility"

    residual = _residual(g, lam, u, tol, scale)[0]
    if residual <= max(tol, 1e-8 * scale):
        return lam, _MAX_ITER, residual, None
    return lam, _MAX_ITER, residual, (
        f"EL dual Newton stalled with KKT residual {residual:.3e} after {_MAX_ITER} iterations"
    )


def _separates(g: np.ndarray, lam: np.ndarray) -> bool:
    """Whether d = lam / max|lam| proves the constraints infeasible: d <= 0,
    and every g_i'd exceeds J * eps * |g_i|'|d|, twice the rounding bound of
    a J-term dot product."""
    if not lam.any():
        return False
    d = lam / np.abs(lam).max()
    margin = g.shape[1] * np.finfo(float).eps * (np.abs(g) @ np.abs(d))
    return bool(np.all(d <= 0.0) and np.all(g @ d > margin))


def _line_search(g, lam, h_val, grad, direction):
    """Backtracking line search on the projected arc; None when no step helps.

    Steps must keep every 1 + lam'g_i strictly positive (the log barrier's
    domain) and either satisfy the Armijo condition or, when projection turns
    the model gain nonpositive, improve the objective outright.
    """
    step = 1.0
    for _ in range(60):
        candidate = np.minimum(lam + step * direction, 0.0)
        u_cand = 1.0 + g @ candidate
        if np.min(u_cand) > 0.0:
            h_cand = float(np.sum(np.log(u_cand)))
            gain = float(grad @ (candidate - lam))
            if gain > 0.0 and h_cand >= h_val + _ARMIJO_C * gain:
                return candidate, u_cand, h_cand
            if gain <= 0.0 and h_cand > h_val:
                return candidate, u_cand, h_cand
        step *= 0.5
    return None


def _residual(g: np.ndarray, lam: np.ndarray, u: np.ndarray, tol: float, scale: float):
    """(KKT residual, raw tilted moments) at multipliers ``lam``, where
    u = 1 + g lam."""
    n = g.shape[0]
    p_raw = 1.0 / (n * u)
    moments = p_raw @ g
    # Binding coordinates need a zero tilted moment, slack ones a nonnegative
    # moment; the multiplier sign is enforced by the projection.
    at_bound = lam >= -tol
    per_coord = np.where(at_bound, np.maximum(-moments, 0.0), np.abs(moments))
    kkt = float(per_coord.max()) if per_coord.size else 0.0
    # The mass residual guards against divergence: off the optimum the raw
    # probabilities need not sum to one, and a runaway lambda shrinks all of
    # them (and the moment residual) toward zero. The factor n keeps the
    # duality gap, which is n times the log mass defect, inside the same
    # tolerance.
    mass = 2.0 * n * scale * abs(p_raw.sum() - 1.0)
    return max(kkt, mass), moments


def _build_result(sample: MomentSample, lam: np.ndarray, iterations: int, residual: float):
    g = sample.values
    n = g.shape[0]
    u = 1.0 + g @ lam
    p_raw = 1.0 / (n * u)
    total = float(p_raw.sum())
    probabilities = p_raw / total

    tilted_mean = probabilities @ g
    centered = g - tilted_mean
    tilted_cov = (centered * probabilities[:, None]).T @ centered
    tilted_cov = 0.5 * (tilted_cov + tilted_cov.T)

    return TiltResult(
        status="Solved",
        probabilities=probabilities,
        multipliers=np.minimum(lam, 0.0),
        tilted_mean=tilted_mean,
        tilted_cov=tilted_cov,
        binding_set=_binding_set(tilted_mean, g.std(axis=0)),
        objective=float(np.sum(np.log(probabilities))),
        iterations=iterations,
        kkt_residual=residual,
    )


def _binding_set(mean: np.ndarray, sd: np.ndarray) -> frozenset:
    """Columns whose (tilted) mean is zero up to _BINDING_TOL * (1 + sd)."""
    return frozenset(int(k) for k in np.nonzero(np.abs(mean) <= _BINDING_TOL * (1.0 + sd))[0])
