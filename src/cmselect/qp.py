"""Quadratic programming over the nonnegative orthant.

Solves min_{t >= 0} (v - t)' W (v - t) with W symmetric positive definite.

* `nonneg_projection_batch`, the one solver every statistic goes through,
  solves a stack of independent instances simultaneously: the statistic on
  data (a batch of one) and the critical-value simulations (one instance per
  simulation or bootstrap draw). It pivots on the complementarity system in
  Sigma = W^(-1) directly (block principal pivoting, Judice & Pires 1994,
  with Murty's least-index single pivot), so no inverse is ever formed.
  Each instance's result is the masked K-by-K solve of the round that
  certifies its final clamped set, so it depends on that set alone: a
  caller that knows a likely clamped set (the previous solve on the same
  draws) passes it as ``start`` and saves rounds without changing a byte.
  An instance unfinished at the round cap raises QPNoConvergence.

* `nonneg_projection` is a textbook primal active-set method in W that
  re-solves the free block at every working-set change; `inverse_spd` forms
  W from Sigma. No production path calls them: they are the tests' oracle,
  and perfbench's tracer wraps `nonneg_projection` by name.

Both return the optimal point and value; KKT conditions of the returned point
are checkable by the caller (the gradient is 2 W (t - v)). The module needs
numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import QPNoConvergence, SingularCovariance

_KKT_TOL = 1e-10
# Rounds in a row without a new fewest violation count before the batch solver
# drops to single-index pivoting, which terminates for P-matrices; only a new
# fewest count brings full exchanges back, so the two cannot cycle.
_FULL_EXCHANGE_PATIENCE = 3


def nonneg_projection(w: np.ndarray, v: np.ndarray, max_iter: int | None = None):
    """Minimize (v - t)' W (v - t) over t >= 0.

    Returns (t, value). Raises SingularCovariance if the free block is not
    positive definite (its Cholesky factorization fails) and QPNoConvergence
    past the iteration cap (default 50 per dimension).
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    k = v.shape[0]
    if k == 0:
        return np.zeros(0), 0.0
    if max_iter is None:
        max_iter = 50 * k

    if np.all(v >= 0.0):
        return v.copy(), 0.0

    q = w @ v
    t = np.maximum(v, 0.0)
    working = t <= 0.0

    for _ in range(max_iter):
        free = ~working
        t_eqp = np.zeros(k)
        if free.any():
            block = w[np.ix_(free, free)]
            try:
                np.linalg.cholesky(block)
                t_eqp[free] = np.linalg.solve(block, q[free])
            except np.linalg.LinAlgError:
                raise SingularCovariance("free block of the QP is not positive definite")

        step = t_eqp - t
        if np.max(np.abs(step)) <= _KKT_TOL * (1.0 + np.max(np.abs(t))):
            # At the equality-constrained optimum for this working set: check
            # the multipliers on the clamped coordinates.
            grad = 2.0 * (w @ t - q)
            candidates = np.where(working, grad, np.inf)
            worst = int(np.argmin(candidates))
            if candidates[worst] >= -_KKT_TOL:
                value = float((v - t) @ w @ (v - t))
                return t, max(value, 0.0)
            working[worst] = False
            continue

        blocking = free & (step < 0.0)
        if blocking.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(blocking, -t / step, np.inf)
            alpha = min(1.0, float(np.min(ratios)))
        else:
            alpha = 1.0
        t = t + alpha * step
        if alpha < 1.0:
            hit = int(np.argmin(ratios))
            t[hit] = 0.0
            working[hit] = True
        t[t < 0.0] = 0.0

    raise QPNoConvergence(f"active-set QP did not converge within {max_iter} iterations")


def nonneg_projection_batch(
    sigma: np.ndarray, v: np.ndarray, max_iter: int | None = None, start: np.ndarray | None = None
):
    """Batched counterpart of `nonneg_projection`, parameterized by Sigma = W^(-1).

    Substituting s = W (t - v) turns the optimality conditions into the
    complementarity system t = v + Sigma s, t >= 0, s >= 0, t's = 0, whose
    pivoting rounds solve only in the clamped block. ``sigma`` has shape
    (B, K, K) or (K, K) (broadcast); ``v`` has shape (B, K). Returns
    (t, value) with shapes (B, K) and (B,). Raises QPNoConvergence when any
    instance is unfinished after ``max_iter`` rounds (default 50 per
    dimension), and SingularCovariance when a clamped block is singular.

    ``start`` is an optional (B, K) boolean first guess of each instance's
    clamped set, left unmodified; the default is ``v < 0``. An instance with
    no negative entry is finished at t = v whatever its guess. The guess only
    changes how many rounds an instance takes: its t and value come from the
    one masked solve of the round that certifies its final clamped set, which
    depends on (Sigma_b, v_b) and that set alone, so any guess that ends on
    the same set returns the same bytes.
    """
    v = np.asarray(v, dtype=float)
    batch, k = v.shape
    if k == 0:
        return np.zeros((batch, 0)), np.zeros(batch)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 2:
        sigma = np.broadcast_to(sigma, (batch, k, k))
    if max_iter is None:
        max_iter = 50 * k

    eye = np.arange(k)
    done = ~np.any(v < 0.0, axis=1)
    # True marks coordinates clamped to zero, where the multiplier s lives.
    clamped = v < 0.0 if start is None else np.array(start, dtype=bool)
    t = v.copy()
    s = np.zeros_like(t)
    stalled = np.zeros(batch, dtype=int)
    fewest_violations = np.full(batch, k + 1, dtype=int)
    # Each coordinate's KKT test is relative to its own |v_j|, so one very
    # slack coordinate cannot loosen the test on the others.
    tol = _KKT_TOL * (1.0 + np.abs(v))

    for _ in range(max_iter):
        if done.all():
            break
        idx = np.nonzero(~done)[0]
        active = clamped[idx]
        sig_sub = sigma[idx]
        v_sub = v[idx]
        # Solve Sigma_AA s_A = -v_A with the free rows and columns masked to
        # the identity, so the solve returns s = 0 there exactly.
        m = sig_sub * (active[:, :, None] & active[:, None, :])
        m[:, eye, eye] = np.where(active, m[:, eye, eye], 1.0)
        rhs = np.where(active, -v_sub, 0.0)
        try:
            s_sub = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # Some instance's clamped block is singular.
            raise SingularCovariance("QP clamped block is numerically singular")
        t_sub = v_sub + np.matmul(sig_sub, s_sub[:, :, None])[:, :, 0]

        tol_sub = tol[idx]
        bad = np.where(active, s_sub, t_sub) < -tol_sub
        n_bad = bad.sum(axis=1)

        newly_done = n_bad == 0
        fin = idx[newly_done]
        active_fin = active[newly_done]
        s[fin] = np.where(active_fin, np.maximum(s_sub[newly_done], 0.0), 0.0)
        t[fin] = np.where(active_fin, 0.0, np.maximum(t_sub[newly_done], 0.0))
        done[fin] = True

        pending = ~newly_done
        if pending.any():
            pid = idx[pending]
            progressed = n_bad[pending] < fewest_violations[pid]
            stalled[pid] = np.where(progressed, 0, stalled[pid] + 1)
            fewest_violations[pid] = np.minimum(n_bad[pending], fewest_violations[pid])

            flip = bad[pending]
            single = stalled[pid] >= _FULL_EXCHANGE_PATIENCE
            if single.any():
                # Murty single-pivot: flip only the lowest-index violation.
                first = np.argmax(flip[single], axis=1)
                restricted = np.zeros_like(flip[single])
                restricted[np.arange(first.size), first] = True
                flip[single] = restricted
            clamped[pid] ^= flip

    if not done.all():
        raise QPNoConvergence(
            f"batch QP left {int(np.count_nonzero(~done))} of {batch} instances unfinished after {max_iter} rounds"
        )
    # At the solution v - t = -Sigma s, so the objective collapses to -v's,
    # summed left to right over the coordinates. numpy's own row sum adds a
    # C-ordered row pairwise and an F-ordered one left to right, so a fixed
    # order keeps the value independent of how v is laid out in memory.
    products = v * s
    values = products[:, 0].copy()
    for j in range(1, k):
        values += products[:, j]
    np.negative(values, out=values)
    np.maximum(values, 0.0, out=values)
    return t, values


def inverse_spd(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor."""
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance sub-block is not positive definite")
    half = np.linalg.solve(lower, np.eye(matrix.shape[0]))
    return half.T @ half

