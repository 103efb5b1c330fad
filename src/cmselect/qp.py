"""Quadratic programming over the nonnegative orthant.

Solves min_{t >= 0} (v - t)' W (v - t) with W symmetric positive definite.

* `nonneg_projection_batch`, the one solver every statistic goes through,
  solves a stack of independent instances simultaneously: the statistic on
  data (a batch of one) and the critical-value simulations (one instance per
  simulation or bootstrap draw). It pivots on the complementarity system in
  Sigma = W^(-1) directly (block principal pivoting, Judice & Pires 1994,
  with Murty's least-index single pivot), so no inverse is ever formed.
  Each round solves every pending instance's clamped block with one
  unpivoted LDL^T factorization run elementwise across the batch, and sums
  Sigma s column by column in a fixed order.

  The byte contract: an instance's value and multipliers depend on
  (Sigma_AA, v_A) alone, A the clamped set that the solver's KKT test
  certifies; omitted (+inf) or free coordinates never touch their bits,
  nor does the batch the instance sits in. So the returned certificate (A,
  its raw multipliers and Sigma s) can be reused: `certified` checks it
  against a later v that equals the old one on A, bit for bit, with the
  solver's own test, where(A, s, v + Sigma s) >= -1e-10 (1 + |v|), and
  gives the bytes a new solve would return wherever the test passes. Every
  instance starts from the clamped set v < 0. An instance unfinished at
  the round cap raises QPNoConvergence.

  Failure policy: a clamped block with an LDL^T pivot <= 0 raises
  SingularCovariance, and never yields NaN or inf. No production block
  gets there: the critical-value draws read Omega after the determinant
  adjustment, which adds max(0, 0.012 - det) times the diagonal to a
  positive semidefinite correlation and so leaves it positive definite,
  `evaluate` refuses a data covariance whose adjusted form fails its
  Cholesky factorization, and every principal block of a symmetric
  positive definite matrix is symmetric positive definite.

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


class Projection(tuple):
    """What `nonneg_projection_batch` returns. It unpacks and indexes as the
    pair (t, values). Each instance's certificate rides along, (B, K) each:
    ``clamped``, the set whose solve passed the KKT test; ``multipliers``,
    that solve's raw s (+0.0 off the set); and ``displacement``, Sigma s as
    the solver sums it, so that the residual is t = v + displacement, NaN
    on a coordinate +inf in every instance (`displacement_rows` sums it).
    `certified` checks a certificate against a later v."""

    def __new__(cls, t, values, clamped, multipliers, displacement):
        self = super().__new__(cls, (t, values))
        self.clamped, self.multipliers, self.displacement = clamped, multipliers, displacement
        return self


def nonneg_projection_batch(sigma: np.ndarray, v: np.ndarray, max_iter: int | None = None) -> Projection:
    """Batched counterpart of `nonneg_projection`, parameterized by Sigma = W^(-1).

    Substituting s = W (t - v) turns the optimality conditions into the
    complementarity system t = v + Sigma s, t >= 0, s >= 0, t's = 0, whose
    pivoting rounds solve only in the clamped block. ``sigma`` has shape
    (B, K, K) or (K, K) (broadcast); ``v`` has shape (B, K), and an entry
    +inf is a coordinate that can never bind (an omitted moment), never
    clamped. Returns a `Projection`: (t, values) with shapes (B, K) and
    (B,), plus each instance's certificate. Raises QPNoConvergence when any
    instance is unfinished after ``max_iter`` rounds (default 50 per
    dimension), and SingularCovariance when a clamped block has a pivot
    <= 0.

    Every instance starts from the clamped set ``v < 0``; one with no
    negative entry is finished at t = v, certified by the empty set. An
    instance's t, value and certificate come from the round that certifies
    its final clamped set A. In that round s_A depends on (Sigma_AA, v_A)
    alone (`_clamped_solve`), and Sigma s on Sigma's columns A and s_A
    (`_product`): every step is elementwise across the batch, coordinates
    +inf in every instance are left out, and an instance's free coordinates
    add only signed zeros to its sums, which neither the value nor the KKT
    test can see. So any search that ends on the same set, any batch the
    instance sits in, and any number of +inf coordinates return the same
    value and multipliers as the compact problem on the finite
    coordinates, bit for bit; `certified` rests on that.
    """
    v = np.asarray(v, dtype=float)
    batch, k = v.shape
    if k == 0:
        empty = np.zeros((batch, 0))
        return Projection(empty, np.zeros(batch), empty.astype(bool), empty, empty)
    sigma = np.asarray(sigma, dtype=float)
    # Moment-major: one length-B row per entry of Sigma.
    rows = sigma[:, :, None] if sigma.ndim == 2 else sigma.transpose(1, 2, 0)
    vt = np.ascontiguousarray(v.T)
    # A coordinate +inf in every instance (a moment the whole batch omits)
    # never binds: the rounds run without it, and Sigma s is left NaN on its
    # row until `displacement_rows` sums it.
    dead = (vt == np.inf).all(axis=1)
    live = (~dead).nonzero()[0]
    v_live = vt[live]
    sets, s, u = _pivot(np.ascontiguousarray(rows[live[:, None], live]), v_live, max_iter)
    t, values = _finish(v_live, sets, s, v_live + u)
    if dead.any():
        shape = (k, batch)
        full = np.zeros(shape, dtype=bool), np.zeros(shape), np.full(shape, np.nan), np.full(shape, np.inf)
        for whole, part in zip(full, (sets, s, u, t)):
            whole[live] = part
        sets, s, u, t = full
    return Projection(t.T, values, sets.T, s.T, u.T)


def displacement_rows(sigma: np.ndarray, rows: np.ndarray, clamped: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Sigma s on the coordinates ``rows`` only, (len(rows), B), for the
    certificates (B, K) of `Projection`, summed as the solver sums it: the
    rows a solve leaves NaN, where every instance of its batch was +inf."""
    sigma = np.asarray(sigma, dtype=float)
    mm = sigma[:, :, None] if sigma.ndim == 2 else sigma.transpose(1, 2, 0)
    return _product(mm[rows], multipliers.T, clamped.T)


def _pivot(rows: np.ndarray, v: np.ndarray, max_iter):
    """The pivoting rounds on moment-major ``rows`` (K, K, B) or (K, K, 1)
    and v (K, B): each instance's certified clamped set, raw multipliers
    and Sigma s, all (K, B)."""
    k, batch = v.shape
    if max_iter is None:
        max_iter = 50 * k
    # True marks coordinates clamped to zero, where the multiplier s lives.
    clamped = v < 0.0
    done = ~clamped.any(axis=0)
    certified_sets = np.zeros((k, batch), dtype=bool)
    multipliers = np.zeros((k, batch))
    displacement = np.zeros((k, batch))
    stalled = np.zeros(batch, dtype=int)
    fewest_violations = np.full(batch, k + 1, dtype=int)

    for _ in range(max_iter):
        if done.all():
            break
        idx = (~done).nonzero()[0]
        active = clamped[:, idx]
        sub = rows if rows.shape[2] == 1 or idx.size == batch else rows.take(idx, axis=2)
        v_sub = v[:, idx]
        s_sub = _clamped_solve(sub, v_sub, active)
        u_sub = _product(sub, s_sub, active)
        # Each coordinate's KKT test is relative to its own |v_j|, so one
        # very slack coordinate cannot loosen the test on the others.
        bad = np.where(active, s_sub, v_sub + u_sub) < -_KKT_TOL * (1.0 + np.abs(v_sub))
        n_bad = bad.sum(axis=0)

        newly_done = n_bad == 0
        fin = idx[newly_done]
        certified_sets[:, fin] = active[:, newly_done]
        multipliers[:, fin] = s_sub[:, newly_done]
        displacement[:, fin] = u_sub[:, newly_done]
        done[fin] = True

        pending = ~newly_done
        if pending.any():
            pid = idx[pending]
            progressed = n_bad[pending] < fewest_violations[pid]
            stalled[pid] = np.where(progressed, 0, stalled[pid] + 1)
            fewest_violations[pid] = np.minimum(n_bad[pending], fewest_violations[pid])

            flip = bad[:, pending]
            single = stalled[pid] >= _FULL_EXCHANGE_PATIENCE
            if single.any():
                # Murty single-pivot: flip only the lowest-index violation.
                first = np.argmax(flip[:, single], axis=0)
                restricted = np.zeros_like(flip[:, single])
                restricted[first, np.arange(first.size)] = True
                flip[:, single] = restricted
            clamped[:, pid] ^= flip

    if not done.all():
        raise QPNoConvergence(
            f"batch QP left {int(np.count_nonzero(~done))} of {batch} instances unfinished after {max_iter} rounds"
        )
    return certified_sets, multipliers, displacement


def certified(v: np.ndarray, clamped: np.ndarray, multipliers: np.ndarray, displacement: np.ndarray):
    """Whether each instance's certificate from an earlier solve still
    certifies it at ``v``, and the (t, values) it gives.

    The certificate, (B, K) arrays as `Projection` carries them, must come
    from a solve on the same Sigma and on the same v_A, bit for bit, so
    that a new solve of its set A would return the same multipliers and
    displacement. Returns (ok, t, values), with shapes (B,), (B, K) and
    (B,): ok marks the instances that pass the solver's own KKT test,
    where(A, s, v + displacement) >= -tol, and for those t and values are
    the bytes `nonneg_projection_batch` returns when it certifies A at v.
    """
    vt = np.asarray(v, dtype=float).T
    active, s = clamped.T, multipliers.T
    # A coordinate +inf now never binds, summed or not; elsewhere a NaN
    # displacement (a row never summed) fails the test.
    t_raw = np.where(vt == np.inf, vt, vt + displacement.T)
    ok = np.all(np.where(active, s, t_raw) >= -_KKT_TOL * (1.0 + np.abs(vt)), axis=0)
    t, values = _finish(vt, active, s, t_raw)
    return ok, t.T, values


def _clamped_solve(rows: np.ndarray, v: np.ndarray, active: np.ndarray) -> np.ndarray:
    """s (K, P) with Sigma_AA s_A = -v_A and s = +0.0 off A, for moment-major
    ``rows`` (K, K, P) or (K, K, 1), v and clamped sets ``active`` (K, P).

    The instances are taken largest clamped set first (``order``), so those
    whose set has more than c coordinates are the first ``reach[c]``, and
    each instance's Sigma_AA, lower triangle only, is gathered into the
    leading rows and columns of an (m, m) block, m the largest size, in
    ascending order of the coordinates.
    """
    k, p = active.shape
    sizes = active.sum(axis=0)
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    s = np.zeros((k + 1, p))
    m = int(sizes[0])
    if m == 0:
        return s[:k]
    reach = (sizes > np.arange(m)[:, None]).sum(axis=1)
    # Each instance's clamped coordinates in ascending order, padded with k:
    # the block gathers stop at each instance's size, the right-hand side
    # reads padding as any entry (mode="clip") and the scatter drops it into
    # row k.
    perm = np.where(active, np.arange(k)[:, None], k)
    perm.sort(axis=0)
    perm = perm[:m, order]
    wide = rows.shape[2]
    column = perm * wide + (order if wide > 1 else 0)
    row = perm * (k * wide)
    work = np.zeros((m, m, p))
    for i, cut in enumerate(reach):
        work[i, : i + 1, :cut] = rows.take(row[i, :cut] + column[: i + 1, :cut])
    s[perm, order] = _ldl_solve(work, sizes, reach, -v.take(perm * p + order, mode="clip"))
    return s[:k]


def _ldl_solve(work: np.ndarray, sizes: np.ndarray, reach: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """s with Sigma_AA s = rhs for each instance laid out by `_clamped_solve`:
    ``work`` (m, m, P) holds the blocks and is overwritten, as is ``rhs``
    (m, P); the entries of s past an instance's set size are garbage.

    One LDL^T factorization without pivoting, right-looking and elementwise
    across the batch. Step j touches only the instances whose set reaches
    past row j, and no entry of an instance's own block reads its padding
    rows, so its bytes are those of the same factorization of its compact
    Sigma_AA alone, whichever instances share its batch. It reads the lower
    triangle alone (a bootstrap Omega is not bitwise symmetric) and keeps L
    in the upper one. Unpivoted LDL^T is backward stable on symmetric
    positive definite blocks (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10); a pivot <= 0 (or NaN) means the block is not
    positive definite, which raises SingularCovariance rather than return
    NaN or inf.
    """
    m, _, p = work.shape
    pivots = work.reshape(m * m, p)[:: m + 1]
    y = rhs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(m - 1):
            below = reach[j + 1]
            column = work[j + 1 :, j, :below]
            scaled = column / pivots[j, :below]
            # The trailing lower triangle in two bands, each over only the
            # instances that reach its first row: the rows above the middle
            # and their square, then the rows from the middle on.
            mid = (j + 1 + m) // 2
            work[j + 1 : mid, j + 1 : mid, :below] -= scaled[: mid - j - 1, None] * column[: mid - j - 1]
            if mid < m and reach[mid]:
                cut = reach[mid]
                work[mid:, j + 1 :, :cut] -= scaled[mid - j - 1 :, None, :cut] * column[:, :cut]
            y[j + 1 :, :below] -= scaled * y[j, :below]
            work[j, j + 1 :, :below] = scaled
        if not ((pivots > 0.0) | (np.arange(m)[:, None] >= sizes)).all():
            raise SingularCovariance("QP clamped block is not positive definite")
        s = y / pivots
        for j in range(m - 1, 0, -1):
            s[:j, : reach[j]] -= work[:j, j, : reach[j]] * s[j, : reach[j]]
    return s


def _product(rows: np.ndarray, s: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Sigma s from moment-major ``rows`` (R, K, P) and s (K, P), summed one
    column of Sigma at a time, in ascending order, over the columns that
    some instance clamps: elementwise, so an instance's bytes do not depend
    on the batch it sits in (a batched matmul's may)."""
    total = np.zeros((rows.shape[0], s.shape[1]))
    for j in active.any(axis=1).nonzero()[0]:
        total += rows[:, j] * s[j]
    return total


def _finish(v: np.ndarray, active: np.ndarray, s: np.ndarray, t_raw: np.ndarray):
    """(t, values) on moment-major (K, P) arrays from a certified set, its raw
    multipliers and its residual t = v + Sigma s."""
    t = np.where(active, 0.0, np.maximum(t_raw, 0.0))
    # At the solution v - t = -Sigma s, so the objective collapses to -v's,
    # summed left to right over the coordinates, in one fixed order whatever
    # the layout of v. Off the set the product is +0.0, never v * 0 (NaN at
    # an infinite v).
    products = np.where(active, v, 0.0) * np.maximum(s, 0.0)
    values = np.zeros(v.shape[1])
    for row in products:
        values += row
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

