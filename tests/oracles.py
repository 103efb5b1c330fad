"""Independent oracles for the tests.

Solver-independent oracles for the constrained empirical-likelihood tests,
shared between the unit suite and the acceptance suite, the determinant
adjustment with LAPACK's determinant, and a replicate-major construction of
the bootstrap draws. Nothing in here may import from cmselect.tilt.
"""

import math

import numpy as np


def simplex_grid_maximize(g, divisions=12, rounds=24):
    """Brute-force oracle: maximize sum(log p) over the constrained simplex.

    Evaluates a full grid over the first n-1 coordinates (the last one closes
    the simplex), keeps the best feasible point, and re-grids inside a window
    around it. Recenters without shrinking while the incumbent sits on the
    window rim. Completely independent of the dual solver.
    """
    n, j = g.shape
    lo = np.zeros(n - 1)
    hi = np.ones(n - 1)
    best_p = None
    best_val = -np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], divisions + 1) for i in range(n - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        head = np.stack([m.ravel() for m in mesh], axis=1)
        tail = 1.0 - head.sum(axis=1)
        p = np.concatenate([head, tail[:, None]], axis=1)
        ok = np.all(p > 1e-12, axis=1)
        ok &= np.all(p @ g >= -1e-12, axis=1)
        if ok.any():
            vals = np.full(p.shape[0], -np.inf)
            vals[ok] = np.log(p[ok]).sum(axis=1)
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_p = float(vals[i]), p[i]
        if best_p is None:
            continue
        center = best_p[: n - 1]
        width = hi - lo
        # Shrink to a couple of grid cells, but never below twice the distance
        # the incumbent just moved, and halve instead when it sits on the rim;
        # both rules prevent the window from losing the optimum.
        moved = np.abs(center - (lo + hi) / 2.0)
        on_rim = np.any((center <= lo + width / divisions) | (center >= hi - width / divisions))
        base_half = width / 2.0 if on_rim else 2.0 * width / divisions
        new_half = np.maximum(base_half, 2.0 * moved)
        lo = np.maximum(0.0, center - new_half)
        hi = np.minimum(1.0, center + new_half)
    return best_p, best_val


def pairwise_polish(g, p_start, sweeps=80):
    """Cyclic exact line searches along mass-transfer directions e_i - e_k.

    Every candidate stays feasible by construction: the admissible step range
    for each pair is the closed-form intersection of the box and moment
    constraints. Zoomed grids per pair push the resolution far below the
    target tolerance. Independent of the dual solver.
    """
    n = p_start.size
    p = p_start.copy()
    val = np.log(p).sum()
    floor = 1e-12
    for _ in range(sweeps):
        improved = False
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                step_lo, step_hi = -(p[i] - floor), p[k] - floor
                move = g[i] - g[k]  # d/d(step) of each moment
                base = p @ g
                for jdx in range(g.shape[1]):
                    if move[jdx] > 0:
                        step_lo = max(step_lo, -base[jdx] / move[jdx])
                    elif move[jdx] < 0:
                        step_hi = min(step_hi, -base[jdx] / move[jdx])
                if step_hi <= step_lo:
                    continue
                lo, hi = step_lo, step_hi
                for _zoom in range(4):
                    steps = np.linspace(lo, hi, 65)
                    vals = (
                        np.log(p[i] + steps)
                        + np.log(p[k] - steps)
                        - np.log(p[i])
                        - np.log(p[k])
                    )
                    best = int(np.nanargmax(vals))
                    width = (hi - lo) / 32
                    lo = max(step_lo, steps[best] - width)
                    hi = min(step_hi, steps[best] + width)
                step = (lo + hi) / 2
                gain = np.log(p[i] + step) + np.log(p[k] - step) - np.log(p[i]) - np.log(p[k])
                if gain > 1e-13:
                    p[i] += step
                    p[k] -= step
                    val += gain
                    improved = True
        if not improved:
            break
    return p, float(np.log(p).sum())


def slsqp_candidate(g):
    """Feasible point from a third-party NLP solver; None if not verifiably
    feasible. Its objective only ever strengthens the oracle's lower bound."""
    import warnings

    from scipy.optimize import minimize

    n = g.shape[0]
    cons = [{"type": "eq", "fun": lambda p: p.sum() - 1.0}]
    for jdx in range(g.shape[1]):
        cons.append({"type": "ineq", "fun": (lambda col: lambda p: p @ col)(g[:, jdx])})
    with warnings.catch_warnings():
        # the solver warns while clipping trial points to the bounds
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(
            lambda p: -np.sum(np.log(np.maximum(p, 1e-300))),
            np.full(n, 1.0 / n),
            bounds=[(1e-12, 1.0)] * n,
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
    p = np.maximum(res.x, 1e-300)
    p = p / p.sum()
    if np.all(p > 0) and np.all(p @ g >= -1e-12):
        return p, float(np.log(p).sum())
    return None


def lapack_correlation_det(sigma):
    """np.linalg.det (LAPACK's LU) of the explicit correlation of each matrix
    in a stack (B, K, K), the correlations formed on flat (B, K²) rows."""
    batch, k, _ = sigma.shape
    flat = sigma.reshape(batch, k * k)
    inv = 1.0 / np.sqrt(flat[:, :: k + 1])
    corr = flat * np.repeat(inv, k, axis=1)
    corr *= np.tile(inv, k)
    return np.linalg.det(corr.reshape(batch, k, k))


def lapack_adjusted_sigma(sigma):
    """The AQLR determinant adjustment of a stack (B, K, K) read off
    `lapack_correlation_det`: max(0, 0.012 - det) times the variance
    diagonal is added to each matrix."""
    from cmselect.statistics import ADJUSTMENT_CUTOFF

    batch, k, _ = sigma.shape
    bump = np.maximum(0.0, ADJUSTMENT_CUTOFF - lapack_correlation_det(sigma))
    adjusted = sigma.reshape(batch, k * k).copy()
    adjusted[:, :: k + 1] += bump[:, None] * adjusted[:, :: k + 1]
    return adjusted.reshape(batch, k, k)


def replicate_major_draws(sample, summary, counts):
    """The bootstrap draws built one replicate per row: the resampling
    product transposed to (B, W), the per-replicate passes on flat (B, J²)
    rows and short-axis reductions. Returns the arrays `BootstrapDraws`
    exposes, with ``omega_adjusted`` for its ``_omega_adjusted``: the
    package's determinant adjustment applied to this construction's own
    Omega*, so that the layout is checked here and the adjustment itself
    against `lapack_adjusted_sigma` in the statistics tests."""
    from cmselect.moments import variance_floor
    from cmselect.statistics import adjusted_sigma_batch

    x = sample.values - summary.mean
    n, j = x.shape
    upper_i, upper_j = np.triu_indices(j)
    columns = np.hstack([x, x[:, upper_i] * x[:, upper_j]])
    moments = np.divide((columns.T @ counts.T).T, n, order="C")
    g_star = moments[:, :j]
    cross = moments[:, j:] - g_star[:, upper_i] * g_star[:, upper_j]
    pair = np.empty((j, j), dtype=np.intp)
    pair[upper_i, upper_j] = pair[upper_j, upper_i] = np.arange(upper_i.size)
    sigma_star = np.take(cross, pair.ravel(), axis=1)
    var_star = sigma_star[:, :: j + 1]
    valid = np.all(var_star > variance_floor(sample.values, x), axis=1)
    g_star, sigma_star, var_star = g_star[valid], sigma_star[valid], var_star[valid]
    sd_star = np.sqrt(var_star)
    inv_sd = 1.0 / sd_star
    omega = sigma_star * np.repeat(inv_sd, j, axis=1)
    omega *= np.tile(inv_sd, j)
    g_recentered_stud = math.sqrt(n) * g_star * inv_sd
    return {
        "valid": valid,
        "g_recentered_stud": g_recentered_stud,
        "sd_star": sd_star,
        "omega_star": omega.reshape(-1, j, j),
        "omega_adjusted": adjusted_sigma_batch(omega.reshape(-1, j, j)),
        "rectangle_min": np.min(-g_recentered_stud, axis=1),
    }
