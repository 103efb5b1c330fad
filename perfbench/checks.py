"""Output checks that do not rely on the program's own code.

The statistics are recomputed here from the data: MMM in closed form, AQLR by
enumerating every active set of the orthant projection after the determinant
adjustment. Sweep samples are regenerated from the seed derivation that
`cmselect.streams` and `cmselect.harness` document: substream
(seed, phase, pattern, replication, purpose) is
``default_rng(SeedSequence(entropy=seed, spawn_key=path))``, and a sample is
mean + Z L' with Z an (n, J) standard-normal draw from the sample-draw
substream and L the Cholesky factor of the family's Toeplitz correlation.
Each check returns (name, passed, detail).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-9
ADJUSTMENT_CUTOFF = 0.012
PHASE_NULL, PHASE_POWER = 0, 1
SAMPLE_DRAW = 0
INFINITY_SURROGATE = 10.0

# Toeplitz first rows of the correlation families the sweeps use.
FAMILY_RHO = {
    ("Pos", 4): (0.9, 0.7, 0.5),
    ("Neg", 10): (-0.9, 0.8, -0.7, 0.6, -0.5, 0.4, -0.3, 0.2, -0.1),
}


def mmm_reference(x: np.ndarray) -> float:
    n = x.shape[0]
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    return float(n * np.sum(np.minimum(mean / sd, 0.0) ** 2))


def aqlr_reference(x: np.ndarray) -> float:
    """n min_{t >= 0} (m - t)' W (m - t), W the inverse of the adjusted
    covariance, as the minimum over all faces {t_A = 0} of the face's
    unconstrained minimizer, among those that are feasible."""
    n, j = x.shape
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    sd = np.sqrt(np.diag(cov))
    bump = max(0.0, ADJUSTMENT_CUTOFF - float(np.linalg.det(cov / np.outer(sd, sd))))
    w = np.linalg.inv(cov + bump * np.diag(sd**2))
    best = math.inf
    for clamped in itertools.product((False, True), repeat=j):
        a = np.array(clamped)
        f = ~a
        t = np.zeros(j)
        if f.any():
            t[f] = mean[f] + np.linalg.solve(w[np.ix_(f, f)], w[np.ix_(f, a)] @ mean[a])
            if np.any(t[f] < 0.0):
                continue
        d = mean - t
        best = min(best, float(d @ w @ d))
    return n * best


def _close(program: float, reference: float) -> bool:
    return abs(program - reference) <= REL_TOL * max(abs(program), abs(reference)) + 1e-12


def _relative_error(program: float, reference: float) -> float:
    scale = max(abs(program), abs(reference))
    return abs(program - reference) / scale if scale else 0.0


def regenerate_sample(spec: dict, seed: int, phase: int, pattern: int, rep: int, mu) -> np.ndarray:
    j = spec["J"]
    first_row = np.concatenate(([1.0], FAMILY_RHO[(spec["family"], j)]))
    corr = first_row[np.abs(np.subtract.outer(np.arange(j), np.arange(j)))]
    chol = np.linalg.cholesky(corr)
    mu_eff = np.array([INFINITY_SURROGATE if math.isinf(m) else float(m) for m in mu])
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(phase, pattern, rep, SAMPLE_DRAW))
    z = np.random.default_rng(ss).standard_normal((spec["n"], j))
    return mu_eff + z @ chol.T


def _statistic_values(result, kind: str) -> np.ndarray:
    for (_, statistic), cell in result.cells.items():
        if statistic == kind:
            return cell.statistic_values
    raise KeyError(kind)


def sweep_checks(spec: dict, rounds: list) -> list:
    """``rounds`` holds (config seed, MNRP result, power result or None)."""
    alpha = spec["alpha"]
    out = []

    worst, checked, ok = 0.0, 0, True
    for k, (seed, mnrp, power) in enumerate(rounds):
        r_mc = spec["r_mc"]
        points = [(PHASE_NULL, mnrp, k % len(mnrp.patterns), 0),
                  (PHASE_NULL, mnrp, len(mnrp.patterns) - 1, r_mc - 1)]
        if power is not None:
            points.append((PHASE_POWER, power, 0, k % r_mc))
        for phase, result, p, r in points:
            mu = result.patterns[p]
            if phase == PHASE_POWER:
                # Power results list the alternatives before the 1/sqrt(n) scaling.
                mu = tuple(float(m) / math.sqrt(spec["n"]) for m in mu)
            x = regenerate_sample(spec, seed, phase, p, r, mu)
            for kind, reference in (("mmm", mmm_reference(x)), ("aqlr", aqlr_reference(x))):
                program = float(_statistic_values(result, kind)[p, r])
                checked += 1
                ok = ok and _close(program, reference)
                worst = max(worst, _relative_error(program, reference))
    out.append(("statistic_recomputed", ok,
                f"{checked} values, worst relative error {worst:.2e} (limit {REL_TOL:g})"))

    finite = all(
        np.all(np.isfinite(cell.critical_values)) and np.all(cell.critical_values >= 0.0)
        for _, mnrp, _ in rounds for cell in mnrp.cells.values()
    )
    out.append(("critical_values_finite_nonnegative", bool(finite), "uncorrected, every MNRP cell"))
    rates_ok = all(
        np.all((cell.rates >= 0.0) & (cell.rates <= 1.0))
        for _, mnrp, power in rounds for result in (mnrp, power) if result is not None
        for cell in result.cells.values()
    )
    out.append(("rates_in_unit_interval", bool(rates_ok), "every cell, both phases"))

    # MNRP pooled over the rounds: every round draws fresh samples.
    worst_margin, detail = -math.inf, ""
    for key in sorted(rounds[0][1].cells):
        rejections = np.concatenate([mnrp.cells[key].rejections for _, mnrp, _ in rounds], axis=1)
        rates = rejections.mean(axis=1)
        reps = rejections.shape[1]
        p = int(np.argmax(rates))
        se = math.sqrt(rates[p] * (1.0 - rates[p]) / reps)
        margin = rates[p] - alpha - 4.0 * se
        if margin > worst_margin:
            worst_margin = margin
            detail = f"{key[0]}-{key[1]} MNRP {rates[p]:.3f} over {reps} reps, SE {se:.3f}"
    out.append(("mnrp_within_4se_of_alpha", worst_margin <= 0.0, f"closest: {detail}"))

    if rounds[0][2] is not None:
        def pooled_power(proc):
            hits = [power.cells[(proc, "mmm")].rejections for _, _, power in rounds]
            return float(np.concatenate(hits, axis=1).mean())

        cms, gms = pooled_power("CMS"), pooled_power("GMS")
        out.append(("corrected_power_cms_ge_gms_mmm", cms >= gms,
                    f"CMS {cms:.3f} vs GMS {gms:.3f}"))
    return out


def invert_checks(samples: dict, listings: list) -> list:
    """``samples`` maps theta_id to its (n, J) data; ``listings`` holds the
    points of every round's `cmselect invert` output."""
    out = []
    reference = {theta: aqlr_reference(x) for theta, x in samples.items()}
    worst, ok = 0.0, True
    for points in listings:
        ok = ok and {p["theta_id"] for p in points} == set(samples)
        for point in points:
            ref = reference.get(point["theta_id"], math.nan)
            ok = ok and _close(float(point["statistic"]), ref)
            worst = max(worst, _relative_error(float(point["statistic"]), ref))
    out.append(("statistic_recomputed", ok,
                f"{len(samples)} points x {len(listings)} rounds, worst relative error {worst:.2e}"))

    cvs = [float(p["critical_value"]) for points in listings for p in points]
    out.append(("critical_values_finite_nonnegative",
                all(math.isfinite(c) and c >= 0.0 for c in cvs), f"{len(cvs)} values"))

    inside = {t for t, x in samples.items() if np.all(x.mean(axis=0) >= 0.0)}
    far = {t for t, x in samples.items()
           if np.min(math.sqrt(x.shape[0]) * x.mean(axis=0) / x.std(axis=0)) < -10.0}
    accepted_ok = all(not p["reject"] for points in listings for p in points if p["theta_id"] in inside)
    rejected_ok = all(p["reject"] for points in listings for p in points if p["theta_id"] in far)
    out.append(("nonnegative_means_accepted", accepted_ok, f"{len(inside)} points"))
    out.append(("studentized_below_minus_10_rejected", rejected_ok, f"{len(far)} points"))
    return out
