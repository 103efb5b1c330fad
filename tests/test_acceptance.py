"""Acceptance suite: desk-scale reproduction targets and exhaustive properties.

Each criterion prints one PASS/FAIL line. The Monte Carlo fixtures run at desk
scale (2000 replications, 1000 bootstrap draws, fixed seed) and are shared
across criteria through session-scoped fixtures; expect the full module to
take on the order of fifteen minutes on a laptop-class machine.
"""

import numpy as np
import pytest
from scipy.stats import norm

from cmselect import (
    AsymptoticDraws,
    CorrelationFamily,
    ExperimentConfig,
    MomentSample,
    SelectionVector,
    StatisticKind,
    corrections_from,
    run_mnrp,
    run_power,
    summarize,
    tilt,
    upper_quantile,
)
from cmselect.qp import inverse_spd, nonneg_projection_batch
from cmselect.statistics import shifted_statistic_batch
from cmselect.streams import ASYMPTOTIC, substream
from oracles import pairwise_polish, simplex_grid_maximize, slsqp_candidate

DESK_R_MC = 2000
DESK_B = 1000
SEED = 20240811

pytestmark = pytest.mark.acceptance


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def battery():
    """Nine desk-scale size cells: J=2, three correlation kinds, three n."""
    cells = {}
    for kind in ("Neg", "Zero", "Pos"):
        for n in (50, 100, 250):
            config = ExperimentConfig(
                J=2,
                family=CorrelationFamily(kind, 2),
                n=n,
                r_mc=DESK_R_MC,
                b=DESK_B,
                procedures=("GMS", "CMS"),
                statistics=(StatisticKind.MMM, StatisticKind.AQLR),
                seed=SEED,
            )
            cells[(kind, n)] = run_mnrp(config)
    return cells


@pytest.fixture(scope="session")
def power_study():
    """MNRP sweep plus corrected local-power run at the strongest design."""
    config = ExperimentConfig(
        J=4,
        family=CorrelationFamily("Pos", 4),
        n=250,
        r_mc=DESK_R_MC,
        b=DESK_B,
        procedures=("GMS", "CMS", "RSW"),
        statistics=(StatisticKind.MMM, StatisticKind.AQLR),
        alternative_mu=((-2.4705, 1.0, 1.0, 1.0),),
        seed=SEED + 1,
        retain_critical_values=True,
    )
    mnrp = run_mnrp(config)
    corrections = corrections_from(mnrp)
    power = run_power(config, corrections)
    return mnrp, corrections, power


def test_criterion_1_small_design_sizes(battery):
    neg250 = battery[("Neg", 250)]
    neg50 = battery[("Neg", 50)]
    gms_s1 = neg250.cell("GMS", StatisticKind.MMM).mnrp
    cms_s1 = neg250.cell("CMS", StatisticKind.MMM).mnrp
    gms_s2a = neg50.cell("GMS", StatisticKind.AQLR).mnrp
    cms_s2a = neg50.cell("CMS", StatisticKind.AQLR).mnrp
    ok = (
        abs(gms_s1 - 0.049) <= 0.02
        and abs(cms_s1 - 0.049) <= 0.02
        and abs(gms_s2a - 0.07) <= 0.02
        and abs(cms_s2a - 0.053) <= 0.02
        and gms_s2a >= cms_s2a
    )
    report(
        1,
        ok,
        f"(Neg,250) GMS-S1={gms_s1:.3f} CMS-S1={cms_s1:.3f} (target .049+-.02); "
        f"(Neg,50) GMS-S2A={gms_s2a:.3f} CMS-S2A={cms_s2a:.3f} (targets .07/.053+-.02, GMS>=CMS)",
    )


def test_criterion_2_cms_never_worse_than_gms(battery):
    worst = -np.inf
    worst_cell = None
    for key, result in battery.items():
        for kind in (StatisticKind.MMM, StatisticKind.AQLR):
            gap = result.cell("CMS", kind).mnrp - result.cell("GMS", kind).mnrp
            if gap > worst:
                worst, worst_cell = gap, (key, kind.value)
    ok = worst <= 0.005
    report(
        2,
        ok,
        f"max over 9 cells x 2 statistics of (CMS - GMS) MNRP = {worst:+.4f} "
        f"at {worst_cell} (allowed +0.005)",
    )


def test_gms_cms_agree_when_all_moments_bind(battery):
    # with every moment binding the tilt is asymptotically inert, so the two
    # procedures' rejection rates coincide to within Monte Carlo resolution
    result = battery[("Neg", 250)]
    all_binding = result.patterns.index((0.0, 0.0))
    worst = 0.0
    for kind in (StatisticKind.MMM, StatisticKind.AQLR):
        gap = abs(
            result.cell("CMS", kind).rates[all_binding]
            - result.cell("GMS", kind).rates[all_binding]
        )
        worst = max(worst, gap)
    assert worst <= 0.01


def test_criterion_3_snvi_power_gap(power_study):
    _, _, power = power_study
    gap_s1 = (
        power.cell("CMS", StatisticKind.MMM).rates[0]
        - power.cell("GMS", StatisticKind.MMM).rates[0]
    )
    gap_s2a = (
        power.cell("CMS", StatisticKind.AQLR).rates[0]
        - power.cell("GMS", StatisticKind.AQLR).rates[0]
    )
    ok = gap_s1 >= 0.25 and gap_s2a >= 0.02
    report(
        3,
        ok,
        f"corrected power gaps CMS-GMS: S1 {gap_s1:+.3f} (floor +0.25), "
        f"S2A {gap_s2a:+.3f} (floor +0.02)",
    )


def test_criterion_4_critical_value_ordering(power_study):
    _, _, power = power_study
    rate_mmm = power.diagnostics["cv_ordering_rate_mmm"]
    rate_aqlr = power.diagnostics["cv_ordering_rate_aqlr"]
    ok = rate_mmm >= 0.9 and rate_aqlr >= 0.9
    report(
        4,
        ok,
        f"per-replication CMS<=GMS<=RSW critical-value ordering: "
        f"S1 {rate_mmm:.3f}, S2A {rate_aqlr:.3f} (floor 0.90)",
    )


def test_criterion_5_rsw_diagnostics(power_study):
    _, _, power = power_study
    first = power.diagnostics["rsw_first_stage_rate"]
    keep_all = power.diagnostics["rsw_no_omission_rate"]
    ok = first >= 0.9 and keep_all >= 0.9
    report(
        5,
        ok,
        f"two-step first-stage rate {first:.3f}, no-omission rate {keep_all:.3f} (floors 0.90)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: exhaustive property suite
# ---------------------------------------------------------------------------


def _statistic(kind, vec, sigma):
    return shifted_statistic_batch(kind, vec[None], sigma)[0]


def _random_instance(rng):
    j = int(rng.integers(1, 7))
    a = rng.standard_normal((j, j))
    sigma = a @ a.T + j * np.eye(j)
    v = rng.standard_normal(j) * 2
    return v, sigma


def test_criterion_6a_statistic_properties():
    rng = np.random.default_rng(SEED)
    worst_scale = worst_hom = worst_kkt = 0.0
    for i in range(1000):
        v, sigma = _random_instance(rng)
        kind = StatisticKind.MMM if i % 2 == 0 else StatisticKind.AQLR
        base = _statistic(kind, v, sigma)

        higher = v + rng.uniform(0, 1.5, v.size)
        assert _statistic(kind, higher, sigma) <= base + 1e-10

        d = rng.uniform(0.2, 5.0, v.size)
        scaled = _statistic(kind, d * v, sigma * np.outer(d, d))
        worst_scale = max(worst_scale, abs(scaled - base) / (1.0 + base))

        a = float(rng.uniform(0.1, 10.0))
        hom = _statistic(kind, a * v, sigma)
        worst_hom = max(worst_hom, abs(hom - a**2 * base) / (1.0 + a**2 * base))

        assert base >= 0.0
        assert (base > 0) == bool(np.any(v < 0))

        t = nonneg_projection_batch(sigma, v[None])[0][0]
        grad = 2 * inverse_spd(sigma) @ (t - v)
        active = t <= 1e-12
        kkt = max(
            float(np.max(-grad[active], initial=0.0)),
            float(np.max(np.abs(grad[~active]), initial=0.0)),
        )
        worst_kkt = max(worst_kkt, kkt)

    ok = worst_scale <= 1e-8 and worst_hom <= 1e-8 and worst_kkt <= 1e-8
    report(
        "6a",
        ok,
        f"1000 instances: scale-invariance dev {worst_scale:.1e}, homogeneity dev "
        f"{worst_hom:.1e}, QP KKT residual {worst_kkt:.1e} (all <= 1e-8); "
        "monotonicity/nonnegativity/zero-criterion exact",
    )


def test_criterion_6b_tilt_invariants():
    rng = np.random.default_rng(SEED + 2)
    solved = 0
    worst_gap = worst_slack = worst_mass = 0.0
    while solved < 1000:
        n = int(rng.integers(10, 50))
        j = int(rng.integers(1, 5))
        g = rng.standard_normal((n, j)) + rng.uniform(-0.4, 0.4, j)
        result = tilt(MomentSample(g))
        if not result.solved:
            continue
        solved += 1
        p, lam, mean = result.probabilities, result.multipliers, result.tilted_mean
        worst_mass = max(worst_mass, abs(p.sum() - 1.0))
        assert np.all(lam <= 1e-12)
        assert np.all(mean >= -1e-8)
        worst_slack = max(worst_slack, float(np.max(np.abs(lam * mean))))
        implied = 1.0 / (n * (1.0 + g @ lam))
        assert np.allclose(p, implied, rtol=1e-8)
        dual = -n * np.log(n) - np.log(1.0 + g @ lam).sum()
        worst_gap = max(worst_gap, abs(dual - result.objective))
    ok = worst_mass <= 1e-12 and worst_slack <= 1e-8 and worst_gap <= 1e-8
    report(
        "6b",
        ok,
        f"1000 feasible tilts: mass dev {worst_mass:.1e} (<=1e-12), complementary "
        f"slackness {worst_slack:.1e} (<=1e-8), duality gap {worst_gap:.1e} (<=1e-8)",
    )


def test_criterion_6c_tilt_oracle_equivalence():
    rng = np.random.default_rng(SEED + 3)
    fixtures = []
    for n in range(2, 7):
        for j in (1, 2):
            picked = 0
            while picked < 2:
                g = np.round(rng.standard_normal((n, j)), 2)
                try:
                    sample = MomentSample(g)
                except ValueError:
                    continue
                result = tilt(sample)
                if not result.solved:
                    continue
                fixtures.append((g, result))
                picked += 1
    worst = 0.0
    for g, result in fixtures:
        coarse_p, _ = simplex_grid_maximize(g, divisions=10, rounds=8)
        candidates = []
        if coarse_p is not None:
            candidates.append(pairwise_polish(g, coarse_p))
        slsqp = slsqp_candidate(g)
        if slsqp is not None:
            candidates.append(slsqp)
        assert candidates, "oracle found no feasible point"
        _, oracle_val = max(candidates, key=lambda c: c[1])
        worst = max(worst, abs(result.objective - oracle_val))
        assert result.objective >= oracle_val - 1e-9
    ok = worst <= 1e-5
    report(
        "6c",
        ok,
        f"{len(fixtures)} small fixtures (n<=6, J<=2): max |objective - brute force| "
        f"= {worst:.2e} (<= 1e-5)",
    )


def test_criterion_6d_analytic_critical_value():
    rng = substream(SEED + 4, 2)
    selection = SelectionVector(np.zeros(1), source="phi1")
    draws = AsymptoticDraws(np.eye(1), 10**6, rng).selection_draws(selection, StatisticKind.MMM)
    simulated = upper_quantile(draws, 0.95)
    analytic = float(norm.ppf(0.95) ** 2)
    ok = abs(simulated - analytic) <= 0.02
    report(
        "6d",
        ok,
        f"simulated 0.95 quantile {simulated:.4f} vs analytic {analytic:.4f} (+-0.02 at R=1e6)",
    )


def test_criterion_7_nested_selection_ordering():
    rng = np.random.default_rng(SEED + 5)
    violations = 0
    trials = 0
    for case in range(50):
        j = int(rng.integers(1, 6))
        sample = MomentSample(rng.standard_normal((60, j)) + 0.2)
        summary = summarize(sample)
        base = np.where(rng.random(j) < 0.4, np.inf, rng.uniform(0, 2, j))
        extra = np.where(rng.random(j) < 0.3, np.inf, rng.uniform(0, 1, j))
        low = SelectionVector(base, source="phi2")
        high = SelectionVector(np.maximum(base + extra, base), source="phi2")
        for kind in StatisticKind:
            trials += 1
            draws = AsymptoticDraws(summary.correlation, 400, substream(case, ASYMPTOTIC))
            if draws.selection_quantile(high, kind, 1.0 - 0.05) > draws.selection_quantile(low, kind, 1.0 - 0.05):
                violations += 1
    ok = violations == 0
    report(
        7,
        ok,
        f"{trials} nested selection pairs with common draws: {violations} ordering "
        "violations (zero tolerance)",
    )
