import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmselect import MomentSample, summarize, tilt
from cmselect.cli import main
from cmselect.critical import selection_step
from cmselect.errors import NoConvergence
from cmselect.harness import simulate_sample
from cmselect.moments import CorrelationFamily
from cmselect.selection import KappaKind, KappaSchedule
from cmselect.streams import substream
from oracles import lp_feasible, pairwise_polish, simplex_grid_maximize, slsqp_candidate

tilt_module = importlib.import_module("cmselect.tilt")


class TestHandExample:
    # single column (-2, 1): constraint binds, p = (1/3, 2/3)
    sample = MomentSample(np.array([[-2.0], [1.0]]))

    def test_solution(self):
        result = tilt(self.sample)
        assert result.solved
        assert np.allclose(result.probabilities, [1 / 3, 2 / 3], atol=1e-10)
        assert result.multipliers[0] == pytest.approx(-0.25, abs=1e-10)
        assert result.tilted_mean[0] == pytest.approx(0.0, abs=1e-10)
        assert result.objective == pytest.approx(np.log(1 / 3) + np.log(2 / 3), abs=1e-10)
        assert result.binding_set == {0}

    def test_grid_oracle_agrees(self):
        grid = np.arange(1e-6, 1.0, 1e-6)
        feasible_mask = -2 * grid + (1 - grid) >= 0
        vals = np.log(grid[feasible_mask]) + np.log(1 - grid[feasible_mask])
        objective = tilt(self.sample).objective
        # the grid maximum sits within one step of the binding boundary, so it
        # can trail the true optimum by (gradient) * (step) at first order
        assert vals.max() - 1e-12 <= objective <= vals.max() + 2e-6

    def test_implied_probability_identity(self):
        result = tilt(self.sample)
        lam = result.multipliers
        implied = 1.0 / (2 * (1.0 + self.sample.values @ lam))
        assert np.allclose(result.probabilities, implied, rtol=1e-8)


def test_nonnegative_mean_returns_uniform_exactly():
    sample = MomentSample(np.array([[0.5, -1.0], [0.5, 3.0], [2.0, 1.0]]))
    result = tilt(sample)
    assert np.array_equal(result.probabilities, np.full(3, 1 / 3))
    assert np.array_equal(result.multipliers, np.zeros(2))
    assert np.array_equal(result.tilted_mean, sample.values.mean(axis=0))


def test_infeasible_column():
    result = tilt(MomentSample(np.array([[-2.0], [-1.0]])))
    assert result.status == "Infeasible"
    assert result.probabilities is None


class TestFeasible:
    # `tilt`'s status is the feasibility verdict.
    def test_binding_case(self):
        assert tilt(MomentSample(np.array([[-2.0], [1.0]]))).status == "Solved"

    def test_all_negative_column(self):
        assert tilt(MomentSample(np.array([[-2.0], [-1.0]]))).status == "Infeasible"

    def test_nonnegative_mean(self):
        assert tilt(MomentSample(np.array([[1.0], [2.0]]))).status == "Solved"

    def test_needs_lp_to_decide(self):
        # Each column has a positive entry, yet no simplex point satisfies
        # both: the dual diverges along a direction d <= 0 with g_i'd > 0 on
        # both rows, which certifies it.
        g = np.array([[1.0, -3.0], [-3.0, 1.0]])
        assert tilt(MomentSample(g)).status == "Infeasible"


class TestGordanCertificate:
    # A failed dual solve returns "Infeasible" only on a direction that
    # proves it; the LP oracle checks the verdict.
    def test_verdict_matches_lp_on_shifted_samples(self, monkeypatch):
        # One violated column, shifted by -0.1 to -3: 1,800 samples, of
        # which 204 are infeasible without an all-negative column. The LP
        # checks every "Infeasible" verdict and the n = 50 solved samples.
        certified = []
        separates = tilt_module._separates

        def spy(g, lam):
            proven = separates(g, lam)
            certified.append(proven)
            return proven

        monkeypatch.setattr(tilt_module, "_separates", spy)
        verdicts = {}
        for j in (2, 4, 10):
            for n in (50, 100, 250):
                for i in range(200):
                    rng = np.random.default_rng([j, n, i])
                    g = rng.standard_normal((n, j))
                    g[:, int(rng.integers(j))] -= rng.uniform(0.1, 3.0)
                    status = tilt(MomentSample(g)).status
                    verdicts[status] = verdicts.get(status, 0) + 1
                    if status == "Infeasible" or n == 50:
                        assert lp_feasible(g) == (status == "Solved"), (j, n, i)
        assert verdicts == {"Solved": 1257, "Infeasible": 543}
        assert certified == [True] * 204

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 30),
        j=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-3.0, 1.0),
        decimals=st.one_of(st.none(), st.integers(0, 2)),
    )
    def test_verdict_agrees_with_lp(self, n, j, seed, shift, decimals):
        # Rounding makes ties and zeros, hence samples feasible only on the
        # simplex boundary, where the solver may fail.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, j)) + shift * rng.uniform(0.0, 1.0, size=j)
        if decimals is not None:
            g = np.round(g, decimals)
        try:
            verdict = tilt(MomentSample(g)).status
        except NoConvergence:
            verdict = None
        # "Solved" and a solver failure both need a feasible point;
        # "Infeasible" needs none.
        assert lp_feasible(g) == (verdict != "Infeasible")

    def test_only_a_strict_margin_certifies(self):
        lam = np.array([-2.0, -2.0])
        assert tilt_module._separates(np.array([[1.0, -3.0], [-3.0, 1.0]]), lam)
        # g_i'd = 0 on the first row: p = e_1 would be feasible.
        assert not tilt_module._separates(np.array([[1.0, -1.0], [-3.0, 1.0]]), lam)
        # g_i'd = 2^-52 > 0 exactly, but within the rounding bound.
        assert not tilt_module._separates(np.array([[1.0, -1.0 - 2.0**-52], [-3.0, 1.0]]), lam)
        assert not tilt_module._separates(np.array([[1.0, -3.0]]), np.zeros(2))

    def test_boundary_only_feasibility_stays_a_solver_failure(self, tmp_path, capsys):
        # Column 0 peaks at exactly 0: only mass on its zero rows satisfies
        # it, so the LP finds a boundary point, but g_i'd = 0 there for any
        # d <= 0 that column 1 does not weigh, and no strict separator exists.
        rng = np.random.default_rng(0)
        n = 60
        g = np.column_stack([-rng.uniform(0.1, 2.0, n), rng.standard_normal(n)])
        g[rng.random(n) < 0.3, 0] = 0.0
        assert lp_feasible(g)
        message = "EL dual diverged, but its direction does not certify infeasibility"
        with pytest.raises(NoConvergence, match=message):
            tilt(MomentSample(g))
        path = tmp_path / "boundary.csv"
        np.savetxt(path, g, fmt="%.17g", delimiter=",")
        assert main(["test", str(path), "--draws", "200"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _random_feasible_instances(count, seed=0):
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n = int(rng.integers(10, 40))
        j = int(rng.integers(1, 5))
        g = rng.standard_normal((n, j)) + rng.uniform(-0.4, 0.4, size=j)
        sample = MomentSample(g)
        result = tilt(sample)
        if not result.solved:
            continue
        made += 1
        yield sample, result


class TestKktInvariants:
    def test_random_instances(self):
        for sample, result in _random_feasible_instances(300, seed=42):
            p = result.probabilities
            lam = result.multipliers
            mean = result.tilted_mean
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)
            assert np.all(lam <= 1e-12)
            assert np.all(mean >= -1e-8)
            assert np.max(np.abs(lam * mean)) <= 1e-8
            implied = 1.0 / (sample.n * (1.0 + sample.values @ lam))
            assert np.allclose(p, implied, rtol=1e-8)
            # strong duality
            assert result.dual_objective(sample) == pytest.approx(result.objective, abs=1e-8)
            # exact decomposition of the tilt shift: for every coordinate j,
            # raw_j - tilted_j = sum_b lam_b * sum_i p_i g_ib g_ij
            raw = sample.values.mean(axis=0)
            cross = (sample.values * p[:, None]).T @ sample.values
            assert np.allclose(raw - mean, cross @ lam, atol=1e-8)
            # with nonnegative weighted cross-moments the tilt can only raise
            # coordinates; negative correlation voids the guarantee
            support = np.nonzero(lam < -1e-10)[0]
            for jdx in range(sample.n_moments):
                if np.all(cross[jdx, support] >= 0.0):
                    assert mean[jdx] >= raw[jdx] - 1e-8
            for jdx in result.binding_set:
                assert mean[jdx] == pytest.approx(0.0, abs=1e-6)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((12, 2)) - 0.3
    sample = MomentSample(g)
    base = tilt(sample)
    if not base.solved:
        pytest.skip("fixture infeasible")
    perm = rng.permutation(12)
    permuted = tilt(MomentSample(g[perm]))
    assert np.allclose(permuted.probabilities, base.probabilities[perm], atol=1e-12)
    assert np.allclose(permuted.multipliers, base.multipliers, atol=1e-12)
    assert np.allclose(permuted.tilted_mean, base.tilted_mean, atol=1e-12)


@pytest.mark.parametrize(
    "seed, columns, scales",
    [
        (21, [0, 1, 0], 1.0),
        (21, [0, 1, 1], 1.0),
        (0, [0, 1, 0, 0], 1.0),
        (7, [0, 0, 1, 1], 1.0),
        (1, [0, 1, 0], (1.0, 1.0, 2.0)),
    ],
    ids=["first-twice", "second-twice", "first-thrice", "both-twice", "first-doubled"],
)
def test_repeated_violated_columns_tilt_as_the_sample_without_them(seed, columns, scales):
    # A violated column listed again, or scaled, adds no constraint to the
    # primal, but makes the dual's Newton system singular.
    g = np.random.default_rng(seed).standard_normal((200, 2)) + (-0.15, -0.05)
    base = tilt(MomentSample(g))
    repeated = tilt(MomentSample(g[:, columns] * scales))
    assert repeated.solved
    assert np.allclose(repeated.probabilities, base.probabilities, rtol=0.0, atol=1e-12)

def test_grid_oracle_small_fixtures():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 12:
        n = int(rng.integers(2, 7))
        j = int(rng.integers(1, 3))
        g = np.round(rng.standard_normal((n, j)), 2)
        try:
            sample = MomentSample(g)
        except ValueError:
            continue
        result = tilt(sample)
        if not result.solved or not result.binding_set:
            continue
        coarse_p, coarse_val = simplex_grid_maximize(g, divisions=10, rounds=8)
        if coarse_p is None:
            continue
        checked += 1
        candidates = [pairwise_polish(g, coarse_p)]
        slsqp = slsqp_candidate(g)
        if slsqp is not None:
            candidates.append(slsqp)
        oracle_p, oracle_val = max(candidates, key=lambda c: c[1])
        assert np.all(oracle_p > 0) and abs(oracle_p.sum() - 1.0) < 1e-9
        assert np.all(oracle_p @ g >= -1e-9)

        # weak duality: for any multipliers <= 0 the dual bound caps every
        # feasible objective, so the truth is sandwiched between oracle_val
        # and the bound computed from the returned multipliers
        lam = result.multipliers
        dual_bound = -n * np.log(n) - np.log(1.0 + g @ lam).sum()
        assert oracle_val <= result.objective + 1e-9
        assert result.objective <= dual_bound + 1e-9
        assert dual_bound - oracle_val <= 1e-5
        assert result.objective == pytest.approx(oracle_val, abs=1e-5)
        assert np.allclose(result.probabilities, oracle_p, atol=1e-3)

def test_nonnegative_correlation_orders_the_means():
    # positively correlated designs tilt every coordinate upward almost always
    family = CorrelationFamily("Pos", 4)
    hits = 0
    total = 400
    for r in range(total):
        rng = substream(2024, 9, r)
        sample = simulate_sample(family, (0.0, 0.0, 0.0, 0.0), 250, rng)
        result = tilt(sample)
        assert result.solved
        raw = sample.values.mean(axis=0)
        if np.all(result.tilted_mean >= raw - 1e-10):
            hits += 1
    assert hits / total > 0.95


def tilted_selection(sample, kappa, fully_constrained=False):
    """CMS's (or CMS_FC's) xi on the sample, read through the identity phi4."""
    step = selection_step(
        "CMS_FC" if fully_constrained else "CMS", summarize(sample),
        KappaSchedule(KappaKind.FIXED, kappa), phi=4, tilt_result=tilt(sample),
    )
    return step.selection.shifts, step.tilt_fallback


class TestTiltedSelection:
    def test_identity_when_mean_nonnegative(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 3)) * 0.1 + 2.0
        sample = MomentSample(x)
        summary = summarize(sample)
        xi_hat = selection_step("GMS", summary, KappaSchedule(KappaKind.FIXED, 2.0), phi=4).selection.shifts
        xi_tilted, _ = tilted_selection(sample, 2.0)
        assert np.allclose(xi_tilted, xi_hat, atol=1e-12)

    def test_binding_column_zeroed(self):
        sample = MomentSample(np.array([[-2.0], [1.0]]))
        xi, _ = tilted_selection(sample, kappa=1.0)
        assert xi[0] == pytest.approx(0.0, abs=1e-9)

    def test_fully_constrained_same_signs(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((60, 3)) - 0.2
        sample = MomentSample(g)
        if not tilt(sample).solved:
            pytest.skip("fixture infeasible")
        default, _ = tilted_selection(sample, 1.7, fully_constrained=False)
        constrained, _ = tilted_selection(sample, 1.7, fully_constrained=True)
        assert np.array_equal(np.sign(np.round(default, 12)), np.sign(np.round(constrained, 12)))

    def test_infeasible_raises(self):
        # No tilted selection exists: CMS reads GMS's inputs and flags it.
        sample = MomentSample(np.array([[-2.0], [-1.0]]))
        xi, fallback = tilted_selection(sample, 1.0)
        assert fallback
        gms = selection_step("GMS", summarize(sample), KappaSchedule(KappaKind.FIXED, 1.0), phi=4)
        assert np.array_equal(xi, gms.selection.shifts)
