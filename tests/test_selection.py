import itertools
import math

import numpy as np
import pytest

from cmselect import KappaSchedule, SelectionVector, kappa, phi1, phi2, phi3, phi4, phi_k
from cmselect.errors import DomainError
from cmselect.selection import KappaKind


class TestKappa:
    def test_sqrt_log_n_values(self):
        schedule = KappaSchedule.parse("sqrt-log-n")
        assert kappa(schedule, 7) == pytest.approx(math.sqrt(math.log(7)), abs=1e-12)
        assert kappa(schedule, 250) == pytest.approx(2.3497789, abs=1e-6)

    def test_sqrt_two_log_log_n(self):
        schedule = KappaSchedule.parse("sqrt-2loglogn")
        assert kappa(schedule, 100) == pytest.approx(math.sqrt(2 * math.log(math.log(100))), abs=1e-12)
        with pytest.raises(DomainError):
            kappa(schedule, 2)

    def test_fixed(self):
        schedule = KappaSchedule.parse("fixed:1")
        assert schedule.kind is KappaKind.FIXED
        for n in (3, 10, 10**6):
            assert kappa(schedule, n) == 1.0

    def test_parse_rejects_unknown(self):
        with pytest.raises(DomainError):
            KappaSchedule.parse("linear")
        with pytest.raises(DomainError):
            KappaSchedule.parse("fixed:-1")

    @pytest.mark.parametrize("spelling", ["fixed:abc", "fixed:", "fixed:1,5"])
    def test_parse_names_a_fixed_spelling_without_a_number(self, spelling):
        with pytest.raises(DomainError, match=f"kappa schedule '{spelling}' needs a number after 'fixed:'"):
            KappaSchedule.parse(spelling)

    @pytest.mark.parametrize("value", [0.0, -2.0, math.inf])
    def test_fixed_nonpositive_rejected_on_construction(self, value):
        with pytest.raises(DomainError, match="positive and finite"):
            KappaSchedule(KappaKind.FIXED, value)

    def test_positive_for_small_n(self):
        assert kappa(KappaSchedule.parse("sqrt-log-n"), 3) > 0
        assert kappa(KappaSchedule.parse("sqrt-2loglogn"), 3) > 0


class TestPhi1:
    def test_threshold(self):
        out = phi1(np.array([0.5, 1.5]))
        assert out.shifts[0] == 0.0
        assert np.isposinf(out.shifts[1])

    def test_boundary_is_kept(self):
        assert np.array_equal(phi1(np.array([1.0, 1.0])).shifts, np.zeros(2))

    def test_all_above_threshold(self):
        assert np.all(np.isposinf(phi1(np.array([1.1, 7.0, 2.0])).shifts))

    def test_continuity_away_from_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            xi = rng.standard_normal(4) * 2
            if np.any(np.abs(xi - 1.0) < 1e-9):
                continue
            margin = np.min(np.abs(xi - 1.0)) / 2
            bump = rng.uniform(-margin, margin, size=4)
            assert np.array_equal(phi1(xi).shifts, phi1(xi + bump).shifts)


class TestPhi2Through4:
    def test_phi2_regions(self):
        # Fixed knots: 0 up to 1, +inf from 2, and a ramp to 10 in between.
        out = phi2(np.array([0.9, 1.0, 1.5, 2.0, 5.0]))
        assert out.shifts[0] == 0.0
        assert out.shifts[1] == 0.0
        assert out.shifts[2] == 5.0
        assert np.isposinf(out.shifts[3])
        assert np.isposinf(out.shifts[4])

    def test_phi3_positive_part(self):
        assert np.array_equal(phi3(np.array([-2.0, 0.7])).shifts, np.array([0.0, 0.7]))

    def test_phi4_identity_and_signs(self):
        out = phi4(np.array([-2.0, 0.7]))
        assert np.array_equal(out.shifts, np.array([-2.0, 0.7]))
        assert out.source == "phi4"

    def test_negative_shifts_rejected_except_phi4(self):
        with pytest.raises(ValueError):
            SelectionVector(np.array([-0.1]), source="phi1")
        SelectionVector(np.array([-0.1]), source="phi4")

    def test_elementwise_monotone(self):
        rng = np.random.default_rng(1)
        fns = {1: phi1, 3: phi3, 4: phi4}
        for _ in range(200):
            xi = rng.standard_normal(5) * 2
            higher = xi + rng.uniform(0, 1.5, size=5)
            for k, fn in fns.items():
                assert np.all(fn(higher).shifts >= fn(xi).shifts)
            assert np.all(phi2(higher).shifts >= phi2(xi).shifts)


def test_threshold_ordering_propagates():
    # componentwise-larger slackness can only omit more
    grid = np.array([0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0])
    for base in itertools.product(grid, repeat=2):
        xi = np.array(base)
        for bump in itertools.product([0.0, 0.002, 0.5], repeat=2):
            higher = xi + np.array(bump)
            low, high = phi1(xi), phi1(higher)
            assert high.dominates(low)


def test_phi_k_dispatch():
    xi = np.array([0.5, 3.0])
    assert np.array_equal(phi_k(1, xi).shifts, phi1(xi).shifts)
    assert np.array_equal(phi_k(3, xi).shifts, phi3(xi).shifts)
    with pytest.raises(DomainError):
        phi_k(6, xi)
    with pytest.raises(DomainError):
        phi_k(5, xi)


@pytest.mark.parametrize("phi", [True, False, np.True_])
def test_a_boolean_is_not_a_selection_number(phi):
    # True == 1 and hashes as 1, so it is a key of SELECTIONS.
    xi = np.array([0.5, 3.0])
    with pytest.raises(DomainError, match="phi must be one of"):
        phi_k(phi, xi)
    assert np.array_equal(phi_k(np.int64(3), xi).shifts, phi3(xi).shifts)
