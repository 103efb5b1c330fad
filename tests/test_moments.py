import numpy as np
import pytest

from cmselect import (
    CorrelationFamily,
    CsvFormatError,
    DegenerateColumn,
    MomentSample,
    NotPositiveDefinite,
    load_csv,
    make_toeplitz,
    summarize,
)
from cmselect.critical import selection_step
from cmselect.selection import KappaKind, KappaSchedule


def studentized_scaled_mean(summary, kappa):
    """GMS's xi = sqrt(n) mean / sd / kappa, read through the identity phi4."""
    return selection_step("GMS", summary, KappaSchedule(KappaKind.FIXED, kappa), phi=4).selection.shifts


def test_two_point_summary_uses_divisor_n():
    sample = MomentSample(np.array([[0.0], [2.0]]))
    summary = summarize(sample)
    assert summary.mean[0] == pytest.approx(1.0)
    assert summary.covariance[0, 0] == pytest.approx(1.0)  # divisor n = 2, not n - 1


def test_constant_column_is_degenerate():
    sample = MomentSample(np.array([[1.0, 3.0], [1.0, 4.0], [1.0, 5.0]]))
    with pytest.raises(DegenerateColumn) as exc:
        summarize(sample)
    assert exc.value.column == 0


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("value", [0.1, -0.1])
def test_constant_column_with_an_inexact_mean_is_degenerate(n, value):
    # The mean of n copies of 0.1 rounds to 0.1 +- 1 ulp, so every deviation
    # is the same nonzero rounding error; that is not spread.
    values = np.column_stack([np.arange(n, dtype=float), np.full(n, value)])
    with pytest.raises(DegenerateColumn) as exc:
        summarize(MomentSample(values))
    assert exc.value.column == 1


def test_correlation_matches_pairwise_pearson_oracle():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((50, 4)) @ rng.standard_normal((4, 4))
    summary = summarize(MomentSample(x))
    for a in range(4):
        for b in range(4):
            xa, xb = x[:, a], x[:, b]
            num = np.mean((xa - xa.mean()) * (xb - xb.mean()))
            den = np.sqrt(np.mean((xa - xa.mean()) ** 2) * np.mean((xb - xb.mean()) ** 2))
            assert summary.correlation[a, b] == pytest.approx(num / den, abs=1e-12)


def test_covariance_reconstructs_from_correlation_and_diag():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 3)) * np.array([0.5, 2.0, 7.0])
    summary = summarize(MomentSample(x))
    sd = np.sqrt(summary.var)
    rebuilt = summary.correlation * np.outer(sd, sd)
    assert np.allclose(rebuilt, summary.covariance, rtol=1e-10)


def test_summarize_invariant_to_row_permutation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 3))
    perm = rng.permutation(20)
    a = summarize(MomentSample(x))
    b = summarize(MomentSample(x[perm]))
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.covariance, b.covariance)


class TestStudentizedScaledMean:
    def test_hand_value(self):
        # column with mean 0.3 and variance 1 at n = 100
        col = np.concatenate([np.full(50, 1.3), np.full(50, -0.7)])
        summary = summarize(MomentSample(col[:, None]))
        xi = studentized_scaled_mean(summary, kappa=np.sqrt(np.log(100)))
        assert xi[0] == pytest.approx(10 * 0.3 / np.sqrt(np.log(100)), abs=1e-10)
        assert xi[0] == pytest.approx(1.39797, abs=1e-4)

    def test_zero_mean_gives_zero_vector(self):
        x = np.array([[1.0, -2.0], [-1.0, 2.0]])
        summary = summarize(MomentSample(x))
        assert np.array_equal(studentized_scaled_mean(summary, 3.7), np.zeros(2))

    def test_column_rescaling_cancels(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4)) + 0.2
        scales = np.array([0.1, 3.0, 42.0, 1e-3])
        xi_a = studentized_scaled_mean(summarize(MomentSample(x)), 2.0)
        xi_b = studentized_scaled_mean(summarize(MomentSample(x * scales)), 2.0)
        assert np.allclose(xi_a, xi_b, atol=1e-10)

    def test_doubling_data_leaves_xi_unchanged(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((25, 2)) + 0.5
        xi_a = studentized_scaled_mean(summarize(MomentSample(x)), 1.5)
        xi_b = studentized_scaled_mean(summarize(MomentSample(2 * x)), 1.5)
        assert np.allclose(xi_a, xi_b, atol=1e-10)

    def test_extreme_column_scales_are_not_degenerate(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 2))
        for scale in (1e-9, 1e9):
            xi = studentized_scaled_mean(summarize(MomentSample(x * scale)), 2.0)
            base = studentized_scaled_mean(summarize(MomentSample(x)), 2.0)
            assert np.allclose(xi, base, atol=1e-9)


class TestToeplitzFamilies:
    def test_pos_two(self):
        m = make_toeplitz(CorrelationFamily("Pos", 2))
        assert np.array_equal(m, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_zero_is_identity(self):
        assert np.array_equal(make_toeplitz(CorrelationFamily("Zero", 10)), np.eye(10))

    def test_neg_four_first_row(self):
        m = make_toeplitz(CorrelationFamily("Neg", 4))
        assert np.array_equal(m[0], np.array([1.0, -0.9, 0.7, -0.5]))
        assert np.array_equal(m, m.T)

    def test_builtin_families_positive_definite(self):
        for kind in ("Neg", "Pos"):
            for j in (2, 4, 10):
                m = make_toeplitz(CorrelationFamily(kind, j))
                assert np.linalg.det(m) > 0

    def test_not_positive_definite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            make_toeplitz(CorrelationFamily("Custom", 2, (1.2,)))

    def test_custom_needs_right_length(self):
        with pytest.raises(ValueError):
            CorrelationFamily("Custom", 3, (0.5,))


class TestSampleValidation:
    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0, 2.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0], [np.nan]]))
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0], [np.inf]]))


class TestCsv:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("g1,g2\n1.5,2.0\n-0.5,3.25\n0.0,-1.0\n")
        sample = load_csv(path)
        assert sample.values.shape == (3, 2)
        assert sample.values[1, 0] == -0.5

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert exc.value.row == 2
        assert exc.value.column == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0\ninf\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)
