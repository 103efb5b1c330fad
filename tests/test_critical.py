from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from cmselect import (
    AsymptoticDraws,
    BootstrapDraws,
    CorrelationFamily,
    DegenerateColumn,
    DomainError,
    MissingTable,
    MomentSample,
    RmsTables,
    SelectionVector,
    StatisticKind,
    TooManyDegenerate,
    run_test,
    simulate_sample,
    summarize,
    tilt,
    upper_quantile,
)
from cmselect.critical import (
    _DRAWS_CHUNK,
    MODE_ASYMPTOTIC,
    MODE_BOOTSTRAP,
    PROCEDURE_ALIASES,
    PROCEDURES,
    bootstrap_counts,
    critical_values,
    min_off_diagonal,
    mode_name,
    procedure_name,
    rsw_critical_value,
    seeded_counts,
    selection_step,
    statistic_kind,
)
from cmselect.selection import KappaSchedule
from cmselect.statistics import adjusted_sigma_batch, shifted_statistic_batch
from cmselect.streams import ASYMPTOTIC, BOOTSTRAP, substream
from oracles import replicate_major_draws


def normal_sample(n, j, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    return MomentSample(rng.standard_normal((n, j)) + shift)


def zeros_selection(j):
    return SelectionVector(np.zeros(j), source="phi1")


def omit_all_selection(j):
    return SelectionVector(np.full(j, np.inf), source="phi1")


class TestUpperQuantile:
    def test_right_continuous_inverse_on_small_sets(self):
        draws = np.array([5.0, 1.0, 3.0, 2.0, 4.0, 8.0, 7.0, 6.0])
        # ceil(0.5 * 8) = 4th smallest
        assert upper_quantile(draws, 0.5) == 4.0
        assert upper_quantile(draws, 0.95) == 8.0
        assert upper_quantile(draws, 1.0) == 8.0
        assert upper_quantile(draws, 0.125) == 1.0

    def test_monotone_in_level(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal(523)
        levels = np.linspace(0.05, 1.0, 40)
        values = [upper_quantile(draws, lv) for lv in levels]
        assert np.all(np.diff(values) >= 0)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            upper_quantile(np.array([1.0]), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([-1.5, 0.0, 0.25, 0.25, 2.0, 1e300]), min_size=1, max_size=60),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_partial_sort_reads_the_sorted_order_statistic(self, values, level):
        # Ties included; levels 1/m and 1 pick the smallest and the largest.
        draws = np.array(values)
        m = draws.size
        for lv in (level, 1.0 / m, 1.0):
            k = min(m, max(1, int(np.ceil(lv * m))))
            expected = np.sort(draws)[k - 1]
            assert np.float64(upper_quantile(draws, lv)).tobytes() == expected.tobytes()


def run_gms_asym(summary, selection, kind, alpha, n_draws, seed):
    draws = AsymptoticDraws(summary.correlation, n_draws, substream(seed, ASYMPTOTIC))
    return draws.selection_quantile(selection, kind, 1.0 - alpha)


class TestAsymptotic:
    def test_all_omitted_gives_zero(self):
        sample = normal_sample(60, 3, 1)
        value = run_gms_asym(summarize(sample), omit_all_selection(3), StatisticKind.MMM, 0.05, 500, seed=0)
        assert value == 0.0

    def test_analytic_one_dimensional_quantile(self):
        # P(min(0, Z)^2 <= x) = Phi(sqrt(x)); 0.95 quantile is z_{0.95}^2
        rng = substream(0, 2)
        draws = AsymptoticDraws(np.eye(1), 10**6, rng).selection_draws(zeros_selection(1), StatisticKind.MMM)
        simulated = upper_quantile(draws, 0.95)
        assert simulated == pytest.approx(norm.ppf(0.95) ** 2, abs=0.02)

    def test_seed_determinism(self):
        sample = normal_sample(80, 2, 3)
        summary = summarize(sample)
        a = run_gms_asym(summary, zeros_selection(2), StatisticKind.AQLR, 0.05, 2000, seed=9)
        b = run_gms_asym(summary, zeros_selection(2), StatisticKind.AQLR, 0.05, 2000, seed=9)
        assert a == b

    def test_needs_enough_draws(self):
        sample = normal_sample(40, 2, 4)
        with pytest.raises(DomainError):
            AsymptoticDraws(summarize(sample).correlation, 50, substream(0, ASYMPTOTIC))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([2, 4, 10]),
        st.integers(0, 2**32 - 1),
        st.lists(st.lists(st.sampled_from([0.0, 0.0, 0.4, 1.5, np.inf]), min_size=10, max_size=10), min_size=3, max_size=3),
    )
    def test_warm_aqlr_draws_equal_a_cold_solve(self, j, seed, selections):
        # Every call after the first reuses the QP certificates the earlier
        # ones left; its draws are still those of a cold solve, byte for byte.
        summary = summarize(normal_sample(80, j, seed % 1000, shift=-0.1))
        draws = AsymptoticDraws(summary.correlation, 300, substream(seed, ASYMPTOTIC))
        sigma = adjusted_sigma_batch(summary.correlation[None])[0]
        for shifts in selections:
            selection = SelectionVector(np.array(shifts[:j]))
            omit = selection.omitted
            shift = np.where(omit, 0.0, selection.shifts)
            warm = draws.selection_draws(selection, StatisticKind.AQLR)
            cold = shifted_statistic_batch(StatisticKind.AQLR, draws.g_recentered_stud + shift, sigma, omit)
            assert warm.tobytes() == cold.tobytes()


def nested_selection_pair(rng, j):
    base = np.where(rng.random(j) < 0.4, np.inf, rng.uniform(0, 2, j))
    higher = np.where(rng.random(j) < 0.3, np.inf, base + rng.uniform(0, 1, j))
    higher = np.maximum(higher, base)
    return (
        SelectionVector(np.where(np.isinf(base), np.inf, base), source="phi2"),
        SelectionVector(np.where(np.isinf(higher), np.inf, higher), source="phi2"),
    )


class TestNestingWithCommonDraws:
    def test_asymptotic_mode(self):
        rng = np.random.default_rng(10)
        sample = normal_sample(100, 4, 11)
        summary = summarize(sample)
        for kind in StatisticKind:
            for trial in range(10):
                low, high = nested_selection_pair(rng, 4)
                a = run_gms_asym(summary, low, kind, 0.05, 400, seed=trial)
                b = run_gms_asym(summary, high, kind, 0.05, 400, seed=trial)
                assert b <= a

    def test_bootstrap_mode(self):
        rng = np.random.default_rng(12)
        sample = normal_sample(60, 3, 13)
        for kind in StatisticKind:
            for trial in range(6):
                low, high = nested_selection_pair(rng, 3)
                a = run_gms_boot(sample, low, kind, seed=trial)
                b = run_gms_boot(sample, high, kind, seed=trial)
                assert b <= a

    def test_alpha_monotonicity(self):
        sample = normal_sample(60, 2, 14)
        summary = summarize(sample)
        values = [
            run_gms_asym(summary, zeros_selection(2), StatisticKind.MMM, alpha, 1000, seed=4)
            for alpha in (0.20, 0.10, 0.05, 0.01)
        ]
        assert np.all(np.diff(values) >= 0)


def run_gms_boot(sample, selection, kind, seed=0, n_draws=300, alpha=0.05):
    draws = BootstrapDraws(sample, summarize(sample), bootstrap_counts(substream(seed, BOOTSTRAP), sample.n, n_draws))
    return draws.selection_quantile(selection, kind, 1.0 - alpha)


class TestBootstrap:
    def test_all_omitted_gives_zero(self):
        sample = normal_sample(50, 2, 20, shift=-3.0)
        value = run_gms_boot(sample, omit_all_selection(2), StatisticKind.AQLR)
        assert value == 0.0

    def test_quantile_is_an_order_statistic_of_the_draws(self):
        sample = normal_sample(30, 2, 21)
        draws = BootstrapDraws(sample, summarize(sample), bootstrap_counts(substream(5, 1), sample.n, 100))
        selection = zeros_selection(2)
        values = draws.selection_draws(selection, StatisticKind.MMM)
        expected = np.sort(values)[int(np.ceil(0.95 * values.size)) - 1]
        assert draws.selection_quantile(selection, StatisticKind.MMM, 0.95) == expected

    def test_determinism(self):
        sample = normal_sample(40, 3, 22)
        a = run_gms_boot(sample, zeros_selection(3), StatisticKind.AQLR, seed=7)
        b = run_gms_boot(sample, zeros_selection(3), StatisticKind.AQLR, seed=7)
        assert a == b

    @pytest.mark.parametrize("n", [1, 7, 250, 251])
    @pytest.mark.parametrize("n_draws", [100, 999, 1000, 1001, 2500])
    def test_counts_match_the_one_shot_draw(self, n, n_draws):
        rng, reference_rng = substream(9, BOOTSTRAP), substream(9, BOOTSTRAP)
        counts = bootstrap_counts(rng, n, n_draws)
        indices = reference_rng.integers(0, n, size=(n_draws, n))
        flat = indices + (np.arange(n_draws)[:, None] * n)
        reference = np.bincount(flat.ravel(), minlength=n_draws * n).reshape(n_draws, n).astype(float)
        assert counts.dtype == reference.dtype
        assert np.array_equal(counts, reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert counts.flags.f_contiguous

    def test_counts_need_a_hundred_draws(self):
        with pytest.raises(DomainError):
            bootstrap_counts(substream(1, BOOTSTRAP), 10, 99)

    def test_seeded_counts_are_read_only(self):
        counts = seeded_counts(3, 20, 100)
        assert not counts.flags.writeable
        assert np.array_equal(counts, bootstrap_counts(substream(3, BOOTSTRAP), 20, 100))
        assert counts.flags.f_contiguous
        assert not counts.T.flags.writeable
        with pytest.raises(ValueError):
            counts[0, 0] = 1.0

    @pytest.mark.parametrize("n, n_draws, j", [(250, 1000, 4), (100, 1000, 10), (500, 10000, 4)])
    def test_draws_do_not_depend_on_the_counts_layout(self, n, n_draws, j):
        # The column-major counts make counts.T C-contiguous for the
        # resampling product; the row-major copy must give the same bytes.
        sample = normal_sample(n, j, 60 + j, shift=0.1)
        summary = summarize(sample)
        counts = bootstrap_counts(substream(12, BOOTSTRAP), n, n_draws)
        row_major = np.ascontiguousarray(counts)
        assert row_major.flags.c_contiguous and not row_major.flags.f_contiguous
        a = BootstrapDraws(sample, summary, counts)
        b = BootstrapDraws(sample, summary, row_major)
        del row_major
        for name in ("g_recentered_stud", "omega_star", "sd_star", "_omega_adjusted"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_constant_column_is_degenerate_in_both_modes(self):
        # A constant -0.1 column has an inexact mean; its rounding noise must
        # not pass as spread and turn into a huge statistic.
        values = np.random.default_rng(5).standard_normal((10, 2))
        values[:, 1] = -0.1
        for mode in (MODE_ASYMPTOTIC, MODE_BOOTSTRAP):
            with pytest.raises(DegenerateColumn) as exc:
                run_test(MomentSample(values), StatisticKind.AQLR, "gms", mode=mode, n_draws=200)
            assert exc.value.column == 1

    def test_too_many_degenerate(self):
        # two observations: half of all resamples duplicate a single row
        sample = MomentSample(np.array([[0.0], [1.0]]))
        with pytest.raises(TooManyDegenerate):
            BootstrapDraws(sample, summarize(sample), bootstrap_counts(substream(1, 1), sample.n, 200))


def resample_oracle(sample, counts):
    """Per replicate, from the rows repeated counts[b] times: the resampled
    mean minus the sample mean, and the divisor-n covariance."""
    mean = summarize(sample).mean
    deviations, covariances = [], []
    for row_counts in counts.astype(int):
        resample = np.repeat(sample.values, row_counts, axis=0)
        deviations.append(resample.mean(axis=0) - mean)
        covariances.append(np.atleast_2d(np.cov(resample, rowvar=False, bias=True)))
    return np.array(deviations), np.array(covariances)


def assert_draws_match_the_oracle(sample, counts):
    draws = BootstrapDraws(sample, summarize(sample), counts)
    deviation, cov = resample_oracle(sample, counts)
    var = np.diagonal(cov, axis1=1, axis2=2)
    valid = np.all(var > 1e-9, axis=1)
    assert np.array_equal(draws.valid, valid)
    assert draws.skipped == counts.shape[0] - valid.sum()
    for per_draw in (draws.g_recentered_stud, draws.omega_star, draws.sd_star):
        assert per_draw.shape[0] == counts.shape[0] - draws.skipped
    sd = np.sqrt(var[valid])
    np.testing.assert_allclose(draws.sd_star, sd, rtol=1e-12)
    np.testing.assert_allclose(
        draws.g_recentered_stud, np.sqrt(sample.n) * deviation[valid] / sd, rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        draws.omega_star, cov[valid] / sd[:, :, None] / sd[:, None, :], rtol=1e-12, atol=1e-12
    )
    return draws


class TestBootstrapDrawsOracle:
    @pytest.mark.parametrize("j", [1, 4, 10])
    def test_matches_explicit_resampling(self, j):
        rng = np.random.default_rng(40 + j)
        values = rng.standard_normal((60, j)) @ rng.standard_normal((j, j)) + rng.standard_normal(j)
        sample = MomentSample(values)
        draws = assert_draws_match_the_oracle(sample, bootstrap_counts(substream(j, BOOTSTRAP), sample.n, 200))
        assert draws.skipped == 0

    def test_matches_explicit_resampling_with_degenerate_draws(self):
        # A 0/1 column with 5 ones in 40 rows: about 0.5% of resamples draw
        # no one, and that column's resampled variance is zero.
        rng = np.random.default_rng(44)
        values = rng.standard_normal((40, 3))
        values[:, 2] = 0.0
        values[rng.choice(40, 5, replace=False), 2] = 1.0
        sample = MomentSample(values)
        counts = bootstrap_counts(substream(2, BOOTSTRAP), sample.n, 1000)
        draws = assert_draws_match_the_oracle(sample, counts)
        assert 0 < draws.skipped <= 10
        assert not np.any(counts[~draws.valid][:, values[:, 2] == 1.0])


def correlated_sample(n, j, seed):
    rng = np.random.default_rng(seed)
    factor = np.linalg.cholesky(0.5 * np.eye(j) + 0.5)
    return MomentSample(rng.standard_normal((n, j)) @ factor.T + rng.standard_normal(j))


def degenerate_sample():
    # A 0/1 column with 5 ones in 200 rows: about 0.7% of 1000 resamples draw
    # no one, and that column's resampled variance is zero.
    rng = np.random.default_rng(45)
    values = rng.standard_normal((200, 3))
    values[:, 1] = 0.0
    values[rng.choice(200, 5, replace=False), 1] = 1.0
    return MomentSample(values)


class TestMomentMajorLayout:
    """`BootstrapDraws` works on moment-major rows; every array it exposes
    must equal, byte for byte, the replicate-major construction, and keep
    its C-contiguous layout: at J=10 a row has enough entries for numpy to
    sum a C-ordered row pairwise and an F-ordered one left to right."""

    @pytest.mark.parametrize(
        "sample, n_draws, skips",
        [
            pytest.param(correlated_sample(500, 4, 81), 10000, False, id="n500-J4-B10000"),
            pytest.param(correlated_sample(100, 10, 82), 1000, False, id="n100-J10-B1000"),
            pytest.param(correlated_sample(250, 4, 83), 1000, False, id="n250-J4-B1000"),
            pytest.param(degenerate_sample(), 1000, True, id="degenerate"),
        ],
    )
    def test_bytes_equal_the_replicate_major_construction(self, sample, n_draws, skips):
        summary = summarize(sample)
        counts = bootstrap_counts(substream(14, BOOTSTRAP), sample.n, n_draws)
        draws = BootstrapDraws(sample, summary, counts)
        oracle = replicate_major_draws(sample, summary, counts)
        assert (draws.skipped > 0) == skips
        assert draws.skipped == n_draws - oracle["valid"].sum()
        assert np.array_equal(draws.valid, oracle["valid"])
        for name in ("g_recentered_stud", "sd_star", "omega_star", "rectangle_min"):
            mine, theirs = getattr(draws, name), oracle[name]
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), name
        for name in ("g_recentered_stud", "sd_star", "omega_star"):
            assert getattr(draws, name).flags.c_contiguous, name
        assert draws._omega_adjusted.tobytes() == oracle["omega_adjusted"].tobytes()
        shift = np.zeros(sample.n_moments)
        for kind, sigma in ((StatisticKind.MMM, "omega_star"), (StatisticKind.AQLR, "omega_adjusted")):
            expected = shifted_statistic_batch(kind, oracle["g_recentered_stud"] + shift, oracle[sigma])
            assert draws.statistic_draws(shift, kind).tobytes() == expected.tobytes(), kind

    def test_all_omitted_aqlr_reads_no_adjusted_omega(self):
        sample = normal_sample(60, 3, 84, shift=-0.2)
        draws = BootstrapDraws(sample, summarize(sample), bootstrap_counts(substream(3, BOOTSTRAP), sample.n, 200))
        omit = np.ones(3, dtype=bool)
        values = draws.statistic_draws(np.zeros(3), StatisticKind.AQLR, omit)
        assert np.array_equal(values, np.zeros(draws.n_draws))
        assert "_omega_adjusted" not in draws.__dict__
        draws.statistic_draws(np.zeros(3), StatisticKind.AQLR, omit)
        assert "_omega_adjusted" not in draws.__dict__
        draws.statistic_draws(np.zeros(3), StatisticKind.AQLR, np.array([True, False, True]))
        assert "_omega_adjusted" in draws.__dict__


class TestCertificateReuse:
    """Later AQLR calls on a draws object reuse the QP certificates of earlier
    ones wherever the solver's own test still passes."""

    @settings(max_examples=25, deadline=None)
    @given(
        j=st.sampled_from([2, 4, 7]),
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(
            st.tuples(st.booleans(), st.lists(st.sampled_from([0.0, 0.0, 0.4, 1.5, np.inf]), min_size=7, max_size=7)),
            min_size=2,
            max_size=5,
        ),
        chunk=st.sampled_from([_DRAWS_CHUNK, 64]),
    )
    def test_every_call_returns_the_bytes_of_a_cold_solve(self, j, seed, calls, chunk):
        # A call is a selection (shifts, some omitted) or, RSW-style, a shift
        # that differs per draw: sqrt(n) lambda / sd*, zero where lambda is.
        # With 64 draws a block, each block carries certificates of its own;
        # the cold solve takes every draw in one batch.
        sample = normal_sample(60, j, seed % 1000, shift=-0.15)
        summary = summarize(sample)
        draws = BootstrapDraws(sample, summary, bootstrap_counts(substream(seed, BOOTSTRAP), sample.n, 300))
        sigma = adjusted_sigma_batch(draws.omega_star)
        with mock.patch("cmselect.critical._DRAWS_CHUNK", chunk):
            for per_draw, shifts in calls:
                shifts = np.array(shifts[:j])
                if per_draw:
                    lam = np.where(np.isinf(shifts), 0.0, shifts)
                    shift, omit = np.sqrt(sample.n) * 0.1 * lam / draws.sd_star, None
                else:
                    omit = np.isinf(shifts)
                    shift = np.where(omit, 0.0, shifts)
                warm = draws.statistic_draws(shift, StatisticKind.AQLR, omit)
                cold = shifted_statistic_batch(StatisticKind.AQLR, draws.g_recentered_stud + shift, sigma, omit)
                assert warm.tobytes() == cold.tobytes()

    def test_a_repeated_call_solves_nothing(self, monkeypatch):
        import cmselect.statistics

        solved = []
        original = cmselect.statistics.nonneg_projection_batch

        def counted(sigma, v, *args, **kwargs):
            solved.append(len(v))
            return original(sigma, v, *args, **kwargs)

        monkeypatch.setattr(cmselect.statistics, "nonneg_projection_batch", counted)
        sample = normal_sample(80, 5, 21, shift=-0.1)
        draws = BootstrapDraws(sample, summarize(sample), bootstrap_counts(substream(4, BOOTSTRAP), sample.n, 400))
        selection = SelectionVector(np.array([0.0, 0.0, np.inf, 0.0, 0.0]))
        first = draws.selection_draws(selection, StatisticKind.AQLR)
        assert solved == [400]
        assert draws.selection_draws(selection, StatisticKind.AQLR).tobytes() == first.tobytes()
        assert solved == [400]
        # Keeping the omitted moment re-solves only the draws whose
        # certificate fails the KKT test there.
        draws.selection_draws(zeros_selection(5), StatisticKind.AQLR)
        assert len(solved) == 2 and 0 < solved[1] < 400


# A fixed sample and fixed counts for the location and scale properties: one
# violated, one nearly binding and one slack moment, correlated.
_PROPERTY_VALUES = np.random.default_rng(73).standard_normal((80, 3)) @ np.array(
    [[1.0, 0.0, 0.0], [0.5, 0.8, 0.0], [0.2, 0.3, 0.9]]
).T + [-0.15, 0.1, 0.5]
_PROPERTY_COUNTS = bootstrap_counts(substream(9, BOOTSTRAP), 80, 300)
_scales = st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3).map(np.array)


class TestLocationAndScale:
    @pytest.mark.parametrize("procedure", ["gms", "cms", "rsw"])
    def test_a_large_offset_gives_the_moderate_offset_result(self, procedure):
        # The slack column sits at 1e5 or 1e7; either way it is dropped, so
        # the decision must not notice how far away it is.
        base = np.random.default_rng(71).standard_normal((200, 3)) + [-0.1, 0.05, 0.0]
        decisions = []
        for offset in (1e5, 1e7):
            values = base.copy()
            values[:, 2] += offset
            decisions.append(run_test(MomentSample(values), StatisticKind.AQLR, procedure, n_draws=2000, seed=4))
        moderate, large = decisions
        assert large.statistic == pytest.approx(moderate.statistic, rel=1e-9)
        assert large.critical_value.value == pytest.approx(moderate.critical_value.value, rel=1e-9)
        assert large.critical_value.skipped_draws == moderate.critical_value.skipped_draws == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e7, 1e7), min_size=3, max_size=3).map(np.array), _scales)
    def test_bootstrap_draws_are_free_of_offset_and_scale(self, offsets, scales):
        reference_sample = MomentSample(_PROPERTY_VALUES)
        reference = BootstrapDraws(reference_sample, summarize(reference_sample), _PROPERTY_COUNTS)
        sample = MomentSample(_PROPERTY_VALUES * scales + offsets)
        draws = BootstrapDraws(sample, summarize(sample), _PROPERTY_COUNTS)
        assert draws.skipped == reference.skipped == 0
        np.testing.assert_allclose(draws.g_recentered_stud, reference.g_recentered_stud, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(draws.omega_star, reference.omega_star, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(draws.sd_star / scales, reference.sd_star, rtol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(_scales)
    def test_selections_are_free_of_scale(self, scales):
        # An offset moves a moment's slackness, so selections are only
        # invariant under positive column scales.
        schedule = KappaSchedule.parse("sqrt-log-n")
        for procedure in ("GMS", "CMS", "CMS_FC"):
            shifts = []
            for values in (_PROPERTY_VALUES, _PROPERTY_VALUES * scales):
                sample = MomentSample(values)
                step = selection_step(procedure, summarize(sample), schedule, tilt_result=tilt(sample))
                shifts.append(step.selection.shifts)
            assert np.array_equal(*shifts)


class TestBootstrapCriticalValues:
    def test_equal_selections_share_one_quantile(self, monkeypatch):
        # All means strongly positive: the tilt is the identity, so CMS
        # selects exactly what GMS selects and reads the same quantile.
        sample = normal_sample(60, 3, 45, shift=4.0)
        summary = summarize(sample)
        kinds = (StatisticKind.MMM, StatisticKind.AQLR)
        schedule = KappaSchedule.parse("sqrt-log-n")
        for draws in (
            AsymptoticDraws(summary.correlation, 200, substream(6, ASYMPTOTIC)),
            BootstrapDraws(sample, summary, bootstrap_counts(substream(6, BOOTSTRAP), sample.n, 200)),
        ):
            calls = []
            original = type(draws).selection_quantile

            def counted(self, *args):
                calls.append(args)
                return original(self, *args)

            monkeypatch.setattr(type(draws), "selection_quantile", counted)
            reports, _ = critical_values(sample, summary, draws, ("GMS", "CMS"), kinds, 0.05, None, schedule)
            assert len(calls) == 2
            for kind in kinds:
                gms, cms = reports[("GMS", kind)], reports[("CMS", kind)]
                assert (gms.method, cms.method) == ("GMS", "CMS")
                assert gms.mode == cms.mode == draws.mode
                assert cms.value == gms.value

    def test_tilts_once_when_cms_is_requested(self, monkeypatch):
        import cmselect.critical

        sample = normal_sample(60, 3, 46, shift=0.2)
        summary = summarize(sample)
        draws = BootstrapDraws(sample, summary, bootstrap_counts(substream(7, BOOTSTRAP), sample.n, 200))
        tilts = []
        original = cmselect.critical.tilt

        def counted(*args):
            tilts.append(original(*args))
            return tilts[-1]

        monkeypatch.setattr(cmselect.critical, "tilt", counted)
        schedule = KappaSchedule.parse("sqrt-log-n")
        kinds = (StatisticKind.MMM,)
        _, tilt_result = critical_values(
            sample, summary, draws, ("GMS", "CMS", "CMS_FC", "RSW"), kinds, 0.05, 0.005, schedule
        )
        assert len(tilts) == 1 and tilt_result is tilts[0]
        _, tilt_result = critical_values(sample, summary, draws, ("GMS", "RSW"), kinds, 0.05, 0.005, schedule)
        assert len(tilts) == 1 and tilt_result is None

    def test_carried_clamped_sets_never_change_a_critical_value(self):
        # One J=10 sample whose selections differ: GMS keeps moments that CMS
        # omits, and RSW keeps all ten with positive shifts. Each AQLR call
        # on the shared draws reuses the certificates the earlier calls left.
        sample = simulate_sample(CorrelationFamily("Neg", 10), (0.0,) * 5 + (0.3,) * 5, 100, substream(1, 0))
        summary = summarize(sample)
        counts = bootstrap_counts(substream(1, BOOTSTRAP), sample.n, 1000)
        procedures = ("GMS", "CMS", "CMS_FC", "RSW")
        kinds = (StatisticKind.AQLR,)
        schedule = KappaSchedule.parse("sqrt-log-n")
        shared, _ = critical_values(
            sample, summary, BootstrapDraws(sample, summary, counts), procedures, kinds, 0.05, 0.005, schedule
        )
        gms, cms = (shared[(proc, StatisticKind.AQLR)].selection.omitted for proc in ("GMS", "CMS"))
        assert not np.array_equal(gms, cms)
        for proc in procedures:
            alone, _ = critical_values(
                sample, summary, BootstrapDraws(sample, summary, counts), (proc,), kinds, 0.05, 0.005, schedule
            )
            key = (proc, StatisticKind.AQLR)
            assert shared[key].value.hex() == alone[key].value.hex()


class TestCms:
    def test_matches_gms_when_mean_nonnegative(self):
        sample = normal_sample(60, 2, 30, shift=4.0)
        schedule = KappaSchedule.parse("sqrt-log-n")
        for mode in (MODE_ASYMPTOTIC, MODE_BOOTSTRAP):
            cms = run_test(
                sample, StatisticKind.MMM, "cms", phi=1, schedule=schedule, mode=mode,
                alpha=0.05, n_draws=300, seed=3,
            ).critical_value
            summary = summarize(sample)
            sel = selection_step("GMS", summary, schedule).selection
            if mode == MODE_ASYMPTOTIC:
                gms = run_gms_asym(summary, sel, StatisticKind.MMM, 0.05, 300, seed=3)
            else:
                gms = run_gms_boot(sample, sel, StatisticKind.MMM, seed=3)
            assert cms.value == gms

    def test_tilting_can_only_omit_more_under_positive_correlation(self):
        # strongly correlated pair, one violated moment, the other hovering at
        # the threshold: the tilt pushes the slack coordinate over it
        rng = np.random.default_rng(31)
        z = rng.standard_normal(120)
        noise = rng.standard_normal(120) * 0.3
        g1 = z - 0.35
        g2 = 0.95 * z + noise + 0.17
        sample = MomentSample(np.column_stack([g1, g2]))
        schedule = KappaSchedule.parse("sqrt-log-n")
        summary = summarize(sample)
        gms_sel = selection_step("GMS", summary, schedule).selection
        step = selection_step("CMS", summary, schedule, tilt_result=tilt(sample))
        cms_sel, fallback = step.selection, step.tilt_fallback
        assert not fallback
        assert np.isposinf(cms_sel.shifts).sum() > np.isposinf(gms_sel.shifts).sum()

    @pytest.mark.parametrize("phi", [1, 2, 3, 4])
    def test_identity_tilt_equals_gms_bit_for_bit(self, phi):
        # Every mean nonnegative: the tilt is the identity, so CMS and CMS_FC
        # read the summary's canonical-order inputs, as GMS does, and row
        # order cannot move their selection or critical value.
        kinds = (StatisticKind.MMM, StatisticKind.AQLR)
        schedule = KappaSchedule.parse("sqrt-log-n")
        rng = np.random.default_rng(80 + phi)
        for _ in range(5):
            z = rng.standard_normal((50, 3))
            x = z - z.mean(axis=0) + np.array([0.02, 0.1, 0.3])
            selections = []
            for values in (x, x[rng.permutation(50)]):
                sample = MomentSample(values)
                summary = summarize(sample)
                assert not tilt(sample).multipliers.any()
                for draws in (
                    AsymptoticDraws(summary.correlation, 200, substream(8, ASYMPTOTIC)),
                    BootstrapDraws(sample, summary, bootstrap_counts(substream(8, BOOTSTRAP), sample.n, 200)),
                ):
                    reports, _ = critical_values(
                        sample, summary, draws, ("GMS", "CMS", "CMS_FC"), kinds, 0.05, None, schedule, phi
                    )
                    for kind in kinds:
                        gms = reports[("GMS", kind)]
                        for proc in ("CMS", "CMS_FC"):
                            assert np.array_equal(reports[(proc, kind)].selection.shifts, gms.selection.shifts)
                            assert reports[(proc, kind)].value == gms.value
                            assert not reports[(proc, kind)].tilt_fallback
                    selections.append(reports[("CMS", kinds[0])].selection.shifts)
            assert all(np.array_equal(selections[0], other) for other in selections)

    def test_needs_the_tilt(self):
        summary = summarize(normal_sample(40, 2, 33))
        schedule = KappaSchedule.parse("sqrt-log-n")
        for proc in ("CMS", "CMS_FC"):
            with pytest.raises(DomainError, match="tilt"):
                selection_step(proc, summary, schedule)

    def test_infeasible_tilt_falls_back_and_flags(self):
        sample = MomentSample(np.array([[-2.0], [-1.0], [-1.5], [-0.75]]))
        report = run_test(
            sample,
            StatisticKind.MMM,
            "cms",
            phi=1,
            schedule=KappaSchedule.parse("fixed:1"),
            mode=MODE_ASYMPTOTIC,
            alpha=0.05,
            n_draws=200,
            seed=0,
        ).critical_value
        assert report.tilt_fallback


class TestRsw:
    def test_asymptotic_draws_rejected(self):
        sample = normal_sample(40, 2, 34)
        summary = summarize(sample)
        draws = AsymptoticDraws(summary.correlation, 200, substream(9, ASYMPTOTIC))
        schedule = KappaSchedule.parse("sqrt-log-n")
        with pytest.raises(DomainError, match="bootstrap-only"):
            critical_values(sample, summary, draws, ("GMS", "RSW"), (StatisticKind.MMM,), 0.05, 0.005, schedule)

    def test_default_beta_is_alpha_over_ten(self):
        sample = normal_sample(50, 2, 40)
        decision = run_test(sample, StatisticKind.MMM, "rsw", alpha=0.05, n_draws=200, seed=1)
        assert decision.critical_value.supplementary["beta"] == pytest.approx(0.005)

    def test_no_rejection_when_all_means_strongly_positive(self):
        sample = normal_sample(80, 3, 41, shift=5.0)
        decision = run_test(sample, StatisticKind.AQLR, "rsw", alpha=0.05, n_draws=200, seed=2)
        assert not decision.extras["first_stage"]
        assert not decision.reject

    def test_rectangle_arithmetic(self):
        sample = normal_sample(60, 2, 42, shift=-0.5)
        summary = summarize(sample)
        draws = BootstrapDraws(sample, summary, bootstrap_counts(substream(3, 1), sample.n, 300))
        report = rsw_critical_value(draws, summary, StatisticKind.MMM, 0.05, 0.005)
        first_stage = report.supplementary["first_stage"]
        k_inv = report.supplementary["k_inv_beta"]
        lower = summary.mean + summary.std * k_inv / np.sqrt(summary.n)
        assert np.allclose(report.supplementary["lambda_star"], np.maximum(lower, 0.0))
        assert first_stage == bool(np.any(lower < 0.0))
        # k_inv is the beta-quantile of the bootstrapped minima
        mins = draws.rectangle_min
        assert k_inv == np.sort(mins)[int(np.ceil(0.005 * mins.size)) - 1]

    def test_reads_the_selection_draws(self):
        # With every mean strongly negative, lambda* = 0 and the two-step
        # critical value is the zero-selection quantile of the same draws.
        sample = normal_sample(60, 3, 44, shift=-3.0)
        summary = summarize(sample)
        draws = BootstrapDraws(sample, summary, bootstrap_counts(substream(4, 1), sample.n, 300))
        alpha, beta = 0.05, 0.005
        for kind in StatisticKind:
            report = rsw_critical_value(draws, summary, kind, alpha, beta)
            assert np.all(report.supplementary["lambda_star"] == 0.0)
            expected = draws.selection_quantile(zeros_selection(3), kind, 1.0 - alpha + beta)
            assert report.value == expected

    def test_beta_domain(self):
        sample = normal_sample(50, 2, 43)
        with pytest.raises(DomainError):
            run_test(sample, StatisticKind.MMM, "rsw", alpha=0.05, beta=0.06, n_draws=200)


def rms_test(sample, kind, tables, seed, mode=MODE_BOOTSTRAP):
    return run_test(
        sample, kind, "rms", mode=mode, alpha=0.05, n_draws=200, seed=seed,
        rms_tables=tables,
    ).critical_value


class TestRms:
    def tables(self, kappa_const, eta1=0.0, eta2=None):
        return RmsTables(
            delta_grid=(-1.0, 0.0, 1.0),
            kappa_values=(kappa_const,) * 3,
            eta1_values=(eta1,) * 3,
            eta2_by_j={2: 0.0 if eta2 is None else eta2},
        )

    def test_missing_tables_disabled(self):
        sample = normal_sample(50, 2, 50)
        with pytest.raises(MissingTable):
            rms_test(sample, StatisticKind.AQLR, None, seed=0)

    def test_degenerate_tables_reduce_to_gms(self):
        sample = normal_sample(50, 2, 51)
        kappa_const = float(np.sqrt(np.log(50)))
        for mode in (MODE_ASYMPTOTIC, MODE_BOOTSTRAP):
            report = rms_test(sample, StatisticKind.MMM, self.tables(kappa_const), seed=6, mode=mode)
            gms = run_test(
                sample, StatisticKind.MMM, "gms", mode=mode, alpha=0.05, n_draws=200, seed=6
            )
            assert report.value == gms.critical_value.value

    def test_eta_shift_is_exactly_additive(self):
        sample = normal_sample(50, 2, 52)
        kappa_const = 2.0
        for mode in (MODE_ASYMPTOTIC, MODE_BOOTSTRAP):
            base = rms_test(sample, StatisticKind.MMM, self.tables(kappa_const), seed=7, mode=mode)
            shifted = rms_test(sample, StatisticKind.MMM, self.tables(kappa_const, eta2=0.1), seed=7, mode=mode)
            assert shifted.value == pytest.approx(base.value + 0.1, abs=1e-12)

    def test_min_off_diagonal_of_negative_family(self):
        from cmselect import CorrelationFamily, make_toeplitz

        matrix = make_toeplitz(CorrelationFamily("Neg", 2))
        assert min_off_diagonal(matrix) == pytest.approx(-0.9)

    def test_one_moment_reads_the_tables_at_correlation_one(self):
        sample = normal_sample(50, 1, 53, shift=-0.2)
        tables = RmsTables(
            delta_grid=(0.0, 1.0), kappa_values=(1.0, 3.0), eta1_values=(0.0, 0.5), eta2_by_j={1: 0.25}
        )
        report = rms_test(sample, StatisticKind.MMM, tables, seed=8)
        assert report.supplementary == {"delta_hat": 1.0, "kappa_hat": 3.0, "eta_hat": 0.75}

    def test_interpolation_clamps(self):
        tables = RmsTables(
            delta_grid=(0.0, 1.0),
            kappa_values=(1.0, 3.0),
            eta1_values=(0.1, 0.3),
            eta2_by_j={4: 0.05},
        )
        assert tables.kappa_at(-5.0) == 1.0
        assert tables.kappa_at(0.5) == pytest.approx(2.0)
        assert tables.kappa_at(9.0) == 3.0
        assert tables.eta_at(0.5, 4) == pytest.approx(0.25)
        with pytest.raises(MissingTable):
            tables.eta_at(0.5, 7)


class TestRunTest:
    def test_accepts_when_statistic_zero(self):
        sample = normal_sample(60, 2, 60, shift=3.0)
        decision = run_test(sample, StatisticKind.MMM, "cms", n_draws=200, seed=0)
        assert decision.statistic == 0.0
        assert not decision.reject

    def test_unknown_procedure(self):
        sample = normal_sample(30, 2, 61)
        with pytest.raises(DomainError):
            run_test(sample, StatisticKind.MMM, "subsampling")

    def test_every_spelling_names_one_procedure_or_mode(self):
        for name in PROCEDURES:
            for spelling in (name, name.lower(), name.lower().replace("_", "-"), name.replace("_", "-")):
                assert procedure_name(spelling) == name
        for mode, alias in ((MODE_ASYMPTOTIC, "asym"), (MODE_BOOTSTRAP, "boot")):
            assert mode_name(mode) == mode_name(alias) == mode_name(alias.upper()) == mode
        for unknown in ("cms fc", "boot", "", 3, None):
            with pytest.raises(DomainError, match="unknown procedure"):
                procedure_name(unknown)
        for unknown in ("gms", "bootstrap-sim", None):
            with pytest.raises(DomainError, match="unknown mode"):
                mode_name(unknown)
        for kind in StatisticKind:
            for spelling in (kind, kind.value, kind.value.upper(), kind.value.capitalize()):
                assert statistic_kind(spelling) is kind
        for unknown in ("qlr", "", 1, None, ["mmm"]):
            with pytest.raises(DomainError, match="unknown statistic"):
                statistic_kind(unknown)

    @pytest.mark.parametrize(
        "procedure, mode",
        [("GMS", "boot"), ("cms_fc", "asym"), ("CMS-FC", MODE_ASYMPTOTIC), ("Rsw", "Bootstrap")],
    )
    def test_run_test_reads_every_spelling(self, procedure, mode):
        sample = normal_sample(40, 2, 66, shift=-0.3)
        canonical = run_test(
            sample, StatisticKind.AQLR, procedure_name(procedure), mode=mode_name(mode), n_draws=200, seed=1
        )
        spelled = run_test(sample, StatisticKind.AQLR, procedure, mode=mode, n_draws=200, seed=1)
        assert spelled.to_dict() == canonical.to_dict()

    @pytest.mark.parametrize("statistic", ["mmm", "MMM", "aqlr", "Aqlr"])
    def test_run_test_reads_every_statistic_spelling(self, statistic):
        sample = normal_sample(40, 2, 66, shift=-0.3)
        canonical = run_test(sample, statistic_kind(statistic), "gms", n_draws=200, seed=1)
        spelled = run_test(sample, statistic, "gms", n_draws=200, seed=1)
        assert spelled.to_dict() == canonical.to_dict()

    def test_unknown_mode_rejected_for_every_procedure(self):
        sample = normal_sample(30, 2, 62)
        for procedure in PROCEDURE_ALIASES:
            with pytest.raises(DomainError, match="unknown mode"):
                run_test(sample, StatisticKind.MMM, procedure, mode="bogus", n_draws=200)

    @pytest.mark.parametrize("procedure", ["rsw", "gms"])
    @pytest.mark.parametrize("phi", [5, 0, [1]])
    def test_phi_outside_the_selections_rejected_for_every_procedure(self, procedure, phi):
        sample = normal_sample(30, 2, 64, shift=-0.3)
        with pytest.raises(DomainError, match="phi must be one of 1, 2, 3, 4"):
            run_test(sample, StatisticKind.MMM, procedure, phi=phi, n_draws=200)

    @pytest.mark.parametrize("procedure", ["rsw", "gms", "cms_fc"])
    @pytest.mark.parametrize("beta", [0.05, 0.0, 7.0])
    def test_beta_outside_its_domain_rejected_for_every_procedure(self, procedure, beta):
        sample = normal_sample(30, 2, 64, shift=-0.3)
        with pytest.raises(DomainError, match=r"beta must lie in \(0, alpha\)"):
            run_test(sample, StatisticKind.MMM, procedure, alpha=0.05, beta=beta, n_draws=200)

    def test_rsw_asymptotic_rejected(self):
        sample = normal_sample(30, 2, 62)
        with pytest.raises(DomainError):
            run_test(sample, StatisticKind.MMM, "rsw", mode=MODE_ASYMPTOTIC)

    def test_report_spells_an_omitted_moment_inf(self):
        sample = normal_sample(60, 2, 65, shift=(-0.3, 3.0))
        record = run_test(sample, StatisticKind.MMM, "gms", n_draws=200).critical_value.to_dict()
        assert record["selection"] == [0.0, "inf"]
        assert all(type(entry) in (float, str) for entry in record["selection"])

    def test_decision_serializes(self):
        import json

        sample = normal_sample(40, 2, 63, shift=-0.4)
        decision = run_test(sample, StatisticKind.AQLR, "cms", n_draws=150, seed=1)
        payload = json.loads(json.dumps(decision.to_dict()))
        assert isinstance(payload["reject"], bool)
        assert payload["critical_value"]["method"] == "CMS"
