import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmselect import MomentSample, MomentSummary, StatisticKind, evaluate, statistics, summarize
from cmselect.errors import DegenerateColumn, SingularCovariance
from cmselect.qp import inverse_spd, nonneg_projection, nonneg_projection_batch
from cmselect.statistics import ADJUSTMENT_CUTOFF, adjusted_sigma_batch, correlation_det, shifted_statistic_batch
from oracles import lapack_adjusted_sigma, lapack_correlation_det


def random_spd(rng, j, spread=1.0):
    a = rng.standard_normal((j, j)) * spread
    return a @ a.T + j * np.eye(j)


def _statistic(kind, vec, sigma, omit=None):
    """S(vec, sigma) through the one statistic kernel, as a batch of one."""
    return shifted_statistic_batch(kind, np.asarray(vec, dtype=float)[None], sigma, omit)[0]


def _argmin_clamped(vec, sigma, omit=None):
    """t == 0, (1, J), at the AQLR program's minimizer t, from the batch
    solver on the vector the kernel gives it (+inf where omitted)."""
    vec = np.asarray(vec, dtype=float)
    v = vec if omit is None else np.where(omit, np.inf, vec)
    return nonneg_projection_batch(sigma, v[None])[0] == 0.0


def _adjusted(sigma):
    """The determinant adjustment of one matrix, as a batch of one."""
    return adjusted_sigma_batch(np.asarray(sigma, dtype=float)[None])[0]


def _mmm_closed_form(vec, sigma, kept):
    z = vec[kept] / np.sqrt(np.diag(sigma)[kept])
    return float(np.sum(np.minimum(z, 0.0) ** 2))


class TestMmm:
    def test_direct_formula(self):
        # n = 4 enters as sqrt(n) on the vector.
        assert _statistic(StatisticKind.MMM, 2.0 * np.array([-1.0, 2.0]), np.eye(2)) == pytest.approx(4.0)

    def test_nonnegative_vector_gives_zero(self):
        assert _statistic(StatisticKind.MMM, np.array([0.0, 3.0, 0.1]), np.eye(3)) == 0.0

    def test_omitted_coordinate_contributes_zero(self):
        value = _statistic(StatisticKind.MMM, np.array([-3.0, -5.0]), np.eye(2), np.array([True, False]))
        assert value == pytest.approx(25.0)

    def test_studentizes_by_sigma_diagonal(self):
        sigma = np.diag([4.0, 1.0])
        assert _statistic(StatisticKind.MMM, np.array([-1.0, 1.0]), sigma) == pytest.approx(0.25)


class TestAdjustedCovariance:
    def test_identity_correlation_untouched(self):
        sample = MomentSample(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        summary = summarize(sample)
        assert np.array_equal(_adjusted(summary.covariance), summary.covariance)

    def test_near_singular_hand_value(self):
        sigma = np.array([[1.0, 0.998], [0.998, 1.0]])
        bumped = _adjusted(sigma)
        expected_bump = 0.012 - (1.0 - 0.998**2)
        assert bumped[0, 0] == pytest.approx(1.0 + expected_bump, abs=1e-12)
        assert bumped[0, 1] == pytest.approx(0.998)

    def test_cutoff_boundary(self):
        # determinant just above the cutoff: no adjustment at all
        rho = np.sqrt(1.0 - 0.012 - 1e-9)
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        assert np.array_equal(_adjusted(sigma), sigma)
        # just below: strictly inflated diagonal
        rho = np.sqrt(1.0 - 0.012 + 1e-6)
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        assert _adjusted(sigma)[0, 0] > 1.0

    def test_scales_with_variance_diagonal(self):
        rho = 0.999
        corr = np.array([[1.0, rho], [rho, 1.0]])
        d = np.diag([4.0, 9.0])
        sigma = np.sqrt(d) @ corr @ np.sqrt(d)
        bump = 0.012 - np.linalg.det(corr)
        expected = sigma + bump * d
        assert np.allclose(_adjusted(sigma), expected, rtol=1e-12)

    @pytest.mark.parametrize("bumped", [True, False])
    def test_batch_matches_per_matrix(self, bumped):
        rng = np.random.default_rng(78)
        j, b = 4, 50
        factors = rng.standard_normal((b, j, j + 1 if bumped else 8 * j))
        if bumped:
            # A dominant common factor pushes every correlation toward one.
            factors[:, :, 0] = 10.0 * rng.uniform(0.5, 2.0, (b, 1))
        scales = rng.uniform(0.1, 10.0, (b, j))
        sigma = factors @ np.swapaxes(factors, 1, 2) * scales[:, :, None] * scales[:, None, :]
        sd = np.sqrt(np.diagonal(sigma, axis1=1, axis2=2))
        det = np.linalg.det(sigma / sd[:, :, None] / sd[:, None, :])
        assert np.all(det < 0.012) if bumped else np.all(det > 0.012)
        batch = adjusted_sigma_batch(sigma)
        oracle = lapack_adjusted_sigma(sigma)
        for i in range(b):
            np.testing.assert_allclose(batch[i], oracle[i], rtol=1e-12, atol=0.0)
            assert np.array_equal(batch[i], sigma[i]) != bumped


@st.composite
def covariance_stacks(draw):
    """Five K×K covariances, K = 1..40, with column scales from 1e-8 to 1e8.
    Each correlation comes from a spectrum exp(-s u), u uniform on [0, 1] and
    s on [0, 6], so its determinant runs from 1 (s = 0) to far below 1e-12
    (large K and s) while its condition number stays below ~e^6: there two
    backward-stable factorizations agree to ~1e-14 relative."""
    k = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    stack = []
    for spread in rng.uniform(0.0, 6.0, 5):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        a = (q * np.exp(-spread * rng.uniform(0.0, 1.0, k))) @ q.T
        a = (a + a.T) / 2.0
        sd = np.sqrt(np.diag(a)) / 10.0 ** rng.uniform(-8.0, 8.0, k)
        stack.append(a / np.outer(sd, sd))
    return np.stack(stack)


def _equicorrelation_with_det(k, det):
    """The K×K equicorrelation whose determinant (1 - r)^(K-1) (1 + (K-1) r)
    is ``det``, found by bisection on r in [0, 1)."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        r = (lo + hi) / 2.0
        if (1.0 - r) ** (k - 1) * (1.0 + (k - 1) * r) > det:
            lo = r
        else:
            hi = r
    corr = np.full((k, k), lo)
    np.fill_diagonal(corr, 1.0)
    return corr


class TestCorrelationDeterminant:
    """`correlation_det` factors LDL^T on the covariances; the oracle is
    LAPACK's LU determinant of the explicit correlations."""

    @settings(max_examples=150, deadline=None)
    @given(covariance_stacks())
    def test_matches_the_explicit_correlation_det(self, sigma):
        det = correlation_det(sigma)
        oracle = lapack_correlation_det(sigma)
        np.testing.assert_allclose(det, oracle, rtol=1e-12, atol=0.0)
        # Above the cutoff (with room for that difference) nothing moves.
        above = oracle >= ADJUSTMENT_CUTOFF * (1.0 + 1e-9)
        assert adjusted_sigma_batch(sigma)[above].tobytes() == sigma[above].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=1e-9, max_value=1e-2),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_just_above_the_cutoff_the_output_is_the_input(self, k, margin, seed):
        corr = _equicorrelation_with_det(k, ADJUSTMENT_CUTOFF * (1.0 + 2.0 * margin))
        sd = 10.0 ** np.random.default_rng(seed).uniform(-8.0, 8.0, k)
        sigma = (corr * np.outer(sd, sd))[None]
        assume(lapack_correlation_det(sigma)[0] >= ADJUSTMENT_CUTOFF * (1.0 + 1e-9))
        assert adjusted_sigma_batch(sigma).tobytes() == sigma.tobytes()

    def test_singular_and_indefinite_matrices_take_the_lapack_route(self, monkeypatch):
        rng = np.random.default_rng(5)
        stack = []
        for k in (4, 10):
            spd = random_spd(rng, k)
            duplicated = random_spd(rng, k)
            duplicated[:, k - 1] = duplicated[:, 1]
            duplicated[k - 1, :] = duplicated[1, :]
            stack += [spd, duplicated]
        # Unit diagonal, off-diagonals 1.5: indefinite with det 1, no bump.
        indefinite = np.full((4, 4), 1.5)
        np.fill_diagonal(indefinite, 1.0)
        # Unit diagonal, off-diagonal 2: det -3, a bump of 3.012.
        negative = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        sigma4 = np.stack([stack[0], stack[1], indefinite, negative])
        sigma10 = np.stack(stack[2:])

        received = []

        def recording(sub):
            received.append(sub.copy())
            return lapack_correlation_det(sub)

        monkeypatch.setattr(statistics, "_explicit_correlation_det", recording)
        for sigma, singular in ((sigma4, [1, 2, 3]), (sigma10, [1])):
            received.clear()
            adjusted = adjusted_sigma_batch(sigma)
            assert len(received) == 1 and received[0].tobytes() == sigma[singular].tobytes()
            # Today's bump, bitwise, on the fallback matrices; the SPD ones
            # (det well above the cutoff) are untouched.
            assert adjusted.tobytes() == lapack_adjusted_sigma(sigma).tobytes()
            assert np.all(np.isfinite(adjusted))
        np.testing.assert_allclose(adjusted_sigma_batch(negative[None])[0], negative + 3.012 * np.eye(4), rtol=1e-12)


class TestAqlr:
    def test_one_dimensional_grid_oracle(self):
        # independent oracle: dense grid over t in [0, 5]
        v, n = -0.5, 100
        grid = np.arange(0.0, 5.0, 1e-4)
        oracle = n * np.min((v - grid) ** 2)
        value = _statistic(StatisticKind.AQLR, np.array([np.sqrt(n) * v]), np.eye(1))
        clamped = _argmin_clamped(np.array([np.sqrt(n) * v]), np.eye(1))
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(25.0)
        assert clamped[0, 0]

    def test_two_dimensional_diagonal_case(self):
        v = np.array([-0.3, 0.4])
        value = _statistic(StatisticKind.AQLR, 10.0 * v, np.eye(2))
        clamped = _argmin_clamped(10.0 * v, np.eye(2))
        assert value == pytest.approx(9.0)
        assert clamped[0].tolist() == [True, False]
        # cross-check against a 2-D grid
        ts = np.arange(0.0, 1.0, 1e-3)
        t1, t2 = np.meshgrid(ts, ts, indexing="ij")
        oracle = 100 * np.min((v[0] - t1) ** 2 + (v[1] - t2) ** 2)
        assert value == pytest.approx(oracle, abs=1e-3)

    def test_interior_feasible_point_gives_zero(self):
        v = np.array([0.2, 1.5, 0.0])
        sigma = random_spd(np.random.default_rng(0), 3)
        assert _statistic(StatisticKind.AQLR, 3.0 * v, sigma) == 0.0
        clamped = _argmin_clamped(3.0 * v, sigma)
        # The minimizer is the vector itself: zero only where it is zero.
        assert clamped[0].tolist() == [False, False, True]

    def test_all_omitted_gives_zero(self):
        value = _statistic(StatisticKind.AQLR, np.array([-1.0, -2.0]), np.eye(2), np.array([True, True]))
        assert value == 0.0

    def test_kkt_of_minimizer(self):
        # The kernel's value is the objective at the batch solver's minimizer,
        # and that minimizer satisfies the KKT conditions in W = Sigma^(-1).
        rng = np.random.default_rng(123)
        for _ in range(200):
            j = int(rng.integers(1, 7))
            sigma = random_spd(rng, j)
            v = rng.standard_normal(j) * 2
            t = nonneg_projection_batch(sigma, v[None])[0][0]
            w = np.linalg.inv(sigma)
            value = _statistic(StatisticKind.AQLR, v, sigma)
            assert value == pytest.approx((v - t) @ w @ (v - t), rel=1e-10, abs=1e-12)
            grad = 2 * w @ (t - v)
            active = t <= 1e-12
            assert np.all(grad[active] >= -1e-8)
            assert np.all(np.abs(grad[~active]) <= 1e-8)


class TestEvaluate:
    def test_all_positive_means_accepts_trivially(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 3)) * 0.1 + 5.0
        summary = summarize(MomentSample(x))
        assert evaluate(StatisticKind.MMM, summary) == 0.0
        assert evaluate(StatisticKind.AQLR, summary) == 0.0

    def test_one_dimensional_statistics_coincide(self):
        # mean -0.5, variance 1, n = 100: both reduce to n * min(0, mean/sd)^2
        col = np.concatenate([np.full(50, 0.5), np.full(50, -1.5)])
        summary = summarize(MomentSample(col[:, None]))
        assert evaluate(StatisticKind.MMM, summary) == pytest.approx(25.0)
        assert evaluate(StatisticKind.AQLR, summary) == pytest.approx(25.0)

    @pytest.mark.parametrize("kind", list(StatisticKind))
    def test_zero_variance_column_rejected(self, kind):
        cov = np.diag([1.0, 0.0])
        summary = MomentSummary(np.array([-0.5, 0.0]), cov, np.diag(cov), np.eye(2), 50)
        with pytest.raises(DegenerateColumn):
            evaluate(kind, summary)


@st.composite
def statistic_instances(draw):
    j = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.standard_normal(j) * 2, random_spd(rng, j), rng


@settings(max_examples=120, deadline=None)
@given(statistic_instances(), st.sampled_from(list(StatisticKind)))
def test_monotone_nonincreasing_in_first_argument(instance, kind):
    v, sigma, rng = instance
    higher = v + rng.uniform(0.0, 1.5, size=v.size)
    assert _statistic(kind, higher, sigma) <= _statistic(kind, v, sigma) + 1e-10


@settings(max_examples=120, deadline=None)
@given(statistic_instances(), st.sampled_from(list(StatisticKind)))
def test_diagonal_scale_invariance(instance, kind):
    v, sigma, rng = instance
    d = rng.uniform(0.2, 5.0, size=v.size)
    base = _statistic(kind, v, sigma)
    scaled = _statistic(kind, d * v, sigma * np.outer(d, d))
    assert abs(scaled - base) <= 1e-8 * (1.0 + base)


@settings(max_examples=120, deadline=None)
@given(statistic_instances(), st.sampled_from(list(StatisticKind)),
       st.floats(min_value=0.05, max_value=20.0))
def test_degree_two_homogeneity(instance, kind, a):
    v, sigma, _ = instance
    base = _statistic(kind, v, sigma)
    assert _statistic(kind, a * v, sigma) == pytest.approx(a**2 * base, rel=1e-8, abs=1e-10)


@settings(max_examples=120, deadline=None)
@given(statistic_instances(), st.sampled_from(list(StatisticKind)))
def test_positive_exactly_when_some_coordinate_negative(instance, kind):
    v, sigma, _ = instance
    value = _statistic(kind, v, sigma)
    if np.any(v < 0):
        assert value > 0
    else:
        assert value == 0.0


def test_batch_matches_scalar_evaluation():
    rng = np.random.default_rng(77)
    j, b = 4, 64
    sigma = np.stack([random_spd(rng, j) for _ in range(b)])
    vec = rng.standard_normal((b, j)) * 1.5
    omit = np.array([False, True, False, False])
    kept = np.nonzero(~omit)[0]
    for kind in StatisticKind:
        supplied = adjusted_sigma_batch(sigma) if kind is StatisticKind.AQLR else sigma
        batch = shifted_statistic_batch(kind, vec, supplied, omit)
        for i in range(b):
            # Independent oracles on the kept columns: the closed form, and
            # the reference active-set solver in W = Sigma^(-1).
            if kind is StatisticKind.AQLR:
                block = lapack_adjusted_sigma(sigma[i][None])[0][np.ix_(kept, kept)]
                expected = nonneg_projection(inverse_spd(block), vec[i, kept])[1]
            else:
                expected = _mmm_closed_form(vec[i], sigma[i], kept)
            assert batch[i] == pytest.approx(expected, rel=1e-10, abs=1e-10)
        # One (J, J) matrix serves every draw exactly as its broadcast stack.
        shared = np.broadcast_to(supplied[0], supplied.shape)
        assert np.array_equal(
            shifted_statistic_batch(kind, vec, supplied[0], omit), shifted_statistic_batch(kind, vec, shared, omit)
        )


@pytest.mark.parametrize("seed", [186, 47, 125, 183])
def test_aqlr_invariant_to_a_slack_column_offset(seed):
    # Column 3 is slack (mean 3); adding 1e9 to it makes its studentized mean
    # ~1e10. An explicit inverse of Sigma lost ~5% of T to that entry (seeds
    # 186, 47); a KKT tolerance taken over the whole vector, ~0.1 here,
    # accepted a wrong clamped set (seeds 125, 183).
    values = np.random.default_rng(seed).standard_normal((200, 3)) + np.array([-0.15, 0.05, 3.0])
    base = evaluate(StatisticKind.AQLR, summarize(MomentSample(values)))
    shifted = values.copy()
    shifted[:, 2] += 1e9
    moved = evaluate(StatisticKind.AQLR, summarize(MomentSample(shifted)))
    assert base > 0
    assert moved == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("seed", [75, 10])
@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
def test_aqlr_on_data_is_free_of_the_units(seed, scale):
    # Correlated columns, two of them binding: the first guess of the clamped
    # set clamps a coordinate whose multiplier is negative. Unstudentized, the
    # batch solver's tolerance grows with the data's units while the
    # multipliers shrink, and at 1e5 it accepted that set (T off by 160%).
    mix = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0], [0.5, -0.5, 0.7]])
    values = np.random.default_rng(seed).standard_normal((200, 3)) @ mix.T + np.array([-0.15, -0.05, 0.05])
    base = evaluate(StatisticKind.AQLR, summarize(MomentSample(values)))
    assert base > 0
    scaled = evaluate(StatisticKind.AQLR, summarize(MomentSample(values * scale)))
    assert scaled == pytest.approx(base, rel=1e-10)


def test_aqlr_rejects_a_covariance_that_is_not_positive_definite():
    # Unit diagonal, off-diagonals 1.5: eigenvalues 4, -0.5, -0.5, so the
    # determinant is 1, above the cutoff, and nothing is adjusted. The program
    # is unbounded below, yet a clamped set passes the pivoting's KKT test.
    cov = np.full((3, 3), 1.5)
    np.fill_diagonal(cov, 1.0)
    assert np.array_equal(_adjusted(cov), cov)
    summary = MomentSummary(np.array([-0.1, -0.1, 0.2]), cov, np.ones(3), cov.copy(), 100)
    with pytest.raises(SingularCovariance):
        evaluate(StatisticKind.AQLR, summary)


def test_aqlr_agrees_with_the_reference_solver():
    # The kernel pivots on Sigma; the reference active-set method works in
    # W = Sigma^(-1). Omitted moments are deleted before either solves.
    rng = np.random.default_rng(2024)
    for k in range(1, 11):
        for _ in range(40):
            j = k + int(rng.integers(0, 3))
            sigma = random_spd(rng, j, spread=float(rng.uniform(0.3, 2.0)))
            vec = rng.standard_normal(j) * 2
            kept = np.sort(rng.choice(j, size=k, replace=False))
            omit = np.ones(j, dtype=bool)
            omit[kept] = False
            value = _statistic(StatisticKind.AQLR, vec, sigma, omit)
            clamped = _argmin_clamped(vec, sigma, omit)
            t_ref, value_ref = nonneg_projection(inverse_spd(sigma[np.ix_(kept, kept)]), vec[kept])
            assert value == pytest.approx(value_ref, rel=1e-10, abs=1e-10)
            assert clamped[0, kept].tolist() == (t_ref == 0.0).tolist()
            assert not clamped[0, omit].any()
