import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmselect import statistics
from cmselect.errors import QPNoConvergence, SingularCovariance
from cmselect.qp import certified, inverse_spd, nonneg_projection, nonneg_projection_batch
from cmselect.statistics import adjusted_sigma_batch, correlation_det


def random_spd(rng, k, jitter=1.0):
    a = rng.standard_normal((k, k))
    return a @ a.T + jitter * k * np.eye(k)


def test_batch_agrees_with_reference_across_dimensions():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 5, 8, 10):
        sigma = np.stack([random_spd(rng, k) for _ in range(300)])
        v = rng.standard_normal((300, k)) * 2
        t_batch, val_batch = nonneg_projection_batch(sigma, v)
        for b in range(300):
            t_ref, val_ref = nonneg_projection(inverse_spd(sigma[b]), v[b])
            assert val_batch[b] == pytest.approx(val_ref, rel=1e-10, abs=1e-10)
            assert np.allclose(t_batch[b], t_ref, atol=1e-8)


def test_broadcast_single_matrix():
    rng = np.random.default_rng(5)
    sigma = random_spd(rng, 3)
    v = rng.standard_normal((50, 3))
    t, values = nonneg_projection_batch(sigma, v)
    for b in range(50):
        _, ref = nonneg_projection(inverse_spd(sigma), v[b])
        assert values[b] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_nonnegative_vector_is_its_own_projection():
    rng = np.random.default_rng(2)
    w = inverse_spd(random_spd(rng, 4))
    v = np.abs(rng.standard_normal(4))
    t, value = nonneg_projection(w, v)
    assert value == 0.0
    assert np.array_equal(t, v)


def test_values_are_nonnegative():
    rng = np.random.default_rng(8)
    sigma = np.stack([random_spd(rng, 4, jitter=0.2) for _ in range(500)])
    v = rng.standard_normal((500, 4)) * 3
    _, values = nonneg_projection_batch(sigma, v)
    assert np.all(values >= 0.0)


def test_iteration_cap_raises():
    with pytest.raises(QPNoConvergence):
        nonneg_projection(np.eye(2), np.array([-1.0, -1.0]), max_iter=0)


def test_batch_iteration_cap_raises():
    # Both coordinates start clamped; the first round finds the second
    # multiplier negative, so one round cannot finish the instance.
    sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
    with pytest.raises(QPNoConvergence, match="1 of 1 instances unfinished after 1 rounds"):
        nonneg_projection_batch(sigma, np.array([[-1.0, -0.5]]), max_iter=1)
    t, values = nonneg_projection_batch(sigma, np.array([[-1.0, -0.5]]), max_iter=2)
    assert t[0] == pytest.approx([0.0, 0.4]) and values[0] == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), drift=st.floats(0.0, 3.0))
# An instance on which switching back to full exchanges whenever a round had
# fewer violations than the round before cycled through four clamped sets.
@example(k=9, seed=716406398, drift=2.9662008964416904)
def test_bootstrap_like_instances_finish_within_the_cap(k, seed, drift):
    # Omega* as the bootstrap builds it: the correlation of a small Wishart
    # draw (m rows; singular when m <= k, so only the determinant adjustment
    # makes it positive definite). v drifts negative, so many coordinates clamp.
    rng = np.random.default_rng(seed)
    root = np.linalg.cholesky(random_spd(rng, k, jitter=0.05))
    m = int(rng.integers(3, 2 * k + 3))
    rows = rng.standard_normal((16, m, k)) @ root.T
    centered = rows - rows.mean(axis=1, keepdims=True)
    cov = np.swapaxes(centered, 1, 2) @ centered
    sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    sigma = adjusted_sigma_batch(cov / sd[:, :, None] / sd[:, None, :])
    v = rng.standard_normal((16, k)) - drift
    _, values = nonneg_projection_batch(sigma, v)
    for b in range(16):
        _, ref = nonneg_projection(inverse_spd(sigma[b]), v[b])
        assert values[b] == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_singular_matrix_reported():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularCovariance):
        inverse_spd(singular)


def test_indefinite_free_block_reported():
    # The free block [[1, 2], [2, 1]] is invertible but not positive
    # definite, so the reference solver's Cholesky check rejects it.
    w = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularCovariance):
        nonneg_projection(w, np.array([1.0, 1.0, -1.0]))


def test_empty_problem():
    t, value = nonneg_projection(np.zeros((0, 0)), np.zeros(0))
    assert value == 0.0
    assert t.size == 0


def test_batch_with_a_singular_instance_reported():
    # The second instance's clamped block [[1, 1], [1, 1]] is singular.
    sigma = np.stack([np.eye(2), np.ones((2, 2))])
    v = np.array([[-1.0, 2.0], [-1.0, -1.0]])
    with pytest.raises(SingularCovariance):
        nonneg_projection_batch(sigma, v)


def test_batch_with_an_indefinite_clamped_block_reported():
    # [[1, 2], [2, 1]] is invertible but not positive definite: with both
    # coordinates clamped, the second LDL^T pivot is 1 - 4 = -3. A pivoted
    # LU solves it and returns a number; the solver refuses it instead.
    sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularCovariance):
        nonneg_projection_batch(sigma, np.array([[-1.0, -1.0]]))
    with pytest.raises(SingularCovariance):
        nonneg_projection_batch(np.stack([np.eye(2), sigma]), np.array([[-1.0, -1.0], [-1.0, -1.0]]))


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    slack=st.sampled_from([np.inf, 1e6]),
)
def test_omitted_coordinates_never_touch_the_bits(k, seed, density, slack):
    # The kernel omits a moment by making it slack (+inf). Values, clamped
    # sets and multipliers equal those of the compact problem on the kept
    # coordinates bit for bit, and so do those with a large finite slack.
    rng = np.random.default_rng(seed)
    sigma = adjusted_sigma_batch(np.stack([random_spd(rng, k, jitter=0.1) for _ in range(30)]))
    v = rng.standard_normal((30, k)) * 2
    omit = rng.random(k) < density
    kept = np.nonzero(~omit)[0]
    full = nonneg_projection_batch(sigma, np.where(omit, slack, v))
    compact = nonneg_projection_batch(sigma[:, kept][:, :, kept], v[:, kept])
    assert full[1].tobytes() == compact[1].tobytes()
    assert np.array_equal(full.clamped[:, kept], compact.clamped)
    assert not full.clamped[:, omit].any()
    assert full.multipliers[:, kept].tobytes() == compact.multipliers.tobytes()
    assert not full.multipliers[:, omit].any()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_a_certificate_gives_the_solvers_bytes(k, seed):
    # An instance certified at v, checked at a v' equal to v on its clamped
    # set: where the solver's KKT test passes, t and the value are what a
    # new solve at v' returns; where it fails, a new solve ends elsewhere.
    rng = np.random.default_rng(seed)
    sigma = np.stack([random_spd(rng, k, jitter=0.1) for _ in range(60)])
    v = rng.standard_normal((60, k))
    first = nonneg_projection_batch(sigma, v)
    moved = np.where(first.clamped, v, v + rng.standard_normal((60, k)))
    ok, t, values = certified(moved, first.clamped, first.multipliers, first.displacement)
    again = nonneg_projection_batch(sigma, moved)
    assert t[ok].tobytes() == again[0][ok].tobytes()
    assert values[ok].tobytes() == again[1][ok].tobytes()
    assert not np.any(np.all(again.clamped[~ok] == first.clamped[~ok], axis=1))


def assert_kkt(sigma, v, t, values):
    """t >= 0, s = W (t - v) >= 0, t's = 0 and value = (v - t)' W (v - t),
    to tolerances scaled by v."""
    for b in range(v.shape[0]):
        scale = 1.0 + np.abs(v[b]).max()
        s = np.linalg.solve(sigma[b], t[b] - v[b])
        assert np.all(t[b] >= 0.0)
        assert np.all(s >= -1e-9 * scale)
        assert np.abs(t[b] * s).max() <= 1e-9 * scale**2
        assert values[b] == pytest.approx(-(v[b] @ s), rel=1e-9, abs=1e-12)


def test_ties_stay_optimal():
    # A zero entry of v can sit clamped or free at the optimum; either set is
    # KKT-valid, and the one the solver certifies must give an optimal point.
    rng = np.random.default_rng(23)
    k = 6
    sigma = np.stack([random_spd(rng, k, jitter=0.1) for _ in range(300)])
    v = rng.standard_normal((300, k))
    v[rng.random((300, k)) < 0.4] = 0.0
    t, values = nonneg_projection_batch(sigma, v)
    assert_kkt(sigma, v, t, values)


def _integer_stack(k, batch):
    """(batch, k, k) covariances D L L' D, exact in float64: L lower
    triangular with 2 on the diagonal and entries in {-1, 0, 1} below it,
    D a diagonal of integers 1..4, all from integer arithmetic and L L'
    accumulated one column of L at a time. So the stack is symmetric
    positive definite, far from singular at K <= 25, and its bits depend on
    no BLAS, random stream or platform."""
    b = np.arange(batch)[:, None, None]
    i = np.arange(k)[None, :, None]
    c = np.arange(k)[None, None, :]
    lower = np.where(c < i, (7 * i + 3 * c + 5 * b) % 3 - 1, 0) + np.where(c == i, 2, 0)
    product = np.zeros((batch, k, k), dtype=np.int64)
    for r in range(k):
        product += lower[:, :, r, None] * lower[:, None, :, r]
    scale = 1 + (3 * b + i) % 4
    return (product * scale * np.swapaxes(scale, 1, 2)).astype(float)


def _integer_v(k, batch):
    """(batch, k) half-integers in [-2, 2], negative in over a third of the
    entries, with +inf (an omitted moment) on a sparse pattern and, from
    K = 4 on, on coordinate 1 of every instance."""
    b = np.arange(batch)[:, None]
    j = np.arange(k)[None, :]
    v = ((11 * b + 5 * j) % 9 - 4) / 2.0
    v = np.where((b + 2 * j) % 7 == 3, np.inf, v)
    if k >= 4:
        v[:, 1] = np.inf
    return v


# SHA-256 of every output below, which pins the bytes of the LDL^T kernel
# that the determinant and the batch QP share: a change to its arithmetic or
# its order of operations moves it.
KERNEL_BYTES = "909af21408172ea8b89e69ead3dcb9c93d8d12cf1423d1b9680297a7cef95d85"


def test_kernel_bytes_are_pinned(monkeypatch):
    def refuse(sigma):
        raise AssertionError("an SPD stack reached the LAPACK determinant")

    monkeypatch.setattr(statistics, "_explicit_correlation_det", refuse)
    digest = hashlib.sha256()
    for k in range(1, 26):
        for batch in (1, 2, 7, 40):
            sigma = _integer_stack(k, batch)
            adjusted = adjusted_sigma_batch(sigma)
            solved = nonneg_projection_batch(adjusted, _integer_v(k, batch))
            outputs = (correlation_det(sigma), adjusted, *solved, solved.clamped, solved.multipliers, solved.displacement)
            for array in outputs:
                digest.update(array.tobytes())
    assert digest.hexdigest() == KERNEL_BYTES
