import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmselect.errors import QPNoConvergence, SingularCovariance
from cmselect.qp import inverse_spd, nonneg_projection, nonneg_projection_batch


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


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
def test_a_start_guess_never_changes_the_result(k, seed, density):
    # Continuous v has one final clamped set per instance, and the result is
    # the masked solve of that set, so every guess returns the same bytes.
    rng = np.random.default_rng(seed)
    sigma = np.stack([random_spd(rng, k, jitter=0.1) for _ in range(40)])
    v = rng.standard_normal((40, k)) * 2
    start = rng.random((40, k)) < density
    guess = start.copy()
    t_ref, val_ref = nonneg_projection_batch(sigma, v)
    t, values = nonneg_projection_batch(sigma, v, start=start)
    assert t.tobytes() == t_ref.tobytes()
    assert values.tobytes() == val_ref.tobytes()
    assert np.array_equal(start, guess)


def test_a_start_guess_on_ties_stays_optimal():
    # A zero entry of v can sit clamped or free at the optimum; either set is
    # KKT-valid, so a guess may end on the other one and move the last digits.
    rng = np.random.default_rng(23)
    k = 6
    sigma = np.stack([random_spd(rng, k, jitter=0.1) for _ in range(300)])
    v = rng.standard_normal((300, k))
    v[rng.random((300, k)) < 0.4] = 0.0
    t_ref, val_ref = nonneg_projection_batch(sigma, v)
    for start in (rng.random((300, k)) < 0.5, v <= 0.0, np.ones((300, k), dtype=bool)):
        t, values = nonneg_projection_batch(sigma, v, start=start)
        assert_kkt(sigma, v, t, values)
        np.testing.assert_allclose(values, val_ref, rtol=1e-12, atol=0.0)
