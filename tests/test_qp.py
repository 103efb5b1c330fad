import numpy as np
import pytest

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
