"""The closed-form two-ball projection against a long Dykstra run."""

import numpy as np
import pytest

from projection import exact_two_ball, is_two_ball_case, project_ball


def dykstra(x, c1, r1, c2, r2, iterations):
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    z = x.copy()
    for _ in range(iterations):
        y = project_ball(z + p, c1, r1)
        p = z + p - y
        z_new = project_ball(y + q, c2, r2)
        q = y + q - z_new
        if np.array_equal(z_new, z):
            break
        z = z_new
    return z


def near_tangent(dim, rng):
    """Trust centre on the domain sphere, x far outside both balls."""
    c1, r1 = np.zeros(dim), 10.0
    c2 = rng.standard_normal(dim)
    c2 *= r1 / np.linalg.norm(c2)
    r2 = 0.4
    radial = c2 / r1
    tangent = rng.standard_normal(dim)
    tangent -= (tangent @ radial) * radial
    tangent /= np.linalg.norm(tangent)
    # far out and sideways, as after a noisy ascent step from the sphere
    x = c2 + (10.0 + 40.0 * rng.random()) * radial + (25.0 + 50.0 * rng.random()) * tangent
    return x, c1, r1, c2, r2


@pytest.mark.parametrize("dim,seed", [(10, 0), (10, 1), (100, 2)])
def test_matches_long_dykstra_near_tangent(dim, seed):
    x, c1, r1, c2, r2 = near_tangent(dim, np.random.default_rng(seed))
    assert is_two_ball_case(x, c1, r1, c2, r2)
    exact = exact_two_ball(x, c1, r1, c2, r2)
    reference = dykstra(x, c1, r1, c2, r2, 200_000)
    assert np.linalg.norm(exact - reference) < 1e-10
    # both constraints active at the answer
    assert abs(np.linalg.norm(exact - c1) - r1) < 1e-12
    assert abs(np.linalg.norm(exact - c2) - r2) < 1e-12


def test_short_dykstra_is_not_exact_near_tangent():
    # the geometry where a 500-iteration Dykstra stalls: the reference must
    # tell the two apart, or inexact_calls could never be non-zero
    x, c1, r1, c2, r2 = near_tangent(10, np.random.default_rng(0))
    exact = exact_two_ball(x, c1, r1, c2, r2)
    assert np.linalg.norm(dykstra(x, c1, r1, c2, r2, 500) - exact) > 1e-9


def test_obtuse_angle_condition():
    rng = np.random.default_rng(3)
    x, c1, r1, c2, r2 = near_tangent(50, rng)
    y = exact_two_ball(x, c1, r1, c2, r2)
    for _ in range(200):
        z = c2 + rng.standard_normal(50) * r2 * rng.random() / np.sqrt(50)
        if np.linalg.norm(z - c1) <= r1:
            assert (x - y) @ (z - y) <= 1e-9


def test_single_ball_cases_are_not_two_ball():
    c1, r1, c2, r2 = np.zeros(3), 10.0, np.array([1.0, 0.0, 0.0]), 0.5
    assert not is_two_ball_case(np.array([1.2, 0.0, 0.0]), c1, r1, c2, r2)  # inside both
    assert not is_two_ball_case(np.array([3.0, 0.0, 0.0]), c1, r1, c2, r2)  # trust ball only
