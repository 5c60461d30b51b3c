"""Chart geometry: round trips, distances, and the small-scale rate."""

import math

import numpy as np
import pytest

from eigenknot.sphere import (
    Chart,
    chart_to_sphere,
    geodesic_dist,
    random_chart,
    sphere_to_chart,
    standard_chart,
)


def test_chart_center():
    c = random_chart(3, 11)
    assert np.allclose(chart_to_sphere(c, np.zeros(3)), c.p0)
    assert np.allclose(sphere_to_chart(c, c.p0), 0.0)


def test_radial_isometry():
    c = random_chart(3, 2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(size=3)
        x *= rng.uniform(0.01, 3.1) / np.linalg.norm(x)
        p = chart_to_sphere(c, x)
        assert float(geodesic_dist(c.p0, p)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_round_trip():
    c = random_chart(3, 7)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1000, 3))
    x *= (rng.uniform(0.0, 3.0, 1000) / np.linalg.norm(x, axis=1))[:, None]
    back = sphere_to_chart(c, chart_to_sphere(c, x))
    assert np.max(np.abs(back - x)) <= 1e-10


def test_quarter_geodesic():
    c = standard_chart(3)
    p = chart_to_sphere(c, np.array([0.5 * math.pi, 0.0, 0.0]))
    assert np.allclose(p, c.frame[0], atol=1e-14)
    assert sphere_to_chart(c, c.frame[0]) == pytest.approx(
        np.array([0.5 * math.pi, 0.0, 0.0]), abs=1e-12
    )


def test_domain_checks():
    c = standard_chart(3)
    with pytest.raises(ValueError):
        chart_to_sphere(c, np.array([math.pi, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sphere_to_chart(c, -c.p0)


@pytest.mark.parametrize("p0", [np.zeros(4), np.array([1.0, math.nan, 0.0, 0.0]), np.array([math.inf, 0, 0, 0])])
def test_random_chart_refuses_degenerate_base(p0):
    with pytest.raises(ValueError, match="finite nonzero"):
        random_chart(3, 0, p0=p0)


def test_distance_basics():
    rng = np.random.default_rng(9)
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    assert float(geodesic_dist(p, p)) == 0.0
    assert float(geodesic_dist(p, -p)) == pytest.approx(math.pi)


def test_rescaled_distance_rate():
    # k * dist(Psi^{-1}(x/k), Psi^{-1}(y/k)) = |x - y| + O(1/k) uniformly
    c = random_chart(3, 21)
    rng = np.random.default_rng(10)
    x = rng.uniform(-2, 2, (200, 3))
    y = rng.uniform(-2, 2, (200, 3))
    sups = []
    for k in (50, 100, 200):
        p = chart_to_sphere(c, x / k)
        q = chart_to_sphere(c, y / k)
        d = geodesic_dist(p, q)
        sups.append(float(np.max(np.abs(k * d - np.linalg.norm(x - y, axis=1)))))
    C = sups[0] * 50
    for k, sup in zip((50, 100, 200), sups):
        assert sup <= C * 1.01 / k
    assert sups[0] > sups[1] > sups[2]


def test_frame_validation_and_serialization():
    c = random_chart(4, 3)
    gram = c.frame @ c.frame.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12
    c2 = Chart.from_json(c.to_json())
    assert np.allclose(c2.p0, c.p0)
    assert np.allclose(c2.frame, c.frame)
    assert c2.seed == 3
    gram2 = c2.frame @ c2.frame.T
    assert np.max(np.abs(gram2 - np.eye(4))) <= 1e-12
    with pytest.raises(ValueError):
        Chart(c.p0, c.frame * 1.01)
