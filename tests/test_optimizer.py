"""Projections, noisy steps, averaging, and the effective variance bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkforget import (
    ClientDataset,
    FeasibleRegion,
    LogisticObjective,
    QuadraticObjective,
    StepSpec,
    averaged_gradient,
    clip_gradient,
    effective_variance_bound,
    noisy_projected_step,
    project,
    stepsize,
    substream,
)


class TestProject:
    def test_interior_point_unchanged(self):
        region = FeasibleRegion.ball(np.zeros(2), 1.0)
        x = np.array([0.2, -0.1])
        np.testing.assert_array_equal(project(x, region), x)

    def test_closed_form_ball(self):
        region = FeasibleRegion.ball(np.zeros(2), 1.0)
        np.testing.assert_allclose(
            project(np.array([3.0, 4.0]), region), np.array([0.6, 0.8])
        )

    def test_zero_radius_maps_to_center(self):
        center = np.array([1.0, 2.0])
        region = FeasibleRegion.ball(center, 0.0)
        np.testing.assert_array_equal(project(np.array([5.0, 5.0]), region), center)

    def test_full_space_identity(self):
        x = np.array([10.0, -20.0])
        np.testing.assert_array_equal(project(x, FeasibleRegion.full()), x)

    def test_intersection_feasible(self):
        rng = substream(30, "proj")
        region = FeasibleRegion.ball(np.zeros(3), 2.0).with_trust(
            np.array([1.5, 0.0, 0.0]), 1.0
        )
        for _ in range(200):
            x = rng.normal(size=3) * 4
            y = project(x, region)
            assert np.linalg.norm(y) <= 2.0 + 1e-9
            assert np.linalg.norm(y - np.array([1.5, 0.0, 0.0])) <= 1.0 + 1e-9

    def test_intersection_is_exact_projection(self):
        # optimality check: the projection is the closest feasible point
        rng = substream(31, "proj")
        region = FeasibleRegion.ball(np.zeros(2), 1.5).with_trust(
            np.array([1.0, 0.5]), 1.0
        )
        for _ in range(50):
            x = rng.normal(size=2) * 3
            y = project(x, region)
            d_star = np.linalg.norm(x - y)
            for _ in range(300):
                z = rng.normal(size=2) * 2
                if region.contains(z, tol=0.0):
                    assert np.linalg.norm(x - z) >= d_star - 1e-8

    def test_non_expansiveness(self):
        rng = substream(32, "proj")
        regions = [
            FeasibleRegion.ball(np.zeros(4), 1.0),
            FeasibleRegion.ball(np.zeros(4), 2.0).with_trust(np.ones(4) * 0.5, 1.0),
            FeasibleRegion.full().with_trust(np.zeros(4), 0.7),
        ]
        for region in regions:
            for _ in range(4000):
                x = rng.normal(size=4) * 3
                y = rng.normal(size=4) * 3
                px, py = project(x, region), project(y, region)
                assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


# project()'s contract on every branch: (region, x, the projection). The
# projection shows the case reaches its branch; a two-ball answer is where
# the two unit circles meet, (0.5, sqrt(3)/2).
_BALL3 = FeasibleRegion.ball(np.zeros(3), 10.0).with_trust(np.array([1.0, 0.0, 0.0]), 1.0)
PROJECT_CASES = {
    "full-space": (FeasibleRegion.full(), [10.0, -20.0, 3.0], [10.0, -20.0, 3.0]),
    "ball-inside": (FeasibleRegion.ball(np.zeros(3), 2.0), [0.5, 0.2, -0.1], [0.5, 0.2, -0.1]),
    "ball-outside": (FeasibleRegion.ball(np.zeros(3), 1.0), [3.0, 4.0, 0.0], [0.6, 0.8, 0.0]),
    "ball-radius-0": (
        FeasibleRegion.ball(np.array([1.0, 2.0, 3.0]), 0.0), [5.0, 5.0, 5.0], [1.0, 2.0, 3.0]
    ),
    "trust-inside": (
        FeasibleRegion.full().with_trust(np.zeros(3), 1.0), [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]
    ),
    "trust-outside": (
        FeasibleRegion.full().with_trust(np.array([1.0, 0.0, 0.0]), 1.0),
        [1.0, 0.0, 4.0], [1.0, 0.0, 1.0],
    ),
    "intersection-inside": (_BALL3, [1.5, 0.0, 0.0], [1.5, 0.0, 0.0]),
    "intersection-trust-answer": (_BALL3, [4.0, 0.0, 0.0], [2.0, 0.0, 0.0]),
    "intersection-domain-answer": (
        FeasibleRegion.ball(np.zeros(3), 1.0).with_trust(np.array([0.5, 0.0, 0.0]), 5.0),
        [3.0, 0.0, 0.0], [1.0, 0.0, 0.0],
    ),
    "two-ball": (
        FeasibleRegion.ball(np.zeros(2), 1.0).with_trust(np.array([1.0, 0.0]), 1.0),
        [0.5, 5.0], [0.5, np.sqrt(3.0) / 2.0],
    ),
}


@pytest.mark.parametrize("case", sorted(PROJECT_CASES))
def test_project_returns_a_new_array(case):
    """The result is never the input nor a view of it, and writing to it leaves x alone."""
    region, x, want = PROJECT_CASES[case]
    x = np.array(x)
    kept = x.copy()
    y = project(x, region)
    np.testing.assert_allclose(y, want, rtol=0.0, atol=1e-12)
    assert y is not x and not np.shares_memory(y, x)
    for fixed in (region.center, region.trust_center):
        assert fixed is None or not np.shares_memory(y, fixed)
    y += 1.0
    np.testing.assert_array_equal(x, kept)


def _circle_optimum(x, c1, r1, c2, r2):
    """Nearest point of the lens boundary circle to x, from the plane of x, c1, c2.

    In that plane, with c1 at the origin and c2 on the first axis, the two
    boundary circles meet at (alpha, +-beta); the optimum is the one on
    x's side of the axis.
    """
    e1 = (c2 - c1) / np.linalg.norm(c2 - c1)
    off = (x - c1) - ((x - c1) @ e1) * e1
    e2 = off / np.linalg.norm(off)
    dist = np.linalg.norm(c2 - c1)
    alpha = (r1**2 - r2**2 + dist**2) / (2 * dist)
    beta = np.sqrt(r1**2 - alpha**2)
    return c1 + alpha * e1 + beta * e2


def _kkt_multipliers(x, y, c1, c2):
    """Least-squares (l1, l2) with x - y = l1 (y - c1) + l2 (y - c2), and the residual."""
    A = np.column_stack([y - c1, y - c2])
    lam, *_ = np.linalg.lstsq(A, x - y, rcond=None)
    return lam, float(np.linalg.norm(A @ lam - (x - y)))


class TestTwoBallProjection:
    def test_trust_centre_on_domain_sphere(self):
        # The geometry where alternating projections stall: the trust ball
        # is centred on the domain sphere and x lies far outside both.
        d = 10
        c1, r1 = np.zeros(d), 10.0
        direction = np.zeros(d)
        direction[0] = 1.0
        c2, r2 = r1 * direction, 0.4
        region = FeasibleRegion.ball(c1, r1).with_trust(c2, r2)
        rng = substream(33, "proj")
        for _ in range(50):
            x = c2 + rng.normal(size=d) * 5.0
            x[0] = abs(x[0]) + r1 + 1.0
            y = project(x, region)
            star = _circle_optimum(x, c1, r1, c2, r2)
            assert np.linalg.norm(y - star) <= 1e-9
            lam, resid = _kkt_multipliers(x, star, c1, c2)
            assert resid <= 1e-9 * np.linalg.norm(x) and np.all(lam >= 0)

    def test_disjoint_balls_rejected(self):
        region = FeasibleRegion.ball(np.zeros(3), 1.0).with_trust(np.array([3.0, 0, 0]), 1.0)
        with pytest.raises(ValueError):
            project(np.array([1.5, 2.0, 0.0]), region)


@st.composite
def two_ball_geometry(draw):
    """Intersecting balls in dimension up to 1000, often nearly tangent."""
    d = draw(st.integers(2, 1000))
    r1 = draw(st.floats(0.05, 50.0))
    r2 = draw(st.floats(0.05, 50.0))
    lo, hi = abs(r1 - r2), r1 + r2
    # relative gap to tangency; exact tangency is left out because rounding
    # the centres moves a one-point lens by about sqrt(machine eps) * radius
    gap = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
    where = draw(st.sampled_from(["inner", "outer", "between"]))
    if where == "inner":
        dist = lo + gap * hi
    elif where == "outer":
        dist = hi * (1.0 - gap)
    else:
        dist = lo + draw(st.floats(0.01, 0.99)) * (hi - lo)
    dist = max(dist, 1e-3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c1 = rng.normal(size=d)
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    c2 = c1 + dist * u
    # points scattered around the centre of the lens, where both
    # constraints are most often active
    mid = c1 + (dist**2 + r1**2 - r2**2) / (2 * dist) * u
    scale = draw(st.sampled_from([0.5, 2.0, 100.0])) * (r1 + r2)
    x, y = (mid + rng.normal(size=d) * scale / np.sqrt(d) for _ in range(2))
    return FeasibleRegion.ball(c1, r1).with_trust(c2, r2), x, y, rng


def _tol(region, *points):
    return 1e-9 * (1.0 + region.radius + region.trust_radius + max(np.linalg.norm(p) for p in points))


TWO_BALL_EXAMPLES = settings(max_examples=150, deadline=None)


class TestTwoBallProperties:
    @TWO_BALL_EXAMPLES
    @given(two_ball_geometry())
    def test_feasible_and_idempotent(self, geom):
        region, x, _, _ = geom
        px = project(x, region)
        tol = _tol(region, x)
        assert np.linalg.norm(px - region.center) <= region.radius + tol
        assert np.linalg.norm(px - region.trust_center) <= region.trust_radius + tol
        assert np.linalg.norm(project(px, region) - px) <= tol

    @TWO_BALL_EXAMPLES
    @given(two_ball_geometry())
    def test_obtuse_angle(self, geom):
        # (x - P x) . (z - P x) <= 0 for every feasible z; z runs over the
        # lens's boundary circle and the segment joining the lens's tips
        region, x, _, rng = geom
        c1, r1 = region.center, region.radius
        c2, r2 = region.trust_center, region.trust_radius
        px = project(x, region)
        dist = np.linalg.norm(c2 - c1)
        u = (c2 - c1) / dist
        a = (dist**2 + r1**2 - r2**2) / (2 * dist)
        rho = np.sqrt(max(r1**2 - a**2, 0.0))
        lo, hi = max(-r1, dist - r2), min(r1, dist + r2)
        zs = []
        for _ in range(20):
            v = rng.normal(size=x.shape[0])
            v -= (v @ u) * u
            zs.append(c1 + a * u + rho * v / np.linalg.norm(v))
            zs.append(c1 + rng.uniform(lo, max(lo, hi)) * u)
        tol = _tol(region, x) * (1.0 + np.linalg.norm(x - px))
        for z in zs:
            assert (x - px) @ (z - px) <= tol * (1.0 + np.linalg.norm(z - px))

    @TWO_BALL_EXAMPLES
    @given(two_ball_geometry())
    def test_non_expansive(self, geom):
        region, x, y, _ = geom
        gap = np.linalg.norm(project(x, region) - project(y, region))
        assert gap <= np.linalg.norm(x - y) + _tol(region, x, y)


class TestAveragedGradient:
    def _data(self, rng, n=30, d=4):
        feats = rng.normal(size=(n, d))
        feats /= max(np.linalg.norm(feats, axis=1).max(), 1.0)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return ClientDataset(feats, labels)

    def test_full_batch_exact(self):
        rng = substream(33, "avg")
        obj = LogisticObjective()
        data = self._data(rng)
        theta = rng.normal(size=4)
        g = averaged_gradient(obj, data, theta, s=1, batch_size=None, rng=rng)
        np.testing.assert_allclose(g, obj.batch_grad(theta, data.features, data.labels))

    def test_variance_scales_inverse_s(self):
        rng = substream(34, "avg")
        obj = LogisticObjective()
        data = self._data(rng)
        theta = rng.normal(size=4)

        def var_at(s, reps=10000):
            draws = np.stack(
                [
                    averaged_gradient(obj, data, theta, s=s, batch_size=2, rng=rng)
                    for _ in range(reps)
                ]
            )
            return draws.var(axis=0, ddof=1).sum()

        v1, v4 = var_at(1), var_at(4)
        assert abs(v4 / v1 - 0.25) < 0.025  # 10% relative on the 1/4 ratio

    def test_unbiased_at_s16(self):
        rng = substream(35, "avg")
        obj = LogisticObjective()
        data = self._data(rng)
        theta = rng.normal(size=4)
        target = obj.batch_grad(theta, data.features, data.labels)
        draws = np.stack(
            [
                averaged_gradient(obj, data, theta, s=16, batch_size=2, rng=rng)
                for _ in range(100000)
            ]
        )
        err = np.abs(draws.mean(axis=0) - target)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(err <= 3 * se + 1e-12)

    def test_empty_dataset_rejected(self):
        obj = LogisticObjective()
        empty = ClientDataset(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            averaged_gradient(obj, empty, np.zeros(3))


class TestNoisyProjectedStep:
    def test_deterministic_contraction(self):
        # sigma=0 descent on a quadratic contracts toward the optimum
        obj = QuadraticObjective()
        star = np.array([1.0, 1.0])
        data = ClientDataset(star[None, :], np.zeros(1))
        theta = np.array([3.0, -1.0])
        spec = StepSpec(eta=0.25, sigma=0.0, region=FeasibleRegion.full())
        g = obj.batch_grad(theta, data.features, data.labels)
        new = noisy_projected_step(theta, g, spec)
        np.testing.assert_allclose(new - star, (1 - 0.25) * (theta - star))

    def test_noise_variance(self):
        rng = substream(36, "step")
        spec = StepSpec(eta=1.0, sigma=2.0, region=FeasibleRegion.full())
        g = np.zeros(3)
        steps = np.stack(
            [noisy_projected_step(np.zeros(3), g, spec, rng) for _ in range(100000)]
        )
        var = steps.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 4.0) / 4.0 < 0.02)

    def test_ascent_stays_in_trust_ball(self):
        rng = substream(37, "step")
        ref = np.array([1.0, -1.0])
        region = FeasibleRegion.full().with_trust(ref, 0.5)
        spec = StepSpec(eta=0.7, sigma=3.0, region=region, ascent=True)
        theta = ref.copy()
        for _ in range(200):
            theta = noisy_projected_step(theta, np.array([0.3, -0.2]), spec, rng)
            assert np.linalg.norm(theta - ref) <= 0.5 + 1e-9

    def test_step_norm_bounded_by_eta_move(self):
        rng = substream(38, "step")
        region = FeasibleRegion.ball(np.zeros(3), 1.0)
        theta = np.array([0.5, 0.0, 0.0])
        for _ in range(500):
            g = rng.normal(size=3)
            spec = StepSpec(eta=0.3, sigma=0.0, region=region)
            new = noisy_projected_step(theta, g, spec)
            # projection is non-expansive so the hop cannot exceed eta*||g||
            assert np.linalg.norm(new - theta) <= 0.3 * np.linalg.norm(g) + 1e-12
            theta = new


class TestDeterministicDescent:
    def test_distance_monotone_under_token_training(self, monkeypatch):
        # sigma=0, full batch, eta <= 1/L on a quadratic with one shared
        # optimum: the distance to it never increases along the walk
        from walkforget import RunConfig, closed_form_optimum, objectives, run_token_training

        monkeypatch.setattr(objectives, "_CENTER_SPREAD", 0.0)
        task = objectives.make_quadratic_task(4, 3, 30, 0, 1, substream(40, "mono"))
        star = closed_form_optimum(task.objective, task.datasets)
        cfg = RunConfig(
            n_clients=4, dim=3, train_hops=60, eta=0.2, sigma=0.0, grad_bound=4.0,
            unlearn_client=1, seed=3, domain="full", objective="quadratic",
            local_size=30, forget_size=0, batch_size=0, trace=True,
        )
        theta0 = star + np.array([2.0, -1.0, 1.5])
        out = run_token_training(cfg, task.objective, list(task.datasets), theta0)
        # replay distances from the trace's theta norms is not enough; rerun
        # the recursion directly
        dists = [np.linalg.norm(theta0 - star)]
        theta = theta0.copy()
        rng_check = None
        for m in out.transcript:
            grad = task.objective.batch_grad(
                theta, task.datasets[m.receiver - 1].features,
                task.datasets[m.receiver - 1].labels,
            )
            theta = theta - cfg.eta * grad
            dists.append(np.linalg.norm(theta - star))
        np.testing.assert_allclose(theta, out.final.params, atol=1e-12)
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))


class TestEffectiveVariance:
    def test_zero_noise(self):
        assert effective_variance_bound(1.5, 0.3, 2, 10, 0.0) == pytest.approx(2.25)

    def test_worked_example(self):
        assert effective_variance_bound(1.0, 0.1, 4, 10, 2.0) == pytest.approx(2.0)

    def test_every_hop_regime(self):
        L, d, sigma = 1.3, 7, 0.9
        assert effective_variance_bound(L, 1.0, 1, d, sigma) == pytest.approx(
            L * L + d * sigma * sigma
        )

    def test_s_zero_rejected(self):
        with pytest.raises(ValueError):
            effective_variance_bound(1.0, 0.5, 0, 10, 1.0)


class TestStepsizeAndClip:
    def test_constant(self):
        assert stepsize("constant", 17, 0.05, 1.0, 2.0, 3.0) == 0.05

    def test_decreasing_schedule(self):
        # min(1/L, R/(G sqrt(t)))
        assert stepsize("decreasing", 1, 0.0, 2.0, 1.0, 1.0) == pytest.approx(0.5)
        assert stepsize("decreasing", 100, 0.0, 2.0, 1.0, 1.0) == pytest.approx(0.1)

    def test_monotone_non_increasing(self):
        vals = [stepsize("decreasing", t, 0.0, 1.0, 5.0, 2.0) for t in range(1, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clip(self):
        g = np.array([3.0, 4.0])
        np.testing.assert_allclose(clip_gradient(g, 5.0), g)
        np.testing.assert_allclose(clip_gradient(g, 1.0), g / 5.0)
        np.testing.assert_allclose(clip_gradient(g, 0.0), g)
