"""Projected (noisy) stochastic gradient steps and minibatch averaging.

The per-hop update kernel shared by all protocols: a gradient estimate,
optional isotropic Gaussian noise, a descent or ascent step, and a
Euclidean projection onto the feasible region (full space, ball, or ball
intersected with a trust ball).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FeasibleRegion, _norm
from .objectives import _rows_grad

__all__ = [
    "StepSpec",
    "project",
    "averaged_gradient",
    "noisy_projected_step",
    "effective_variance_bound",
    "stepsize",
    "clip_gradient",
]


def _project_ball(x: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    diff = x - center
    norm = _norm(diff)
    if norm <= radius:
        return x
    if radius == 0.0:
        return center.copy()
    return center + diff * (radius / norm)


def _project_two_balls(x, c1, r1, c2, r2):
    # Called when neither single-ball projection is feasible, so both
    # constraints are active at the optimum: it lies on the (d-2)-sphere
    # where the two boundary spheres meet (centre mid on the axis c1->c2,
    # radius rho), and is that sphere's nearest point to x. O(d), exact.
    axis = c2 - c1
    dist = _norm(axis)
    u = axis / dist
    a = 0.5 * (dist + (r1 - r2) * (r1 + r2) / dist)  # signed c1-to-mid distance
    rho_sq = (r1 - a) * (r1 + a)
    if rho_sq < -1e-12 * max(r1, r2) ** 2:
        raise ValueError("the feasible region is empty: the balls do not intersect")
    mid = c1 + a * u
    w = x - mid
    w = w - float(w.dot(u)) * u
    norm_w = _norm(w)
    # x on the axis happens only when the spheres touch in a single point
    if norm_w == 0.0:
        return mid
    return mid + math.sqrt(max(rho_sq, 0.0)) * (w / norm_w)


def project(theta: np.ndarray, region: FeasibleRegion) -> np.ndarray:
    """Euclidean projection onto the region; identity on the full space.

    The result is always a new array: an active ball projection already
    builds one, so only a projection that returned its input is copied.
    """
    x = np.asarray(theta, dtype=np.float64)
    has_ball = region.kind == "ball"
    has_trust = region.trust_center is not None
    if not has_ball and not has_trust:
        out = x
    elif not has_trust:
        out = _project_ball(x, region.center, region.radius)
    elif not has_ball:
        out = _project_ball(x, region.trust_center, region.trust_radius)
    else:
        # Intersection. If one ball's projection lies in the other ball it
        # is the answer; otherwise both constraints are active.
        out = _project_ball(x, region.trust_center, region.trust_radius)
        if not _norm(out - region.center) <= region.radius:
            out = _project_ball(x, region.center, region.radius)
            if not _norm(out - region.trust_center) <= region.trust_radius:
                out = _project_two_balls(
                    x, region.center, region.radius, region.trust_center, region.trust_radius
                )
    return out.copy() if out is x else out


def averaged_gradient(
    objective,
    data,
    theta: np.ndarray,
    s: int = 1,
    batch_size: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mean of s i.i.d. minibatch gradients of the local loss.

    Unbiased for the full local gradient; its variance scales as 1/s.
    ``batch_size`` of 0 or None means full batch (then s is irrelevant and
    the result is exact). Minibatches are drawn uniformly with replacement.
    """
    if s < 1:
        raise ValueError("averaging factor s must be >= 1")
    if data.n_u == 0:
        raise ValueError("empty dataset")
    high, size = _descent_draw(data, s, batch_size)
    if not size:
        return _rows_grad(objective, data, theta)
    if rng is None:
        raise ValueError("minibatch sampling needs an rng")
    return _rows_grad(objective, data, theta, rng.integers(0, high, size=size))


def _descent_draw(data, s: int, batch_size: int | None) -> tuple:
    """``(high, size)``: a descent hop draws ``size`` example indices below ``high``.

    Equal-size i.i.d. minibatches: the mean of the s minibatch means equals
    the mean over all s*batch_size sampled examples, so a hop draws them at
    once. A full batch (``batch_size`` 0 or None) or an empty client draws
    nothing. The walks' schedules draw by this rule too.
    """
    if not batch_size or data.n_u == 0:
        return 0, 0
    return data.n_u, s * batch_size


def _noise_rows(rng, sigmas: np.ndarray, dim: int) -> list:
    """Each hop's noise row N(0, sigma^2 I), or None where its sigma is 0.

    The noisy hops' rows are one ``standard_normal`` draw, in hop order,
    equal bit for bit to one ``standard_normal(dim)`` per noisy hop.
    """
    noisy = sigmas > 0
    count = int(np.count_nonzero(noisy))
    if not count:
        return [None] * len(noisy)
    if rng is None:
        raise ValueError("noisy step needs an rng")
    z = rng.standard_normal((count, dim))
    z *= sigmas[noisy][:, None]
    z = iter(z)
    return [next(z) if hit else None for hit in noisy.tolist()]


@dataclass(frozen=True)
class StepSpec:
    """One projected, optionally noisy, gradient step."""

    eta: float
    sigma: float = 0.0
    region: FeasibleRegion = FeasibleRegion.full()
    ascent: bool = False

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("stepsize must be positive")
        if self.sigma < 0:
            raise ValueError("noise scale must be >= 0")


def noisy_projected_step(
    theta: np.ndarray,
    grad: np.ndarray,
    spec: StepSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """theta -> project(theta -+ eta * (grad + Z)), Z ~ N(0, sigma^2 I)."""
    noise = _noise_rows(rng, np.array([spec.sigma]), theta.shape[0])[0]
    move = grad if noise is None else grad + noise
    return _projected_step(theta, move, spec.eta, spec.region, spec.ascent)


def _projected_step(theta, move, eta, region, ascent=False):
    """project(theta -+ eta * move): the hop kernel of the noisy and projected walks.

    ``move`` is the gradient plus the hop's noise row, if it has one. A walk
    passes each hop's stepsize from its schedule, which is why this takes
    ``eta`` and not a ``StepSpec``.
    """
    if not eta > 0:
        raise ValueError("stepsize must be positive")
    sign = 1.0 if ascent else -1.0
    new = project(theta + sign * eta * move, region)
    if __debug__:
        # non-expansive projection: from a feasible point the hop never
        # exceeds the raw move (the cheaper test first: containment is only
        # checked when the hop is longer)
        assert _norm(new - theta) <= eta * _norm(move) + 1e-9 or not region.contains(theta)
    return new


def effective_variance_bound(L: float, p: float, s: int, dim: int, sigma: float) -> float:
    """Per-hop second-moment bound L^2 + (p/s) * d * sigma^2.

    Only a p-fraction of hops carry Gaussian noise and local averaging over
    s minibatches divides its contribution; the every-hop-noise baseline is
    the special case p=1, s=1.
    """
    if min(L, p, dim, sigma) < 0:
        raise ValueError("inputs must be nonnegative")
    if s < 1:
        raise ValueError("averaging factor s must be >= 1")
    return L * L + (p / s) * dim * sigma * sigma


def stepsize(rule: str, t: int, eta: float, L: float, r_dom: float, G: float) -> float:
    """Stepsize at hop t: constant eta, or min(1/L, R_dom/(G sqrt(t)))."""
    if rule == "constant":
        return eta
    if rule == "decreasing":
        if t < 1:
            raise ValueError("hop index starts at 1")
        return min(1.0 / L, r_dom / (G * np.sqrt(t)))
    raise ValueError(f"unknown stepsize rule {rule!r}")


def clip_gradient(grad: np.ndarray, threshold: float) -> np.ndarray:
    """Rescale to norm <= threshold; no-op when threshold is 0."""
    if threshold <= 0:
        return grad
    norm = _norm(grad)
    if norm <= threshold:
        return grad
    return grad * (threshold / norm)
