"""Reference projection onto the intersection of two balls, in closed form.

The benchmark uses it to count the program's two-ball projections that miss
the exact answer (``optimizer.project.inexact_calls``). It is the benchmark's
own code and does not depend on walkforget.
"""

from __future__ import annotations

import math

import numpy as np


def project_ball(x, center, radius):
    diff = x - center
    norm = float(np.linalg.norm(diff))
    if norm <= radius:
        return x
    return center + diff * (radius / norm)


def is_two_ball_case(x, c1, r1, c2, r2) -> bool:
    """True when neither single-ball projection lands in the other ball.

    The tests and their order match the program's ``project``: first the
    projection onto ball 2 checked against ball 1, then the reverse.
    """
    if np.linalg.norm(project_ball(x, c2, r2) - c1) <= r1:
        return False
    return not np.linalg.norm(project_ball(x, c1, r1) - c2) <= r2


def exact_two_ball(x, c1, r1, c2, r2):
    """Projection onto B(c1, r1) ∩ B(c2, r2) when both constraints are active.

    If neither single-ball projection is feasible, the optimum lies on both
    boundary spheres. Their intersection is a (d-2)-sphere centred on the
    axis c1->c2, so the answer is the nearest point of that sphere to x:
    O(d) work, no iteration.
    """
    x = np.asarray(x, dtype=np.float64)
    axis = c2 - c1
    dist = float(np.linalg.norm(axis))
    if dist == 0.0:
        raise ValueError("concentric balls: one constraint is never active")
    u = axis / dist
    a = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)  # c1 to the plane of the circle
    rho_sq = (r1 - a) * (r1 + a)
    if rho_sq < 0.0:
        raise ValueError("the balls do not intersect")
    mid = c1 + a * u
    w = x - mid
    w = w - float(w @ u) * u
    norm_w = float(np.linalg.norm(w))
    if norm_w == 0.0:
        raise ValueError("x lies on the axis; the projection is not unique")
    return mid + math.sqrt(rho_sq) * (w / norm_w)
