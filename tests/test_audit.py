"""A closed-form attack on the private baseline's view, and its check on the simulator.

Client u holds one record, +M e1 in one world and -M e1 in the other, with
M far above the clip L. On the quadratic objective with full batches,
``clip = L`` and a domain no step reaches, every step u takes releases
``(theta_{t-1} - theta_t) / eta = clip(g) + z``: a Gaussian mechanism of
noise sigma whose mean is -L e1 or +L e1, so mu = 2L / sigma. k such steps
compose to mu sqrt(k) (Dong, Roth & Su 2022). The number K of steps an
observer v sees depends only on the routing, which is the same in both
worlds and visible to v, so v's view has privacy profile at least
``sum_k P[K=k] delta_G(eps; mu sqrt(k))``, with ``delta_G`` the Gaussian
profile of Balle & Wang 2018, Thm 8. K is counted two ways:

* (A) transcript semantics: v sees the input and the output of u's step
  on each hop v -> u, so K = #{t : h_{t-1} = v, h_t = u};
* (B) holder semantics (``network``'s observation model): v sees only the
  models it receives and makes, so K is the total length r of the u-runs
  in the holder pattern ``v, u^r, v``.

The baseline's holders h_0 .. h_T are i.i.d. uniform over the N clients.
"""

import itertools
import math

import numpy as np

from walkforget import ClientDataset, RunConfig, baseline_view_guarantee, run_private_baseline
from walkforget.objectives import QuadraticObjective

SIGMA = 9.689610525  # the baseline's auto sigma at eps 1, delta 1e-5, L 1
DELTA = 1e-5


def k_law_transcript(T: int, N: int) -> np.ndarray:
    """P[K = k], k = 0..T, under reading (A)."""
    q = 1.0 / N
    at_v = np.zeros(T + 1)  # last holder is v
    other = np.zeros(T + 1)
    at_v[0], other[0] = q, 1.0 - q
    for _ in range(T):
        to_u = np.zeros(T + 1)
        to_u[1:] = q * at_v[:-1]
        at_v, other = q * (at_v + other), (1.0 - 2.0 * q) * at_v + (1.0 - q) * other + to_u
    return at_v + other


def k_law_holder(T: int, N: int) -> np.ndarray:
    """P[K = k], k = 0..T, under reading (B).

    States: last holder v; other; or inside a u-run that began right after
    v, as ``run[k, r]`` with k the steps counted so far and r >= 1 the run's
    length. A run that ends at v adds r to K; one that ends elsewhere adds 0.
    """
    q = 1.0 / N
    at_v = np.zeros(T + 1)
    other = np.zeros(T + 1)
    run = np.zeros((T + 1, T + 2))
    at_v[0], other[0] = q, 1.0 - q  # h_0 = u starts no run: no v before it
    for _ in range(T):
        closed = np.zeros(T + 1)
        for r in range(1, T + 1):
            closed[r:] += run[: T + 1 - r, r]
        new_run = np.zeros_like(run)
        new_run[:, 1] = q * at_v
        new_run[:, 2:] = q * run[:, 1:-1]
        at_v, other = (
            q * (at_v + other + closed),
            (1.0 - 2.0 * q) * (at_v + run.sum(axis=1)) + (1.0 - q) * other,
        )
        run = new_run
    return at_v + other + run.sum(axis=1)


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_delta(eps: float, m: float) -> float:
    """delta(eps) of a Gaussian mechanism with mu = m (Balle & Wang 2018, Thm 8)."""
    if m == 0.0:
        return 0.0
    return _phi(-eps / m + m / 2.0) - math.exp(eps) * _phi(-eps / m - m / 2.0)


def eps_lower_bound(law: np.ndarray, mu: float, delta: float) -> float:
    """The least eps with sum_k law[k] delta_G(eps; mu sqrt(k)) <= delta, by bisection."""

    def profile(eps):
        return sum(w * gaussian_delta(eps, mu * math.sqrt(k)) for k, w in enumerate(law) if w)

    if profile(0.0) <= delta:
        return 0.0
    lo, hi = 0.0, 1.0
    while profile(hi) > delta:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if profile(mid) > delta else (lo, mid)
    return hi


def test_k_laws_match_enumeration():
    # every holder sequence h_0..h_T of 3 clients (u=1, v=2) at T=5
    T, N = 5, 3
    want_a, want_b = np.zeros(T + 1), np.zeros(T + 1)
    for seq in itertools.product((1, 2, 3), repeat=T + 1):
        k_a = sum(pair == (2, 1) for pair in zip(seq, seq[1:]))
        k_b, start = 0, None  # start: where a u-run right after v began
        for i in range(1, T + 1):
            if seq[i] == 1 and start is None and seq[i - 1] == 2:
                start = i
            elif seq[i] != 1 and start is not None:
                k_b += i - start if seq[i] == 2 else 0
                start = None
        want_a[k_a] += N ** -(T + 1)
        want_b[k_b] += N ** -(T + 1)
    np.testing.assert_allclose(k_law_transcript(T, N), want_a, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(k_law_holder(T, N), want_b, rtol=1e-12, atol=1e-15)


def test_lower_bounds_at_pinned_shapes():
    mu = 2.0 * 1.0 / SIGMA
    pinned = {  # (T, N): (reading A, reading B)
        (40, 4): (1.6533, 1.5437),
        (40, 2): (2.8245, 4.0530),
        (100, 10): (1.2433, 0.8277),
        (200, 4): (3.4111, 2.6589),
    }
    for (T, N), (want_a, want_b) in pinned.items():
        got_a = eps_lower_bound(k_law_transcript(T, N), mu, DELTA)
        got_b = eps_lower_bound(k_law_holder(T, N), mu, DELTA)
        assert abs(got_a - want_a) <= 1e-3, (T, N, got_a)
        assert abs(got_b - want_b) <= 1e-3, (T, N, got_b)


def test_the_amplified_view_bound_is_refuted_at_two_clients():
    # the baseline's report at (sigma, T, N) = (SIGMA, 40, 2) is 1.949, under
    # the lower bound of either reading: no valid bound can be that small
    report = baseline_view_guarantee(1.0, SIGMA, 40, 2, DELTA).eps
    mu = 2.0 * 1.0 / SIGMA
    assert report < eps_lower_bound(k_law_transcript(40, 2), mu, DELTA)
    assert report < eps_lower_bound(k_law_holder(40, 2), mu, DELTA)


def _attack_world(sign: float, seeds) -> tuple:
    """K_A per run and the e1 component of each observed step, for u's record sign * M e1."""
    T, N, d, eta, u, v = 40, 4, 3, 0.5, 1, 2
    cfg = RunConfig(
        n_clients=N, dim=d, train_hops=T, eta=eta, objective="quadratic", clip=1.0,
        grad_bound=1.0, batch_size=0, domain="ball", domain_radius=1e9, eps=1.0,
        delta=DELTA, unlearn_client=u, local_size=1, forget_size=0,
    )
    record = np.zeros((1, d))
    record[0, 0] = sign * 1e6
    datasets = [ClientDataset(record if c == u else np.zeros((1, d)), np.zeros(1))
                for c in range(1, N + 1)]
    objective = QuadraticObjective(grad_bound=1.0)
    counts, steps = [], []
    for seed in seeds:
        result = run_private_baseline(cfg.replace(seed=seed), objective, datasets)
        assert math.isclose(result.report.sigma, SIGMA, rel_tol=1e-9)
        path = np.vstack([np.zeros(d), result.transcript._payloads])  # theta_0 .. theta_T
        hops = zip(result.transcript.senders, result.transcript.receivers)
        events = [t for t, (prev, cur) in enumerate(hops, start=1) if (prev, cur) == (v, u)]
        counts.append(len(events))
        steps += [(path[t - 1, 0] - path[t, 0]) / eta for t in events]
    return np.array(counts), np.array(steps)


def test_the_attack_runs_on_the_private_baseline():
    # the worlds draw from disjoint seed ranges, so their routings are independent
    counts_plus, steps_plus = _attack_world(+1.0, range(4000, 4500))
    counts_minus, steps_minus = _attack_world(-1.0, range(5000, 5500))
    counts = np.concatenate([counts_plus, counts_minus])
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 40 / 4**2) <= 4 * se
    # record +M e1 pulls each clipped gradient to -L e1, so the released step's mean is -L
    gap = steps_minus.mean() - steps_plus.mean()
    se = math.sqrt(steps_plus.var(ddof=1) / steps_plus.size
                   + steps_minus.var(ddof=1) / steps_minus.size)
    assert abs(gap - 2.0) <= 4 * se
