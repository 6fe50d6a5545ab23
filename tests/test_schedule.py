"""The walk's up-front schedule equals the per-hop draws it replaces, bit for bit.

Each walk draws its minibatch indices, noise rows and stepsizes a block of
hops at a time (``protocols._schedule``); training and unlearning route each
hop with the public routers, the baseline draws its i.i.d. holders a block
at a time. These tests compare every piece with the per-call draws of the
same law from the same generator, including the state the generator is
left in, and replay every walk through the public per-hop functions. If a
numpy upgrade changes how its generators draw arrays, they fail first,
before every golden digest does.
"""

import numpy as np
import pytest

from walkforget import (
    CorrectionMode,
    Graph,
    ModelState,
    RunConfig,
    StepSpec,
    averaged_gradient,
    clip_gradient,
    corrective_gradient,
    make_task,
    noisy_projected_step,
    project,
    stepsize,
    substream,
)
from walkforget import protocols
from walkforget.core import params_hash
from walkforget.network import route_restart, route_uniform
from walkforget.optimizer import _noise_rows

CLIENT_COUNTS = [2, 3, 10, 2000, 2**31 + 7, 2**32 + 1]


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("n", CLIENT_COUNTS)
def test_iid_holders_equal_per_hop_draws(n):
    rng, ref = _twins(n % 1000)
    got = rng.integers(1, n + 1, size=3000).tolist()
    assert got == [int(ref.integers(1, n + 1)) for _ in range(3000)]


def test_mixed_bound_minibatch_indices():
    shape = np.random.default_rng(3)
    highs = shape.choice([1, 2, 7, 20, 180, 200], size=500).tolist()
    counts = shape.choice([0, 1, 5, 20, 80], size=500).tolist()
    highs[100:140] = [200] * 40  # a long run of one bound
    rng, ref = _twins(11)
    picks = protocols._minibatches(rng, highs, counts)
    want = [ref.integers(0, h, size=k) if k else None for h, k in zip(highs, counts)]
    for got, expected in zip(picks, want, strict=True):
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 3, 10, 100])
def test_noise_rows(dim):
    scales = np.random.default_rng(dim).choice([0.5, 3.0, 1e-3, 1e200], size=300)
    scales[::7] = 0.0  # noiseless hops draw nothing
    rng, ref = _twins(dim)
    rows = _noise_rows(rng, scales, dim)
    for row, s in zip(rows, scales, strict=True):
        if s == 0:
            assert row is None
        else:
            _assert_same_bits(row, ref.standard_normal(dim) * float(s))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert _noise_rows(None, np.zeros(3), dim) == [None] * 3
    with pytest.raises(ValueError, match="rng"):
        _noise_rows(None, np.array([0.0, 1.0]), dim)


# The whole schedule of each protocol, against the per-hop loop it replaced:
# holders from the per-call routers, one minibatch draw and one noise draw
# per hop, and the scalar stepsize, across several blocks.

def _per_hop_schedule(cfg, label, hops, law, draw, dim, r_dom, G):
    routing, batching, noise = (
        substream(cfg.seed, f"{label}.{name}") for name in ("routing", "batch", "noise")
    )
    graph = Graph(cfg.n_clients)
    prev = int(routing.integers(1, cfg.n_clients + 1))
    for t in range(1, hops + 1):
        if law == "uniform":
            cur = route_uniform(prev, graph, routing)
        elif law == "iid":
            cur = int(routing.integers(1, cfg.n_clients + 1))
        else:
            cur = route_restart(cfg.unlearn_client, cfg.p, graph, routing)
        high, size, sigma = draw(cur)
        pick = batching.integers(0, high, size=size) if size else None
        row = noise.standard_normal(dim) * sigma if sigma > 0 else None
        eta = stepsize(cfg.stepsize_rule, t, cfg.eta, cfg.grad_bound, r_dom, G)
        yield t, prev, cur, eta, pick, row
        prev = cur


ROUTES = {
    "uniform": lambda cfg: protocols._each_hop(
        lambda prev, rng: route_uniform(prev, Graph(cfg.n_clients), rng)),
    "iid": lambda cfg: lambda prev, rng, size: rng.integers(
        1, cfg.n_clients + 1, size=size).tolist(),
    "restart": lambda cfg: protocols._each_hop(
        lambda prev, rng: route_restart(cfg.unlearn_client, cfg.p, Graph(cfg.n_clients), rng)),
}

SCHEDULE_CASES = {
    "train-minibatch": ("uniform", dict(batch_size=5), 0.0, None),
    "train-fullbatch-decreasing": ("uniform", dict(stepsize_rule="decreasing"), 0.0, None),
    "baseline-noisy": ("iid", dict(batch_size=3, stepsize_rule="decreasing"), 0.7, None),
    "unlearn-lightweight": ("restart", dict(batch_size=4, s=3, p=0.3), 0.0, 2.5),
    "unlearn-exact-fullbatch": ("restart", dict(p=0.6), 0.0, 1.5),
    "unlearn-wide": ("restart", dict(batch_size=2, s=2, dim=20_000, local_size=3,
                                     forget_size=1, objective="quadratic"), 0.0, 0.4),
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_schedule_equals_per_hop_draws(case):
    law, change, sigma, target_sigma = SCHEDULE_CASES[case]
    cfg = RunConfig(**{**dict(n_clients=5, dim=4, local_size=30, forget_size=6, seed=8,
                              unlearn_client=2, mode=CorrectionMode.LIGHTWEIGHT), **change})
    datasets = make_task(cfg).datasets
    descent = protocols._descent_draws(datasets, cfg.s, cfg.batch_size, sigma)
    u = cfg.unlearn_client
    target = descent(u) if target_sigma is None else (
        datasets[u - 1].m, cfg.batch_size, target_sigma)

    def draw(client):
        return target if client == u else descent(client)

    hops = 7 if cfg.dim > 1000 else 300
    args = (hops, ROUTES[law](cfg), draw, cfg.dim, 1.5, 2.5)
    got = list(protocols._schedule(cfg, "walk", *args))
    want = list(_per_hop_schedule(cfg, "walk", hops, law, draw, cfg.dim, 1.5, 2.5))
    assert len(got) == len(want) == hops
    for hop, ref in zip(got, want):
        assert hop[:3] == ref[:3] and all(type(v) is int for v in hop[:3])
        _assert_same_bits(hop[3], ref[3])
        for mine, theirs in zip(hop[4:], ref[4:]):
            assert (mine is None) == (theirs is None)
            if mine is not None:
                _assert_same_bits(mine, theirs)


# Every walk, replayed hop by hop through the public per-hop functions, as
# the walks ran before their schedules: each function draws its own
# minibatch and noise. The walks' draw rules and these functions' must agree.

def _replay(cfg, theta, hops, label, next_holder, step):
    routing, batching, noise = (
        substream(cfg.seed, f"{label}.{name}") for name in ("routing", "batch", "noise")
    )
    prev = int(routing.integers(1, cfg.n_clients + 1))
    hashes = []
    for t in range(1, hops + 1):
        cur = next_holder(prev, routing)
        eta = stepsize(cfg.stepsize_rule, t, cfg.eta, cfg.grad_bound, 2.0 * cfg.domain_radius,
                       cfg.grad_bound)
        theta = step(cur, theta, eta, batching, noise)
        hashes.append((t, prev, cur, params_hash(theta)))
        prev = cur
    return theta, hashes


def _walk_hashes(result):
    """Each hop's (round, sender, receiver, hash), read from the messages and from the lines."""
    hops = [(m.round, m.sender, m.receiver, m.payload_hash) for m in result.transcript]
    lines = [line.split(",") for line in result.transcript.to_lines()]
    assert [(int(t), int(snd), int(rcv), digest) for t, snd, rcv, _, digest in lines] == hops
    return hops


REPLAY_CASES = {
    "minibatch": dict(batch_size=3, s=2),
    "fullbatch-decreasing": dict(stepsize_rule="decreasing"),
    "exact": dict(batch_size=4, s=3, mode=CorrectionMode.EXACT),
    "quadratic-n2": dict(n_clients=2, batch_size=2, objective="quadratic", p=0.5),
    "wide": dict(batch_size=3, s=2, dim=protocols._KEPT_DIM + 1),  # hashed at each hop
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_walks_equal_public_per_hop_functions(case):
    cfg = RunConfig(**{**dict(n_clients=4, dim=3, local_size=12, forget_size=3, seed=5,
                              unlearn_client=2, mode=CorrectionMode.LIGHTWEIGHT, p=0.3,
                              train_hops=60, unlearn_hops=60, sigma=0.4, domain="ball",
                              domain_radius=1.0, trust_radius=0.3, eta=0.4),
                       **REPLAY_CASES[case]})
    task = make_task(cfg)
    objective, datasets = task.objective, list(task.datasets)
    graph = Graph(cfg.n_clients)
    region = protocols._domain_region(cfg, cfg.dim)
    batch = cfg.batch_size or None

    def descend(s, sigma, reg):
        def step(client, theta, eta, batching, noise):
            grad = averaged_gradient(objective, datasets[client - 1], theta, s, batch, batching)
            return noisy_projected_step(theta, grad, StepSpec(eta, sigma, reg), noise)
        return step

    def train_step(client, theta, eta, batching, noise):
        grad = averaged_gradient(objective, datasets[client - 1], theta, 1, batch, batching)
        return project(theta - eta * grad, region)

    trained = protocols.run_token_training(cfg, objective, datasets)
    theta, hashes = _replay(cfg, np.zeros(cfg.dim), cfg.train_hops, "train",
                            lambda prev, rng: route_uniform(prev, graph, rng), train_step)
    assert _walk_hashes(trained) == hashes
    _assert_same_bits(trained.final.params, theta)

    if cfg.stepsize_rule == "constant":  # the noisy walks' decreasing rule reads their G
        baseline = protocols.run_private_baseline(cfg, objective, datasets)
        theta, hashes = _replay(cfg, np.zeros(cfg.dim), cfg.train_hops, "baseline",
                                lambda prev, rng: int(rng.integers(1, cfg.n_clients + 1)),
                                descend(1, cfg.sigma, region))
        assert _walk_hashes(baseline) == hashes
        _assert_same_bits(baseline.final.params, theta)

        start = ModelState(np.full(cfg.dim, 0.1))
        trust = region.with_trust(start.params, cfg.trust_radius)
        elsewhere = descend(cfg.s, 0.0, region)
        u = cfg.unlearn_client

        def unlearn_step(client, theta, eta, batching, noise):
            if client != u:
                return elsewhere(client, theta, eta, batching, noise)
            g_u = corrective_gradient(objective, datasets[u - 1], theta, cfg.mode, batch, batching)
            return noisy_projected_step(theta, g_u, StepSpec(eta, cfg.sigma, trust, True), noise)

        unlearned = protocols.run_unlearning(cfg, objective, datasets, start)
        theta, hashes = _replay(cfg, start.params, cfg.unlearn_hops, "unlearn",
                                lambda prev, rng: route_restart(u, cfg.p, graph, rng),
                                unlearn_step)
        assert _walk_hashes(unlearned) == hashes
        _assert_same_bits(unlearned.final.params, theta)
