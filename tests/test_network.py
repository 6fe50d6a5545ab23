"""Routing laws, transcripts, and the geometric mixing property."""

import sys
import tracemalloc

import numpy as np
import pytest

from walkforget import (
    Graph,
    RunConfig,
    Transcript,
    make_task,
    protocols,
    route_restart,
    route_uniform,
    run_private_baseline,
    run_token_training,
    run_unlearning,
    substream,
)
from walkforget.core import params_hash

# chi-square critical value at the 0.001 level with 20 degrees of freedom
CHI2_999_DOF20 = 45.3147


class TestRouteUniform:
    def test_two_clients_deterministic(self):
        g = Graph.complete(2)
        rng = substream(0, "t")
        assert all(route_uniform(1, g, rng) == 2 for _ in range(10))

    def test_support(self):
        g = Graph.complete(3)
        rng = substream(1, "t")
        for _ in range(50):
            assert route_uniform(2, g, rng) in (1, 3)

    def test_uniform_frequencies(self):
        g = Graph.complete(10)
        rng = substream(2, "freq")
        draws = np.array([route_uniform(1, g, rng) for _ in range(10**6)])
        for c in range(2, 11):
            assert abs(np.mean(draws == c) - 1 / 9) < 0.002
        assert not np.any(draws == 1)


class TestRouteRestart:
    def test_p_one_always_target(self):
        g = Graph.complete(5)
        rng = substream(3, "t")
        assert all(route_restart(4, 1.0, g, rng) == 4 for _ in range(20))

    def test_p_zero_never_target(self):
        g = Graph.complete(10)
        rng = substream(4, "t")
        draws = np.array([route_restart(1, 0.0, g, rng) for _ in range(10**6)])
        assert not np.any(draws == 1)
        for c in range(2, 11):
            assert abs(np.mean(draws == c) - 1 / 9) < 0.002

    def test_intermediate_p(self):
        g = Graph.complete(10)
        rng = substream(5, "t")
        draws = np.array([route_restart(1, 0.1, g, rng) for _ in range(10**6)])
        assert abs(np.mean(draws == 1) - 0.1) < 0.002
        # here (1 - p)/(N - 1) = 0.1 as well
        for c in range(2, 11):
            assert abs(np.mean(draws == c) - 0.1) < 0.002


class TestGeometricMixing:
    def test_delay_distribution(self):
        # first time the restart walk lands on a fixed observer != target
        p, n = 0.1, 10
        q = (1 - p) / (n - 1)  # per-hop chance that the observer is drawn
        g = Graph.complete(n)
        rng = substream(6, "mixing")
        observer = 7
        delays = np.empty(10**5, dtype=np.int64)
        for i in range(delays.shape[0]):
            k = 1
            while route_restart(1, p, g, rng) != observer:
                k += 1
            delays[i] = k
        assert abs(delays.mean() - 1 / q) / (1 / q) < 0.02
        # chi-square goodness of fit on the first 20 support points + tail
        n_total = delays.shape[0]
        observed = [np.sum(delays == k) for k in range(1, 21)]
        expected = [n_total * q * (1 - q) ** (k - 1) for k in range(1, 21)]
        observed.append(n_total - sum(observed))
        expected.append(n_total - sum(expected))
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < CHI2_999_DOF20


WALK_CFG = RunConfig(n_clients=4, dim=3, local_size=12, forget_size=3, seed=5, unlearn_client=2,
                     p=0.3, s=2, batch_size=3, train_hops=40, unlearn_hops=40, sigma=0.4,
                     domain_radius=1.0, trust_radius=0.3, eta=0.4)
WALK_KINDS = ("train", "baseline", "unlearn")


@pytest.fixture(scope="module")
def walk_task():
    task = make_task(WALK_CFG)
    trained = run_token_training(WALK_CFG, task.objective, list(task.datasets))
    return task, trained


def _walk(kind, walk_task):
    task, trained = walk_task
    objective, datasets = task.objective, list(task.datasets)
    if kind == "train":
        return run_token_training(WALK_CFG, objective, datasets)
    if kind == "baseline":
        return run_private_baseline(WALK_CFG, objective, datasets)
    return run_unlearning(WALK_CFG, objective, datasets, trained.final)


def _count_hashes(monkeypatch) -> list:
    """Count ``params_hash`` calls made through any walkforget module's binding of it."""
    calls = []

    def counted(params):
        calls.append(1)
        return params_hash(params)

    for name, module in list(sys.modules.items()):
        if name == "walkforget" or name.startswith("walkforget."):
            for attr, value in list(vars(module).items()):
                if value is params_hash:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestWalkTranscript:
    """A walk keeps its hops as columns and hashes its iterates only when read."""

    @pytest.mark.parametrize("kind", WALK_KINDS)
    def test_walk_hashes_nothing(self, kind, walk_task, monkeypatch):
        calls = _count_hashes(monkeypatch)
        transcript = _walk(kind, walk_task).transcript
        assert not calls
        transcript.to_lines()  # the counter sees the hashes a read makes
        assert len(calls) == len(transcript) == 40

    @pytest.mark.parametrize("kind", WALK_KINDS)
    def test_counts_hash_nothing(self, kind, walk_task, monkeypatch):
        transcript = _walk(kind, walk_task).transcript
        calls = _count_hashes(monkeypatch)
        counts = [transcript.visit_count(c) for c in range(1, WALK_CFG.n_clients + 1)]
        size, at_target = len(transcript), transcript.target_visits()
        assert not calls
        msgs = transcript.messages
        assert size == len(msgs) == sum(counts)
        assert counts == [sum(m.receiver == c for m in msgs) for c in range(1, 5)]
        assert at_target == sum(m.at_target for m in msgs) == counts[WALK_CFG.unlearn_client - 1]

    def test_columns_make_the_lines(self):
        transcript = Transcript((3, 2), (2, 1), 2, ["aa", "bb"])
        assert transcript.to_lines() == ["1,3,2,1,aa", "2,2,1,0,bb"]
        with pytest.raises(ValueError, match="one sender, receiver and payload per hop"):
            Transcript((3, 2), (2, 1), 2, ["aa"])

    @pytest.mark.parametrize("dim", [WALK_CFG.dim, protocols._KEPT_DIM + 1])
    def test_iterates_are_copies(self, dim, walk_task):
        # a step that updates one array in place and returns it every hop:
        # a transcript holding that array, not copies, would hash its last value
        task, _ = walk_task
        theta, hashes = np.zeros(dim), []

        def step(client, theta, eta, pick, noise):
            theta += eta
            hashes.append(params_hash(theta))
            return theta

        result = protocols._walk(
            WALK_CFG, task.objective, list(task.datasets), theta, 30, "copies",
            lambda prev, rng, size: rng.integers(1, 5, size=size).tolist(),
            lambda client: (1, 0, 0.0), step, r_dom=2.0, G=1.0,
        )
        theta[:] = -1.0
        assert [line.rsplit(",", 1)[1] for line in result.transcript.to_lines()] == hashes
        assert len(set(hashes)) == 30
        assert result.final.params[0] == pytest.approx(30 * WALK_CFG.eta)

    def test_wide_walk_hashes_each_hop(self, walk_task, monkeypatch):
        # above _KEPT_DIM a copy per hop outweighs the hash it stands for: a
        # wide walk hashes each hop once and holds H hashes, not H·d floats
        task, _ = walk_task
        dim, hops = 5000, 40
        calls = _count_hashes(monkeypatch)
        tracemalloc.start()
        try:
            result = protocols._walk(
                WALK_CFG, task.objective, list(task.datasets), np.zeros(dim), hops, "wide",
                lambda prev, rng, size: rng.integers(1, 5, size=size).tolist(),
                lambda client: (1, 0, 0.0), lambda client, theta, eta, pick, noise: theta + eta,
                r_dom=2.0, G=1.0,
            )
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(calls) == hops
        assert held < hops * dim * 8 / 10
        assert len(result.transcript.to_lines()) == hops and len(calls) == hops
