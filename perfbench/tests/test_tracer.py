"""The tracer's rebinding, restore and self-time arithmetic, and the gate's checks."""

from types import SimpleNamespace

import numpy as np

import walkforget
from walkforget import core, evaluation, optimizer, protocols

from gate import check_walk
from patches import Patches
from tracer import Tracer
from worker import MODULES


def small_config(**kw):
    base = dict(n_clients=3, dim=2, local_size=8, forget_size=2, train_hops=5,
                unlearn_hops=5, test_size=4, batch_size=2, trust_radius=0.5)
    base.update(kw)
    return walkforget.RunConfig(**base)


def test_rebinds_every_lookup_site_and_restores():
    project = optimizer.project
    complete = core.Graph.__dict__["complete"]
    swaps = Patches()
    tracer = Tracer()
    tracer.install(swaps, MODULES)
    assert protocols.project is optimizer.project is not project
    assert walkforget.project is optimizer.project
    swaps.restore()
    assert optimizer.project is project and protocols.project is project
    assert walkforget.project is project
    assert core.Graph.__dict__["complete"] is complete


def test_spans_self_time_and_hops():
    cfg = small_config()
    task = evaluation.make_task(cfg)
    swaps = Patches()
    tracer = Tracer()
    tracer.install(swaps, MODULES)
    try:
        with tracer.span("bench.body"):
            trained = protocols.run_token_training(cfg, task.objective, list(task.datasets))
            protocols.run_unlearning(cfg, task.objective, list(task.datasets), trained.final)
    finally:
        swaps.restore()
    name, parent, start, dur, self_t = tracer.span_table()
    assert np.all(dur >= 0) and np.all(self_t >= -1e-9)
    # self times of the body's spans add up to the body's duration
    body = tracer.names.index("bench.body")
    assert abs(self_t.sum() - dur[name == body].sum()) < 1e-6
    metrics, ranking = tracer.layer_metrics()
    assert metrics["protocols.hops"] == cfg.train_hops + cfg.unlearn_hops
    assert metrics["core.params_hash.calls"] == metrics["protocols.hops"]
    assert metrics["network.route.calls"] == metrics["protocols.hops"]
    assert metrics["core.graph_complete.calls"] == 2
    assert metrics["protocols.train.runs"] == 1 and metrics["protocols.train.repeat_runs"] == 0
    assert metrics["accountant.calibrate.calls"] == 1
    assert ranking and all(0 <= share <= 1 for _, share in ranking)


def test_repeat_training_is_counted():
    cfg = small_config()
    task = evaluation.make_task(cfg)
    swaps = Patches()
    tracer = Tracer()
    tracer.install(swaps, MODULES)
    try:
        for p in (0.1, 0.5):  # training does not read p
            protocols.run_token_training(cfg.replace(p=p), task.objective, list(task.datasets))
        protocols.run_token_training(cfg.replace(seed=1), task.objective, list(task.datasets))
    finally:
        swaps.restore()
    metrics, _ = tracer.layer_metrics()
    assert metrics["protocols.train.runs"] == 3
    assert metrics["protocols.train.repeat_runs"] == 1


def fake_walk(params, hops, at_target_last=False, eps=0.5):
    msgs = [SimpleNamespace(at_target=False) for _ in range(hops)]
    if msgs:
        msgs[-1].at_target = at_target_last
    return SimpleNamespace(
        final=SimpleNamespace(params=np.asarray(params, dtype=float)),
        transcript=_Sized(msgs),
        report=SimpleNamespace(sigma=1.0, view=SimpleNamespace(eps=eps)),
    )


class _Sized:
    def __init__(self, messages):
        self.messages = messages

    def __len__(self):
        return len(self.messages)


def test_gate_checks():
    cfg = small_config(sigma=None, eps=1.0, domain_radius=1.0, trust_radius=0.5, unlearn_hops=3)
    ref = np.zeros(2)
    assert check_walk("unlearn", cfg, ref, fake_walk([0.1, 0.1], 3)) == []
    # outside the trust ball matters only after a target step
    assert check_walk("unlearn", cfg, ref, fake_walk([0.6, 0.0], 3)) == []
    assert check_walk("unlearn", cfg, ref, fake_walk([0.6, 0.0], 3, at_target_last=True))
    assert check_walk("unlearn", cfg, ref, fake_walk([1.1, 0.0], 3))  # outside the domain
    assert check_walk("unlearn", cfg, ref, fake_walk([0.1, 0.1], 2))  # wrong length
    assert check_walk("unlearn", cfg, ref, fake_walk([0.1, 0.1], 3, eps=1.5))  # eps above target
    assert check_walk("unlearn", cfg, ref, fake_walk([np.nan, 0.0], 3))
