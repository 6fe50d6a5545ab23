"""The clock's markers, their restore, and the fastest-stretch sum."""

import builtins

import numpy as np

import walkforget
from walkforget import core, evaluation, objectives, optimizer, protocols

from clock import Clock, steady_sum
from patches import Patches
from worker import MODULES


def small_config(**kw):
    base = dict(n_clients=3, dim=2, local_size=8, forget_size=2, train_hops=5,
                unlearn_hops=5, test_size=4, batch_size=2, trust_radius=0.5)
    base.update(kw)
    return walkforget.RunConfig(**base)


def test_marks_every_hop_and_restores():
    params_hash = core.params_hash
    batch_grad = objectives.LogisticObjective.__dict__["batch_grad"]
    cfg = small_config(objective="logistic")
    task = evaluation.make_task(cfg)
    swaps = Patches()
    clock = Clock()
    clock.install(swaps, MODULES)
    try:
        assert core.range is not builtins.range
        clock.start()
        result = protocols.run_token_training(cfg, task.objective, list(task.datasets))
        clock.stop()
    finally:
        swaps.restore()
    stretches = clock.stretches()
    assert np.all(stretches >= 0)
    # one read per hop's hash and per gradient, at least
    assert stretches.size > 2 * len(result.transcript)
    assert "range" not in vars(core) and "range" not in vars(protocols)
    assert core.params_hash is params_hash and protocols.params_hash is params_hash
    assert objectives.LogisticObjective.__dict__["batch_grad"] is batch_grad
    assert optimizer._project_ball.__module__ == "walkforget.optimizer"


def test_start_drops_reads_made_during_set_up():
    clock = Clock()
    clock.stamps.extend([1.0, 2.0, 3.0])
    clock.start()
    clock.stop()
    assert clock.stretches().size == 1
    assert len(clock.probe_s) == 1 and clock.probe_at[0] == 0


def test_probe_time_is_taken_out_of_its_stretch():
    clock = Clock()
    clock.stamps.extend([0.0, 1.0, 3.0])
    clock.probe_at.extend([1.0])
    clock.probe_s.extend([0.5])
    assert clock.stretches().tolist() == [1.0, 1.5]


def write(tmp_path, name, stretches, probes):
    path = str(tmp_path / name)
    np.asarray(stretches, dtype="<f8").tofile(path)
    np.asarray(probes, dtype="<f8").tofile(path + ".probes")
    return path


def test_steady_sum(tmp_path):
    fast, slow = 1e-6, 2e-6
    # process a: readings fast, fast, slow, slow, slow at stretches 0-4
    a = write(tmp_path, "a", [1e-4, 2e-4, 6e-4, 9e-4, 0.02],
              [[0, fast], [1, fast], [2, slow], [3, slow], [4, slow]])
    # process b: readings slow, slow, fast, fast at stretches 0, 1, 3, 4
    b = write(tmp_path, "b", [3e-4, 4e-4, 6e-4, 3e-4, 0.01],
              [[0, slow], [1, slow], [3, fast], [4, fast]])
    total, details = steady_sum([a, b])
    # a: stretch 0 fast, 1 mixed, 2-4 slow; b: 0 slow, 1-2 mixed, 3-4 fast
    ratio = (3e-4 + 9e-4) / (1e-4 + 3e-4)  # stretches 0 and 3 ran both ways
    assert abs(details["slow_ratio"] - ratio) < 1e-12
    scale = 1 + (ratio - 1) * np.array([3 / 5, 2 / 4])  # mean slowdowns
    mixed = np.median(np.array([2e-4, 4e-4]) / scale)  # stretch 1: only mixed
    long = np.median(np.array([0.02, 0.01]) / scale)  # stretch 4 is long
    want = 1e-4 + mixed + 6e-4 / ratio + 3e-4 + long
    assert abs(total - want) < 1e-12
    assert details["stretches_without_fast_process"] == 0.4
    short = write(tmp_path, "short", [1e-4], [[0, fast]])
    assert steady_sum([a, short]) is None
    assert steady_sum([]) is None
