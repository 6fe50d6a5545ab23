"""The benchmark's hooks: every perfbench workload runs clean against this source tree.

``perfbench/worker.py`` wraps walkforget functions and methods by name (for
example ``Transcript.__init__``, ``core.params_hash``,
``optimizer._project_ball`` and ``run_unlearning(theta_ref=)``) and checks
each operation's output. A rename or a dropped parameter then shows up
here, as a failed process or a problem, rather than first in a benchmark
run. Each workload runs once untraced (mode 0) and once traced (mode 1).

The per-hop names the benchmark counts are also checked in-process: each
walk calls them through their module globals once per hop, and builds its
transcript through ``Transcript.__init__`` once. And no walk calls numpy's
dispatching wrappers ``np.where``, ``np.linalg.norm`` or ``np.einsum`` per
hop, so putting one back on the hop path fails here rather than first as a
slower benchmark.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from walkforget import (
    CorrectionMode, LogisticObjective, RunConfig, make_task, network, optimizer, protocols,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPERATIONS = {"point-boundary": 5, "sweep-p": 20, "wide-traced": 3}


@pytest.mark.parametrize("mode", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(OPERATIONS))
def test_workload_runs_clean(tmp_path, workload, mode):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    done = subprocess.run(
        [sys.executable, worker, workload, "3", mode, str(tmp_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ops = json.loads(done.stdout.splitlines()[-1])["ops"]
    assert len(ops) == OPERATIONS[workload]
    assert [problems for _, _, problems in ops] == [[]] * len(ops)


# point-boundary's shape (perfbench/workloads.py) with shorter walks
POINT_SHAPE = dict(
    n_clients=10, dim=10, local_size=200, forget_size=20, batch_size=20, s=4, p=0.1,
    eta=0.5, mode=CorrectionMode.LIGHTWEIGHT, trust_radius=0.4, domain="ball",
    domain_radius=10.0, objective="logistic", test_size=500, sigma=None, eps=1.0,
    delta=1e-5, train_hops=150, unlearn_hops=150,
)

# the functions the benchmark wraps at every walkforget module binding
WRAPPED = {
    "route_uniform": network.route_uniform,
    "route_restart": network.route_restart,
    "project": optimizer.project,
    "_project_ball": optimizer._project_ball,
}


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the wrapped names, rebound the way ``perfbench/patches.py`` does."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and name.split(".")[0] == "walkforget"]
    for name, fn in WRAPPED.items():
        wrapper = counted(name, fn)
        bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is fn]
        assert bound, name
        for module, attr in bound:
            monkeypatch.setattr(module, attr, wrapper)
    raw = LogisticObjective.__dict__["batch_grad"]
    monkeypatch.setattr(LogisticObjective, "batch_grad", counted("batch_grad", raw))
    return counts


def test_each_hop_calls_the_wrapped_names(calls):
    cfg = RunConfig(**POINT_SHAPE)
    task = make_task(cfg)

    def counted_walk(runner, *args):
        calls.clear()
        result = runner(cfg, task.objective, list(task.datasets), *args)
        # every projection here is onto a ball, so it starts with one
        assert calls["_project_ball"] >= calls["project"]
        return result, (calls["batch_grad"], calls["project"],
                        calls["route_uniform"], calls["route_restart"])

    h = cfg.train_hops
    trained, got = counted_walk(protocols.run_token_training)
    assert got == (h, h, h, 0)
    _, got = counted_walk(protocols.run_private_baseline)
    assert got == (h, h, 0, 0)  # i.i.d. holders, drawn a block at a time
    h = cfg.unlearn_hops
    unlearned, got = counted_walk(protocols.run_unlearning, trained.final)
    # a restart hop that misses the target is a route_uniform step away from it
    assert got == (h, h, h - unlearned.transcript.target_visits(), h)


def test_each_walk_builds_one_transcript(monkeypatch):
    # the benchmark's network.transcript.ms times Transcript.__init__, so a
    # walk's transcript must be built through it, once per walk
    built = []
    init = network.Transcript.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(network.Transcript, "__init__", counted)
    cfg = RunConfig(**{**POINT_SHAPE, "train_hops": 30, "unlearn_hops": 30})
    task = make_task(cfg)

    def built_by(runner, *args):
        built.clear()
        result = runner(cfg, task.objective, list(task.datasets), *args)
        assert len(result.transcript) == 30
        return result, len(built)

    trained, n = built_by(protocols.run_token_training)
    assert n == 1
    assert built_by(protocols.run_private_baseline)[1] == 1
    assert built_by(protocols.run_unlearning, trained.final)[1] == 1
    assert built_by(protocols.run_certifier)[1] == 2  # its training walk, then its unlearning walk


# numpy functions whose Python-level dispatch costs more than the hop kernels
# that replace them (_sigmoid's exp pair, core._norm, c_einsum)
DISPATCHING = {"where": (np, "where"), "norm": (np.linalg, "norm"), "einsum": (np, "einsum")}


def test_no_walk_calls_a_dispatching_numpy_function_per_hop(monkeypatch):
    counts = Counter()
    for name, (module, attr) in DISPATCHING.items():
        def counted(*args, _name=name, _fn=getattr(module, attr), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    def walks(hops):
        """Dispatching calls in training, the baseline and unlearning, walk by walk."""
        cfg = RunConfig(**{**POINT_SHAPE, "train_hops": hops, "unlearn_hops": hops})
        task = make_task(cfg)
        got = []

        def counted_walk(runner, *args):
            counts.clear()
            result = runner(cfg, task.objective, list(task.datasets), *args)
            got.append(dict(counts))
            return result

        trained = counted_walk(protocols.run_token_training)
        counted_walk(protocols.run_private_baseline)
        counted_walk(protocols.run_unlearning, trained.final)
        return got

    h = POINT_SHAPE["train_hops"]
    assert walks(2 * h) == walks(h)


# A fresh process: threads before the import, then point-boundary's run_point, untraced
_UNTRACED_POINT = """
import json, sys, threading
threads = threading.active_count()
import walkforget, walkforget.cli
from walkforget import core, evaluation
sys.path.insert(0, sys.argv[1])
from workloads import POINT_BOUNDARY
cfg = core.config_from_text(POINT_BOUNDARY, {"seed": 3})
evaluation.run_point(cfg, evaluation.make_task(cfg))
print(json.dumps([threading.active_count() - threads,
                  [m for m in ("concurrent.futures", "queue", "multiprocessing") if m in sys.modules]]))
"""


def test_an_untraced_point_starts_no_thread_and_imports_no_pool():
    # only a traced walk's loss panel starts the helper thread; set-up and
    # the untraced workloads pay for neither a thread nor a pool module
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run(
        [sys.executable, "-c", _UNTRACED_POINT, os.path.join(ROOT, "perfbench")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
