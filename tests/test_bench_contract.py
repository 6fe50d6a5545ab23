"""The benchmark's hooks: every perfbench workload runs clean against this source tree.

``perfbench/worker.py`` wraps walkforget functions and methods by name (for
example ``Transcript.__init__``, ``core.params_hash``,
``optimizer._project_ball`` and ``run_unlearning(theta_ref=)``) and checks
each operation's output. A rename or a dropped parameter then shows up
here, as a failed process or a problem, rather than first in a benchmark
run. Each workload runs once untraced (mode 0) and once traced (mode 1).
"""

import json
import os
import subprocess
import sys

import pytest

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
