"""The benchmark's three workloads.

Each workload turns the benchmark seed into a config and, where the body
takes one, a generated task (``setup``), runs a fixed amount of protocol
work through the public API or the CLI (``body``), and checks the files the
body wrote (``check_files``). Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import os

from walkforget import cli, core, evaluation, protocols

from gate import Operation


class Workload:
    name = ""
    cli_points_requested = 0  # sweep points named on the CLI, over all passes
    cli_seeds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def expected(self) -> dict:
        """Operations the body must produce, by kind."""
        raise NotImplementedError

    def check_files(self, ops) -> str:
        """Check written files, failing the operations they belong to; return their digest."""
        return ""


def _point_walks(points: int) -> dict:
    # run_point = training + certifier (training, unlearning) + unlearning
    return {"train": 2 * points, "unlearn": 2 * points, "point": points}


POINT_BOUNDARY = """\
n_clients=10
dim=10
local_size=200
forget_size=20
batch_size=20
s=4
p=0.1
eta=0.5
mode=lightweight
trust_radius=0.4
domain=ball
domain_radius=10
objective=logistic
test_size=500
sigma=auto
eps=1.0
delta=1e-5
train_hops=2000
unlearn_hops=2000
"""


class PointBoundary(Workload):
    name = "point-boundary"
    points = 1

    def setup(self):
        base = core.config_from_text(POINT_BOUNDARY)
        self.configs = [base.replace(seed=self.seed * self.points + i) for i in range(self.points)]
        self.tasks = [evaluation.make_task(cfg) for cfg in self.configs]
        self.hops = sum(2 * (c.train_hops + c.unlearn_hops) for c in self.configs)

    def body(self):
        for cfg, task in zip(self.configs, self.tasks):
            evaluation.run_point(cfg, task)

    def expected(self):
        return _point_walks(self.points)


SWEEP_P = """\
n_clients=10
dim=100
local_size=2000
forget_size=100
test_size=2000
batch_size=0
mode=exact
objective=logistic
eta=0.5
s=1
trust_radius=1.0
domain=ball
domain_radius=10
sigma=auto
eps=1.0
delta=1e-5
train_hops=150
unlearn_hops=150
"""

SWEEP_P_VALUES = "0.05,0.1,0.3"
RESUME_P_VALUES = SWEEP_P_VALUES + ",0.5"


class SweepP(Workload):
    name = "sweep-p"
    cli_seeds = 1
    cli_points_requested = 3 + 4

    def setup(self):
        cfg = core.config_from_text(SWEEP_P)
        self.config_path = os.path.join(self.workdir, "sweep.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(SWEEP_P)
        self.out = os.path.join(self.workdir, "sweep")
        self.seeds = ",".join(str(self.seed * self.cli_seeds + i) for i in range(self.cli_seeds))
        self.hops = 2 * self.cli_seeds * 4 * (cfg.train_hops + cfg.unlearn_hops)

    def _sweep(self, p_values):
        return cli.main(["sweep", "--config", self.config_path, "--out", self.out,
                         "--sweep", f"p={p_values}", "--seeds", self.seeds])

    def body(self):
        self.codes = [self._sweep(SWEEP_P_VALUES)]
        with open(os.path.join(self.out, "sweep.csv"), "rb") as fh:
            self.first_csv = fh.read()
        self.codes.append(self._sweep(RESUME_P_VALUES))

    def expected(self):
        return _point_walks(self.cli_seeds * 4)

    def check_files(self, ops):
        with open(os.path.join(self.out, "sweep.csv"), "rb") as fh:
            final_csv = fh.read()
        points = [op for op in ops if op.kind == "point"]
        passes = (
            (self.codes[0], self.first_csv, 3, points[: 3 * self.cli_seeds]),
            (self.codes[1], final_csv, 4, points[3 * self.cli_seeds:]),
        )
        for code, text, n_points, pass_points in passes:
            rows = text.decode().strip().splitlines()[1:]
            problem = None
            if code != 0:
                problem = f"sweep exited with {code}"
            elif len(rows) != n_points * self.cli_seeds * 3:
                problem = f"sweep.csv has {len(rows)} rows, expected {n_points * self.cli_seeds * 3}"
            for op in pass_points if problem else ():
                op.fail(problem)
        return hashlib.sha256(self.first_csv + final_csv).hexdigest()


WIDE_TRACED = """\
n_clients=2000
dim=20
local_size=20
forget_size=5
test_size=200
batch_size=0
mode=exact
objective=logistic
eta=0.5
p=0.1
trust_radius=1.0
domain=ball
domain_radius=10
sigma=auto
eps=1.0
delta=1e-5
train_hops=20
unlearn_hops=20
trace=true
"""


class WideTraced(Workload):
    name = "wide-traced"

    def setup(self):
        self.cfg = core.config_from_text(WIDE_TRACED, {"seed": self.seed})
        self.task = evaluation.make_task(self.cfg)
        self.hops = self.cfg.train_hops * 2 + self.cfg.unlearn_hops

    def body(self):
        cfg, objective, datasets = self.cfg, self.task.objective, list(self.task.datasets)
        trained = protocols.run_token_training(cfg, objective, datasets)
        baseline = protocols.run_private_baseline(cfg, objective, datasets)
        unlearned = protocols.run_unlearning(
            cfg, objective, datasets, trained.final, theta_ref=trained.final.params
        )
        self.saved = []
        for kind, result in (("train", trained), ("baseline", baseline), ("unlearn", unlearned)):
            outdir = os.path.join(self.workdir, kind)
            protocols.save_result(result, outdir)
            self.saved.append((outdir, result))

    def expected(self):
        return {"train": 1, "baseline": 1, "unlearn": 1}

    def check_files(self, ops):
        h = hashlib.sha256()
        walks = [op for op in ops if op.kind != "point"]
        for op, (outdir, result) in zip(walks, self.saved):
            files = sorted(os.listdir(outdir))
            contents = {}
            for name in files:
                with open(os.path.join(outdir, name), "rb") as fh:
                    contents[name] = fh.read()
                h.update(name.encode() + contents[name])
            hops = len(result.transcript)
            if not (protocols.load_params(os.path.join(outdir, "params.bin"))
                    == result.final.params).all():
                op.fail("save_result: params.bin does not round-trip")
            if contents["transcript.txt"].count(b"\n") != hops:
                op.fail("save_result: transcript.txt length differs from the transcript")
            if contents.get("trace.csv", b"").count(b"\n") != hops + 1:
                op.fail("save_result: trace.csv does not hold one row per hop")
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (PointBoundary, SweepP, WideTraced)}


def check_counts(workload, ops) -> list:
    """Operations the body should have produced but did not, as failures."""
    missing = []
    for kind, want in workload.expected().items():
        got = sum(1 for op in ops if op.kind == kind)
        for _ in range(max(want - got, 0)):
            missing.append(Operation(kind, "", [f"{kind}: operation missing ({got} of {want})"]))
        if got > want:
            missing.append(Operation(kind, "", [f"{kind}: {got} operations, expected {want}"]))
    return missing
