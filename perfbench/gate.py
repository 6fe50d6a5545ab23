"""Output gate: capture each protocol walk and sweep point, check it, digest it.

An operation is one protocol walk or one sweep point. The gate wraps the
runners and ``run_point`` where their callers look them up, keeps what each
call returned, and checks it after the timed body, so the checks cost the
timed region nothing. Each operation gets a digest of its outputs; run.py
compares digests between runs of one workload and seed.
"""

from __future__ import annotations

import hashlib
import inspect
import math

import numpy as np

TOL = 1e-9

WALKS = {
    "run_token_training": "train",
    "run_private_baseline": "baseline",
    "run_unlearning": "unlearn",
}


class Operation:
    def __init__(self, kind: str, digest: str, problems: list):
        self.kind = kind
        self.digest = digest
        self.problems = problems

    def fail(self, problem: str) -> None:
        self.problems.append(problem)


def walk_digest(result) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.final.params, dtype="<f8").tobytes())
    h.update("\n".join(result.transcript.to_lines()).encode())
    if result.report is not None:
        h.update(repr((result.report.sigma, result.report.view.eps)).encode())
    return h.hexdigest()


def check_walk(kind: str, cfg, theta_ref, result) -> list:
    """Problems with one walk's outputs; empty when every invariant holds."""
    problems = []
    theta = result.final.params
    if not np.all(np.isfinite(theta)):
        problems.append(f"{kind}: final params not finite")
    if cfg.domain == "ball" and np.linalg.norm(theta) > cfg.domain_radius + TOL:
        problems.append(f"{kind}: final params outside the domain ball")
    horizon = cfg.unlearn_hops if kind == "unlearn" else cfg.train_hops
    if len(result.transcript) != horizon:
        problems.append(f"{kind}: transcript has {len(result.transcript)} hops, horizon {horizon}")
    # The trust ball binds the steps taken at the unlearning client only;
    # descent elsewhere projects onto the domain and may leave it.
    if kind == "unlearn" and horizon and result.transcript.messages[-1].at_target:
        if np.linalg.norm(theta - theta_ref) > cfg.trust_radius + TOL:
            problems.append("unlearn: final target step outside the trust ball")
    if cfg.sigma is None and kind != "train" and not result.report.view.eps <= cfg.eps:
        problems.append(f"{kind}: achieved eps {result.report.view.eps} above target {cfg.eps}")
    return problems


def point_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def check_point(cfg, rows) -> list:
    problems = []
    phases = [r["phase"] for r in rows]
    if phases != ["pre", "post", "certifier"]:
        problems.append(f"point: phases {phases}")
    for row in rows:
        if not math.isfinite(row["retained_loss"]):
            problems.append(f"point: {row['phase']} retained loss not finite")
        eps = row["epsilon_achieved"]
        if cfg.sigma is None and eps is not None and not eps <= cfg.eps:
            problems.append(f"point: {row['phase']} eps {eps} above target {cfg.eps}")
    return problems


class Gate:
    def __init__(self):
        self._captured = []  # (kind, cfg, theta_ref, result) in call order

    def install(self, patches, wf_modules) -> None:
        protocols, evaluation = wf_modules["protocols"], wf_modules["evaluation"]
        for name, kind in WALKS.items():
            patches.replace(getattr(protocols, name), self._capture_walk(kind, getattr(protocols, name)))
        run_point = evaluation.run_point
        patches.replace(run_point, self._capture_point(run_point))

    def _capture_walk(self, kind, fn):
        sig = inspect.signature(inspect.unwrap(fn))

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            a = sig.bind(*args, **kwargs).arguments
            ref = a.get("theta_ref")
            if ref is None:
                ref = a.get("theta0")
            ref = None if ref is None else np.array(getattr(ref, "params", ref), dtype=np.float64)
            self._captured.append((kind, a["cfg"], ref, result))
            return result

        return captured

    def _capture_point(self, fn):
        def captured(cfg, task=None):
            rows = fn(cfg, task)
            self._captured.append(("point", cfg, None, rows))
            return rows

        return captured

    def operations(self) -> list:
        """Check every captured call, in call order."""
        ops = []
        for kind, cfg, ref, out in self._captured:
            if kind == "point":
                ops.append(Operation("point", point_digest(out), check_point(cfg, out)))
            else:
                ops.append(Operation(kind, walk_digest(out), check_walk(kind, cfg, ref, out)))
        return ops
