"""Span tracer for the traced benchmark run.

Every public function of the traced modules (plus the few private ones a
per-layer metric needs) is wrapped where its callers look it up. Each call
records a span (name, start, end, parent) in flat arrays kept in memory and
written once at the end. Self time is a span's duration minus its direct
children's. The tracer's own bookkeeping runs on a paused clock, so it is
charged to no span; what remains of its cost is the difference between the
traced and the untraced wall time (``trace_overhead_ratio``).
"""

from __future__ import annotations

import hashlib
import inspect
import os
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from projection import exact_two_ball, is_two_ball_case

TRACED_MODULES = (
    "core", "network", "optimizer", "objectives",
    "accountant", "protocols", "evaluation", "cli",
)

# Private functions that a per-layer metric needs, by module.
PRIVATE_TARGETS = {
    "protocols": ("_trace_row",),
    "cli": ("_cmd_sweep", "_read_point_csv"),
}

# (module, class, attribute, span name); calls from every caller go
# through the class, so one rebinding covers them.
METHOD_TARGETS = (
    ("core", "Graph", "complete", "core.graph_complete"),
    ("network", "Message", "__init__", "network.message"),
    ("network", "Transcript", "__init__", "network.transcript"),
    ("objectives", "LogisticObjective", "batch_grad", "objectives.batch_grad"),
    ("objectives", "QuadraticObjective", "batch_grad", "objectives.batch_grad"),
    ("objectives", "LogisticObjective", "batch_loss", "objectives.batch_loss"),
    ("objectives", "QuadraticObjective", "batch_loss", "objectives.batch_loss"),
)

RUNNERS = {
    "protocols.run_token_training": "train",
    "protocols.run_private_baseline": "baseline",
    "protocols.run_unlearning": "unlearn",
}

# RunConfig fields run_token_training reads (validation aside).
TRAIN_FIELDS = (
    "n_clients", "dim", "train_hops", "eta", "stepsize_rule", "grad_bound",
    "domain", "domain_radius", "seed", "batch_size", "unlearn_client", "trace",
)

INEXACT_TOL = 1e-9


def traced_functions(wf_modules):
    """(span name, function) for every traced module-level function."""
    out = []
    for short in TRACED_MODULES:
        module = wf_modules[short]
        for name, value in vars(module).items():
            if not isinstance(value, types.FunctionType) or value.__module__ != module.__name__:
                continue
            if name.startswith("_") and name not in PRIVATE_TARGETS.get(short, ()):
                continue
            out.append((f"{short}.{name}", value))
    return out


def _dataset_digest(h, datasets) -> None:
    for data in datasets:
        h.update(np.ascontiguousarray(data.features).tobytes())
        h.update(np.ascontiguousarray(data.labels).tobytes())
        h.update(repr(data.forget_indices).encode())


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._paused = 0.0
        # observations made at call boundaries
        self.hops = {}  # span index -> hops of a runner call
        self.batch_grad_bytes = 0
        self.calibrate_attempts = 0
        self.save_bytes = 0
        self.train_keys = []
        self._two_ball_inputs = []  # (span index, x, region, result)
        self._train_sig = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name, fn, observe=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            t = perf_counter()
            idx = self._open(nid)
            t0 = perf_counter()
            self._paused += t0 - t
            self.start[idx] = t0 - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.end[idx] = t1 - self._paused
                self._stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            self._paused += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        self.start[idx] = perf_counter() - self._paused
        try:
            yield
        finally:
            self.end[idx] = perf_counter() - self._paused
            self._stack.pop()

    # ---------------------------------------------------------- observers

    def _observe_project(self, idx, args, kwargs, result):
        region = args[1] if len(args) > 1 else kwargs["region"]
        if region.kind == "ball" and region.trust_center is not None:
            x = np.array(args[0] if args else kwargs["theta"], dtype=np.float64)
            self._two_ball_inputs.append((idx, x, region, np.array(result)))

    def _observe_batch_grad(self, idx, args, kwargs, result):
        feats = args[2] if len(args) > 2 else kwargs["feats"]
        self.batch_grad_bytes += feats.shape[0] * feats.shape[1] * 8

    def _observe_calibrate(self, idx, args, kwargs, result):
        self.calibrate_attempts += result.attempts

    def _observe_runner(self, idx, args, kwargs, result):
        self.hops[idx] = len(result.transcript)

    def _observe_train(self, idx, args, kwargs, result):
        self._observe_runner(idx, args, kwargs, result)
        bound = self._train_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        h = hashlib.sha1()
        h.update(repr([getattr(a["cfg"], f) for f in TRAIN_FIELDS]).encode())
        h.update(repr(a["objective"]).encode())
        _dataset_digest(h, a["datasets"])
        theta0 = a["theta0"]
        if theta0 is not None:
            h.update(np.asarray(getattr(theta0, "params", theta0), dtype="<f8").tobytes())
        h.update(a["label"].encode())
        self.train_keys.append(h.hexdigest())

    def _observe_save(self, idx, args, kwargs, result):
        self.save_bytes += _dir_bytes(args[1] if len(args) > 1 else kwargs["outdir"])

    # ------------------------------------------------------------ install

    def install(self, patches, wf_modules) -> None:
        observers = {
            "optimizer.project": self._observe_project,
            "accountant.calibrate_unlearning_sigma": self._observe_calibrate,
            "protocols.run_token_training": self._observe_train,
            "protocols.run_private_baseline": self._observe_runner,
            "protocols.run_unlearning": self._observe_runner,
            "protocols.save_result": self._observe_save,
        }
        for name, fn in traced_functions(wf_modules):
            if name == "protocols.run_token_training":
                self._train_sig = inspect.signature(fn)
            patches.replace(fn, self.wrap(name, fn, observers.get(name)))
        for module, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(wf_modules[module], cls_name)
            raw = cls.__dict__[attr]
            observe = self._observe_batch_grad if name == "objectives.batch_grad" else None
            if isinstance(raw, staticmethod):
                patches.replace_attr(cls, attr, staticmethod(self.wrap(name, raw.__func__, observe)))
            else:
                patches.replace_attr(cls, attr, self.wrap(name, raw, observe))

    # ------------------------------------------------------------ results

    def span_table(self):
        n = len(self.span_name)
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - start
        children = np.zeros(n)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        return name, parent, start, dur, dur - children

    def write_spans(self, path) -> None:
        """One line per span: index, name, start, end (s, tracer clock), parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.span_name, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{self.names[nid]}\t{s!r}\t{e!r}\t{p}\n")

    def layer_metrics(self, cli_points_requested: int = 0, cli_seeds: int = 1):
        """Per-layer metrics and a self-time ranking, from the recorded spans."""
        name, _, start, dur, self_t = self.span_table()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=self_t, minlength=k)

        def idx(n):
            return self._ids.get(n)

        def c(n):
            i = idx(n)
            return int(calls[i]) if i is not None else 0

        def t(n):
            i = idx(n)
            return float(total[i]) if i is not None else 0.0

        def s(n):
            i = idx(n)
            return float(selft[i]) if i is not None else 0.0

        def per_call_us(n, time_of=t):
            return time_of(n) / c(n) * 1e6 if c(n) else 0.0

        two_ball_calls = inexact = 0
        two_ball_s = 0.0
        for span, x, region, result in self._two_ball_inputs:
            c1, r1 = region.center, region.radius
            c2, r2 = region.trust_center, region.trust_radius
            if not is_two_ball_case(x, c1, r1, c2, r2):
                continue
            two_ball_calls += 1
            two_ball_s += float(dur[span])
            if np.linalg.norm(result - exact_two_ball(x, c1, r1, c2, r2)) > INEXACT_TOL:
                inexact += 1

        hops = {kind: 0 for kind in RUNNERS.values()}
        runner_ids = {self._ids[n]: kind for n, kind in RUNNERS.items() if n in self._ids}
        for span, h in self.hops.items():
            hops[runner_ids[int(name[span])]] += h
        all_hops = sum(hops.values())

        def us_per_hop(n, kind):
            return t(n) / hops[kind] * 1e6 if hops[kind] else 0.0

        runner_self = sum(s(n) for n in RUNNERS)
        body = t("bench.body")
        cli_ids = idx("cli.main")
        cli_spans = np.nonzero(name == cli_ids)[0] if cli_ids is not None else []
        point_id = idx("evaluation.run_point")
        point_starts = start[name == point_id] if point_id is not None else np.array([])
        cli_points = 0
        for i in cli_spans:
            inside = (point_starts >= start[i]) & (point_starts <= start[i] + dur[i])
            cli_points += int(np.count_nonzero(inside))
        cli_points //= max(cli_seeds, 1)
        unique_train = len(set(self.train_keys))

        metrics = {
            "core.graph_complete.calls": c("core.graph_complete"),
            "core.graph_complete.s": t("core.graph_complete"),
            "core.params_hash.calls": c("core.params_hash"),
            "core.params_hash.us": per_call_us("core.params_hash"),
            "network.route.calls": c("network.route_uniform") + c("network.route_restart"),
            "network.route.us": (
                (t("network.route_uniform") + t("network.route_restart")) * 1e6
                / max(c("network.route_uniform") + c("network.route_restart"), 1)
            ),
            "network.transcript.ms": (t("network.message") + t("network.transcript")) * 1e3,
            "optimizer.project.calls": c("optimizer.project"),
            "optimizer.project.us": per_call_us("optimizer.project"),
            "optimizer.project.two_ball_calls": two_ball_calls,
            "optimizer.project.two_ball_s": two_ball_s,
            "optimizer.project.inexact_calls": inexact,
            "optimizer.step.self_us": per_call_us("optimizer.noisy_projected_step", s),
            "optimizer.averaged_gradient.self_us": per_call_us("optimizer.averaged_gradient", s),
            "objectives.batch_grad.calls": c("objectives.batch_grad"),
            "objectives.batch_grad.us": per_call_us("objectives.batch_grad"),
            "objectives.batch_grad.mb_computed": self.batch_grad_bytes / 1e6,
            "objectives.corrective_gradient.us": per_call_us("objectives.corrective_gradient"),
            "objectives.batch_loss.calls": c("objectives.batch_loss"),
            "objectives.batch_loss.s": t("objectives.batch_loss"),
            "accountant.calibrate.calls": c("accountant.calibrate_unlearning_sigma"),
            "accountant.calibrate.attempts": self.calibrate_attempts,
            "accountant.calibrate.ms": t("accountant.calibrate_unlearning_sigma") * 1e3,
            "protocols.hops": all_hops,
            "protocols.train.us_per_hop": us_per_hop("protocols.run_token_training", "train"),
            "protocols.baseline.us_per_hop": us_per_hop("protocols.run_private_baseline", "baseline"),
            "protocols.unlearn.us_per_hop": us_per_hop("protocols.run_unlearning", "unlearn"),
            "protocols.loop.self_us_per_hop": runner_self / all_hops * 1e6 if all_hops else 0.0,
            "protocols.trace.us_per_hop": per_call_us("protocols._trace_row"),
            "protocols.train.runs": len(self.train_keys),
            "protocols.train.repeat_runs": len(self.train_keys) - unique_train,
            "protocols.save_result.ms": t("protocols.save_result") * 1e3,
            "protocols.save_result.kb": self.save_bytes / 1024,
            "evaluation.make_task.calls": c("evaluation.make_task"),
            "evaluation.make_task.s": t("evaluation.make_task"),
            "evaluation.evaluate.calls": c("evaluation.evaluate"),
            "evaluation.evaluate.ms": t("evaluation.evaluate") * 1e3,
            "evaluation.run_point.s": t("evaluation.run_point"),
            "cli.sweep.s": float(dur[cli_spans[0]]) if len(cli_spans) > 0 else 0.0,
            "cli.sweep_resume.s": float(dur[cli_spans[1]]) if len(cli_spans) > 1 else 0.0,
            "cli.points_computed": cli_points,
            "cli.points_skipped": max(cli_points_requested - cli_points, 0),
            "cli.csv_write.ms": t("evaluation.rows_to_csv") * 1e3,
            "cli.csv_read.ms": t("cli._read_point_csv") * 1e3,
            "share.optimizer.project.two_ball": two_ball_s / body if body else 0.0,
            "share.objectives.batch_grad": t("objectives.batch_grad") / body if body else 0.0,
            "share.protocols.trace": t("protocols._trace_row") / body if body else 0.0,
            "share.core.graph_complete": t("core.graph_complete") / body if body else 0.0,
        }

        # Self-time ranking over the body, with two-ball projections split
        # out of optimizer.project (they have no traced children).
        in_body = np.zeros(len(name), dtype=bool)
        for i in np.nonzero(name == idx("bench.body"))[0]:
            in_body |= (start >= start[i]) & (start <= start[i] + dur[i])
        body_self = np.bincount(name[in_body], weights=self_t[in_body], minlength=k)
        ranking = {n: float(body_self[i]) for n, i in self._ids.items()}
        if two_ball_s:
            ranking["optimizer.project"] -= two_ball_s
            ranking["optimizer.project[two-ball]"] = two_ball_s
        top = sorted(ranking.items(), key=lambda kv: -kv[1])[:12]
        self_shares = [(n, v / body if body else 0.0) for n, v in top]
        return metrics, self_shares
