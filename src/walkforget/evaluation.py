"""Unlearning and utility metrics, the experiment driver, and bias sweeps.

Accuracy metrics apply to the logistic task (forget accuracy is agreement
with the stored poisoned labels, chance level 1/2); exact excess risk is
restricted to the quadratic task where the optimum is closed-form. The
experiment driver produces per-seed, per-sweep-point rows for the model
before unlearning, after unlearning, and for the retrain certifier.
"""

from __future__ import annotations

import csv
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ClientDataset,
    CorrectionMode,
    RunConfig,
    _bounded_get,
    substream,
    validate_config,
)
from .objectives import (
    closed_form_optimum,
    corrective_gradient,
    global_loss,
    grad_local,
    local_loss,
    make_logistic_task,
    make_quadratic_task,
    retained_global_grad,
)
from .protocols import _training_reuse, run_certifier, run_token_training, run_unlearning

__all__ = [
    "Metrics",
    "ExperimentSpec",
    "evaluate",
    "expected_update_direction",
    "monte_carlo_update_direction",
    "run_unlearning_experiment",
    "rows_to_csv",
    "alignment_bias_sweep",
    "EXPERIMENT_CSV_HEADER",
]


@dataclass(frozen=True)
class Metrics:
    clean_accuracy: float | None
    forget_accuracy: float | None
    retained_loss: float
    forget_loss: float
    param_distance: float | None
    excess_risk: float | None


def _accuracy(objective, theta, feats, labels) -> float:
    pred = objective.predict(theta, feats)
    return float(np.mean(pred == labels))


def evaluate(
    theta: np.ndarray,
    objective,
    datasets,
    test_features,
    test_labels,
    unlearn_client: int,
    certifier_params=None,
    optimum=None,
) -> Metrics:
    """All utility and forgetting metrics for one parameter vector.

    ``certifier_params`` enables the parameter-distance field; ``optimum``
    overrides the closed-form minimizer used for the quadratic excess risk.
    """
    theta = np.asarray(theta, dtype=np.float64)
    data_u = datasets[unlearn_client - 1]
    retained_loss = global_loss(objective, datasets, theta, exclude_forget=True)
    forget_loss = (
        local_loss(objective, data_u, theta, "forget") if data_u.m > 0 else math.nan
    )
    clean_acc = forget_acc = None
    if objective.kind == "logistic":
        clean_acc = _accuracy(objective, theta, test_features, test_labels)
        if data_u.m > 0:
            idx = list(data_u.forget_indices)
            forget_acc = _accuracy(
                objective, theta, data_u.features[idx], data_u.labels[idx]
            )
    distance = None
    if certifier_params is not None:
        distance = float(np.linalg.norm(theta - np.asarray(certifier_params)))
    excess = None
    if objective.kind == "quadratic":
        star = (
            closed_form_optimum(objective, datasets, exclude_forget=True)
            if optimum is None
            else np.asarray(optimum)
        )
        excess = retained_loss - global_loss(objective, datasets, star, exclude_forget=True)
    return Metrics(
        clean_accuracy=clean_acc,
        forget_accuracy=forget_acc,
        retained_loss=retained_loss,
        forget_loss=forget_loss,
        param_distance=distance,
        excess_risk=excess,
    )


def expected_update_direction(
    objective, datasets, unlearn_client: int, theta: np.ndarray, p: float, mode: CorrectionMode
) -> np.ndarray:
    """Exact conditional mean of the single-hop update divided by the stepsize.

    Routing mixture with full-batch gradients and no noise:
    p * (corrective ascent direction at the unlearning client)
    - (1 - p) * (average descent gradient over the other clients).
    """
    data_u = datasets[unlearn_client - 1]
    others = [
        grad_local(objective, d, theta, "full")
        for i, d in enumerate(datasets)
        if i != unlearn_client - 1
    ]
    g_not_u = np.mean(others, axis=0)
    g_u = corrective_gradient(objective, data_u, theta, mode)
    return p * g_u - (1.0 - p) * g_not_u


def monte_carlo_update_direction(
    objective,
    datasets,
    unlearn_client: int,
    theta: np.ndarray,
    p: float,
    mode: CorrectionMode,
    rng,
    draws: int = 10**5,
) -> np.ndarray:
    """Monte Carlo mean of the single-hop update over routing draws.

    With no noise and full-batch gradients the only randomness is routing,
    so each client's update direction is computed once and weighted by its
    empirical frequency over ``draws`` routing samples.
    """
    from .core import Graph
    from .network import route_restart_many

    n_clients = len(datasets)
    graph = Graph.complete(n_clients)
    picks = route_restart_many(unlearn_client, p, graph, rng, draws)
    acc = np.zeros_like(theta, dtype=np.float64)
    for c in range(1, n_clients + 1):
        count = int(np.sum(picks == c))
        if count == 0:
            continue
        if c == unlearn_client:
            direction = corrective_gradient(objective, datasets[c - 1], theta, mode)
        else:
            direction = -grad_local(objective, datasets[c - 1], theta, "full")
        acc += count * direction
    return acc / draws


# The RunConfig fields make_task reads; configs equal in these share a task.
_TASK_FIELDS = (
    "seed", "objective", "n_clients", "dim", "local_size", "forget_size",
    "unlearn_client", "test_size",
)


def make_task(cfg: RunConfig, rng=None):
    """Generate the synthetic task named by the config."""
    if rng is None:
        rng = substream(cfg.seed, "data")
    if cfg.objective == "quadratic":
        return make_quadratic_task(
            cfg.n_clients,
            cfg.dim,
            cfg.local_size,
            cfg.forget_size,
            cfg.unlearn_client,
            rng,
        )
    return make_logistic_task(
        cfg.n_clients,
        cfg.dim,
        cfg.local_size,
        cfg.forget_size,
        cfg.unlearn_client,
        rng,
        test_size=cfg.test_size,
    )


EXPERIMENT_CSV_HEADER = (
    "seed",
    "phase",
    "clean_acc",
    "forget_acc",
    "retained_loss",
    "forget_loss",
    "param_dist",
    "excess_risk",
    "epsilon_achieved",
    "sigma_used",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Train, unlearn, certify over a sweep grid times a seed list."""

    base: RunConfig
    sweep: dict = field(default_factory=dict)  # config field -> tuple of values
    seeds: tuple = (0,)


def _sweep_points(spec: ExperimentSpec):
    keys = sorted(spec.sweep)
    if not keys:
        yield {}
        return
    def rec(i, acc):
        if i == len(keys):
            yield dict(acc)
            return
        for v in spec.sweep[keys[i]]:
            acc[keys[i]] = v
            yield from rec(i + 1, acc)
    yield from rec(0, {})


def _metric_cols(metrics: Metrics, eps_achieved, sigma_used) -> dict:
    return {
        "clean_acc": metrics.clean_accuracy,
        "forget_acc": metrics.forget_accuracy,
        "retained_loss": metrics.retained_loss,
        "forget_loss": metrics.forget_loss,
        "param_dist": metrics.param_distance,
        "excess_risk": metrics.excess_risk,
        "epsilon_achieved": eps_achieved,
        "sigma_used": sigma_used,
    }


def run_point(cfg: RunConfig, task=None) -> list:
    """One sweep point: rows for the pre, post, and certifier phases."""
    validate_config(cfg)
    if task is None:
        task = make_task(cfg)
    objective, datasets = task.objective, list(task.datasets)
    optimum = (
        closed_form_optimum(objective, datasets, exclude_forget=True)
        if objective.kind == "quadratic"
        else None
    )
    trained = run_token_training(cfg, objective, datasets)
    cert = run_certifier(cfg, objective, datasets)
    post = run_unlearning(
        cfg, objective, datasets, theta0=trained.final, theta_ref=trained.final.params
    )
    common = dict(
        datasets=datasets,
        test_features=task.test_features,
        test_labels=task.test_labels,
        unlearn_client=cfg.unlearn_client,
        certifier_params=cert.final.params,
        optimum=optimum,
    )
    rows = []
    pre_metrics = evaluate(trained.final.params, objective, **common)
    rows.append({"phase": "pre", **_metric_cols(pre_metrics, None, None)})
    post_metrics = evaluate(post.final.params, objective, **common)
    rows.append(
        {
            "phase": "post",
            **_metric_cols(post_metrics, post.report.view.eps, post.report.sigma),
        }
    )
    cert_metrics = evaluate(cert.final.params, objective, **common)
    rows.append(
        {
            "phase": "certifier",
            **_metric_cols(cert_metrics, cert.report.view.eps, cert.report.sigma),
        }
    )
    return rows


def _run_sweep(base: RunConfig, keys, points, seeds, on_point=None) -> list:
    """Rows of every point and seed: points in order, seeds in order within one.

    The configs of one seed share a task while they agree in every field
    ``make_task`` reads, and training that reads the same inputs runs once
    (``protocols._training_reuse``). At most ``len(seeds)`` tasks and
    ``2 * len(seeds)`` training results (train and certifier) are kept, so
    a sweep over a data field evicts instead of piling them up.
    ``on_point(point, rows)`` is called as each point finishes.
    """
    tasks = OrderedDict()
    out = []
    with _training_reuse(2 * len(seeds)):
        for point in points:
            rows = []
            for seed in seeds:
                # validated before make_task, so a bad value is a ConfigError
                cfg = validate_config(base.replace(seed=seed, **point))
                task_key = tuple(getattr(cfg, name) for name in _TASK_FIELDS)
                task = _bounded_get(tasks, task_key, len(seeds), lambda: make_task(cfg))
                for row in run_point(cfg, task):
                    rows.append({**{k: point[k] for k in keys}, "seed": seed, **row})
            if on_point is not None:
                on_point(point, rows)
            out.extend(rows)
    return out


def run_unlearning_experiment(spec: ExperimentSpec) -> list:
    """All sweep points and seeds; rows sorted by sweep keys, seed, phase."""
    keys = sorted(spec.sweep)
    return _sort_rows(_run_sweep(spec.base, keys, _sweep_points(spec), spec.seeds), keys)


_PHASE_ORDER = {"pre": 0, "post": 1, "certifier": 2}


def _sort_rows(rows, keys) -> list:
    """Rows ordered by sweep keys, seed, then phase (pre, post, certifier)."""
    return sorted(
        rows, key=lambda r: tuple(r[k] for k in keys) + (r["seed"], _PHASE_ORDER[r["phase"]])
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.10g}"
    return str(value)


def rows_to_csv(rows, sweep_keys, path) -> None:
    """Write the rows to ``path`` whole or not at all.

    They go to a hidden temporary file in the same directory, which then
    replaces ``path``; a write cut short leaves no partial ``path`` behind.
    """
    header = tuple(sweep_keys) + EXPERIMENT_CSV_HEADER
    folder, name = os.path.split(os.fspath(path))
    tmp = os.path.join(folder, f".{name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in header])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _retained_minimizer(objective, data: ClientDataset) -> np.ndarray:
    keep = data.retained_indices()
    feats, labels = data.features[keep], data.labels[keep]
    if objective.kind == "quadratic":
        return feats.mean(axis=0)
    theta = np.zeros(data.dim)
    step = 1.0 / objective.smoothness
    for _ in range(600):
        g = objective.batch_grad(theta, feats, labels)
        if np.linalg.norm(g) <= 1e-9:
            break
        theta = theta - step * g
    return theta


def alignment_bias_sweep(
    objective,
    datasets,
    unlearn_client: int,
    m_values,
    rng,
    p: float | None = None,
    n_points: int = 10,
    theta_radius: float | None = None,
) -> list:
    """Measured lightweight-alignment bias against the 2 L m / n_u envelope.

    For each forget-set size m the bias is the gap between the exact mean
    update direction (routing mixture, full-batch gradients, no noise) and
    minus the retained-data gradient, maximized over theta points sampled
    near the unlearning client's retained minimizer, where the unlearning
    trajectory concentrates. Rows: (m, max bias norm, envelope).
    """
    n_clients = len(datasets)
    if p is None:
        p = 1.0 / n_clients
    data_u = datasets[unlearn_client - 1]
    n_u = data_u.n_u
    order = rng.permutation(n_u)
    if theta_radius is None:
        theta_radius = 0.05 * objective.grad_bound / objective.smoothness
    rows = []
    for m in m_values:
        if not 0 <= m <= n_u - 1:
            raise ValueError("m values must lie in [0, n_u - 1]")
        flagged = data_u.with_forget(tuple(int(i) for i in order[:m]))
        swept = list(datasets)
        swept[unlearn_client - 1] = flagged
        center = _retained_minimizer(objective, flagged)
        mode = CorrectionMode.LIGHTWEIGHT if m > 0 else CorrectionMode.EXACT
        worst = 0.0
        for _ in range(n_points):
            direction = rng.standard_normal(data_u.dim)
            direction /= np.linalg.norm(direction)
            radius = theta_radius * rng.random() ** (1.0 / data_u.dim)
            theta = center + radius * direction
            mean_update = expected_update_direction(
                objective, swept, unlearn_client, theta, p, mode
            )
            bias = np.linalg.norm(mean_update + retained_global_grad(objective, swept, theta))
            worst = max(worst, float(bias))
        envelope = 2.0 * objective.grad_bound * m / n_u
        rows.append((m, worst, envelope))
    return rows
