"""Unlearning and utility metrics, the experiment driver, and bias sweeps.

Accuracy metrics apply to the logistic task (forget accuracy is agreement
with the stored poisoned labels, chance level 1/2); exact excess risk is
restricted to the quadratic task where the optimum is closed-form. The
experiment driver produces per-seed, per-sweep-point rows for the model
before unlearning, after unlearning, and for the retrain certifier.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from types import MappingProxyType

import numpy as np

from .core import (
    ClientDataset,
    ConfigError,
    CorrectionMode,
    Graph,
    RunConfig,
    _bounded_get,
    _fmt,
    _norm,
    _Record,
    _write_csv,
    substream,
    validate_config,
)
from .network import route_restart_many
from .objectives import (
    closed_form_optimum,
    corrective_gradient,
    global_loss,
    grad_local,
    make_logistic_task,
    make_quadratic_task,
    retained_global_grad,
)
from .protocols import (
    _training_reuse,
    _unlearning_sigma,
    run_certifier,
    run_token_training,
    run_unlearning,
)

__all__ = [
    "Metrics",
    "ExperimentSpec",
    "evaluate",
    "expected_update_direction",
    "monte_carlo_update_direction",
    "run_unlearning_experiment",
    "rows_to_csv",
    "alignment_bias_sweep",
    "make_task",
    "run_point",
    "EXPERIMENT_CSV_HEADER",
]


class Metrics(_Record):
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
) -> Metrics:
    """All utility and forgetting metrics for one parameter vector.

    ``certifier_params`` enables the parameter-distance field; the quadratic
    excess risk is measured against the closed-form retained minimizer.
    """
    theta = np.asarray(theta, dtype=np.float64)
    forget = datasets[unlearn_client - 1].forget_rows
    retained_loss = global_loss(objective, datasets, theta, exclude_forget=True)
    forget_loss = math.nan if forget is None else objective.batch_loss(theta, *forget)
    clean_acc = forget_acc = None
    if objective.kind == "logistic":
        clean_acc = _accuracy(objective, theta, test_features, test_labels)
        if forget is not None:
            forget_acc = _accuracy(objective, theta, *forget)
    distance = None
    if certifier_params is not None:
        distance = _norm(theta - np.asarray(certifier_params))
    excess = None
    if objective.kind == "quadratic":
        star = closed_form_optimum(objective, datasets, exclude_forget=True)
        excess = retained_loss - global_loss(objective, datasets, star, exclude_forget=True)
    return Metrics(
        clean_accuracy=clean_acc,
        forget_accuracy=forget_acc,
        retained_loss=retained_loss,
        forget_loss=forget_loss,
        param_distance=distance,
        excess_risk=excess,
    )


def _hop_direction(objective, datasets, unlearn_client, theta, mode, client) -> np.ndarray:
    """One noiseless full-batch hop's update at ``client``, divided by the stepsize.

    Corrective ascent at the unlearning client, descent on the local
    gradient anywhere else.
    """
    data = datasets[client - 1]
    if client == unlearn_client:
        return corrective_gradient(objective, data, theta, mode)
    return -grad_local(objective, data, theta, "full")


def expected_update_direction(
    objective, datasets, unlearn_client: int, theta: np.ndarray, p: float, mode: CorrectionMode
) -> np.ndarray:
    """Exact conditional mean of the single-hop update divided by the stepsize.

    Routing mixture with full-batch gradients and no noise:
    p * (corrective ascent direction at the unlearning client)
    - (1 - p) * (average descent gradient over the other clients).
    """
    g_u = _hop_direction(objective, datasets, unlearn_client, theta, mode, unlearn_client)
    others = [_hop_direction(objective, datasets, unlearn_client, theta, mode, c)
              for c in range(1, len(datasets) + 1) if c != unlearn_client]
    return p * g_u + (1.0 - p) * np.mean(others, axis=0)


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
    n_clients = len(datasets)
    picks = route_restart_many(unlearn_client, p, Graph.complete(n_clients), rng, draws)
    counts = np.bincount(picks, minlength=n_clients + 1).tolist()
    acc = np.zeros_like(theta, dtype=np.float64)
    for c in range(1, n_clients + 1):
        if counts[c]:
            acc += counts[c] * _hop_direction(objective, datasets, unlearn_client, theta, mode, c)
    return acc / draws


# The RunConfig fields make_task reads; configs equal in these share a task.
_TASK_FIELDS = (
    "seed", "objective", "n_clients", "dim", "local_size", "forget_size",
    "unlearn_client", "test_size",
)


def make_task(cfg: RunConfig):
    """Generate the synthetic task named by the config, from its ``data`` substream."""
    rng = substream(cfg.seed, "data")
    args = (cfg.n_clients, cfg.dim, cfg.local_size, cfg.forget_size, cfg.unlearn_client, rng)
    if cfg.objective == "quadratic":
        return make_quadratic_task(*args)
    return make_logistic_task(*args, test_size=cfg.test_size)


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


class ExperimentSpec(_Record):
    """Train, unlearn, certify over a sweep grid times a seed list."""

    base: RunConfig
    sweep: dict = MappingProxyType({})  # config field -> tuple of values
    seeds: tuple = (0,)


def _sweep_points(sweep: dict):
    keys = sorted(sweep)
    for values in itertools.product(*(sweep[k] for k in keys)):
        yield dict(zip(keys, values))


def _metric_cols(metrics: Metrics, report) -> dict:
    """One row's metric columns; ``report`` is the run's PrivacyRecord, or None."""
    return {
        "clean_acc": metrics.clean_accuracy,
        "forget_acc": metrics.forget_accuracy,
        "retained_loss": metrics.retained_loss,
        "forget_loss": metrics.forget_loss,
        "param_dist": metrics.param_distance,
        "excess_risk": metrics.excess_risk,
        "epsilon_achieved": None if report is None else report.view.eps,
        "sigma_used": None if report is None else report.sigma,
    }


def run_point(cfg: RunConfig, task=None) -> list:
    """One sweep point: rows for the pre, post, and certifier phases.

    The walks run untraced whatever ``cfg.trace`` says: a point keeps no
    trace, and the rows do not depend on it.
    """
    cfg = validate_config(cfg).replace(trace=False)
    _unlearning_sigma(cfg)  # an unverifiable calibration costs no walk
    if task is None:
        task = make_task(cfg)
    objective, datasets = task.objective, list(task.datasets)
    trained = run_token_training(cfg, objective, datasets)
    cert = run_certifier(cfg, objective, datasets)
    post = run_unlearning(cfg, objective, datasets, theta0=trained.final)
    common = dict(
        datasets=datasets,
        test_features=task.test_features,
        test_labels=task.test_labels,
        unlearn_client=cfg.unlearn_client,
        certifier_params=cert.final.params,
    )
    rows = []
    for phase, run in (("pre", trained), ("post", post), ("certifier", cert)):
        metrics = evaluate(run.final.params, objective, **common)
        rows.append({"phase": phase, **_metric_cols(metrics, run.report)})
    return rows


def _run_sweep(base: RunConfig, keys, points, seeds, on_point=None) -> list:
    """Rows of every point and seed: points in order, seeds in order within one.

    The configs of one seed share a task while they agree in every field
    ``make_task`` reads, and training that reads the same inputs runs once
    (``protocols._training_reuse``). At most ``len(seeds)`` tasks and
    ``2 * len(seeds)`` training results (train and certifier) are kept, so
    a sweep over a data field evicts instead of piling them up.
    ``on_point(point, rows)`` is called as each point finishes. Every
    point's config is validated, its calibration verified, and the seeds
    checked for repeats, before the first point runs, so a bad value is a
    ``ConfigError`` or ``CalibrationError`` that costs no work.
    """
    if len(set(seeds)) < len(seeds):
        raise ConfigError([f"seeds list a seed more than once: {tuple(seeds)}"])
    points = list(points)
    configs = [[validate_config(base.replace(seed=seed, **point)) for seed in seeds]
               for point in points]
    for cfg in itertools.chain.from_iterable(configs):
        _unlearning_sigma(cfg)
    tasks = OrderedDict()
    out = []
    with _training_reuse(2 * len(seeds)):
        for point, point_configs in zip(points, configs):
            rows = []
            for seed, cfg in zip(seeds, point_configs):
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
    return _sort_rows(_run_sweep(spec.base, keys, _sweep_points(spec.sweep), spec.seeds), keys)


_PHASE_ORDER = {"pre": 0, "post": 1, "certifier": 2}


def _sort_rows(rows, keys) -> list:
    """Rows ordered by sweep keys, seed, then phase (pre, post, certifier)."""
    return sorted(
        rows, key=lambda r: tuple(r[k] for k in keys) + (r["seed"], _PHASE_ORDER[r["phase"]])
    )


def rows_to_csv(rows, sweep_keys, path) -> None:
    """Write the rows to ``path`` whole or not at all (``core._write_csv``)."""
    header = tuple(sweep_keys) + EXPERIMENT_CSV_HEADER
    _write_csv(path, header, ([_fmt(row.get(col)) for col in header] for row in rows))


def _retained_minimizer(objective, data: ClientDataset) -> np.ndarray:
    feats, labels = data.retained_rows
    if objective.kind == "quadratic":
        return feats.mean(axis=0)
    theta = np.zeros(data.dim)
    step = 1.0 / objective.smoothness
    for _ in range(600):
        g = objective.batch_grad(theta, feats, labels)
        if _norm(g) <= 1e-9:
            break
        theta = theta - step * g
    return theta


def alignment_bias_sweep(
    objective,
    datasets,
    unlearn_client: int,
    m_values,
    rng,
    n_points: int = 10,
) -> list:
    """Measured lightweight-alignment bias against the 2 L m / n_u envelope.

    For each forget-set size m the bias is the gap between the exact mean
    update direction (routing mixture at p = 1/N, full-batch gradients, no
    noise) and minus the retained-data gradient, maximized over theta points
    sampled within 0.05 L / smoothness of the unlearning client's retained
    minimizer, where the unlearning trajectory concentrates. Rows: (m, max
    bias norm, envelope).
    """
    p = 1.0 / len(datasets)
    data_u = datasets[unlearn_client - 1]
    n_u = data_u.n_u
    order = rng.permutation(n_u)
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
            direction /= _norm(direction)
            radius = theta_radius * rng.random() ** (1.0 / data_u.dim)
            theta = center + radius * direction
            mean_update = expected_update_direction(
                objective, swept, unlearn_client, theta, p, mode
            )
            bias = _norm(mean_update + retained_global_grad(objective, swept, theta))
            worst = max(worst, bias)
        envelope = 2.0 * objective.grad_bound * m / n_u
        rows.append((m, worst, envelope))
    return rows
