"""End-to-end protocol runners producing (model, transcript, privacy record).

All three protocols are one walk, ``_walk``: pick the next holder, update
the model there, log the hop. A runner supplies only the routing law and
the step rule:

* token training: uniform edge walk, noiseless descent, optional domain
  projection;
* private baseline: i.i.d. uniform holder, projected descent with Gaussian
  noise on every hop;
* unlearning walk: restart routing toward the unlearning client, noisy
  corrective ascent there (projected onto domain intersect trust ball),
  the same projected descent as the baseline, noiseless, elsewhere.

The certifier composes training on the retained data with an empty-forget
unlearning pass, which is the reference process unlearning is compared to.

Inside a ``_training_reuse`` block, a training call whose inputs match an
earlier one in every field training reads returns that call's result; the
sweep driver opens one around its points, since a sweep over ``p`` or the
privacy target retrains identical models.
"""

from __future__ import annotations

import json
import math
import struct
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .accountant import (
    DEFAULT_ALPHA_GRID,
    AccountantReport,
    RdpCurve,
    baseline_group_sigma,
    calibrate_unlearning_sigma,
    group_privacy,
    rdp_to_dp,
    token_view_rdp,
    unlearning_view_guarantee,
)
from .core import (
    ClientDataset,
    CorrectionMode,
    FeasibleRegion,
    Graph,
    ModelState,
    RunConfig,
    _bounded_get,
    params_hash,
    substream,
    validate_config,
)
from .network import Message, Transcript, route_restart, route_uniform
from .objectives import corrective_gradient, local_loss, loss_panel
from .optimizer import (
    StepSpec,
    averaged_gradient,
    clip_gradient,
    effective_variance_bound,
    noisy_projected_step,
    project,
    stepsize,
)

__all__ = [
    "PrivacyRecord",
    "RunResult",
    "run_token_training",
    "run_private_baseline",
    "run_dpsgd",
    "run_unlearning",
    "run_certifier",
    "save_result",
    "load_params",
    "PARAMS_MAGIC",
]

PARAMS_MAGIC = b"WFRM"
PARAMS_VERSION = 1


@dataclass(frozen=True)
class PrivacyRecord:
    """Noise scale plus the view-level guarantee, and any group transform."""

    sigma: float
    view: AccountantReport
    group_edit: int = 1
    group_eps: float | None = None
    group_delta: float | None = None

    def to_dict(self) -> dict:
        out = {
            "sigma": self.sigma,
            "view": self.view.to_dict(),
            "group_edit": self.group_edit,
        }
        if self.group_eps is not None:
            out["group_eps"] = self.group_eps
            out["group_delta"] = self.group_delta
        return out


@dataclass(frozen=True)
class RunResult:
    final: ModelState
    transcript: Transcript
    report: PrivacyRecord | None = None
    trace: tuple | None = None


def _domain_region(cfg: RunConfig, dim: int) -> FeasibleRegion:
    if cfg.domain == "ball":
        return FeasibleRegion.ball(np.zeros(dim), cfg.domain_radius)
    return FeasibleRegion.full()


def _init_theta(cfg: RunConfig, theta0) -> np.ndarray:
    if theta0 is None:
        return np.zeros(cfg.dim)
    if isinstance(theta0, ModelState):
        return theta0.params.copy()
    return np.asarray(theta0, dtype=np.float64).copy()


def _trace_row(objective, retained_loss, data_u, t, client, theta, at_target):
    """One trace row; ``retained_loss`` is the walk's ``loss_panel``."""
    retained = retained_loss(theta)
    forget = (
        local_loss(objective, data_u, theta, "forget") if data_u.m > 0 else math.nan
    )
    return (t, client, retained, forget, float(np.linalg.norm(theta)), at_target)


def _client_gradient(objective, datasets, cfg, client, theta, s, batching):
    data = datasets[client - 1]
    if data.n_u == 0:
        raise ValueError(f"client {client} has an empty dataset")
    return averaged_gradient(objective, data, theta, s, cfg.batch_size or None, batching)


def _descent_step(cfg, objective, datasets, region, sigma, s, clip=0.0):
    """Projected descent on the holder's s-averaged gradient plus N(0, sigma^2 I)."""

    def step(client, theta, eta, batching, noise):
        grad = _client_gradient(objective, datasets, cfg, client, theta, s, batching)
        spec = StepSpec(eta=eta, sigma=sigma, region=region, ascent=False)
        return noisy_projected_step(theta, clip_gradient(grad, clip), spec, noise)

    return step


def _walk(cfg, objective, datasets, theta, hops, label, route, step, r_dom, G, report=None):
    """The hop loop of every protocol: route, step, log.

    Routing, minibatch and noise draws come from the ``<label>.routing``,
    ``.batch`` and ``.noise`` substreams. ``route(prev, rng)`` names the
    next holder and ``step(client, theta, eta, batching, noise)`` returns
    the model after that holder's update at stepsize ``eta``.
    """
    routing = substream(cfg.seed, f"{label}.routing")
    batching = substream(cfg.seed, f"{label}.batch")
    noise = substream(cfg.seed, f"{label}.noise")
    prev = int(routing.integers(1, cfg.n_clients + 1))
    messages = []
    trace = None
    if cfg.trace:
        trace = []
        retained_loss = loss_panel(objective, datasets, exclude_forget=True)
        data_u = datasets[cfg.unlearn_client - 1]
    for t in range(1, hops + 1):
        cur = route(prev, routing)
        eta_t = stepsize(cfg.stepsize_rule, t, cfg.eta, cfg.grad_bound, r_dom, G)
        theta = step(cur, theta, eta_t, batching, noise)
        at_u = cur == cfg.unlearn_client
        messages.append(Message(t, prev, cur, at_u, params_hash(theta)))
        if trace is not None:
            trace.append(_trace_row(objective, retained_loss, data_u, t, cur, theta, at_u))
        prev = cur
    return RunResult(
        final=ModelState(theta),
        transcript=Transcript(tuple(messages)),
        report=report,
        trace=tuple(trace) if trace is not None else None,
    )


# RunConfig fields token training never reads. They are reset to their
# defaults in the reuse key; every other field stays in it, so a field added
# later costs a cache miss, never a stale hit.
_UNREAD_BY_TRAINING = {
    name: getattr(RunConfig(), name)
    for name in ("p", "s", "unlearn_hops", "sigma", "eps", "delta", "mode", "trust_radius",
                 "amp_constant", "cal_constant", "clip", "group_edit")
}

# (kept results, capacity) of the innermost ``_training_reuse`` block, or None.
_TRAINING_REUSE: ContextVar = ContextVar("walkforget_training_reuse", default=None)


@contextmanager
def _training_reuse(capacity: int):
    """Reuse training results within the block, keeping the latest ``capacity``.

    Do not hold it across a ``yield``: a suspended generator would lend the
    block to whatever code its consumer runs meanwhile.
    """
    token = _TRAINING_REUSE.set((OrderedDict(), capacity))
    try:
        yield
    finally:
        _TRAINING_REUSE.reset(token)


def _training_key(cfg: RunConfig, objective, datasets, theta: np.ndarray, label: str) -> tuple:
    """The inputs of a training run, unread config fields reset: equal keys, equal runs."""
    return (
        cfg.replace(**_UNREAD_BY_TRAINING),
        objective,
        label,
        theta.shape,
        theta.tobytes(),
        tuple(data.digest for data in datasets),
    )


def run_token_training(
    cfg: RunConfig,
    objective,
    datasets,
    theta0=None,
    label: str = "train",
) -> RunResult:
    """Token walk training: noiseless local steps, uniform edge forwarding.

    Inside a ``_training_reuse`` block, a call with the key of a kept result
    returns that result instead of walking again.
    """
    validate_config(cfg)
    theta = _init_theta(cfg, theta0)
    scope = _TRAINING_REUSE.get()
    if scope is None:
        return _train(cfg, objective, datasets, theta, label)
    kept, capacity = scope
    key = _training_key(cfg, objective, datasets, theta, label)
    return _bounded_get(
        kept, key, capacity, lambda: _train(cfg, objective, datasets, theta, label)
    )


def _train(cfg: RunConfig, objective, datasets, theta: np.ndarray, label: str) -> RunResult:
    graph = Graph.complete(cfg.n_clients)
    region = _domain_region(cfg, theta.shape[0])

    def step(client, theta, eta, batching, noise):
        grad = _client_gradient(objective, datasets, cfg, client, theta, 1, batching)
        theta = theta - eta * grad
        return project(theta, region) if cfg.domain == "ball" else theta

    return _walk(
        cfg, objective, datasets, theta, cfg.train_hops, label,
        lambda prev, rng: route_uniform(prev, graph, rng), step,
        r_dom=2.0 * cfg.domain_radius, G=cfg.grad_bound,
    )


def _baseline_record(cfg: RunConfig, sigma: float) -> PrivacyRecord:
    # Per-view RDP with each client contributing its expected share of hops,
    # then the group transform for the configured edit distance.
    expected_visits = cfg.train_hops / cfg.n_clients
    per_alpha = {
        alpha: token_view_rdp(
            alpha, cfg.grad_bound, sigma, expected_visits, cfg.n_clients, cfg.amp_constant
        )
        for alpha in DEFAULT_ALPHA_GRID
    }
    if sigma == 0.0 or cfg.train_hops == 0:
        eps0 = 0.0 if cfg.train_hops == 0 else math.inf
        chosen = None
    else:
        guarantee, chosen = rdp_to_dp(RdpCurve(per_alpha), cfg.delta)
        eps0 = guarantee.eps
    view = AccountantReport(
        inputs={
            "L": cfg.grad_bound,
            "sigma": sigma,
            "horizon": cfg.train_hops,
            "n_clients": cfg.n_clients,
            "delta": cfg.delta,
            "amp_constant": cfg.amp_constant,
            "expected_visits": expected_visits,
        },
        alpha_grid=tuple(per_alpha),
        per_alpha=per_alpha,
        chosen_alpha=chosen,
        eps=eps0,
        delta=cfg.delta,
        delta_split={"conversion": cfg.delta},
    )
    if cfg.group_edit > 1 and math.isfinite(eps0):
        grp = group_privacy(eps0, cfg.delta, cfg.group_edit, cfg.delta)
        group_eps, group_delta = grp.eps, grp.delta
    else:
        group_eps, group_delta = eps0, cfg.delta
    return PrivacyRecord(
        sigma=sigma,
        view=view,
        group_edit=cfg.group_edit,
        group_eps=group_eps,
        group_delta=group_delta,
    )


def run_private_baseline(
    cfg: RunConfig,
    objective,
    datasets,
    theta0=None,
    label: str = "baseline",
) -> RunResult:
    """Network-private walk: i.i.d. uniform active client, noise on every hop.

    The noise scale follows the closed-form Gaussian calibration for the
    configured (eps, delta) at edit distance ``group_edit``. When ``clip``
    is set, each hop's averaged minibatch gradient is rescaled to norm at
    most ``clip`` before the noise is added (the single-machine DP-SGD
    comparison path); there is no per-example clipping.
    """
    validate_config(cfg)
    if cfg.domain != "ball":
        raise ValueError("the private baseline requires a ball domain")
    sigma = cfg.sigma
    if sigma is None:
        sigma = baseline_group_sigma(cfg.eps, cfg.delta, cfg.grad_bound, cfg.group_edit)
    theta = _init_theta(cfg, theta0)
    region = _domain_region(cfg, theta.shape[0])
    G = math.sqrt(
        effective_variance_bound(cfg.grad_bound, 1.0, 1, theta.shape[0], sigma)
    )
    return _walk(
        cfg, objective, datasets, theta, cfg.train_hops, label,
        lambda prev, rng: int(rng.integers(1, cfg.n_clients + 1)),
        _descent_step(cfg, objective, datasets, region, sigma, 1, cfg.clip),
        r_dom=2.0 * cfg.domain_radius, G=G, report=_baseline_record(cfg, sigma),
    )


def run_dpsgd(
    cfg: RunConfig,
    objective,
    datasets,
    theta0=None,
    label: str = "dpsgd",
) -> RunResult:
    """Single-machine clipped DP-SGD comparison run.

    Pools all clients' data and runs the noisy projected loop, clipping
    each hop's averaged minibatch gradient at ``clip`` (``grad_bound`` when
    unset); exists for experiment parity only and carries no network-level
    certification.
    """
    pooled_feats = np.vstack([d.features for d in datasets])
    pooled_labels = np.concatenate([d.labels for d in datasets])
    pooled = ClientDataset(pooled_feats, pooled_labels, ())
    cfg_pool = cfg.replace(clip=cfg.clip if cfg.clip > 0 else cfg.grad_bound)
    return run_private_baseline(
        cfg_pool, objective, [pooled] * cfg.n_clients, theta0, label=label
    )


def run_unlearning(
    cfg: RunConfig,
    objective,
    datasets,
    theta0,
    theta_ref=None,
    label: str = "unlearn",
) -> RunResult:
    """Localized-noise unlearning walk from a trained model.

    At the unlearning client: corrective ascent (exact or lightweight) plus
    Gaussian noise, projected onto domain intersect trust ball around
    ``theta_ref`` (which defaults to the starting model). Elsewhere:
    noiseless s-averaged descent projected onto the domain.
    """
    validate_config(cfg)
    data_u = datasets[cfg.unlearn_client - 1]
    if cfg.mode is CorrectionMode.LIGHTWEIGHT and data_u.m == 0:
        raise ValueError("lightweight mode needs a nonempty forget set")
    if data_u.m == data_u.n_u and data_u.m > 0:
        raise ValueError("retained set empty")
    graph = Graph.complete(cfg.n_clients)
    theta = _init_theta(cfg, theta0)
    ref = theta.copy() if theta_ref is None else np.asarray(theta_ref, dtype=np.float64)

    if cfg.sigma is None:
        calib = calibrate_unlearning_sigma(
            cfg.eps,
            cfg.delta,
            cfg.grad_bound,
            cfg.p,
            cfg.unlearn_hops,
            cfg.n_clients,
            cfg.cal_constant,
            cfg.amp_constant,
        )
        sigma = calib.sigma
        view = calib.report
    else:
        sigma = cfg.sigma
        view = unlearning_view_guarantee(
            cfg.grad_bound,
            sigma,
            cfg.p,
            cfg.unlearn_hops,
            cfg.n_clients,
            cfg.delta,
            cfg.amp_constant,
        )

    region = _domain_region(cfg, theta.shape[0])
    trust = region.with_trust(ref, cfg.trust_radius)
    descend = _descent_step(cfg, objective, datasets, region, 0.0, cfg.s)

    def step(client, theta, eta, batching, noise):
        if client != cfg.unlearn_client:
            return descend(client, theta, eta, batching, noise)
        g_u = corrective_gradient(
            objective, data_u, theta, cfg.mode, cfg.batch_size or None, batching
        )
        spec = StepSpec(eta=eta, sigma=sigma, region=trust, ascent=True)
        return noisy_projected_step(theta, g_u, spec, noise)

    dim = theta.shape[0]
    G = math.sqrt(effective_variance_bound(cfg.grad_bound, cfg.p, cfg.s, dim, sigma))
    r_dom = 2.0 * min(
        cfg.trust_radius, cfg.domain_radius if cfg.domain == "ball" else math.inf
    )
    return _walk(
        cfg, objective, datasets, theta, cfg.unlearn_hops, label,
        lambda prev, rng: route_restart(cfg.unlearn_client, cfg.p, graph, rng), step,
        r_dom=r_dom, G=G, report=PrivacyRecord(sigma=sigma, view=view),
    )


def run_certifier(cfg: RunConfig, objective, datasets, label: str = "certifier") -> RunResult:
    """Reference process: train on the retained data, then empty-forget unlearning.

    This is the trajectory the unlearned model is compared against; with an
    empty original forget set it coincides with a fresh training run plus a
    no-op deletion pass.
    """
    u = cfg.unlearn_client
    retained = list(datasets)
    if retained[u - 1].m == retained[u - 1].n_u and retained[u - 1].m > 0:
        raise ValueError("retained set empty")
    retained[u - 1] = retained[u - 1].without_forget()
    cert_cfg = cfg.replace(mode=CorrectionMode.EXACT)
    trained = run_token_training(
        cert_cfg, objective, retained, theta0=None, label=f"{label}.train"
    )
    return run_unlearning(
        cert_cfg,
        objective,
        retained,
        theta0=trained.final,
        theta_ref=trained.final.params,
        label=f"{label}.unlearn",
    )


def save_params(params: np.ndarray, path) -> None:
    """Binary vector: 16-byte header (magic, version, dim), float64 LE body."""
    arr = np.ascontiguousarray(params, dtype="<f8")
    header = PARAMS_MAGIC + struct.pack("<I", PARAMS_VERSION) + struct.pack("<Q", arr.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def load_params(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != PARAMS_MAGIC:
        raise ValueError("bad magic in params file")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != PARAMS_VERSION:
        raise ValueError(f"unsupported params version {version}")
    dim = struct.unpack("<Q", blob[8:16])[0]
    arr = np.frombuffer(blob[16:], dtype="<f8")
    if arr.shape[0] != dim:
        raise ValueError("params length does not match header")
    return arr.astype(np.float64)


TRACE_HEADER = "round,client,retained_loss,forget_loss,theta_norm,at_target"


def save_result(result: RunResult, outdir, force: bool = False) -> None:
    """Serialize a run to a directory: params, transcript, record, trace."""
    import os

    os.makedirs(outdir, exist_ok=True)
    existing = [f for f in os.listdir(outdir) if not f.startswith(".")]
    if existing and not force:
        raise FileExistsError(f"output directory {outdir} is not empty (use force)")
    save_params(result.final.params, os.path.join(outdir, "params.bin"))
    with open(os.path.join(outdir, "transcript.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(result.transcript.to_lines()))
        if len(result.transcript):
            fh.write("\n")
    if result.report is not None:
        with open(os.path.join(outdir, "accountant.json"), "w", encoding="utf-8") as fh:
            json.dump(result.report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if result.trace is not None:
        with open(os.path.join(outdir, "trace.csv"), "w", encoding="utf-8") as fh:
            fh.write(TRACE_HEADER + "\n")
            for row in result.trace:
                t, client, rloss, floss, norm, at_u = row
                fh.write(
                    f"{t},{client},{rloss:.17g},{floss:.17g},{norm:.17g},{int(at_u)}\n"
                )
