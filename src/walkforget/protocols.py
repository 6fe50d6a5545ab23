"""End-to-end protocol runners producing (model, transcript, privacy record).

All three protocols are one walk, ``_walk``: take the next hop's holder,
minibatch, noise and stepsize from the walk's schedule (``_schedule``,
drawn a block of hops at a time), update the model there, log the hop. A
runner supplies only the routing law, what each client's hop draws, and
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

Inside a ``_training_reuse`` block, a training call that reads the same
config fields, objective, start model and dataset objects as an earlier one
returns that call's result; the sweep driver opens one around its points,
since a sweep over ``p`` or the privacy target retrains identical models.
"""

from __future__ import annotations

import json
import math
import os
import struct
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .accountant import (
    AccountantReport,
    baseline_group_sigma,
    baseline_view_guarantee,
    calibrate_unlearning_sigma,
    group_privacy,
    unlearning_view_guarantee,
)
from .core import (
    CorrectionMode,
    FeasibleRegion,
    Graph,
    ModelState,
    RunConfig,
    _BLOCK_VALUES,
    _bounded_get,
    _check_outdir,
    _norm,
    _write_file,
    params_hash,
    substream,
    validate_config,
)
from .network import Transcript, route_restart, route_uniform
from .objectives import _correction, _correction_draw, _rows_grad, loss_panel
from .optimizer import (
    _descent_draw,
    _noise_rows,
    _projected_step,
    clip_gradient,
    effective_variance_bound,
    project,
    stepsize,
)

__all__ = [
    "PrivacyRecord",
    "RunResult",
    "run_token_training",
    "run_private_baseline",
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


def _trace_row(objective, retained_loss, forget_rows, t, client, theta, at_target):
    """One trace row; ``retained_loss`` is the walk's ``loss_panel``.

    ``forget_rows`` is the unlearning client's ``ClientDataset.forget_rows``.
    """
    retained = retained_loss(theta)
    forget = math.nan if forget_rows is None else objective.batch_loss(theta, *forget_rows)
    return (t, client, retained, forget, _norm(theta), at_target)


def _client_gradient(objective, datasets, client, theta, pick):
    """The holder's average gradient over its minibatch ``pick`` (None: full batch)."""
    data = datasets[client - 1]
    if data.n_u == 0:
        raise ValueError(f"client {client} has an empty dataset")
    return _rows_grad(objective, data, theta, pick)


def _descent_step(objective, datasets, region, clip=0.0):
    """Projected descent on the holder's minibatch gradient plus its noise row."""

    def step(client, theta, eta, pick, noise):
        grad = clip_gradient(_client_gradient(objective, datasets, client, theta, pick), clip)
        return _projected_step(theta, grad if noise is None else grad + noise, eta, region)

    return step


def _descent_draws(datasets, s: int, batch: int, sigma: float = 0.0):
    """``draw(client)`` of a descent hop: ``(high, size, sigma)``.

    The hop samples ``size`` minibatch indices below ``high`` (none for a
    full batch), by ``optimizer._descent_draw``, and, when ``sigma > 0``, a
    noise row N(0, sigma^2 I). An empty client draws nothing; its step raises.
    """
    return lambda client: (*_descent_draw(datasets[client - 1], s, batch), sigma)


def _each_hop(next_holder):
    """A schedule ``route`` that names each hop's holder by ``next_holder(prev, rng)``."""

    def route(prev, rng, size):
        holders = []
        for _ in range(size):
            prev = next_holder(prev, rng)
            holders.append(prev)
        return holders

    return route


def _minibatches(rng, highs: list, counts: list):
    """Yield each hop's minibatch indices, or None where it draws none (a full batch).

    Hop i draws ``counts[i]`` indices below ``highs[i]``. A run of hops
    with one bound makes one draw, which equals the run's per-hop draws:
    numpy draws bounded integers one at a time, alone or in an array.
    """
    for high, run in groupby(zip(highs, counts), key=itemgetter(0)):
        run = [k for _, k in run]
        flat = rng.integers(0, high, size=sum(run)) if any(run) else None
        end = 0
        for k in run:
            yield flat[end:end + k] if k else None
            end += k


# A schedule block holds at most this many hops, and at most
# core._BLOCK_VALUES minibatch indices or noise values (but at least one
# hop), so a walk holds little drawn ahead. Of 16, 32, 64, 128 and 256 hops,
# 64 gave a run_point the lowest peak memory.
_BLOCK_HOPS = 64


def _schedule(cfg, label, hops, route, draw, dim, r_dom, G):
    """Each hop's ``(t, sender, holder, eta, minibatch, noise row)``, a block at a time.

    ``route(prev, rng, size)`` lists the next ``size`` holders, drawn from
    the ``<label>.routing`` substream. ``draw(client)`` is ``(high, size,
    sigma)``: a hop there takes ``size`` minibatch indices below ``high``
    from ``<label>.batch`` and, when sigma > 0, a noise row from
    ``<label>.noise``; no hop takes more than ``cfg.s * cfg.batch_size``
    indices. Every value is, bit for bit, the one the same per-hop draws
    from the same substreams give (README, "Per-hop cost").
    """
    routing = substream(cfg.seed, f"{label}.routing")
    batching = substream(cfg.seed, f"{label}.batch")
    noise = substream(cfg.seed, f"{label}.noise")
    prev = int(routing.integers(1, cfg.n_clients + 1))
    block = max(1, min(_BLOCK_HOPS, _BLOCK_VALUES // max(dim, cfg.s * cfg.batch_size)))
    for start in range(1, hops + 1, block):
        ts = range(start, min(start + block, hops + 1))
        holders = route(prev, routing, len(ts))
        highs, sizes, sigmas = zip(*map(draw, holders))
        picks = _minibatches(batching, highs, sizes)
        rows = _noise_rows(noise, np.array(sigmas), dim)
        if cfg.stepsize_rule == "constant":
            etas = [cfg.eta] * len(ts)
        else:
            etas = [stepsize(cfg.stepsize_rule, t, cfg.eta, cfg.grad_bound, r_dom, G) for t in ts]
        yield from zip(ts, [prev] + holders[:-1], holders, etas, picks, rows)
        prev = holders[-1]


_KEPT_DIM = 16  # widest model a walk copies per hop: 8·d B, below a Message + hash


def _walk(cfg, objective, datasets, theta, hops, label, route, draw, step, r_dom, G,
          report=None):
    """The hop loop of every protocol: step, log.

    ``_schedule`` draws each hop's holder, minibatch, noise row and
    stepsize; ``step(client, theta, eta, pick, noise)`` returns the model
    after that holder's update. At ``d <= _KEPT_DIM`` the transcript keeps a
    copy of each hop's model and hashes it when read; wider, at the hop.
    """
    senders, receivers = [], []
    keep = theta.shape[0] <= _KEPT_DIM
    payloads = np.empty((hops, theta.shape[0])) if keep else [None] * hops
    trace = None
    if cfg.trace:
        trace = []
        retained_loss = loss_panel(objective, datasets, exclude_forget=True)
        forget_rows = datasets[cfg.unlearn_client - 1].forget_rows
    hops_drawn = _schedule(cfg, label, hops, route, draw, theta.shape[0], r_dom, G)
    for t, prev, cur, eta_t, pick, noise in hops_drawn:
        theta = step(cur, theta, eta_t, pick, noise)
        senders.append(prev)
        receivers.append(cur)
        payloads[t - 1] = theta if keep else params_hash(theta)
        if trace is not None:
            at_u = cur == cfg.unlearn_client
            trace.append(_trace_row(objective, retained_loss, forget_rows, t, cur, theta, at_u))
    return RunResult(
        final=ModelState(theta),
        transcript=Transcript(senders, receivers, cfg.unlearn_client, payloads),
        report=report,
        trace=tuple(trace) if trace is not None else None,
    )


# RunConfig fields token training never reads. They are reset to their
# defaults in the reuse key; every other field stays in it, so a field added
# later costs a cache miss, never a stale hit.
_UNREAD_BY_TRAINING = {
    name: getattr(RunConfig(), name)
    for name in ("p", "s", "unlearn_hops", "sigma", "eps", "delta", "mode", "trust_radius",
                 "cal_constant", "clip", "group_edit")
}

# (kept results, capacity) of the innermost ``_training_reuse`` block, or None.
_TRAINING_REUSE: ContextVar = ContextVar("walkforget_training_reuse", default=None)


@contextmanager
def _training_reuse(capacity: int):
    """Reuse training results within the block, keeping the latest ``capacity``.

    A result is kept by the dataset objects it read: they are frozen, so the
    same objects are the same rows. Its key holds them by weak reference, so
    it keeps none alive, and one freed matches no dataset made after it.

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
        tuple(map(weakref.ref, datasets)),
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

    def step(client, theta, eta, pick, noise):
        theta = theta - eta * _client_gradient(objective, datasets, client, theta, pick)
        return project(theta, region) if cfg.domain == "ball" else theta

    return _walk(
        cfg, objective, datasets, theta, cfg.train_hops, label,
        _each_hop(lambda prev, rng: route_uniform(prev, graph, rng)),
        _descent_draws(datasets, 1, cfg.batch_size), step,
        r_dom=2.0 * cfg.domain_radius, G=cfg.grad_bound,
    )


def _baseline_record(cfg: RunConfig, sigma: float) -> PrivacyRecord:
    """The baseline's view report plus the group transform for ``group_edit``."""
    view = baseline_view_guarantee(
        cfg.grad_bound, sigma, cfg.train_hops, cfg.n_clients, cfg.delta
    )
    group_eps, group_delta = view.eps, cfg.delta
    if cfg.group_edit > 1 and math.isfinite(view.eps):
        grp = group_privacy(view.eps, cfg.delta, cfg.group_edit, cfg.delta)
        group_eps, group_delta = grp.eps, grp.delta
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
    most ``clip`` before the noise is added; there is no per-example
    clipping.
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
        lambda prev, rng, size: rng.integers(1, cfg.n_clients + 1, size=size).tolist(),
        _descent_draws(datasets, 1, cfg.batch_size, sigma),
        _descent_step(objective, datasets, region, cfg.clip),
        r_dom=2.0 * cfg.domain_radius, G=G, report=_baseline_record(cfg, sigma),
    )


def _unlearning_sigma(cfg: RunConfig) -> float:
    """The unlearning walk's noise scale: ``cfg.sigma``, or calibrated when None.

    A calibration that cannot be verified raises ``CalibrationError``, so a
    caller that trains first calls this before its first walk.
    """
    if cfg.sigma is not None:
        return cfg.sigma
    return calibrate_unlearning_sigma(
        cfg.eps, cfg.delta, cfg.grad_bound, cfg.p, cfg.unlearn_hops, cfg.n_clients,
        cfg.cal_constant,
    ).sigma


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

    The report certifies the views of this walk from the fixed start model
    ``theta0`` only: it bounds what the unlearning client's data changes
    in them. It does not bound the distance between these views and the
    certifier's, whose walk starts from a different trained model; hops
    before the first visit to the target are noiseless.
    """
    validate_config(cfg)
    data_u = datasets[cfg.unlearn_client - 1]
    correction = _correction(objective, data_u, cfg.mode)
    graph = Graph.complete(cfg.n_clients)
    theta = _init_theta(cfg, theta0)
    ref = theta.copy() if theta_ref is None else np.asarray(theta_ref, dtype=np.float64)

    sigma = _unlearning_sigma(cfg)
    view = unlearning_view_guarantee(
        cfg.grad_bound, sigma, cfg.p, cfg.unlearn_hops, cfg.n_clients, cfg.delta
    )

    region = _domain_region(cfg, theta.shape[0])
    trust = region.with_trust(ref, cfg.trust_radius)
    descend = _descent_step(objective, datasets, region)

    def step(client, theta, eta, pick, noise):
        if client != cfg.unlearn_client:
            return descend(client, theta, eta, pick, noise)
        g_u = correction(theta, pick)
        return _projected_step(theta, g_u if noise is None else g_u + noise, eta, trust, True)

    # noiseless descent elsewhere; the correction's draw and noise at the target
    u = cfg.unlearn_client
    descent_draw = _descent_draws(datasets, cfg.s, cfg.batch_size)
    target_draw = (*_correction_draw(data_u, cfg.mode, cfg.batch_size), sigma)

    dim = theta.shape[0]
    G = math.sqrt(effective_variance_bound(cfg.grad_bound, cfg.p, cfg.s, dim, sigma))
    r_dom = 2.0 * min(
        cfg.trust_radius, cfg.domain_radius if cfg.domain == "ball" else math.inf
    )
    return _walk(
        cfg, objective, datasets, theta, cfg.unlearn_hops, label,
        _each_hop(lambda prev, rng: route_restart(u, cfg.p, graph, rng)),
        lambda client: target_draw if client == u else descent_draw(client),
        step, r_dom=r_dom, G=G,
        report=PrivacyRecord(sigma=sigma, view=view),
    )


def run_certifier(cfg: RunConfig, objective, datasets, label: str = "certifier") -> RunResult:
    """Reference process: train on the retained data, then empty-forget unlearning.

    This is the trajectory the unlearned model is compared against; with an
    empty original forget set it coincides with a fresh training run plus a
    no-op deletion pass. Its report, like ``run_unlearning``'s, covers only
    its own unlearning walk from its own start model; no report bounds the
    distance between the unlearned views and these.
    """
    _unlearning_sigma(validate_config(cfg))  # an unverifiable calibration costs no walk
    u = cfg.unlearn_client
    retained = list(datasets)
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
        label=f"{label}.unlearn",
    )


def save_params(params: np.ndarray, path) -> None:
    """Binary vector: 16-byte header (magic, version, dim), float64 LE body."""
    arr = np.ascontiguousarray(params, dtype="<f8")
    header = PARAMS_MAGIC + struct.pack("<I", PARAMS_VERSION) + struct.pack("<Q", arr.shape[0])
    _write_file(path, header + arr.tobytes())


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
    """Serialize a run to a directory: params, transcript, record, trace.

    Each file is written whole or not at all (``core._write_file``).
    """
    _check_outdir(outdir, force)
    save_params(result.final.params, os.path.join(outdir, "params.bin"))
    lines = result.transcript.to_lines()
    _write_file(os.path.join(outdir, "transcript.txt"), "".join(f"{ln}\n" for ln in lines))
    if result.report is not None:
        record = json.dumps(result.report.to_dict(), indent=2, sort_keys=True)
        _write_file(os.path.join(outdir, "accountant.json"), record + "\n")
    if result.trace is not None:
        rows = "".join(
            f"{t},{client},{rloss:.17g},{floss:.17g},{norm:.17g},{int(at_u)}\n"
            for t, client, rloss, floss, norm, at_u in result.trace
        )
        _write_file(os.path.join(outdir, "trace.csv"), TRACE_HEADER + "\n" + rows)
