"""Synthetic convex tasks with exact gradients and forget-set arithmetic.

Two objective kinds:

* quadratic: l(theta; z) = 0.5 * ||theta - z||^2 per example, strongly
  convex with a closed-form minimizer (the user-averaged client means),
  used wherever an exact excess-risk oracle is needed.
* logistic: binary log-loss with labels in {-1, +1}. Features are scaled
  to unit max euclidean norm at construction so the per-example gradient
  norm bound L = 1 holds everywhere, not just after clipping.

Client indices are 1-based to match the rest of the package; dataset lists
are 0-indexed by client-1.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

try:  # einsum's kernel, without np.einsum's dispatcher and wrapper
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .core import (
    _BLOCK_VALUES,
    ClientDataset,
    CorrectionMode,
    _norm,
    _Record,
    _stacked_datasets,
)

__all__ = [
    "QuadraticObjective",
    "LogisticObjective",
    "GradientReport",
    "grad_local",
    "decompose_gradient",
    "corrective_gradient",
    "closed_form_optimum",
    "global_loss",
    "loss_panel",
    "retained_global_grad",
    "SyntheticTask",
    "make_quadratic_task",
    "make_logistic_task",
    "dataset_to_lines",
    "dataset_from_lines",
]


class QuadraticObjective(_Record):
    """0.5 * ||theta - z||^2 per example; labels are carried but unused."""

    grad_bound: float = math.inf  # valid over the feasible region in use
    # unannotated, so class constants and not record fields
    kind = "quadratic"
    smoothness = 1.0

    def mean_losses(self, theta, feats, labels):
        """Mean per-example loss along the ``n`` axis of ``(..., n, d)`` rows.

        One client is ``(n, d)`` (``batch_loss``); ``loss_panel`` passes k
        clients of one size as ``(k, n, d)``. Each client's values are
        reduced along the last axis, the pairwise sum ``np.mean`` uses, so
        a stacked client's loss is bit-identical to its ``batch_loss``
        (``np.add.reduceat`` sums differently and is not used).
        """
        diff = theta - feats
        np.multiply(diff, diff, out=diff)
        rows = np.add.reduce(diff, axis=-1)
        return 0.5 * (np.add.reduce(rows, axis=-1) / rows.shape[-1])

    def batch_loss(self, theta, feats, labels) -> float:
        return float(self.mean_losses(theta, feats, labels))

    def batch_grad(self, theta, feats, labels) -> np.ndarray:
        # np.add.reduce / n is what .mean(axis=0) computes, less its dispatch
        return theta - np.add.reduce(feats, axis=0) / feats.shape[0]


def _sigmoid(t):
    """1 / (1 + exp(-t)), stably: e / (1 + e) with e = exp(t) where t < 0.

    Unmasked passes; each entry is the same quotient of the same two
    doubles as in the masked two-branch form, so the bits do not change.
    ``copysign(t, -1)`` is ``-|t|``, so ``e`` is ``exp(-|t|)``. The
    numerator ``exp(min(t, 0))`` is exp(0), exactly 1, where t >= 0 and
    reads the same double as ``e`` where t < 0; two ``exp`` calls cost less
    than ``np.where``'s dispatch and mask.
    """
    e = np.exp(np.copysign(t, -1.0))
    return np.exp(np.minimum(t, 0.0)) / (1.0 + e)


class LogisticObjective(_Record):
    """log(1 + exp(-y * <theta, x>)) with y in {-1, +1}."""

    # unannotated, so class constants and not record fields; features
    # scaled to unit max norm make L = 1 (module docstring)
    kind = "logistic"
    grad_bound = 1.0
    smoothness = 0.25

    def mean_losses(self, theta, feats, labels):
        """Mean per-example loss along the ``n`` axis of ``(..., n, d)`` rows.

        Bit-identical per client whether it comes alone as ``(n, d)`` or
        stacked as ``(k, n, d)``, as for ``QuadraticObjective.mean_losses``.
        The stacked matmul runs one gemv per client at that client's shape;
        one 2-D gemv over all clients' rows would round differently.
        """
        rows = feats @ theta
        np.multiply(labels, rows, out=rows)
        np.negative(rows, out=rows)
        # log(1 + exp(-margin)) computed stably
        np.logaddexp(0.0, rows, out=rows)
        return np.add.reduce(rows, axis=-1) / rows.shape[-1]

    def batch_loss(self, theta, feats, labels) -> float:
        return float(self.mean_losses(theta, feats, labels))

    def batch_grad(self, theta, feats, labels) -> np.ndarray:
        # C-ordered rows with d >= 2 skip matmul's and einsum's dispatch. On
        # them .dot runs the gemv that @ runs, without the gufunc; on strided
        # or reversed rows the two round differently, so @ stays there.
        c_rows = feats.flags.c_contiguous and feats.shape[1] > 1
        # -y * <theta, x> and the weights are scaled in place, with the bits
        # of the out-of-place products
        neg_margins = feats.dot(theta) if c_rows else feats @ theta
        neg_margins *= labels
        np.negative(neg_margins, out=neg_margins)
        weights = _sigmoid(neg_margins)  # sigmoid in (0,1)
        weights *= labels
        if c_rows:
            # einsum adds the weighted rows one at a time into every column,
            # the order np.add.reduce sums the C-ordered (n, d) product in, so
            # the bits match without forming it. At d = 1 einsum sums unrolled
            # and on other layouts the reduce sums pairwise: take the product.
            total = c_einsum("ij,i->j", feats, weights)
        else:
            total = np.add.reduce(feats * weights[:, None], axis=0)
        # IEEE division is sign-symmetric: x / -n has the bits of -(x / n)
        total /= -feats.shape[0]
        return total

    def predict(self, theta, feats) -> np.ndarray:
        """Class labels in {-1, +1}; ties resolve to +1."""
        return np.where(feats @ theta >= 0.0, 1.0, -1.0)


def _subset_arrays(data: ClientDataset, subset: str):
    """The client's ``(features, labels)`` named by ``subset``: full, retained or forget."""
    if subset == "full":
        return data.features, data.labels
    if subset == "retained":
        return data.retained_rows
    if subset == "forget":
        if data.forget_rows is None:
            raise ValueError("forget set empty")
        return data.forget_rows
    raise ValueError(f"unknown subset {subset!r}")


def _rows_grad(objective, data: ClientDataset, theta: np.ndarray, rows=None) -> np.ndarray:
    """Average gradient over the client's examples ``rows`` (all of them when None)."""
    if rows is None:
        return objective.batch_grad(theta, data.features, data.labels)
    return objective.batch_grad(theta, data.features.take(rows, axis=0), data.labels.take(rows))


def grad_local(objective, data: ClientDataset, theta: np.ndarray, subset: str = "full") -> np.ndarray:
    """Exact average gradient of the client loss over the named subset."""
    feats, labels = _subset_arrays(data, subset)
    return objective.batch_grad(theta, feats, labels)


class GradientReport(_Record):
    """The three local gradients and the mixture-identity residual.

    residual = full - ((n-m)/n) * retained - (m/n) * forget, which is zero
    up to roundoff by the exact renormalization identity.
    """

    full: np.ndarray
    retained: np.ndarray
    forget: np.ndarray
    residual: np.ndarray


def decompose_gradient(objective, data: ClientDataset, theta: np.ndarray) -> GradientReport:
    if not 0 < data.m < data.n_u:
        raise ValueError("decomposition requires 0 < m < n_u")
    full = grad_local(objective, data, theta, "full")
    retained = grad_local(objective, data, theta, "retained")
    forget = grad_local(objective, data, theta, "forget")
    w = data.m / data.n_u
    residual = full - (1.0 - w) * retained - w * forget
    return GradientReport(full=full, retained=retained, forget=forget, residual=residual)


def corrective_gradient(
    objective,
    data: ClientDataset,
    theta: np.ndarray,
    mode: CorrectionMode,
    batch_size: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Update direction applied (as an ascent step) at the unlearning client.

    EXACT returns minus the retained gradient; with an empty forget set this
    degrades to minus the full gradient, making empty deletion a no-op
    certifier step. LIGHTWEIGHT returns (m/n_u) times the average gradient
    over a uniformly sampled forget minibatch, an unbiased estimator of
    (m/n_u) * grad of the forget loss. ``_correction`` refuses the cases
    neither mode covers.
    """
    correction = _correction(objective, data, mode)
    pick = None
    high, size = _correction_draw(data, mode, batch_size)
    if size:
        if rng is None:
            raise ValueError("minibatch sampling needs an rng")
        pick = rng.integers(0, high, size=size)
    return correction(theta, pick)


def _correction_draw(data: ClientDataset, mode: CorrectionMode, batch_size: int | None) -> tuple:
    """``(high, size)``: the correction draws ``size`` forget-set positions below ``high``.

    Only LIGHTWEIGHT with a positive ``batch_size`` draws a minibatch;
    EXACT and the full forget set draw nothing. The unlearning walk's
    schedule draws by this rule too.
    """
    if mode is CorrectionMode.LIGHTWEIGHT and batch_size and batch_size > 0:
        return data.m, batch_size
    return data.m, 0


def _correction(objective, data: ClientDataset, mode: CorrectionMode):
    """``corrective_gradient`` as ``(theta, pick) -> direction``, rows taken once.

    ``pick`` indexes the forget set (a LIGHTWEIGHT minibatch), or is None
    for the whole forget set; EXACT ignores it. A walk builds one per walk.
    Either mode refuses a client with no retained rows (``retained_rows``
    raises); LIGHTWEIGHT also refuses one with no forget rows.
    """
    feats, labels = data.retained_rows
    if mode is CorrectionMode.EXACT:
        return lambda theta, pick: -objective.batch_grad(theta, feats, labels)
    if mode is not CorrectionMode.LIGHTWEIGHT:
        raise ValueError(f"unknown mode {mode!r}")
    if data.forget_rows is None:
        raise ValueError("lightweight correction needs a nonempty forget set")
    forget, weight = ClientDataset(*data.forget_rows), data.m / data.n_u
    return lambda theta, pick: weight * _rows_grad(objective, forget, theta, pick)


def closed_form_optimum(objective, datasets, exclude_forget: bool = False) -> np.ndarray:
    """Exact minimizer of the user-averaged quadratic empirical risk.

    Each client contributes the mean of its (optionally retained-only)
    points with equal weight 1/N regardless of local sizes.
    """
    if getattr(objective, "kind", None) != "quadratic":
        raise ValueError("closed-form optimum only available for the quadratic task")
    means = [
        (data.retained_rows[0] if exclude_forget else data.features).mean(axis=0)
        for data in datasets
    ]
    return np.mean(means, axis=0)


def global_loss(objective, datasets, theta, exclude_forget: bool = False) -> float:
    """User-averaged empirical risk, optionally on the retained data only.

    For many evaluations on the same data, ``loss_panel`` gives the same
    number for less work.
    """
    total = 0.0
    for data in datasets:
        rows = data.retained_rows if exclude_forget else (data.features, data.labels)
        total += objective.batch_loss(theta, *rows)
    return total / len(datasets)


# A panel block of at least this many feature values, and of two clients or
# more, is evaluated as two halves on two threads. 2**16 is above the
# measured crossover with the helper's hand-off (README "Trace cost").
_SPLIT_VALUES = 1 << 16


class _Helper:
    """One daemon thread that evaluates the second half of a split panel block.

    It runs nothing but ``objective.mean_losses``: no function that a
    benchmark wraps or times runs off the caller's thread. ``claim`` is
    held from ``start`` until ``result`` has the half back, so one caller
    uses the helper at a time; a caller interrupted while it waits keeps
    the claim, and later calls evaluate their blocks serially.
    """

    def __init__(self):
        self.claim = threading.Lock()
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._out = None
        threading.Thread(target=self._serve, name="walkforget-panel", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            objective, args = self._job
            try:
                self._out = objective.mean_losses(*args), None
            except BaseException as exc:  # handed to the caller by result()
                self._out = None, exc
            self._done.release()

    def start(self, objective, *args):
        self._job = objective, args
        self._go.release()

    def result(self):
        """The half's losses, once they are done; its exception, raised here."""
        self._done.acquire()
        losses, exc = self._out
        self._job = self._out = None  # holds no rows between calls
        self.claim.release()
        if exc is not None:
            raise exc
        return losses


_HELPER = None  # started on the first split, in a process that may use two CPUs
_HELPER_START = threading.Lock()


def _helper():
    """The process's helper, started now if need be; None when one CPU is usable.

    Where the OS has no ``sched_getaffinity`` (not Linux), no helper starts.
    """
    global _HELPER
    usable = getattr(os, "sched_getaffinity", None)
    if _HELPER is None and usable is not None and len(usable(0)) >= 2:
        with _HELPER_START:
            if _HELPER is None:
                _HELPER = _Helper()
    return _HELPER


def _forget_helper():
    """In a forked child: the parent's helper thread is not there, so start afresh."""
    global _HELPER, _HELPER_START
    _HELPER, _HELPER_START = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_helper)


def _block_losses(objective, theta, feats, labels):
    """``mean_losses`` of a ``loss_panel`` block; a large one in two halves on two threads.

    Each client's loss is computed by the same kernels on the same rows
    either way. With no helper, or one another caller holds, the block is
    evaluated here in one call.
    """
    half = len(feats) // 2
    helper = _helper() if half and feats.size >= _SPLIT_VALUES else None
    if helper is None or not helper.claim.acquire(blocking=False):
        return objective.mean_losses(theta, feats, labels)
    helper.start(objective, theta, feats[half:], labels[half:])
    try:
        first = objective.mean_losses(theta, feats[:half], labels[:half])
    finally:
        second = helper.result()  # waited for even when the first half raised
    return np.concatenate((first, second))


def loss_panel(objective, datasets, exclude_forget: bool = False):
    """``global_loss`` as a function of theta, for many evaluations on fixed data.

    A dataset whose full rows are row ``_stack_row`` of a task's stacks
    (see ``make_task``) is read there in place: each pair of stacks is
    evaluated over the contiguous slice of rows that covers its members, so
    an unlisted row inside it costs compute, not memory. Any other rows a
    client contributes (its retained rows when ``exclude_forget`` and it
    has a forget set, or a dataset built on its own) are copied once,
    grouped by shape into ``(k, n, d)`` and ``(k, n)`` stacks. Each list
    position is a client of its own, so a dataset listed twice is evaluated
    twice. Each call evaluates each stack with ``mean_losses``, puts every
    client's loss in its list slot and adds the losses in list order, one
    at a time, as ``global_loss``'s ``+=`` does. A stack of at least
    ``_SPLIT_VALUES`` feature values and two clients or more is evaluated
    as two contiguous halves of its clients, the second on a helper thread
    while the caller takes the first, in a process allowed two CPUs
    (``_block_losses``); a client's loss is the same either way.

    The result is bit-identical to ``global_loss``. That rules out three
    shortcuts: one 2-D matmul over all stacked rows changes the gemv's
    blocking (the last bits differ when a client's n is not a multiple of
    4), ``log1p(exp(-|t|)) + max(t, 0)`` in numpy's vector ``exp`` and
    ``log1p`` rounds differently from ``np.logaddexp``'s libm calls (about
    5% of values differ), and ``np.add.reduceat`` does not sum a client's
    losses pairwise as ``np.mean`` does. The client total is not taken with
    ``np.sum`` (pairwise), ``math.fsum`` (exact) or builtin ``sum``
    (compensated from Python 3.12), which round differently. ``np.add.accumulate`` is allowed:
    each running total is the previous one plus the next loss, the same
    strictly sequential sum as the ``+=`` loop, in C. Its first total is the
    first loss where the loop computes 0.0 + loss; the two differ only for
    a loss of -0.0, which a mean of log-losses or of halved squares never is.
    With no clients the total is 0.0, and the mean divides by zero as
    ``global_loss`` does.
    """
    in_place = {}  # (id(features stack), id(labels stack)) -> (features, labels, rows, slots)
    copied = {}  # row shape -> [(features, labels, slot)]
    for slot, data in enumerate(datasets):
        if exclude_forget and data.m > 0:
            feats, labels = data.retained_rows
        elif data._stack_row is None:
            feats, labels = data.features, data.labels
        else:
            feats, labels = data.features.base, data.labels.base
            key = (id(feats), id(labels))
            _, _, rows, slots = in_place.setdefault(key, (feats, labels, [], []))
            rows.append(data._stack_row)
            slots.append(slot)
            continue
        copied.setdefault(feats.shape, []).append((feats, labels, slot))
    blocks = []  # (features, labels, slots, rows): slot slots[j] takes loss rows[j]
    for feats, labels, rows, slots in in_place.values():
        rows = np.array(rows, dtype=np.intp)
        lo, hi = rows.min(), rows.max() + 1
        blocks.append((feats[lo:hi], labels[lo:hi], np.array(slots), rows - lo))
    for (n, d), members in copied.items():
        # one concatenate and a view: np.stack adds an axis to every member first
        feats, labels, slots = zip(*members)
        k = len(slots)
        blocks.append((np.concatenate(feats).reshape(k, n, d),
                       np.concatenate(labels).reshape(k, n), np.array(slots), np.arange(k)))
    n_slots = len(datasets)

    def panel(theta) -> float:
        losses = np.empty(n_slots)
        for feats, labels, slots, rows in blocks:
            losses[slots] = _block_losses(objective, theta, feats, labels)[rows]
        total = float(np.add.accumulate(losses)[-1]) if n_slots else 0.0
        return total / n_slots

    return panel


def retained_global_grad(objective, datasets, theta) -> np.ndarray:
    """Gradient of the retraining objective (forget subset removed)."""
    return np.mean([objective.batch_grad(theta, *data.retained_rows) for data in datasets], axis=0)


class SyntheticTask(_Record):
    """A generated task: objective, per-client datasets, held-out test set."""

    objective: object
    datasets: tuple
    test_features: np.ndarray
    test_labels: np.ndarray

    def dataset(self, client: int) -> ClientDataset:
        return self.datasets[client - 1]


# The objective of every task by ``RunConfig.objective``, generated or read
# from a data directory. The quadratic L is declared for the feasible ball
# the protocols use; only ``alignment_bias_sweep`` reads it.
_TASK_OBJECTIVES = {"quadratic": QuadraticObjective(grad_bound=4.0),
                    "logistic": LogisticObjective()}


def _recenter(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    return points - points.mean(axis=0) + target


_POINT_SPREAD = 0.5  # standard deviation of a quadratic task's points, per axis
_CENTER_SPREAD = 5e-4  # standard deviation of its client centers, per axis


def _check_forget_set(n_clients, local_size, forget_size, unlearn_client):
    """Refuse, before any draw, a forget set that a generator cannot place."""
    if not 1 <= unlearn_client <= n_clients:
        raise ValueError(f"unlearn_client={unlearn_client} must lie in [1..n_clients={n_clients}]")
    if not 0 <= forget_size <= local_size:
        raise ValueError(f"forget_size={forget_size} must lie in [0..local_size={local_size}]")


def make_quadratic_task(
    n_clients: int,
    dim: int,
    local_size: int,
    forget_size: int,
    unlearn_client: int,
    rng: np.random.Generator,
) -> SyntheticTask:
    """Quadratic task: client point clouds with exact means at jittered centers.

    Each cloud is recentered so its mean hits the client center exactly; at
    the unlearning client the forget subset is recentered onto center + e1
    (a unit shift along the first axis) and the retained subset back onto
    the center. Deletion therefore moves the exact optimum by a known
    amount, and the token walk's stationary wobble is set by
    ``_CENTER_SPREAD`` alone. Its objective is ``_TASK_OBJECTIVES["quadratic"]``.
    """
    _check_forget_set(n_clients, local_size, forget_size, unlearn_client)
    shift = np.eye(1, dim)[0]
    features = np.empty((n_clients, local_size, dim))
    forgets = []
    for c in range(1, n_clients + 1):
        center = rng.normal(0.0, _CENTER_SPREAD, size=dim)
        pts = _recenter(rng.normal(0.0, _POINT_SPREAD, size=(local_size, dim)), center)
        forget = ()
        if c == unlearn_client and forget_size > 0:
            idx = rng.permutation(local_size)[:forget_size]
            keep = np.setdiff1d(np.arange(local_size), idx)
            pts[idx] = _recenter(pts[idx], center + shift)
            if keep.size:
                pts[keep] = _recenter(pts[keep], center)
            forget = tuple(int(i) for i in idx)
        features[c - 1] = pts
        forgets.append(forget)
    objective = _TASK_OBJECTIVES["quadratic"]
    test = rng.normal(0.0, _POINT_SPREAD, size=(max(1, local_size), dim))
    datasets = _stacked_datasets(features, np.zeros((n_clients, local_size)), forgets)
    return SyntheticTask(objective, datasets, test, np.zeros(test.shape[0]))


# The most candidate rows a logistic task may expect to draw for its forget rows;
# a clean row's margin is N(0, 1/d), so past some d the draw would run for hours.
_MAX_FORGET_CANDIDATES = 10**6

_FORGET_MARGIN = (0.25, 0.55)  # window of a logistic forget row's true margin -x @ w_true


def _max_row_norm(x: np.ndarray) -> float:
    """The largest row norm of ``x`` (0 with no rows), with np.linalg.norm's bits.

    ``np.linalg.norm(x, axis=1)`` is ``sqrt(add.reduce(x * x, axis=1))``;
    sqrt is monotone and correctly rounded, so the sqrt of the largest sum
    is the largest of the sqrts, without a sqrt per row or norm's copy.
    """
    return math.sqrt(np.add.reduce(x * x, axis=1).max(initial=0.0))


def make_logistic_task(
    n_clients: int,
    dim: int,
    local_size: int,
    forget_size: int,
    unlearn_client: int,
    rng: np.random.Generator,
    *,
    test_size: int = 500,
) -> SyntheticTask:
    """Binary logistic task with a label-flip forget subset at one client.

    Clean points are isotropic Gaussian, labeled by a fixed hyperplane
    through the first dim-1 coordinates. Forget points are confident
    negatives (true margin inside ``_FORGET_MARGIN``), shrunk by 0.3 and
    offset along the last coordinate (which carries no label signal) by
    0.92, then stored with the flipped label +1. Features are rescaled
    afterwards so the max norm is one, which makes the declared gradient
    bound L = 1 exact.

    Clients are drawn a chunk of at most ``_BLOCK_VALUES`` values (and at
    least one client) at a time, with the bits of drawing them one by one.
    A forget set it cannot place raises ``ValueError`` before any draw.
    """
    _check_forget_set(n_clients, local_size, forget_size, unlearn_client)
    if dim < 2:
        raise ValueError("logistic task needs dim >= 2")
    if forget_size > 0:
        lo, hi = (m * math.sqrt(dim / 2) for m in _FORGET_MARGIN)
        accept = 0.5 * (math.erfc(lo) - math.erfc(hi))  # P(lo <= -margin <= hi)
        need = forget_size / accept if accept > 0 else math.inf
        if need > _MAX_FORGET_CANDIDATES:
            raise ValueError(
                f"dim={dim} puts forget_margin={_FORGET_MARGIN} out of reach: {forget_size} "
                f"forget rows need about {need:.3g} candidate rows, over {_MAX_FORGET_CANDIDATES}"
            )
    w_true = np.zeros(dim)
    w_true[: dim - 1] = rng.normal(0.0, 1.0, size=dim - 1)
    w_true /= _norm(w_true)

    root = math.sqrt(dim)

    def draw_clean(x):
        """Fill the ``(k, n, d)`` stack ``x`` with clean rows; return their true margins.

        With scalar loc and scale, rng.normal draws one value at a time,
        alone or in an array, so row j of the ``(k, n*d + n)`` draw is block
        j's (n, d) rows and then its n last-column values: the bits of
        drawing the k blocks one by one.
        """
        k, n, _ = x.shape
        draws = rng.normal(0.0, 1.0, size=(k, n * dim + n))
        np.divide(draws[:, : n * dim].reshape(x.shape), root, out=x)
        x[:, :, dim - 1] = draws[:, n * dim :] / root
        del draws  # freed before the margins
        return x @ w_true  # one gemv per block, as a lone block's x @ w_true

    def sample_confident_negative(n):
        lo, hi = _FORGET_MARGIN
        out = np.empty((n, dim))
        x = np.empty((4 * n, dim))
        got = 0
        while got < n:
            margins = draw_clean(x[None])[0]
            keep = (-margins >= lo) & (-margins <= hi)
            take = min(n - got, int(keep.sum()))
            out[got : got + take] = x[keep][:take]
            got += take
        return out

    # Clients are drawn a chunk at a time straight into their rows of one
    # (N, n, d) features stack and one (N, n) labels stack, and the largest
    # row norm is tracked per chunk, so the rows exist once, plus one chunk's
    # draws. The unlearning client ends its chunk: its forget rows are drawn
    # before the next client's rows.
    features = np.empty((n_clients, local_size, dim))
    labels = np.empty((n_clients, local_size))
    forgets = [()] * n_clients
    top = 0.0
    per_chunk = max(1, _BLOCK_VALUES // max(1, local_size * dim + local_size))
    unlearn = unlearn_client if forget_size > 0 else 0
    lo = 0
    while lo < n_clients:
        hi = min(lo + per_chunk, n_clients)
        if lo < unlearn <= hi:
            hi = unlearn
        x = features[lo:hi]
        labels[lo:hi] = np.where(draw_clean(x) >= 0.0, 1.0, -1.0)
        if hi == unlearn:
            xb = sample_confident_negative(forget_size)
            xb = 0.3 * xb
            xb[:, dim - 1] += 0.92
            idx = rng.permutation(local_size)[:forget_size]
            features[hi - 1, idx] = xb
            labels[hi - 1, idx] = 1.0  # flipped: true label is -1 by construction
            forgets[hi - 1] = tuple(int(i) for i in idx)
        top = max(top, _max_row_norm(x.reshape(-1, dim)))
        lo = hi
    test_x = np.empty((test_size, dim))
    test_y = np.where(draw_clean(test_x[None])[0] >= 0.0, 1.0, -1.0)
    scale = max(top, _max_row_norm(test_x), 1e-12)
    # one in-place pass over the stack has the bits of x / scale per block
    features /= scale
    test_x /= scale
    objective = _TASK_OBJECTIVES["logistic"]
    return SyntheticTask(objective, _stacked_datasets(features, labels, forgets), test_x, test_y)


def dataset_to_lines(data: ClientDataset) -> list:
    """Columnar text: features..., label, forget-flag, one example per line."""
    lines = []
    forget = set(data.forget_indices)
    for i in range(data.n_u):
        cols = [f"{v:.17g}" for v in data.features[i]]
        cols.append(f"{data.labels[i]:.17g}")
        cols.append("1" if i in forget else "0")
        lines.append(" ".join(cols))
    return lines


def dataset_from_lines(lines) -> ClientDataset:
    """The inverse of ``dataset_to_lines``; a forget flag other than 0 or 1 is a ValueError."""
    feats, labels, forget = [], [], []
    for i, line in enumerate(l for l in (ln.strip() for ln in lines) if l):
        cols = line.split()
        feats.append([float(v) for v in cols[:-2]])
        labels.append(float(cols[-2]))
        if cols[-1] not in ("0", "1"):
            raise ValueError(f"example {i + 1} has forget flag {cols[-1]!r}, not 0 or 1")
        if cols[-1] == "1":
            forget.append(i)
    return ClientDataset(np.array(feats), np.array(labels), tuple(forget))
