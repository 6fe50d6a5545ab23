"""The hop kernels' cheaper forms, bit for bit, and the checks they must keep.

The reference formulas below are the forms the kernels had before their
numpy dispatch was cut: the masked two-branch sigmoid, ``feats @ theta``,
``.mean(axis=0)``, ``np.linalg.norm`` and a ``+=`` loop over the client
losses. The kernels must equal them bit for bit (NaN counts as equal to
NaN, whatever its sign or payload).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from walkforget import (
    ClientDataset,
    FeasibleRegion,
    LogisticObjective,
    QuadraticObjective,
    RunConfig,
    StepSpec,
    grad_local,
    loss_panel,
    make_task,
    noisy_projected_step,
    run_private_baseline,
    run_unlearning,
)
from walkforget import optimizer
from walkforget.core import _norm
from walkforget.objectives import _max_row_norm, _rows_grad, _sigmoid

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -2.5e-308,
           2.2250738585072014e-308, 1e300, -1e300, 709.0, -745.0, 36.7, -36.7]


def _sigmoid_reference(t):
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logistic_grad_reference(theta, feats, labels):
    margins = labels * (feats @ theta)
    w = _sigmoid_reference(-margins)
    return -(feats * (labels * w)[:, None]).mean(axis=0)


def _quadratic_grad_reference(theta, feats, labels):
    return theta - feats.mean(axis=0)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


_float = st.one_of(
    st.floats(-1e300, 1e300, allow_subnormal=True),
    st.sampled_from(SPECIAL),
)


@settings(max_examples=300, deadline=None)
@given(t=hnp.arrays(np.float64, st.integers(1, 2000), elements=_float))
def test_sigmoid_bits(t):
    with np.errstate(all="ignore"):
        _assert_same_bits(_sigmoid(t), _sigmoid_reference(t))


# numpy's exp, minimum and division run SIMD loops over blocks of entries and
# finish the last few one at a time, and take other loops on strided input.

def _sigmoid_layouts(t):
    return {"contiguous": t, "strided": np.repeat(t, 2)[::2], "reversed": t[::-1].copy()[::-1],
            "reversed-strided": np.repeat(t, 3)[::-3]}


@settings(max_examples=100, deadline=None)
@given(t=hnp.arrays(np.float64, st.integers(1, 300), elements=_float))
def test_sigmoid_bits_on_strided_and_reversed_t(t):
    with np.errstate(all="ignore"):
        for layout, view in _sigmoid_layouts(t).items():
            _assert_same_bits(_sigmoid(view), _sigmoid_reference(view))


@pytest.mark.parametrize("n", range(1, 18))
def test_sigmoid_bits_at_every_simd_tail_length(n):
    rng = np.random.default_rng(n)
    values = np.concatenate([rng.standard_normal(4 * n) * 40.0, np.array(SPECIAL)])
    with np.errstate(all="ignore"):
        for start in range(0, values.size - n + 1, n):
            t = values[start:start + n].copy()
            for view in _sigmoid_layouts(t).values():
                _assert_same_bits(_sigmoid(view), _sigmoid_reference(view))


@st.composite
def _batches(draw):
    """Rows, dimension and scale drawn; values from a seeded rng plus special entries."""
    n, d = draw(st.integers(1, 2000)), draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    feats = rng.standard_normal((n, d)) * scale
    theta = rng.standard_normal(d) * 10.0 ** draw(st.integers(-300, 300))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    for arr in (feats.reshape(-1), theta, labels):
        for value in draw(st.lists(st.sampled_from(SPECIAL), max_size=3)):
            arr[rng.integers(arr.size)] = value
    return theta, feats, labels


@settings(max_examples=150, deadline=None)
@given(batch=_batches())
def test_logistic_batch_grad_bits(batch):
    with np.errstate(all="ignore"):
        _assert_same_bits(
            LogisticObjective().batch_grad(*batch), _logistic_grad_reference(*batch)
        )


def _logistic_batch(n, d, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d)) / math.sqrt(d)
    return rng.standard_normal(d), feats, np.where(rng.random(n) < 0.5, 1.0, -1.0)


# LogisticObjective.batch_grad sums the weighted rows with einsum only where
# that keeps the reduce's bits (C-ordered rows, d >= 2), and takes the (n, d)
# product elsewhere. Each layout and edge shape is checked against the
# reference, so a numpy whose einsum sums in another order fails here first.

@pytest.mark.parametrize("layout", ["F", "rows", "cols", "rows-reversed"])
@pytest.mark.parametrize("n,d", [(1, 1), (1, 7), (9, 1), (40, 1), (40, 2), (2000, 100)])
def test_logistic_batch_grad_bits_off_the_c_layout(layout, n, d):
    theta, feats, labels = _logistic_batch(2 * n, 2 * d)
    feats = {
        "F": np.asfortranarray(feats[:n, :d]),
        "rows": feats[::2, :d],
        "cols": feats[:n, ::2],
        "rows-reversed": feats[::-2, :d],
    }[layout]
    theta, labels = theta[:d], labels[:n]
    _assert_same_bits(
        LogisticObjective().batch_grad(theta, feats, labels),
        _logistic_grad_reference(theta, feats, labels),
    )


# (20, 10), (80, 10) and (1900, 100) are the minibatch, s * batch and retained
# rows the benchmark's workloads take their margins of with .dot

@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (1, 300), (2, 2), (17, 1), (4096, 1),
                                 (3, 2), (4097, 2), (2000, 100), (100_000, 20),
                                 (64, 20_000), (1025, 513), (20, 10), (80, 10),
                                 (1900, 100)])
def test_logistic_batch_grad_bits_fixed_shapes(n, d):
    theta, feats, labels = _logistic_batch(n, d, seed=n * 31 + d)
    _assert_same_bits(
        LogisticObjective().batch_grad(theta, feats, labels),
        _logistic_grad_reference(theta, feats, labels),
    )


@pytest.mark.parametrize("d", [1, 2, len(SPECIAL)])
def test_logistic_batch_grad_bits_special_values(d):
    # every special value in every column, against every special margin
    values = np.array(SPECIAL)
    rows = np.stack([np.roll(values, k) for k in range(len(SPECIAL))])
    feats = np.ascontiguousarray(np.tile(rows, (2, 1))[:, :d])
    labels = np.where(np.arange(feats.shape[0]) % 3 == 0, -1.0, 1.0)
    for theta in (np.ones(d), values[:d], -values[::-1][:d], np.full(d, 1e-300)):
        with np.errstate(all="ignore"):
            _assert_same_bits(
                LogisticObjective().batch_grad(theta, feats, labels),
                _logistic_grad_reference(theta, feats, labels),
            )


# The objectives gather minibatch, forget and retained rows with
# ``take(rows, axis=0)``. It must give the C-ordered bytes of fancy indexing,
# so batch_grad keeps its einsum path and its bits.

@settings(max_examples=150, deadline=None)
@given(batch=_batches(), picks=st.lists(st.integers(0, 2**31), min_size=1, max_size=300))
def test_logistic_batch_grad_bits_on_taken_rows(batch, picks):
    theta, feats, labels = batch
    rows = np.array(picks, dtype=np.intp) % feats.shape[0]
    taken = feats.take(rows, axis=0)
    assert taken.flags.c_contiguous
    assert np.array_equal(taken.view(np.uint64), feats[rows].view(np.uint64))
    with np.errstate(all="ignore"):
        _assert_same_bits(
            LogisticObjective().batch_grad(theta, taken, labels.take(rows)),
            _logistic_grad_reference(theta, feats[rows], labels[rows]),
        )


@pytest.mark.parametrize("n,d,size", [(200, 10, 20), (2000, 100, 80), (50, 1, 7), (3, 2, 1)])
def test_rows_grad_on_taken_rows(n, d, size):
    theta, feats, labels = _logistic_batch(n, d, seed=n + d)
    data = ClientDataset(np.asfortranarray(feats), labels, tuple(range(0, n, 3)))
    rows = np.random.default_rng(size).integers(0, n, size=size)
    forget = np.array(data.forget_indices)
    for objective, reference in ((LogisticObjective(), _logistic_grad_reference),
                                 (QuadraticObjective(), _quadratic_grad_reference)):
        _assert_same_bits(
            _rows_grad(objective, data, theta, rows),
            reference(theta, feats[rows], labels[rows]),
        )
        for subset, picked in (("forget", forget), ("retained", data.retained_indices())):
            _assert_same_bits(
                grad_local(objective, data, theta, subset),
                reference(theta, feats[picked], labels[picked]),
            )
    kept = data.without_forget()
    assert kept.features.flags.c_contiguous
    assert np.array_equal(kept.features, feats[data.retained_indices()])


def test_logistic_batch_grad_does_not_form_the_weighted_rows():
    n, d = 2000, 100
    theta, feats, labels = _logistic_batch(n, d)
    objective = LogisticObjective()
    objective.batch_grad(theta, feats, labels)
    tracemalloc.start()
    try:
        objective.batch_grad(theta, feats, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8


@settings(max_examples=150, deadline=None)
@given(batch=_batches())
def test_quadratic_batch_grad_bits(batch):
    with np.errstate(all="ignore"):
        _assert_same_bits(
            QuadraticObjective().batch_grad(*batch), _quadratic_grad_reference(*batch)
        )


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 1000), elements=_float))
def test_norm_bits(x):
    with np.errstate(all="ignore"):
        want = float(np.linalg.norm(x))
        got = _norm(x)
        if math.isinf(want) and np.isfinite(x).all():
            # x @ x overflowed: the norm is taken on x over its largest entry
            top = np.abs(x).max()
            assert got == pytest.approx(top * float(np.linalg.norm(x / top)), rel=1e-15)
        else:
            _assert_same_bits(got, want)


# np.linalg.norm takes a contiguous copy of a view (ravel(order="K")) before
# its ddot; BLAS's strided ddot sums in another order, and matmul's x @ x
# rounds differently on a reversed view, so _norm must copy such views too.

@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 600),
                    elements=st.floats(-1e150, 1e150, allow_subnormal=True)),
       step=st.sampled_from([2, 3, -1, -2]))
def test_norm_bits_on_strided_and_reversed_views(x, step):
    view = x[::step]
    _assert_same_bits(_norm(view), np.linalg.norm(view))


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, st.tuples(st.integers(0, 50), st.integers(1, 30)),
                    elements=st.floats(-1e150, 1e150, allow_subnormal=True)))
def test_max_row_norm_bits(x):
    # make_logistic_task scales its features by this; their sha256 pins need its bits
    _assert_same_bits(_max_row_norm(x), np.linalg.norm(x, axis=1).max(initial=0.0))


# _project_ball took np.linalg.norm, which overflows once entries pass about
# 1e154, and then returned the ball's centre instead of a point on its sphere.

def test_project_ball_huge_iterate_lands_on_the_sphere():
    x = np.array([1e200, -3e199, 2e200])
    with np.errstate(over="ignore"):
        out = optimizer._project_ball(x, np.zeros(3), 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(out, x / np.linalg.norm(x / 1e200) / 1e200, rtol=1e-15)


def test_huge_noise_baseline_ends_on_the_domain_sphere():
    cfg = RunConfig(n_clients=4, dim=3, train_hops=12, unlearn_hops=10, p=0.3,
                    local_size=12, forget_size=2, test_size=10, objective="quadratic",
                    unlearn_client=2, seed=4, sigma=1e200)
    task = make_task(cfg)
    with np.errstate(over="ignore"):
        final = run_private_baseline(cfg, task.objective, list(task.datasets)).final.params
    assert np.isfinite(final).all() and np.any(final != 0.0)
    assert np.linalg.norm(final) == pytest.approx(cfg.domain_radius, rel=1e-12)


# The non-expansiveness assertion in the step kernel: a projection that moves
# a feasible point farther than the raw step must still trip it.

def _expanding(by):
    def project(theta, region):
        x = np.asarray(theta, dtype=np.float64)
        return x + by
    return project


@pytest.mark.skipif(not __debug__, reason="the check is an assert; python -O drops it")
@pytest.mark.parametrize("ascent", [False, True])
def test_non_expansiveness_check_fires(monkeypatch, ascent):
    theta, grad = np.array([0.1, 0.2, 0.0]), np.array([1.0, 0.0, 0.0])
    spec = StepSpec(eta=0.1, region=FeasibleRegion.ball(np.zeros(3), 1.0), ascent=ascent)
    # the raw move is 0.1 long; land 0.1 + 1e-6 away from theta
    monkeypatch.setattr(optimizer, "project", lambda x, region: theta + np.array([0.1 + 1e-6, 0, 0]))
    with pytest.raises(AssertionError):
        noisy_projected_step(theta, grad, spec)
    monkeypatch.setattr(optimizer, "project", lambda x, region: theta + np.array([0.1, 0, 0]))
    noisy_projected_step(theta, grad, spec)


@pytest.mark.skipif(not __debug__, reason="the check is an assert; python -O drops it")
def test_non_expansiveness_check_fires_in_the_walks(monkeypatch):
    cfg = RunConfig(n_clients=4, dim=3, train_hops=5, unlearn_hops=5, p=0.5, sigma=0.3,
                    local_size=12, forget_size=2, test_size=10, objective="quadratic")
    task = make_task(cfg)
    monkeypatch.setattr(optimizer, "project", _expanding(1.0))
    with pytest.raises(AssertionError):
        run_private_baseline(cfg, task.objective, list(task.datasets))
    with pytest.raises(AssertionError):
        run_unlearning(cfg, task.objective, list(task.datasets), np.zeros(cfg.dim))


# loss_panel adds its clients' losses with np.add.accumulate. Each running
# total is the previous one plus the next loss, the same sequential sum as
# global_loss's += loop. A mean loss is never -0.0, the one value whose
# first total (0.0 + -0.0 = 0.0) the two forms would write differently.

class _GivenLosses:
    """An objective whose stacked mean losses are fixed values, in client order."""

    def __init__(self, losses):
        self.losses = np.array(losses)

    def mean_losses(self, theta, feats, labels):
        return self.losses


_loss = st.one_of(
    st.floats(-1e300, 1e300, allow_subnormal=True).map(lambda v: v + 0.0),  # -0.0 -> 0.0
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300, math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(losses=st.lists(_loss, min_size=1, max_size=300))
def test_panel_total_is_the_sequential_loop(losses):
    datasets = [ClientDataset(np.zeros((2, 3)), np.ones(2)) for _ in losses]
    total = 0.0
    for loss in losses:
        total += loss
    with np.errstate(all="ignore"):
        got = loss_panel(_GivenLosses(losses), datasets)(np.zeros(3))
    assert type(got) is float
    _assert_same_bits(got, total / len(losses))


def test_panel_of_no_clients_divides_by_zero():
    with pytest.raises(ZeroDivisionError):
        loss_panel(LogisticObjective(), [])(np.zeros(3))
