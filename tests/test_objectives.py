"""Gradients, the mixture decomposition, corrective steps, closed forms."""

import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkforget import (
    ClientDataset,
    CorrectionMode,
    LogisticObjective,
    QuadraticObjective,
    RunConfig,
    closed_form_optimum,
    corrective_gradient,
    dataset_from_lines,
    dataset_to_lines,
    decompose_gradient,
    global_loss,
    grad_local,
    loss_panel,
    make_logistic_task,
    make_quadratic_task,
    make_task,
    substream,
)
from walkforget import objectives
from walkforget.core import _BLOCK_VALUES, _stacked_datasets


def _random_logistic_data(rng, n=20, d=6, m=0):
    feats = rng.normal(size=(n, d))
    feats /= max(np.linalg.norm(feats, axis=1).max(), 1.0)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    forget = tuple(int(i) for i in rng.permutation(n)[:m])
    return ClientDataset(feats, labels, forget)


def _finite_difference_grad(objective, data, theta, subset, h=1e-6):
    grad = np.zeros_like(theta)
    from walkforget.objectives import _subset_arrays

    rows = _subset_arrays(data, subset)
    for i in range(theta.shape[0]):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (objective.batch_loss(up, *rows) - objective.batch_loss(down, *rows)) / (2 * h)
    return grad


class TestGradLocal:
    def test_single_point_quadratic(self):
        obj = QuadraticObjective()
        z = np.array([1.0, -2.0, 0.5])
        data = ClientDataset(z[None, :], np.zeros(1))
        theta = np.array([0.3, 0.3, 0.3])
        np.testing.assert_allclose(grad_local(obj, data, theta), theta - z)

    def test_logistic_matches_finite_differences(self):
        rng = substream(7, "fd")
        obj = LogisticObjective()
        data = _random_logistic_data(rng, n=5)
        theta = rng.normal(size=data.dim)
        analytic = grad_local(obj, data, theta)
        numeric = _finite_difference_grad(obj, data, theta, "full")
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_quadratic_matches_finite_differences(self):
        rng = substream(8, "fd")
        obj = QuadraticObjective()
        data = ClientDataset(rng.normal(size=(7, 4)), np.zeros(7))
        theta = rng.normal(size=4)
        analytic = grad_local(obj, data, theta)
        numeric = _finite_difference_grad(obj, data, theta, "full")
        np.testing.assert_allclose(analytic, numeric, rtol=1e-8, atol=1e-10)

    def test_empty_forget_retained_equals_full(self):
        rng = substream(9, "fd")
        obj = LogisticObjective()
        data = _random_logistic_data(rng, m=0)
        theta = rng.normal(size=data.dim)
        np.testing.assert_array_equal(
            grad_local(obj, data, theta, "retained"), grad_local(obj, data, theta, "full")
        )

    def test_errors(self):
        rng = substream(10, "fd")
        obj = LogisticObjective()
        data = _random_logistic_data(rng, m=0)
        with pytest.raises(ValueError):
            grad_local(obj, data, np.zeros(data.dim), "forget")


class TestDecomposeGradient:
    def test_identity_residual_both_kinds(self):
        rng = substream(11, "mix")
        for kind in ("logistic", "quadratic"):
            for _ in range(20):
                if kind == "logistic":
                    obj = LogisticObjective()
                    data = _random_logistic_data(rng, n=20, m=7)
                else:
                    obj = QuadraticObjective()
                    feats = rng.normal(size=(20, 5))
                    forget = tuple(int(i) for i in rng.permutation(20)[:7])
                    data = ClientDataset(feats, np.zeros(20), forget)
                theta = rng.normal(size=data.dim)
                report = decompose_gradient(obj, data, theta)
                assert np.max(np.abs(report.residual)) <= 1e-10

    def test_identical_examples(self):
        obj = QuadraticObjective()
        feats = np.tile(np.array([1.0, 2.0]), (10, 1))
        data = ClientDataset(feats, np.zeros(10), tuple(range(5)))
        theta = np.array([0.0, 0.0])
        rep = decompose_gradient(obj, data, theta)
        np.testing.assert_allclose(rep.full, rep.retained)
        np.testing.assert_allclose(rep.full, rep.forget)

    def test_mixture_weight_at_boundary(self):
        rng = substream(12, "mix")
        obj = LogisticObjective()
        n = 10
        data = _random_logistic_data(rng, n=n, m=n - 1)
        theta = rng.normal(size=data.dim)
        rep = decompose_gradient(obj, data, theta)
        lhs = rep.full
        rhs = (1 / n) * rep.retained + ((n - 1) / n) * rep.forget
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_degenerate_m_rejected(self):
        rng = substream(13, "mix")
        obj = LogisticObjective()
        with pytest.raises(ValueError):
            decompose_gradient(obj, _random_logistic_data(rng, m=0), np.zeros(6))


class TestCorrectiveGradient:
    def test_exact_with_empty_forget_is_full_descent(self):
        rng = substream(14, "corr")
        obj = LogisticObjective()
        data = _random_logistic_data(rng, m=0)
        theta = rng.normal(size=data.dim)
        g = corrective_gradient(obj, data, theta, CorrectionMode.EXACT)
        np.testing.assert_allclose(g, -grad_local(obj, data, theta, "full"))

    def test_lightweight_full_batch_deterministic(self):
        rng = substream(15, "corr")
        obj = LogisticObjective()
        data = _random_logistic_data(rng, n=30, m=6)
        theta = rng.normal(size=data.dim)
        g = corrective_gradient(obj, data, theta, CorrectionMode.LIGHTWEIGHT)
        expected = (data.m / data.n_u) * grad_local(obj, data, theta, "forget")
        np.testing.assert_allclose(g, expected)

    def test_lightweight_norm_bound(self):
        # per-example gradient norm <= L, so the scaled step obeys (m/n) L
        rng = substream(16, "corr")
        obj = LogisticObjective()
        for _ in range(1000):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(1, n))
            data = _random_logistic_data(rng, n=n, m=m)
            theta = rng.normal(size=data.dim) * rng.random() * 3
            g = corrective_gradient(obj, data, theta, CorrectionMode.LIGHTWEIGHT)
            assert np.linalg.norm(g) <= (m / n) * obj.grad_bound + 1e-12

    def test_lightweight_minibatch_unbiased(self):
        rng = substream(17, "corr")
        obj = LogisticObjective()
        data = _random_logistic_data(rng, n=40, m=10)
        theta = rng.normal(size=data.dim)
        target = (data.m / data.n_u) * grad_local(obj, data, theta, "forget")
        draws = np.stack(
            [
                corrective_gradient(
                    obj, data, theta, CorrectionMode.LIGHTWEIGHT, batch_size=3, rng=rng
                )
                for _ in range(100000)
            ]
        )
        err = draws.mean(axis=0) - target
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(err) <= 3 * se + 1e-12)

    def test_mode_preconditions(self):
        rng = substream(18, "corr")
        obj = LogisticObjective()
        with pytest.raises(ValueError):
            corrective_gradient(
                obj, _random_logistic_data(rng, m=0), np.zeros(6), CorrectionMode.LIGHTWEIGHT
            )


class TestClosedFormOptimum:
    def test_mean_of_client_means(self):
        rng = substream(19, "opt")
        obj = QuadraticObjective()
        datasets = [
            ClientDataset(rng.normal(size=(8, 3)), np.zeros(8)) for _ in range(4)
        ]
        star = closed_form_optimum(obj, datasets)
        manual = np.mean([d.features.mean(axis=0) for d in datasets], axis=0)
        np.testing.assert_allclose(star, manual, atol=1e-12)

    def test_single_client_single_point(self):
        obj = QuadraticObjective()
        z = np.array([2.0, -1.0])
        star = closed_form_optimum(obj, [ClientDataset(z[None, :], np.zeros(1))])
        np.testing.assert_allclose(star, z)

    def test_exclude_forget_matches_brute_force(self):
        rng = substream(20, "opt")
        obj = QuadraticObjective()
        n, d = 12, 2
        feats = rng.normal(size=(n, d))
        forget = tuple(int(i) for i in rng.permutation(n)[:4])
        datasets = [
            ClientDataset(feats, np.zeros(n), forget),
            ClientDataset(rng.normal(size=(9, d)), np.zeros(9)),
        ]
        star = closed_form_optimum(obj, datasets, exclude_forget=True)

        # brute-force oracle: grid refinement around the analytic answer
        from walkforget.objectives import global_loss

        best = star + 0.3 * rng.normal(size=d)
        width = 1.0
        for _ in range(30):
            lin = [np.linspace(best[i] - width, best[i] + width, 9) for i in range(d)]
            grid = np.stack(np.meshgrid(*lin), axis=-1).reshape(-1, d)
            losses = [
                global_loss(obj, datasets, g, exclude_forget=True) for g in grid
            ]
            best = grid[int(np.argmin(losses))]
            width *= 0.5
        np.testing.assert_allclose(star, best, atol=1e-6)

    def test_rejects_logistic(self):
        with pytest.raises(ValueError):
            closed_form_optimum(LogisticObjective(), [])


class TestGenerators:
    def test_logistic_norm_bound_and_flip(self):
        task = make_logistic_task(4, 6, 50, 8, 2, substream(21, "gen"))
        all_feats = np.vstack([d.features for d in task.datasets] + [task.test_features])
        assert np.linalg.norm(all_feats, axis=1).max() <= 1.0 + 1e-12
        data_u = task.dataset(2)
        assert data_u.m == 8
        idx = list(data_u.forget_indices)
        # flipped labels are all +1 and the clean signal says -1
        assert np.all(data_u.labels[idx] == 1.0)

    def test_logistic_grad_norms_within_bound(self):
        task = make_logistic_task(3, 5, 40, 5, 1, substream(22, "gen"))
        obj = task.objective
        rng = substream(23, "gen")
        for _ in range(100):
            theta = rng.normal(size=5) * 3
            for data in task.datasets:
                # ||grad l(theta; x, y)|| = sigmoid(-y <theta, x>) * ||x||
                margins = data.labels * (data.features @ theta)
                norms = np.linalg.norm(data.features, axis=1) / (1.0 + np.exp(margins))
                assert norms.max() <= obj.grad_bound + 1e-12

    def test_quadratic_forget_designation(self):
        task = make_quadratic_task(3, 4, 30, 6, 3, substream(24, "gen"))
        assert task.dataset(3).m == 6
        assert task.dataset(1).m == 0

    def test_dataset_text_round_trip(self):
        task = make_logistic_task(2, 4, 15, 3, 1, substream(25, "gen"))
        data = task.dataset(1)
        again = dataset_from_lines(dataset_to_lines(data))
        np.testing.assert_array_equal(again.features, data.features)
        np.testing.assert_array_equal(again.labels, data.labels)
        assert again.forget_indices == data.forget_indices


# The sha256 of every array make_task returns (each client's features, labels
# and forget indices, then the test set's features and labels, with dtype and
# shape), recorded before make_logistic_task scaled its blocks in place. The
# rng draw order and the bits must not change.
TASK_CASES = {
    "sweep-p": dict(seed=801, objective="logistic", n_clients=10, dim=100,
                    local_size=2000, forget_size=100, test_size=2000),
    "point-boundary": dict(seed=802, objective="logistic", n_clients=10, dim=10,
                           local_size=200, forget_size=20, test_size=500),
    "quadratic": dict(seed=803, objective="quadratic", n_clients=5, dim=8,
                      local_size=40, forget_size=6, unlearn_client=3),
    # many clients a chunk of make_logistic_task's draws, recorded while it
    # still drew one client at a time: the wide-traced shape, the unlearning
    # client between chunks and last, and no forget rows
    "wide-traced": dict(seed=804, objective="logistic", n_clients=2000, dim=20,
                        local_size=20, forget_size=5, unlearn_client=1, test_size=200),
    "unlearn-middle": dict(seed=805, objective="logistic", n_clients=300, dim=6,
                           local_size=13, forget_size=4, unlearn_client=150, test_size=50),
    "unlearn-last": dict(seed=806, objective="logistic", n_clients=300, dim=6,
                         local_size=13, forget_size=4, unlearn_client=300, test_size=50),
    "no-forget": dict(seed=807, objective="logistic", n_clients=300, dim=6,
                      local_size=13, forget_size=0, unlearn_client=150, test_size=50),
}
TASK_DIGESTS = {
    "point-boundary": "d8c899c2586519b7ed209507506474d6d8fac9515076aac21b7579c4d487c022",
    "quadratic": "ca4ab894b156ecfad8d2dd75afb5f32e6a6f3ec13be839c9aab5985b54519cf9",
    "sweep-p": "6a397bc4c62e8b9a55a6cee1303a34b101ce7f95ad464852a7041e90f21d445f",
    "wide-traced": "2c28b03eb29fb99f971f87195e326d6f026e9f64ecc3691f41ae58276bc173c5",
    "unlearn-middle": "fe68a0741d60b147d1f5887b897bab64a63437b786f00d8683a32e84282b279a",
    "unlearn-last": "f38ebcb1896d5f8afde68bfe25ff98631809005d23a6003d64c9c48b3cffb462",
    "no-forget": "3663b83de83245de639e1a8753f0f515075c72c6c908e16a1f893b49302ac8f9",
}


def _task_digest(task):
    arrays = []
    for data in task.datasets:
        arrays += [data.features, data.labels, np.array(data.forget_indices, dtype=np.int64)]
    arrays += [task.test_features, task.test_labels]
    h = hashlib.sha256()
    for arr in arrays:
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(TASK_CASES))
def test_make_task_golden_digests(case):
    task = make_task(RunConfig(**TASK_CASES[case]))
    assert _task_digest(task) == TASK_DIGESTS[case]


def test_make_logistic_task_peak_is_the_task_plus_two_client_blocks():
    # the sweep-p shape: every client's rows are held once, plus one block
    n_clients, dim, local_size, test_size = 10, 100, 2000, 2000
    rng = substream(801, "data")
    tracemalloc.start()
    try:
        task = make_logistic_task(n_clients, dim, local_size, 100, 1, rng, test_size=test_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(d.features.nbytes + d.labels.nbytes for d in task.datasets)
    output += task.test_features.nbytes + task.test_labels.nbytes
    assert peak - output <= 2 * local_size * dim * 8


WIDE = TASK_CASES["wide-traced"]
WIDE_ARGS = (WIDE["n_clients"], WIDE["dim"], WIDE["local_size"], WIDE["forget_size"],
             WIDE["unlearn_client"])


def test_make_logistic_task_holds_one_chunk_in_flight_at_many_small_clients(monkeypatch):
    # the wide-traced shape: 19 clients a chunk. What the generator holds
    # when it hands its stacks over, and the most it held before, differ by
    # the draws in flight, which the chunk budget bounds, not N
    seen = {}

    def stacked(features, labels, forgets):
        seen["held"], seen["peak"] = tracemalloc.get_traced_memory()
        return _stacked_datasets(features, labels, forgets)

    monkeypatch.setattr(objectives, "_stacked_datasets", stacked)
    rng = substream(WIDE["seed"], "data")
    tracemalloc.start()
    try:
        make_logistic_task(*WIDE_ARGS, rng, test_size=WIDE["test_size"])
    finally:
        tracemalloc.stop()
    assert seen["peak"] - seen["held"] <= 2 * _BLOCK_VALUES * 8


class _CountingRng:
    """Forwards to a generator and counts its ``normal`` calls."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_make_logistic_task_draws_a_chunk_of_clients_per_normal_call():
    n_clients, dim, local_size = WIDE_ARGS[:3]
    rng = _CountingRng(substream(WIDE["seed"], "data"))
    task = make_logistic_task(*WIDE_ARGS, rng, test_size=WIDE["test_size"])
    assert _task_digest(task) == TASK_DIGESTS["wide-traced"]
    per_chunk = _BLOCK_VALUES // (local_size * dim + local_size)
    chunks = -(-n_clients // per_chunk) + 1  # the unlearning client ends one early
    # w_true, the test set, and two calls per round of forget-row candidates
    assert per_chunk > 1 and rng.normal_calls <= chunks + 3 + 2 * 10


@st.composite
def task_shapes(draw):
    """(N, d, n, m, u, seed): up to 40 clients of up to 15 rows in 2-8 dimensions."""
    n_clients = draw(st.integers(1, 40))
    local_size = draw(st.integers(1, 15))
    return (n_clients, draw(st.integers(2, 8)), local_size, draw(st.integers(0, local_size)),
            draw(st.integers(1, n_clients)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(task_shapes(), st.integers(2, 300))
def test_make_logistic_task_is_the_same_for_any_chunk_size(shape, budget):
    # budget 1 is one client a chunk (the one-by-one order), 2**40 one chunk
    # for the whole task, and anything between cuts the chunks elsewhere
    *args, seed = shape
    digests = set()
    for values in (1, budget, 2**40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objectives, "_BLOCK_VALUES", values)
            task = make_logistic_task(*args, np.random.default_rng(seed), test_size=7)
        digests.add(_task_digest(task))
    assert len(digests) == 1


@pytest.mark.parametrize("make", [make_logistic_task, make_quadratic_task])
@pytest.mark.parametrize("forget_size, unlearn_client, name", [
    (1, 0, "unlearn_client"), (1, 5, "unlearn_client"), (0, -1, "unlearn_client"),
    (-1, 1, "forget_size"), (7, 2, "forget_size"),
])
def test_generators_refuse_a_forget_set_they_cannot_place(make, forget_size, unlearn_client, name):
    rng = substream(44, "data")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^{name}="):
        make(4, 3, 6, forget_size, unlearn_client, rng)
    assert rng.bit_generator.state == state  # refused before any draw


@pytest.mark.parametrize("case", sorted(TASK_CASES))
def test_make_task_datasets_are_views_of_two_stacks(case):
    cfg = RunConfig(**TASK_CASES[case])
    task = make_task(cfg)
    feats, labels = task.datasets[0].features.base, task.datasets[0].labels.base
    assert feats.shape == (cfg.n_clients, cfg.local_size, cfg.dim)
    assert labels.shape == (cfg.n_clients, cfg.local_size)
    assert not feats.flags.writeable and not labels.flags.writeable
    for i, data in enumerate(task.datasets):
        assert data.features.base is feats and data.labels.base is labels
        np.testing.assert_array_equal(data.features, feats[i])
        assert data._stack_row == i
        assert data.with_forget(())._stack_row == i
    data = task.datasets[-1]
    with pytest.raises(ValueError):
        data.features[0, 0] = 0.0
    with pytest.raises(ValueError):
        data.labels[0] = 0.0


@st.composite
def client_lists(draw):
    """Up to 24 clients of sizes 1-40, d in 1-64, forget sets at some of them.

    More than 8 clients make a pairwise client total differ from the
    sequential one. Half the time the list is one dataset object repeated,
    which the panel evaluates once per position. Returns the datasets and
    three thetas.
    """
    d = draw(st.integers(1, 64))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=24))
    forget_at = draw(st.sets(st.integers(0, len(sizes) - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for i, n in enumerate(sizes):
        m = int(rng.integers(1, n)) if i in forget_at and n > 1 else 0
        feats = rng.normal(size=(n, d)) / np.sqrt(d)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        datasets.append(ClientDataset(feats, labels, tuple(rng.permutation(n)[:m])))
    if draw(st.booleans()):
        datasets = [datasets[0]] * draw(st.integers(1, 24))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    return datasets, [scale * rng.normal(size=d) for _ in range(3)]


OBJECTIVES = st.sampled_from([QuadraticObjective(), LogisticObjective()])
PANEL_EXAMPLES = settings(max_examples=200, deadline=None)


class TestLossPanel:
    @PANEL_EXAMPLES
    @given(client_lists(), OBJECTIVES, st.booleans())
    def test_panel_is_global_loss_bit_for_bit(self, case, objective, exclude_forget):
        datasets, thetas = case
        panel = loss_panel(objective, datasets, exclude_forget)
        for theta in thetas:
            assert panel(theta) == global_loss(objective, datasets, theta, exclude_forget)

    @PANEL_EXAMPLES
    @given(client_lists(), OBJECTIVES)
    def test_batch_loss_is_np_mean_of_example_losses(self, case, objective):
        datasets, thetas = case
        for data in datasets:
            x, y = data.features, data.labels
            for theta in thetas:
                if objective.kind == "quadratic":
                    diff = theta[None, :] - x
                    want = 0.5 * float(np.mean(np.sum(diff * diff, axis=1)))
                else:
                    want = float(np.mean(np.logaddexp(0.0, -(y * (x @ theta)))))
                assert objective.batch_loss(theta, x, y) == want

    def test_panel_rejects_an_all_forget_client(self):
        data = ClientDataset(np.ones((3, 2)), np.ones(3), (0, 1, 2))
        with pytest.raises(ValueError, match="retained set empty"):
            loss_panel(QuadraticObjective(), [data], exclude_forget=True)


def _stacked_lists():
    """Dataset lists over generated tasks, as the walks and the certifier pass them."""
    a = make_logistic_task(9, 6, 13, 4, 3, substream(91, "data"), test_size=5)
    b = make_logistic_task(5, 6, 13, 2, 1, substream(92, "data"), test_size=5)
    c = make_logistic_task(4, 6, 7, 0, 1, substream(93, "data"), test_size=5)
    q = make_quadratic_task(7, 6, 13, 3, 2, substream(94, "data"))
    ds = list(a.datasets)
    order = substream(95, "perm").permutation(len(ds))
    certifier = list(ds)
    certifier[2] = ds[2].without_forget()
    yield "task", a.objective, ds
    yield "permuted", a.objective, [ds[i] for i in order]
    yield "sublist", a.objective, ds[4:7] + ds[1:2]
    yield "certifier", a.objective, certifier
    yield "two tasks", a.objective, ds[:4] + list(b.datasets) + ds[4:] + list(c.datasets)
    yield "repeats", a.objective, [ds[5], ds[0], ds[5], ds[2].with_forget((0, 1))]
    yield "quadratic", q.objective, list(q.datasets)[::-1] + [q.datasets[1].without_forget()]


@pytest.mark.parametrize("exclude_forget", [False, True])
def test_panel_over_stacked_tasks_is_global_loss_bit_for_bit(exclude_forget):
    thetas = [scale * substream(96, "theta").normal(size=6) for scale in (1e-3, 1.0, 30.0)]
    for name, objective, datasets in _stacked_lists():
        panel = loss_panel(objective, datasets, exclude_forget)
        for theta in thetas:
            assert panel(theta) == global_loss(objective, datasets, theta, exclude_forget), name


def test_panel_reads_a_stacked_task_in_place():
    # N=2000 clients of 20 rows in 20 dimensions: 6.7 MB of features and labels
    task = make_logistic_task(2000, 20, 20, 5, 1, substream(97, "data"), test_size=10)
    datasets = list(task.datasets)
    rows = sum(d.features.nbytes + d.labels.nbytes for d in datasets)
    theta = substream(98, "theta").normal(size=20)
    tracemalloc.start()
    try:
        loss_panel(task.objective, datasets, exclude_forget=True)(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows / 10


def test_logistic_task_refuses_an_unreachable_forget_margin_at_once():
    # at d=1000 a clean row lands in the forget window with probability 1.3e-15
    rng = substream(99, "data")
    state = rng.bit_generator.state
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"dim=1000 .*forget_margin"):
        make_logistic_task(5, 1000, 3, 1, 1, rng)
    assert time.perf_counter() - start < 1.0
    assert rng.bit_generator.state == state  # refused before any draw
