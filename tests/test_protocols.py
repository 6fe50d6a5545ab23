"""Protocol runners: convergence, routing laws, reports, determinism, files."""

import json
import math

import numpy as np
import pytest

from walkforget import (
    CorrectionMode,
    RunConfig,
    closed_form_optimum,
    expected_update_direction,
    load_params,
    make_quadratic_task,
    monte_carlo_update_direction,
    retained_global_grad,
    run_certifier,
    run_private_baseline,
    run_token_training,
    run_unlearning,
    save_result,
    substream,
)
from walkforget.protocols import save_params


def quad_cfg(**kw) -> RunConfig:
    base = dict(
        n_clients=4,
        dim=3,
        train_hops=500,
        unlearn_hops=200,
        p=0.25,
        s=1,
        eta=0.1,
        sigma=0.0,
        eps=1.0,
        delta=1e-5,
        grad_bound=4.0,
        gamma=0.1,
        unlearn_client=1,
        mode=CorrectionMode.EXACT,
        seed=123,
        domain="ball",
        domain_radius=10.0,
        trust_radius=5.0,
        objective="quadratic",
        local_size=40,
        forget_size=8,
        batch_size=0,
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def quad_task():
    cfg = quad_cfg()
    return make_quadratic_task(
        cfg.n_clients,
        cfg.dim,
        cfg.local_size,
        cfg.forget_size,
        cfg.unlearn_client,
        substream(99, "data"),
    )


class TestTokenTraining:
    def test_zero_hops_identity(self, quad_task):
        cfg = quad_cfg(train_hops=0)
        theta0 = np.array([0.5, -0.5, 0.2])
        out = run_token_training(cfg, quad_task.objective, list(quad_task.datasets), theta0)
        np.testing.assert_array_equal(out.final.params, theta0)
        assert len(out.transcript) == 0

    def test_converges_to_closed_form_optimum(self):
        cfg = quad_cfg(forget_size=0)
        task = make_quadratic_task(4, 3, 40, 0, 1, substream(77, "data"))
        out = run_token_training(cfg, task.objective, list(task.datasets))
        star = closed_form_optimum(task.objective, task.datasets)
        assert np.linalg.norm(out.final.params - star) <= 1e-3

    def test_transcript_chained(self, quad_task):
        cfg = quad_cfg(train_hops=60)
        out = run_token_training(cfg, quad_task.objective, list(quad_task.datasets))
        msgs = out.transcript.messages
        assert len(msgs) == 60
        assert all(a.receiver == b.sender for a, b in zip(msgs, msgs[1:]))
        # edge walk never self-hops
        assert all(m.sender != m.receiver for m in msgs)

    def test_deterministic_replay(self, quad_task):
        cfg = quad_cfg(train_hops=50)
        a = run_token_training(cfg, quad_task.objective, list(quad_task.datasets))
        b = run_token_training(cfg, quad_task.objective, list(quad_task.datasets))
        np.testing.assert_array_equal(a.final.params, b.final.params)
        assert a.transcript == b.transcript

    def test_trace_length(self, quad_task):
        cfg = quad_cfg(train_hops=25, trace=True)
        out = run_token_training(cfg, quad_task.objective, list(quad_task.datasets))
        assert len(out.trace) == 25

    def test_trace_evaluates_batch_loss_at_most_once_per_hop(self, monkeypatch):
        # the retained loss over all clients comes from the walk's loss panel;
        # only the forget loss at the unlearning client is a batch_loss call
        from walkforget import LogisticObjective, make_logistic_task

        calls = []
        inner = LogisticObjective.batch_loss

        def counted(self, theta, feats, labels):
            calls.append(feats.shape)
            return inner(self, theta, feats, labels)

        monkeypatch.setattr(LogisticObjective, "batch_loss", counted)
        cfg = quad_cfg(n_clients=50, train_hops=20, objective="logistic", grad_bound=1.0,
                       local_size=10, forget_size=3, trace=True)
        task = make_logistic_task(50, 3, 10, 3, 1, substream(98, "data"))
        out = run_token_training(cfg, task.objective, list(task.datasets))
        assert len(out.trace) == 20
        assert 0 < len(calls) <= 20


@pytest.mark.parametrize("trace", [False, True])
def test_one_loss_panel_per_traced_walk_and_none_untraced(quad_task, monkeypatch, trace):
    from walkforget import protocols

    built = []
    inner = protocols.loss_panel

    def counted(*args, **kwargs):
        built.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(protocols, "loss_panel", counted)
    cfg = quad_cfg(train_hops=10, unlearn_hops=10, sigma=0.5, trace=trace)
    objective, datasets = quad_task.objective, list(quad_task.datasets)
    trained = run_token_training(cfg, objective, datasets)
    run_private_baseline(cfg, objective, datasets)
    run_unlearning(cfg, objective, datasets, trained.final)
    assert len(built) == (3 if trace else 0)


class TestPrivateBaseline:
    def test_sigma_in_report(self, quad_task):
        cfg = quad_cfg(train_hops=5, sigma=None, grad_bound=1.0, eps=1.0, delta=1e-5)
        out = run_private_baseline(cfg, quad_task.objective, list(quad_task.datasets))
        assert out.report.sigma == pytest.approx(math.sqrt(8 * math.log(125000.0)), abs=1e-4)
        assert out.report.sigma == pytest.approx(9.6896, abs=1e-4)

    def test_iterates_stay_in_ball(self, quad_task):
        cfg = quad_cfg(train_hops=200, sigma=None, domain_radius=2.5, trace=True, eta=0.5)
        out = run_private_baseline(cfg, quad_task.objective, list(quad_task.datasets))
        norms = [row[4] for row in out.trace]
        assert max(norms) <= 2.5 + 1e-9

    def test_uniform_visitation(self):
        # visit counts over 1e5 hops concentrate at T/N
        cfg = quad_cfg(
            n_clients=5,
            train_hops=10**5,
            sigma=1.0,
            eta=0.01,
            local_size=1,
            forget_size=0,
            dim=2,
        )
        task = make_quadratic_task(5, 2, 1, 0, 1, substream(55, "data"))
        out = run_private_baseline(cfg, task.objective, list(task.datasets))
        T, n = cfg.train_hops, cfg.n_clients
        slack = 3 * math.sqrt(T * (1 / n) * (1 - 1 / n))
        for c in range(1, n + 1):
            count = out.transcript.visit_count(c)
            assert abs(count - T / n) <= slack

    def test_group_edit_scales_sigma(self, quad_task):
        cfg1 = quad_cfg(train_hops=2, sigma=None, group_edit=1)
        cfg2 = quad_cfg(train_hops=2, sigma=None, group_edit=2)
        out1 = run_private_baseline(cfg1, quad_task.objective, list(quad_task.datasets))
        out2 = run_private_baseline(cfg2, quad_task.objective, list(quad_task.datasets))
        assert abs(out2.report.sigma / out1.report.sigma - 2.0) < 1e-9
        assert out2.report.group_eps is not None

    def test_requires_ball_domain(self, quad_task):
        cfg = quad_cfg(domain="full", train_hops=2)
        with pytest.raises(ValueError):
            run_private_baseline(cfg, quad_task.objective, list(quad_task.datasets))


class TestUnlearning:
    def test_zero_hops(self, quad_task):
        cfg = quad_cfg(unlearn_hops=0, sigma=None)
        theta0 = np.array([0.1, 0.2, 0.3])
        out = run_unlearning(cfg, quad_task.objective, list(quad_task.datasets), theta0)
        np.testing.assert_array_equal(out.final.params, theta0)
        assert out.report.view.eps == 0.0
        assert out.report.sigma == 0.0

    def test_monte_carlo_recovers_retraining_direction(self, quad_task):
        # p = 1/N, exact mode, no noise, full batch
        objective, datasets = quad_task.objective, list(quad_task.datasets)
        rng = substream(1234, "mc")
        theta_rng = substream(4321, "theta")
        for _ in range(3):
            theta = theta_rng.normal(size=3)
            mc = monte_carlo_update_direction(
                objective, datasets, 1, theta, 1 / 4, CorrectionMode.EXACT, rng
            )
            target = -retained_global_grad(objective, datasets, theta)
            assert np.linalg.norm(mc - target) / np.linalg.norm(target) < 0.01

    def test_monte_carlo_matches_analytic_mixture_both_modes(self, quad_task):
        objective, datasets = quad_task.objective, list(quad_task.datasets)
        rng = substream(777, "mc")
        theta = 3.0 * substream(778, "theta").normal(size=3)
        # p values keep the mixture away from the p*(m/n) = 1-p cancellation
        # that would make a relative comparison ill-conditioned
        for mode in (CorrectionMode.EXACT, CorrectionMode.LIGHTWEIGHT):
            for p in (0.1, 0.37, 0.6):
                mc = monte_carlo_update_direction(
                    objective, datasets, 1, theta, p, mode, rng, draws=2 * 10**5
                )
                analytic = expected_update_direction(objective, datasets, 1, theta, p, mode)
                assert np.linalg.norm(mc - analytic) / np.linalg.norm(analytic) < 0.01

    def test_trust_region_respected(self, quad_task):
        # p=1 keeps every hop at the unlearning client, so the final iterate
        # must sit inside the trust ball around the reference
        cfg = quad_cfg(unlearn_hops=150, sigma=2.0, trust_radius=0.75, eta=0.4, p=1.0)
        theta0 = np.array([0.5, 0.0, -0.5])
        out = run_unlearning(cfg, quad_task.objective, list(quad_task.datasets), theta0)
        assert np.linalg.norm(out.final.params - theta0) <= 0.75 + 1e-9
        assert np.linalg.norm(out.final.params) <= cfg.domain_radius + 1e-9

    def test_sigma_independent_of_forget_size(self):
        sigmas = []
        for m in (1, 10, 100):
            cfg = quad_cfg(
                unlearn_hops=3, sigma=None, forget_size=m, local_size=150, p=0.1
            )
            task = make_quadratic_task(4, 3, 150, m, 1, substream(m, "data"))
            out = run_unlearning(
                cfg, task.objective, list(task.datasets), np.zeros(3)
            )
            sigmas.append(out.report.sigma)
        assert sigmas[0] == sigmas[1] == sigmas[2]

    def test_lightweight_needs_forget(self, quad_task):
        cfg = quad_cfg(mode=CorrectionMode.LIGHTWEIGHT, unlearn_hops=2)
        task = make_quadratic_task(4, 3, 40, 0, 1, substream(5, "data"))
        with pytest.raises(ValueError):
            run_unlearning(cfg, task.objective, list(task.datasets), np.zeros(3))

    def test_p_zero_is_finetuning_regardless_of_forget(self, quad_task):
        # never visiting the unlearning client makes the forget set inert
        cfg = quad_cfg(p=0.0, unlearn_hops=80, sigma=0.0)
        task_m0 = make_quadratic_task(4, 3, 40, 0, 1, substream(99, "data"))
        out_m = run_unlearning(
            cfg, quad_task.objective, list(quad_task.datasets), np.zeros(3)
        )
        out_0 = run_unlearning(cfg, task_m0.objective, list(task_m0.datasets), np.zeros(3))
        assert not any(m.at_target for m in out_m.transcript)
        assert out_m.report.view.eps == 0.0


class TestDpsgdVariant:
    def test_pooled_clipped_run(self, quad_task):
        from walkforget import run_dpsgd

        cfg = quad_cfg(train_hops=40, sigma=None, clip=5.0, eta=0.05)
        out = run_dpsgd(cfg, quad_task.objective, list(quad_task.datasets))
        assert len(out.transcript) == 40
        assert out.report.sigma == pytest.approx(
            math.sqrt(8 * cfg.grad_bound**2 * math.log(1.25 / cfg.delta)) / cfg.eps
        )
        assert np.linalg.norm(out.final.params) <= cfg.domain_radius + 1e-9


class TestCertifier:
    def test_endpoint_matches_retained_optimum(self, quad_task):
        cfg = quad_cfg(sigma=0.0, train_hops=500, unlearn_hops=300, p=0.25)
        out = run_certifier(cfg, quad_task.objective, list(quad_task.datasets))
        star = closed_form_optimum(quad_task.objective, quad_task.datasets, exclude_forget=True)
        assert np.linalg.norm(out.final.params - star) <= 1e-3

    def test_deterministic(self, quad_task):
        cfg = quad_cfg(train_hops=80, unlearn_hops=40, sigma=1.0)
        a = run_certifier(cfg, quad_task.objective, list(quad_task.datasets))
        b = run_certifier(cfg, quad_task.objective, list(quad_task.datasets))
        np.testing.assert_array_equal(a.final.params, b.final.params)

    def test_empty_deletion_with_no_unlearn_hops_is_fresh_training(self):
        task = make_quadratic_task(4, 3, 40, 0, 1, substream(31, "data"))
        cfg = quad_cfg(forget_size=0, unlearn_hops=0, train_hops=120)
        cert = run_certifier(cfg, task.objective, list(task.datasets))
        fresh = run_token_training(
            cfg, task.objective, list(task.datasets), label="certifier.train"
        )
        np.testing.assert_array_equal(cert.final.params, fresh.final.params)


class TestSerialization:
    def test_round_trip(self, tmp_path, quad_task):
        cfg = quad_cfg(train_hops=30, unlearn_hops=20, sigma=0.5, trace=True)
        trained = run_token_training(cfg, quad_task.objective, list(quad_task.datasets))
        out = run_unlearning(
            cfg, quad_task.objective, list(quad_task.datasets), trained.final
        )
        outdir = tmp_path / "run"
        save_result(out, outdir)
        params = load_params(outdir / "params.bin")
        np.testing.assert_array_equal(params, out.final.params)
        blob = json.loads((outdir / "accountant.json").read_text())
        assert blob["sigma"] == out.report.sigma
        lines = (outdir / "transcript.txt").read_text().splitlines()
        assert len(lines) == 20
        trace_lines = (outdir / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == 21  # header + rows

    def test_header_layout(self, tmp_path):
        path = tmp_path / "p.bin"
        save_params(np.array([1.0, 2.0, 3.0]), path)
        blob = path.read_bytes()
        assert blob[:4] == b"WFRM"
        assert len(blob) == 16 + 3 * 8

    def test_refuses_nonempty_dir(self, tmp_path, quad_task):
        cfg = quad_cfg(train_hops=3)
        out = run_token_training(cfg, quad_task.objective, list(quad_task.datasets))
        outdir = tmp_path / "run"
        save_result(out, outdir)
        with pytest.raises(FileExistsError):
            save_result(out, outdir)
        save_result(out, outdir, force=True)


# Golden outputs. Each case pins the sha256 of every artifact a runner
# produces (final params, transcript lines, privacy report, trace) and of
# the run_point rows. The digests were recorded before the runners shared
# one walk loop and must not be re-recorded to make a change pass: a
# refactor of the loop keeps every output bit-identical.

GOLDEN_BASE = dict(
    n_clients=4, dim=3, train_hops=40, unlearn_hops=30, p=0.3, s=2, eta=0.2,
    unlearn_client=2, domain_radius=10.0, trust_radius=1.0, local_size=24,
    forget_size=4, test_size=30, trace=True,
)

GOLDEN_CASES = {
    "logistic-minibatch-lightweight-auto": dict(
        objective="logistic", batch_size=5, mode=CorrectionMode.LIGHTWEIGHT, sigma=None,
    ),
    "logistic-fullbatch-exact-decreasing-clip-group": dict(
        objective="logistic", batch_size=0, mode=CorrectionMode.EXACT, sigma=0.4,
        stepsize_rule="decreasing", clip=0.5, group_edit=2, seed=5,
    ),
    "quadratic-fullbatch-exact-full-domain": dict(
        objective="quadratic", batch_size=0, mode=CorrectionMode.EXACT, sigma=0.3,
        domain="full", eta=0.1, seed=9,
    ),
    "quadratic-minibatch-lightweight-decreasing": dict(
        objective="quadratic", batch_size=4, s=3, mode=CorrectionMode.LIGHTWEIGHT,
        sigma=None, stepsize_rule="decreasing", trust_radius=0.5, p=0.6, seed=3,
    ),
}

GOLDEN = {
    "logistic-fullbatch-exact-decreasing-clip-group": {
        "train": "f1e327307210c8698c6830c3b118a6fbe60df91324b18f7c67aa953e854ed55b",
        "unlearn": "a4273c2c36ed149624b5b6c4ce4bd2f6a26191a4a5e2251383f86f0761ed541e",
        "certifier": "76e5caaaab45c43bc38619a3c541b007fe0e70a470a5067e451cbd0911dca3fc",
        "run_point": "63cd8e6faf23d2f1329af5429cfda39363666fa38542c3b84103f4cf5e17a868",
        "baseline": "9b0176716c58dae104c778349fcf4a44c48f11f7e2f46dad9845f787632b6228",
        "dpsgd": "de06ced5aa2833180e389b07c623a318f3191639a4b153063ef0ee7a9fe6c745",
    },
    "logistic-minibatch-lightweight-auto": {
        "train": "64e8e167375e37866f754bc103f53c39961e1f835d429714ee19fc6b30f45626",
        "unlearn": "ce2a97b21dcf4c6a3e8025182e49336785291a761742161b91fd1b16515da2c6",
        "certifier": "5a73d76399880c3aa6f9bcd8a5c02fb9f776b6034e4b63c7b43f8106893f8844",
        "run_point": "a9b7c3ac265606fcb09e452dc736e3df4be3a5668538719cde6a1ab11708a5e5",
        "baseline": "e8e7671719b157a8bcd3671dc4d678d9d1e6291be71529e17264177457db1548",
        "dpsgd": "cbf75a850e6f954f59d0942f003a65841bc0fb90ef16ab6fa100a26c93d0f66c",
    },
    "quadratic-fullbatch-exact-full-domain": {
        "train": "7c3f027819cea8647f1aadb573a6f8eaa48b9dfc5681b4fd6ba77bd4ba900f87",
        "unlearn": "649f398284b7c4e54d73e347be14f725d238f7091f25305d5dd88322a9376a75",
        "certifier": "b5d9f19382092f48bfbf53b08b727b59f5ae3ff27c774dc316bb96c3e763e21c",
        "run_point": "32b6266722427f6bb85aa3bb10fa3fb51686f6a21cf4fa4e5ac0fc7d14cf8504",
    },
    "quadratic-minibatch-lightweight-decreasing": {
        "train": "8020ffb85be779f0c95518267fe235fda25bd4f03ff7335bd91c3f19e46a6e17",
        "unlearn": "98316aafc1e9dc8ee8aebec37d0d728194e22baaabb8bd53e7bb9ee960f074d2",
        "certifier": "08cd569ad80019d5bdcae3dab7e7ea595d4569aa493b9ca4a022bae93580c5c4",
        "run_point": "28e14368489028a5f483ef32315a0ee13413f9257b960c9b2aef7485021909fa",
        "baseline": "e271c933d9c5615e1ce678b9f9797601a3abaa728bdb0cd4d7ba04d089295147",
        "dpsgd": "a7792ca6ade1dc79cb691a7e5642c1eb3da065282a81fbc33e610270f2e6d008",
    },
}


def _sha(obj) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _result_digest(result) -> str:
    return _sha({
        "params": np.ascontiguousarray(result.final.params, dtype="<f8").tobytes().hex(),
        "transcript": result.transcript.to_lines(),
        "report": None if result.report is None else result.report.to_dict(),
        "trace": None if result.trace is None else [list(row) for row in result.trace],
    })


def _is_two_ball(x, region) -> bool:
    """Neither single-ball projection lies in the other ball."""

    def onto(c, r):
        d = x - c
        n = np.linalg.norm(d)
        return x if n <= r else c + d * (r / n)

    c1, r1, c2, r2 = region.center, region.radius, region.trust_center, region.trust_radius
    return bool(
        np.linalg.norm(onto(c2, r2) - c1) > r1 and np.linalg.norm(onto(c1, r1) - c2) > r2
    )


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_outputs(case, monkeypatch):
    from walkforget import make_task, optimizer, run_dpsgd, run_point

    two_ball = []
    inner = optimizer.project

    def watched(theta, region):
        if region.kind == "ball" and region.trust_center is not None:
            two_ball.append(_is_two_ball(np.asarray(theta, dtype=np.float64), region))
        return inner(theta, region)

    monkeypatch.setattr(optimizer, "project", watched)
    cfg = RunConfig(**{**GOLDEN_BASE, **GOLDEN_CASES[case]})
    task = make_task(cfg)
    objective, datasets = task.objective, list(task.datasets)
    trained = run_token_training(cfg, objective, datasets)
    got = {
        "train": _result_digest(trained),
        "unlearn": _result_digest(
            run_unlearning(cfg, objective, datasets, trained.final,
                           theta_ref=trained.final.params)
        ),
        "certifier": _result_digest(run_certifier(cfg, objective, datasets)),
        "run_point": _sha(run_point(cfg, task)),
    }
    if cfg.domain == "ball":
        got["baseline"] = _result_digest(run_private_baseline(cfg, objective, datasets))
        got["dpsgd"] = _result_digest(run_dpsgd(cfg, objective, datasets))
    assert two_ball or cfg.domain == "full"
    assert not any(two_ball), "a golden case reached the two-ball branch"
    assert got == GOLDEN[case]


# Training reuse. Inside protocols._training_reuse, a training call whose key
# matches a kept result returns it; the key leaves out exactly the fields in
# protocols._UNREAD_BY_TRAINING.

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from walkforget import protocols  # noqa: E402
from walkforget.core import ConfigError  # noqa: E402

REUSE_CFG = dict(train_hops=30, trace=True, batch_size=5, unlearn_client=2)

# A valid replacement value for each deny-listed field.
UNREAD_VALUES = {
    "p": st.floats(0.0, 1.0),
    "s": st.integers(1, 50),
    "unlearn_hops": st.integers(0, 10**6),
    "sigma": st.one_of(st.none(), st.floats(0.0, 1e6)),
    "eps": st.floats(1e-3, 1e3),
    "delta": st.floats(1e-12, 0.5),
    "mode": st.sampled_from(CorrectionMode),
    "trust_radius": st.floats(0.0, 1e3),
    "amp_constant": st.floats(1e-3, 1e3),
    "cal_constant": st.floats(1e-3, 1e3),
    "clip": st.floats(0.0, 1e3),
    "group_edit": st.integers(1, 100),
}


@st.composite
def _unread_change(draw):
    name = draw(st.sampled_from(sorted(protocols._UNREAD_BY_TRAINING)))
    return name, draw(UNREAD_VALUES[name])


def test_every_unread_field_has_a_strategy():
    assert set(UNREAD_VALUES) == set(protocols._UNREAD_BY_TRAINING)


@settings(max_examples=40, deadline=None)
@given(change=_unread_change())
def test_unread_fields_leave_training_bit_identical(quad_task, change):
    name, value = change
    cfg = quad_cfg(**REUSE_CFG)
    other = cfg.replace(**{name: value})
    objective, datasets = quad_task.objective, list(quad_task.datasets)
    theta = protocols._init_theta(cfg, None)
    assert protocols._training_key(cfg, objective, datasets, theta, "train") == (
        protocols._training_key(other, objective, datasets, theta, "train")
    )
    assert _result_digest(run_token_training(cfg, objective, datasets)) == _result_digest(
        run_token_training(other, objective, datasets)
    )


@pytest.mark.parametrize(
    "change",
    [
        dict(seed=124), dict(eta=0.2), dict(train_hops=31), dict(batch_size=6),
        dict(stepsize_rule="decreasing"), dict(domain_radius=9.0), dict(trace=False),
        dict(unlearn_client=3), dict(forget_size=9), dict(objective="logistic"),
    ],
    ids=lambda c: next(iter(c)),
)
def test_read_fields_change_the_key(quad_task, change):
    cfg = quad_cfg(**REUSE_CFG)
    assert cfg.trace
    objective, datasets = quad_task.objective, list(quad_task.datasets)
    theta = protocols._init_theta(cfg, None)
    key = protocols._training_key(cfg, objective, datasets, theta, "train")
    assert protocols._training_key(
        cfg.replace(**change), objective, datasets, theta, "train"
    ) != key


def test_other_inputs_change_the_key(quad_task):
    from walkforget import LogisticObjective

    cfg = quad_cfg(**REUSE_CFG)
    objective, datasets = quad_task.objective, list(quad_task.datasets)
    theta = protocols._init_theta(cfg, None)
    key = protocols._training_key(cfg, objective, datasets, theta, "train")
    moved = theta.copy()
    moved[0] = 1e-300
    edited = list(datasets)
    edited[0] = edited[0].with_forget((0,))
    assert len({
        key,
        protocols._training_key(cfg, objective, datasets, theta, "certifier.train"),
        protocols._training_key(cfg, objective, datasets, moved, "train"),
        protocols._training_key(cfg, objective, edited, theta, "train"),
        protocols._training_key(cfg, objective, datasets[::-1], theta, "train"),
        protocols._training_key(cfg, LogisticObjective(), datasets, theta, "train"),
    }) == 6


def test_dataset_digest_is_cached_and_content_based(quad_task):
    data = quad_task.datasets[0]
    assert data.digest is data.digest
    twin = type(data)(data.features.copy(), data.labels.copy(), data.forget_indices)
    assert twin is not data and twin.digest == data.digest
    assert data.with_forget(()).digest != data.digest


@pytest.fixture
def walks(monkeypatch):
    """Labels of every protocols._walk call."""
    labels = []
    inner = protocols._walk

    def counted(cfg, objective, datasets, theta, hops, label, *rest, **kw):
        labels.append(label)
        return inner(cfg, objective, datasets, theta, hops, label, *rest, **kw)

    monkeypatch.setattr(protocols, "_walk", counted)
    return labels


def test_no_reuse_outside_a_scope(quad_task, walks):
    cfg = quad_cfg(**REUSE_CFG)
    objective, datasets = quad_task.objective, list(quad_task.datasets)
    first = run_token_training(cfg, objective, datasets)
    second = run_token_training(cfg, objective, datasets)
    assert walks == ["train", "train"]
    assert second is not first
    assert _result_digest(second) == _result_digest(first)


def test_scope_reuses_and_still_validates(quad_task, walks):
    cfg = quad_cfg(**REUSE_CFG)
    objective, datasets = quad_task.objective, list(quad_task.datasets)
    with protocols._training_reuse(2):
        first = run_token_training(cfg, objective, datasets)
        assert run_token_training(cfg.replace(p=0.9, sigma=None), objective, datasets) is first
        with pytest.raises(ConfigError):
            run_token_training(cfg.replace(p=1.5), objective, datasets)
    assert walks == ["train"]
    assert run_token_training(cfg, objective, datasets) is not first
    assert walks == ["train", "train"]


def test_scope_keeps_the_latest_results_only(quad_task, walks):
    a = quad_cfg(**REUSE_CFG)
    b = a.replace(seed=124)
    objective, datasets = quad_task.objective, list(quad_task.datasets)
    with protocols._training_reuse(1):
        for cfg in (a, a, b, a):
            run_token_training(cfg, objective, datasets)
    assert walks == ["train"] * 3
