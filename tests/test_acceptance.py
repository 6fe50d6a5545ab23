"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and never loosened at runtime; every
expected value is either a closed form evaluated independently in this file
or a property of the stated construction.
"""

import math
import os
import time

import numpy as np
import pytest

from walkforget import (
    ClientDataset,
    CorrectionMode,
    Graph,
    RunConfig,
    alignment_bias_sweep,
    baseline_capacity,
    baseline_group_sigma,
    calibrate_baseline_sigma,
    closed_form_optimum,
    decompose_gradient,
    evaluate,
    global_loss,
    group_privacy,
    make_logistic_task,
    make_quadratic_task,
    monte_carlo_update_direction,
    nonbias_term,
    rdp_to_dp,
    retained_global_grad,
    route_restart_many,
    run_certifier,
    run_private_baseline,
    run_token_training,
    run_unlearning,
    substream,
    unlearning_capacity,
)
from walkforget.accountant import RdpCurve
from walkforget.capacity import CapacityInputs
from walkforget.cli import main as cli_main
from walkforget.objectives import LogisticObjective, QuadraticObjective


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")


def _stopwatch():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


# ---------------------------------------------------------------- tasks ---

LOGISTIC = dict(n_clients=10, dim=10, local_size=200, forget_size=20, unlearn_client=1)


def _logistic_task(seed):
    return make_logistic_task(
        LOGISTIC["n_clients"], LOGISTIC["dim"], LOGISTIC["local_size"],
        LOGISTIC["forget_size"], LOGISTIC["unlearn_client"],
        substream(seed, "data"), test_size=500,
    )


def _logistic_cfg(seed, **kw):
    base = dict(
        n_clients=10, dim=10, train_hops=200, unlearn_hops=200, p=0.1, s=4,
        eta=0.5, sigma=None, eps=1.0, delta=1e-5, grad_bound=1.0,
        unlearn_client=1, mode=CorrectionMode.LIGHTWEIGHT, seed=seed,
        domain="ball", domain_radius=10.0, trust_radius=0.4,
        objective="logistic", local_size=200, forget_size=20, batch_size=20,
        test_size=500,
    )
    base.update(kw)
    return RunConfig(**base)


def test_criterion_01_gradient_alignment_identity():
    elapsed = _stopwatch()
    rng = substream(101, "criterion-1")
    worst = 0.0
    for trial in range(100):
        kind = "logistic" if trial % 2 == 0 else "quadratic"
        n = int(rng.integers(10, 40))
        m = int(rng.integers(1, n))
        d = int(rng.integers(2, 12))
        feats = rng.normal(size=(n, d))
        if kind == "logistic":
            feats /= max(np.linalg.norm(feats, axis=1).max(), 1.0)
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            objective = LogisticObjective()
        else:
            labels = np.zeros(n)
            objective = QuadraticObjective()
        forget = tuple(int(i) for i in rng.permutation(n)[:m])
        data = ClientDataset(feats, labels, forget)
        theta = rng.normal(size=d)
        report = decompose_gradient(objective, data, theta)
        worst = max(worst, float(np.max(np.abs(report.residual))))
    ok = worst <= 1e-10
    t = elapsed()
    _report(1, "gradient-alignment identity", ok, t, 1)
    assert ok, f"max identity residual {worst:.3e} > 1e-10"
    assert t < 1.0


def test_criterion_02_retraining_direction_recovery():
    elapsed = _stopwatch()
    task = _logistic_task(0)
    objective, datasets = task.objective, list(task.datasets)
    rng = substream(102, "criterion-2")
    theta_rng = substream(103, "criterion-2-theta")
    worst = 0.0
    for _ in range(5):
        theta = 2.0 * theta_rng.normal(size=10) / math.sqrt(10)
        mc = monte_carlo_update_direction(
            objective, datasets, 1, theta, 1.0 / 10, CorrectionMode.EXACT, rng,
            draws=10**5,
        )
        target = -retained_global_grad(objective, datasets, theta)
        worst = max(worst, float(np.linalg.norm(mc - target) / np.linalg.norm(target)))
    ok = worst <= 0.01
    t = elapsed()
    _report(2, "retraining-direction recovery", ok, t, 10)
    assert ok, f"max relative deviation {worst:.4f} > 1%"
    assert t < 10.0


def test_criterion_03_lightweight_bias_envelope():
    elapsed = _stopwatch()
    task = _logistic_task(1)
    rows = alignment_bias_sweep(
        task.objective, list(task.datasets), 1, (1, 5, 20, 50, 100),
        substream(104, "criterion-3"), n_points=10,
    )
    ok = all(bias <= envelope for _, bias, envelope in rows)
    t = elapsed()
    _report(3, "lightweight bias envelope", ok, t, 30)
    for m, bias, envelope in rows:
        assert bias <= envelope, f"m={m}: bias {bias:.5f} > envelope {envelope:.5f}"
    assert t < 30.0


def test_criterion_04_calibration_bit_exactness():
    elapsed = _stopwatch()
    sigma = calibrate_baseline_sigma(1.0, 1e-5, 1.0)
    sigma_ok = abs(sigma - math.sqrt(8.0 * math.log(125000.0))) <= 1e-9
    conv, _ = rdp_to_dp(RdpCurve({2.0: 0.5}), 1e-5)
    conv_ok = abs(conv.eps - 12.0129) <= 1e-4
    grp = group_privacy(0.1, 1e-6, 4, 1e-5)
    grp_ok = abs(grp.eps - 0.9597) <= 1e-4
    ok = sigma_ok and conv_ok and grp_ok
    t = elapsed()
    _report(4, "calibration bit-exactness", ok, t, 1)
    assert sigma_ok, f"sigma {sigma!r}"
    assert conv_ok, f"conversion {conv.eps!r}"
    assert grp_ok, f"group privacy {grp.eps!r}"
    assert t < 1.0


def test_criterion_05_noise_scale_m_dependence():
    elapsed = _stopwatch()
    sigmas = []
    for m in (1, 10, 100):
        cfg = _logistic_cfg(0, forget_size=m, unlearn_hops=2, train_hops=0)
        task = make_logistic_task(10, 10, 200, m, 1, substream(m, "criterion-5"))
        out = run_unlearning(cfg, task.objective, list(task.datasets), np.zeros(10))
        sigmas.append(out.report.sigma)
    independent = sigmas[0] == sigmas[1] == sigmas[2]
    ratio = baseline_group_sigma(1.0, 1e-5, 1.0, 2) / baseline_group_sigma(1.0, 1e-5, 1.0, 1)
    linear = abs(ratio - 2.0) <= 1e-9
    ok = independent and linear
    t = elapsed()
    _report(5, "noise scale: m-free walk vs m-linear baseline", ok, t, 1)
    assert independent, f"sigmas vary with m: {sigmas}"
    assert linear, f"baseline ratio {ratio!r}"
    assert t < 1.0


def test_criterion_06_geometric_mixing():
    elapsed = _stopwatch()
    p, n = 0.1, 10
    q = (1 - p) / (n - 1)
    graph = Graph.complete(n)
    rng = substream(106, "criterion-6")
    observer = 7
    # successive hits of an i.i.d. routing stream are a renewal process, so
    # inter-hit gaps are exactly the first-observation delays
    delays = []
    while len(delays) < 10**5:
        draws = route_restart_many(1, p, graph, rng, 2 * 10**6)
        hits = np.flatnonzero(draws == observer)
        gaps = np.diff(hits)
        delays.extend([hits[0] + 1])
        delays.extend(gaps.tolist())
    delays = np.array(delays[: 10**5], dtype=np.float64)
    mean = float(delays.mean())
    ok = abs(mean - 1.0 / q) / (1.0 / q) <= 0.02
    t = elapsed()
    _report(6, "geometric mixing of first observation", ok, t, 5)
    assert ok, f"mean delay {mean:.3f} vs 1/q = {1 / q:.1f}"
    assert t < 5.0


QUAD_SCAN = dict(
    n_clients=10, dim=5, train_hops=200, p=0.1, s=4, eta=0.1,
    stepsize_rule="decreasing", eps=30.0, delta=1e-5, grad_bound=6.0,
    unlearn_client=1, mode=CorrectionMode.EXACT, domain="ball",
    domain_radius=4.0, trust_radius=0.6, objective="quadratic",
    local_size=50, forget_size=10, batch_size=0, cal_constant=4.0,
)


def test_criterion_07_convex_convergence():
    elapsed = _stopwatch()
    # (a) noiseless token training reaches the closed-form optimum
    cfg_a = RunConfig(
        n_clients=4, dim=3, train_hops=500, eta=0.1, sigma=0.0, grad_bound=4.0,
        unlearn_client=1, seed=7, domain="ball", domain_radius=10.0,
        trust_radius=5.0, objective="quadratic", local_size=40, forget_size=0,
        batch_size=0,
    )
    task_a = make_quadratic_task(4, 3, 40, 0, 1, substream(107, "criterion-7a"))
    out = run_token_training(cfg_a, task_a.objective, list(task_a.datasets))
    star_a = closed_form_optimum(task_a.objective, task_a.datasets)
    dist = float(np.linalg.norm(out.final.params - star_a))
    conv_ok = dist <= 1e-3

    # (b) excess risk decreases monotonically over a T_u doubling scan with
    # the decreasing schedule and per-horizon calibrated noise
    medians = []
    for tu in (100, 400, 1600):
        vals = []
        for seed in range(5):
            cfg = RunConfig(seed=seed, unlearn_hops=tu, **QUAD_SCAN)
            task = make_quadratic_task(10, 5, 50, 10, 1, substream(seed, "data"))
            objective, datasets = task.objective, list(task.datasets)
            trained = run_token_training(
                cfg.replace(stepsize_rule="constant"), objective, datasets
            )
            post = run_unlearning(
                cfg, objective, datasets, trained.final, theta_ref=trained.final.params
            )
            star = closed_form_optimum(objective, datasets, exclude_forget=True)
            vals.append(
                global_loss(objective, datasets, post.final.params, exclude_forget=True)
                - global_loss(objective, datasets, star, exclude_forget=True)
            )
        medians.append(float(np.median(vals)))
    scan_ok = medians[0] > medians[1] > medians[2]
    ok = conv_ok and scan_ok
    t = elapsed()
    _report(7, "convex convergence and monotone horizon scan", ok, t, 120)
    assert conv_ok, f"training endpoint {dist:.2e} from optimum"
    assert scan_ok, f"excess-risk medians not decreasing: {medians}"
    assert t < 120.0


def _median(vals):
    return float(np.median(vals))


def test_criterion_08_desk_scale_unlearning_efficacy():
    elapsed = _stopwatch()
    post_clean, cert_clean, post_forget, cert_forget, ddp_clean = [], [], [], [], []
    for seed in range(5):
        cfg = _logistic_cfg(seed)
        task = _logistic_task(seed)
        objective, datasets = task.objective, list(task.datasets)
        trained = run_token_training(cfg, objective, datasets)
        cert = run_certifier(cfg, objective, datasets)
        post = run_unlearning(
            cfg, objective, datasets, trained.final, theta_ref=trained.final.params
        )
        ddp = run_private_baseline(cfg, objective, datasets, trained.final)
        kw = dict(
            datasets=datasets,
            test_features=task.test_features,
            test_labels=task.test_labels,
            unlearn_client=1,
        )
        pm = evaluate(post.final.params, objective, **kw)
        cm = evaluate(cert.final.params, objective, **kw)
        dm = evaluate(ddp.final.params, objective, **kw)
        post_clean.append(pm.clean_accuracy)
        cert_clean.append(cm.clean_accuracy)
        post_forget.append(pm.forget_accuracy)
        cert_forget.append(cm.forget_accuracy)
        ddp_clean.append(dm.clean_accuracy)
        assert post.report.view.eps <= cfg.eps  # certified at the target
    forget_gap = abs(_median(post_forget) - _median(cert_forget))
    clean_gap = abs(_median(post_clean) - _median(cert_clean))
    ddp_ordering = _median(ddp_clean) <= _median(post_clean)
    ok = forget_gap <= 0.05 and clean_gap <= 0.03 and ddp_ordering
    t = elapsed()
    _report(8, "desk-scale unlearning efficacy", ok, t, 300)
    assert forget_gap <= 0.05, f"forget-accuracy gap {forget_gap:.3f}"
    assert clean_gap <= 0.03, f"clean-accuracy gap {clean_gap:.3f}"
    assert ddp_ordering, f"ddp {_median(ddp_clean):.3f} > walk {_median(post_clean):.3f}"
    assert t < 300.0


def test_criterion_09_p_sweep_qualitative():
    elapsed = _stopwatch()
    # p=0 is the fine-tuning path: the forget set is inert, so runs with and
    # without it coincide bit-for-bit
    cfg0 = _logistic_cfg(3, p=0.0, sigma=0.0, domain="full", trust_radius=1e6)
    task = _logistic_task(3)
    with_forget = run_unlearning(cfg0, task.objective, list(task.datasets), np.zeros(10))
    cfg0_m0 = cfg0.replace(forget_size=0, mode=CorrectionMode.EXACT)
    cleared = [d.with_forget(()) if i == 0 else d for i, d in enumerate(task.datasets)]
    without = run_unlearning(cfg0_m0, task.objective, cleared, np.zeros(10))
    identity_ok = np.array_equal(with_forget.final.params, without.final.params)
    identity_ok = identity_ok and not any(m.at_target for m in with_forget.transcript)

    # p=1 is continuous unlearning: forgetting is total and utility collapses
    cleans, forgets = [], []
    for seed in range(5):
        cfg = _logistic_cfg(
            seed, p=1.0, sigma=0.0, domain="full", trust_radius=1e6,
            unlearn_hops=600, eta=0.5,
        )
        task = _logistic_task(seed)
        objective, datasets = task.objective, list(task.datasets)
        trained = run_token_training(cfg, objective, datasets)
        post = run_unlearning(
            cfg.replace(eta=3.0), objective, datasets, trained.final,
            theta_ref=trained.final.params,
        )
        metrics = evaluate(
            post.final.params, objective, datasets=datasets,
            test_features=task.test_features, test_labels=task.test_labels,
            unlearn_client=1,
        )
        cleans.append(metrics.clean_accuracy)
        forgets.append(metrics.forget_accuracy)
    collapse_ok = _median(forgets) < 0.05 and _median(cleans) < 0.6
    ok = identity_ok and collapse_ok
    t = elapsed()
    _report(9, "p-sweep qualitative reproduction", ok, t, 300)
    assert identity_ok, "p=0 run does not match the fine-tuning path"
    assert collapse_ok, (
        f"p=1 medians: forget {_median(forgets):.3f}, clean {_median(cleans):.3f}"
    )
    assert t < 300.0


def test_criterion_10_capacity_calculator_properties():
    elapsed = _stopwatch()
    base = CapacityInputs(
        eps=1.0, delta=1e-5, n_clients=10, dim=10, horizon=100, radius=10.0,
        grad_bound=1.0, s=1, p=0.1, local_size=200, gamma=0.1,
    )

    def cap(**kw):
        return baseline_capacity(base.replace(**kw))

    eps_up = all(
        cap(eps=a) < cap(eps=b) for a, b in zip((0.5, 1, 2), (1, 2, 4))
    )
    d_down = all(cap(dim=a) > cap(dim=b) for a, b in zip((5, 10, 50), (10, 50, 200)))
    n_up = all(cap(n_clients=a) < cap(n_clients=b) for a, b in zip((3, 5, 10), (5, 10, 30)))
    sqrt_s = abs(cap(s=4) / cap(s=1) - 2.0) <= 1e-12

    boundary = unlearning_capacity(0.5, 0.5, 200, 1.0) == 0
    A = nonbias_term(base.replace(radius=1.0, s=4, p=0.1))
    gamma = A + 0.3
    linear = (
        unlearning_capacity(gamma, A, 400, 1.0) == 2 * unlearning_capacity(gamma, A, 200, 1.0)
    )
    ok = eps_up and d_down and n_up and sqrt_s and boundary and linear
    t = elapsed()
    _report(10, "capacity calculator properties", ok, t, 1)
    assert eps_up and d_down and n_up, "monotonicity scan failed"
    assert sqrt_s, "sqrt(s) ratio not exact"
    assert boundary, "gamma = A must give zero capacity"
    assert linear, "capacity not linear in local size"
    assert t < 1.0


def test_criterion_11_determinism(tmp_path):
    elapsed = _stopwatch()
    from walkforget import config_to_text

    cfg = RunConfig(
        n_clients=4, dim=4, train_hops=20, unlearn_hops=12, p=0.25, s=2,
        eta=0.3, sigma=0.2, grad_bound=1.0, unlearn_client=2,
        mode=CorrectionMode.LIGHTWEIGHT, seed=0, domain="ball",
        domain_radius=8.0, trust_radius=2.0, objective="logistic",
        local_size=25, forget_size=4, batch_size=6, test_size=50, trace=True,
    )
    path = tmp_path / "run.cfg"
    path.write_text(config_to_text(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["unlearn", "--config", str(path), "--seed", "7", "--out", str(out_a)])
    code_b = cli_main(["unlearn", "--config", str(path), "--seed", "7", "--out", str(out_b)])

    def dir_bytes(p):
        return {
            name: open(os.path.join(p, name), "rb").read()
            for name in sorted(os.listdir(p))
        }

    ok = code_a == 0 and code_b == 0 and dir_bytes(out_a) == dir_bytes(out_b)
    t = elapsed()
    _report(11, "byte-identical determinism", ok, t, 60)
    assert code_a == 0 and code_b == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)
