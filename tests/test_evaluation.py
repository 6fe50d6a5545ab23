"""Metrics, the experiment driver, and the alignment-bias sweep."""

import csv

import numpy as np
import pytest

from walkforget import (
    CorrectionMode,
    ExperimentSpec,
    RunConfig,
    alignment_bias_sweep,
    closed_form_optimum,
    evaluate,
    global_loss,
    make_logistic_task,
    make_quadratic_task,
    rows_to_csv,
    run_unlearning_experiment,
    substream,
)


@pytest.fixture(scope="module")
def logistic_task():
    return make_logistic_task(5, 6, 60, 10, 2, substream(200, "data"), test_size=400)


@pytest.fixture(scope="module")
def quad_task():
    return make_quadratic_task(4, 3, 40, 8, 1, substream(201, "data"))


class TestEvaluate:
    def test_certifier_distance_zero(self, logistic_task):
        theta = substream(202, "t").normal(size=6)
        metrics = evaluate(
            theta,
            logistic_task.objective,
            list(logistic_task.datasets),
            logistic_task.test_features,
            logistic_task.test_labels,
            unlearn_client=2,
            certifier_params=theta,
        )
        assert metrics.param_distance == 0.0
        assert 0.0 <= metrics.clean_accuracy <= 1.0
        assert 0.0 <= metrics.forget_accuracy <= 1.0

    def test_random_model_chance_level(self):
        # balanced two-class test set: random hyperplanes average to 1/2
        accs = []
        for seed in range(10):
            task = make_logistic_task(3, 8, 30, 0, 1, substream(seed, "chance"), test_size=600)
            theta = substream(seed, "rand-model").normal(size=8)
            metrics = evaluate(
                theta,
                task.objective,
                list(task.datasets),
                task.test_features,
                task.test_labels,
                unlearn_client=1,
            )
            accs.append(metrics.clean_accuracy)
        assert abs(np.mean(accs) - 0.5) <= 0.05

    def test_quadratic_excess_risk_oracle(self, quad_task):
        theta = substream(203, "t").normal(size=3)
        metrics = evaluate(
            theta,
            quad_task.objective,
            list(quad_task.datasets),
            quad_task.test_features,
            quad_task.test_labels,
            unlearn_client=1,
        )
        star = closed_form_optimum(quad_task.objective, quad_task.datasets, exclude_forget=True)
        direct = global_loss(
            quad_task.objective, quad_task.datasets, theta, exclude_forget=True
        ) - global_loss(quad_task.objective, quad_task.datasets, star, exclude_forget=True)
        assert metrics.excess_risk == pytest.approx(direct, abs=1e-10)
        assert metrics.excess_risk >= -1e-12
        assert metrics.clean_accuracy is None


def _tiny_cfg(**kw) -> RunConfig:
    base = dict(
        n_clients=4,
        dim=4,
        train_hops=30,
        unlearn_hops=20,
        p=0.25,
        s=2,
        eta=0.3,
        sigma=0.1,
        grad_bound=1.0,
        unlearn_client=2,
        mode=CorrectionMode.LIGHTWEIGHT,
        seed=5,
        domain="ball",
        domain_radius=8.0,
        trust_radius=2.0,
        objective="logistic",
        local_size=30,
        forget_size=5,
        batch_size=8,
        test_size=100,
    )
    base.update(kw)
    return RunConfig(**base)


class TestExperimentDriver:
    def test_phases_and_determinism(self):
        spec = ExperimentSpec(base=_tiny_cfg(), sweep={"p": (0.0, 0.25)}, seeds=(1, 2))
        rows = run_unlearning_experiment(spec)
        assert len(rows) == 2 * 2 * 3
        assert [r["phase"] for r in rows[:3]] == ["pre", "post", "certifier"]
        again = run_unlearning_experiment(spec)
        assert rows == again

    def test_csv_schema(self, tmp_path):
        spec = ExperimentSpec(base=_tiny_cfg(), sweep={"p": (0.25,)}, seeds=(3,))
        rows = run_unlearning_experiment(spec)
        path = tmp_path / "out.csv"
        rows_to_csv(rows, ("p",), path)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header == [
            "p", "seed", "phase", "clean_acc", "forget_acc", "retained_loss",
            "forget_loss", "param_dist", "excess_risk", "epsilon_achieved",
            "sigma_used",
        ]
        assert len(body) == 3

    def test_epsilon_reported_on_post_phase(self):
        spec = ExperimentSpec(base=_tiny_cfg(sigma=None, eps=2.0), seeds=(4,))
        rows = run_unlearning_experiment(spec)
        post = [r for r in rows if r["phase"] == "post"][0]
        assert post["epsilon_achieved"] is not None
        assert post["epsilon_achieved"] <= 2.0
        assert post["sigma_used"] > 0


class TestCertifierProximity:
    def test_unlearning_moves_toward_certifier(self):
        # quadratic, no noise, exact mode, p = 1/N: the unlearned endpoint is
        # at least as close to the certifier as the pre-unlearning model
        from walkforget import run_certifier, run_token_training, run_unlearning

        for seed in range(10):
            cfg = RunConfig(
                n_clients=4, dim=3, train_hops=300, unlearn_hops=300, p=0.25, s=1,
                eta=0.1, sigma=0.0, grad_bound=4.0, unlearn_client=1,
                mode=CorrectionMode.EXACT, seed=seed, domain="ball",
                domain_radius=10.0, trust_radius=5.0, objective="quadratic",
                local_size=40, forget_size=8, batch_size=0,
            )
            task = make_quadratic_task(4, 3, 40, 8, 1, substream(seed, "data"))
            objective, datasets = task.objective, list(task.datasets)
            trained = run_token_training(cfg, objective, datasets)
            cert = run_certifier(cfg, objective, datasets)
            post = run_unlearning(
                cfg, objective, datasets, trained.final, theta_ref=trained.final.params
            )
            d_pre = np.linalg.norm(trained.final.params - cert.final.params)
            d_post = np.linalg.norm(post.final.params - cert.final.params)
            assert d_post <= d_pre


class TestTwoRegimeCrossCheck:
    def test_empirical_regime_matches_prediction(self):
        # the largest forget size whose measured excess risk stays below the
        # tolerance lands in the regime (zero vs positive) the calculator
        # predicts with the constant-2 bias envelope
        from walkforget import (
            CapacityInputs,
            nonbias_term,
            run_token_training,
            run_unlearning,
            unlearning_capacity,
        )

        cfg0 = RunConfig(
            n_clients=10, dim=5, train_hops=200, unlearn_hops=400, p=0.1, s=4,
            eta=0.1, stepsize_rule="decreasing", sigma=None, eps=30.0,
            delta=1e-5, grad_bound=6.0, mu=1.0, unlearn_client=1,
            mode=CorrectionMode.EXACT, domain="ball", domain_radius=4.0,
            trust_radius=0.6, objective="quadratic", local_size=50,
            batch_size=0, cal_constant=4.0,
        )
        inputs = CapacityInputs(
            eps=cfg0.eps, delta=cfg0.delta, n_clients=10, dim=5, horizon=400,
            radius=2 * cfg0.trust_radius, grad_bound=cfg0.grad_bound, s=4, p=0.1,
            local_size=50,
        )
        A = nonbias_term(inputs)
        medians = {}
        for m in (1, 5, 10):
            vals = []
            for seed in range(5):
                cfg = cfg0.replace(seed=seed, forget_size=m)
                task = make_quadratic_task(10, 5, 50, m, 1, substream(seed, "data"))
                objective, datasets = task.objective, list(task.datasets)
                trained = run_token_training(
                    cfg.replace(stepsize_rule="constant"), objective, datasets
                )
                post = run_unlearning(
                    cfg, objective, datasets, trained.final,
                    theta_ref=trained.final.params,
                )
                star = closed_form_optimum(objective, datasets, exclude_forget=True)
                vals.append(
                    global_loss(objective, datasets, post.final.params, exclude_forget=True)
                    - global_loss(objective, datasets, star, exclude_forget=True)
                )
            medians[m] = float(np.median(vals))

        def empirical_capacity(gamma):
            under = [m for m, excess in medians.items() if excess <= gamma]
            return max(under) if under else 0

        for gamma in (0.02, 1.0):
            predicted = unlearning_capacity(gamma, A, 50, cfg0.grad_bound, 2.0)
            measured = empirical_capacity(gamma)
            assert (predicted > 0) == (measured > 0), (
                f"gamma={gamma}: predicted {predicted}, measured {measured}, A={A:.3f}"
            )


class TestAlignmentBiasSweep:
    def test_zero_forget_zero_bias(self, quad_task):
        rows = alignment_bias_sweep(
            quad_task.objective, list(quad_task.datasets), 1, (0,), substream(9, "s")
        )
        m, bias, envelope = rows[0]
        assert m == 0 and envelope == 0.0
        assert bias <= 1e-12

    def test_envelope_holds_for_quadratic(self, quad_task):
        m_values = (1, 5, 10, 20)
        rows = alignment_bias_sweep(
            quad_task.objective, list(quad_task.datasets), 1, m_values, substream(10, "s")
        )
        for m, bias, envelope in rows:
            assert bias <= envelope

    def test_envelope_and_slope_logistic(self, logistic_task):
        n_u = logistic_task.dataset(2).n_u
        m_values = (1, 5, 10, 20, 30)
        rows = alignment_bias_sweep(
            logistic_task.objective, list(logistic_task.datasets), 2, m_values,
            substream(11, "s"),
        )
        for m, bias, envelope in rows:
            assert bias <= envelope
        # bias grows at most linearly in m
        ms = np.array([r[0] for r in rows], dtype=float)
        biases = np.array([r[1] for r in rows])
        slope = np.polyfit(ms, biases, 1)[0]
        assert slope <= 2 * logistic_task.objective.grad_bound / n_u * 1.1

    def test_boundary_m(self, logistic_task):
        n_u = logistic_task.dataset(2).n_u
        rows = alignment_bias_sweep(
            logistic_task.objective, list(logistic_task.datasets), 2, (n_u - 1,),
            substream(12, "s"),
        )
        m, bias, envelope = rows[0]
        assert bias <= envelope < 2 * logistic_task.objective.grad_bound


class TestSweepReuse:
    """The sweep driver makes each task once and runs each distinct training once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import gc
        import weakref

        from walkforget import evaluation, protocols

        seen = {"walks": [], "tasks": [], "most_tasks_alive": 0}
        walk, make_task, run_point = protocols._walk, evaluation.make_task, evaluation.run_point

        def counted_walk(cfg, objective, datasets, theta, hops, label, *rest, **kw):
            seen["walks"].append(label)
            return walk(cfg, objective, datasets, theta, hops, label, *rest, **kw)

        def counted_make_task(cfg, rng=None):
            task = make_task(cfg, rng)
            seen["tasks"].append(weakref.ref(task))
            return task

        def watched_run_point(cfg, task=None):
            gc.collect()
            alive = sum(ref() is not None for ref in seen["tasks"])
            seen["most_tasks_alive"] = max(seen["most_tasks_alive"], alive)
            return run_point(cfg, task)

        monkeypatch.setattr(protocols, "_walk", counted_walk)
        monkeypatch.setattr(evaluation, "make_task", counted_make_task)
        monkeypatch.setattr(evaluation, "run_point", watched_run_point)
        return seen

    def test_p_sweep_trains_twice_and_makes_one_task(self, counts):
        spec = ExperimentSpec(base=_tiny_cfg(), sweep={"p": (0.0, 0.25, 0.5)}, seeds=(1,))
        rows = run_unlearning_experiment(spec)
        assert len(rows) == 3 * 3
        trainings = [w for w in counts["walks"] if w.endswith("train")]
        assert sorted(trainings) == ["certifier.train", "train"]
        assert counts["walks"].count("unlearn") == 3
        assert len(counts["tasks"]) == 1

    def test_data_sweep_holds_one_task_per_seed(self, counts):
        spec = ExperimentSpec(
            base=_tiny_cfg(), sweep={"forget_size": (3, 5), "p": (0.1, 0.5)}, seeds=(2, 7)
        )
        run_unlearning_experiment(spec)
        assert len(counts["tasks"]) == 2 * 2
        assert counts["most_tasks_alive"] == 2
        trainings = [w for w in counts["walks"] if w.endswith("train")]
        assert len(trainings) == 2 * 2 * 2  # forget sizes x seeds x (train, certifier)

    def test_rows_equal_independent_points(self):
        from walkforget import run_point

        spec = ExperimentSpec(
            base=_tiny_cfg(sigma=None), sweep={"forget_size": (3, 5), "p": (0.1, 0.5)},
            seeds=(2, 7),
        )
        expected = [
            {"forget_size": f, "p": p, "seed": seed, **row}
            for f in (3, 5) for p in (0.1, 0.5) for seed in (2, 7)
            for row in run_point(spec.base.replace(seed=seed, forget_size=f, p=p))
        ]
        assert run_unlearning_experiment(spec) == expected
