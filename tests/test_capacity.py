"""Capacity calculators and utility bounds: exact ratios and monotonicity."""

import math

import pytest

from walkforget import (
    CapacityInputs,
    baseline_capacity,
    nonbias_term,
    unlearning_capacity,
    utility_bound,
)

BASE = CapacityInputs(
    eps=1.0, delta=1e-5, n_clients=10, dim=10, horizon=100, radius=10.0,
    grad_bound=1.0, mu=0.5, s=1, p=0.1, local_size=200, gamma=0.1,
)


def _indep_baseline(eps, R, L, T, N, d, delta, s=1):
    return (eps / (R * L * (2 + math.log(T)))) * math.sqrt(
        s * N / (d * math.log(1 / delta) * math.log(N))
    )


class TestBaselineCapacity:
    def test_worked_example_against_oracle(self):
        val = baseline_capacity(BASE)
        assert val == pytest.approx(
            _indep_baseline(1.0, 10.0, 1.0, 100, 10, 10, 1e-5), abs=1e-15
        )

    def test_linear_in_eps(self):
        assert baseline_capacity(BASE.__class__(**{**BASE.__dict__, "eps": 2.0})) == (
            pytest.approx(2 * baseline_capacity(BASE))
        )

    def test_sqrt_s_ratio_exact(self):
        import dataclasses

        s4 = dataclasses.replace(BASE, s=4)
        assert baseline_capacity(s4) / baseline_capacity(BASE) == pytest.approx(2.0, abs=1e-12)

    def test_s_equals_n_gains_sqrt_n(self):
        import dataclasses

        sn = dataclasses.replace(BASE, s=BASE.n_clients)
        ratio = baseline_capacity(sn) / baseline_capacity(BASE)
        assert ratio == pytest.approx(math.sqrt(BASE.n_clients), abs=1e-12)

    def test_monotonicity_scans(self):
        import dataclasses

        def cap(**kw):
            return baseline_capacity(dataclasses.replace(BASE, **kw))

        eps_scan = [cap(eps=e) for e in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(eps_scan, eps_scan[1:]))
        n_scan = [cap(n_clients=n) for n in (3, 5, 10, 30, 100)]
        assert all(a < b for a, b in zip(n_scan, n_scan[1:]))
        d_scan = [cap(dim=d) for d in (5, 10, 50, 200)]
        assert all(a > b for a, b in zip(d_scan, d_scan[1:]))
        r_scan = [cap(radius=r) for r in (1.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(r_scan, r_scan[1:]))
        l_scan = [cap(grad_bound=L) for L in (0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(l_scan, l_scan[1:]))
        t_scan = [cap(horizon=t) for t in (10, 100, 1000)]
        assert all(a > b for a, b in zip(t_scan, t_scan[1:]))


class TestUtilityBound:
    def test_convex_terms(self):
        opt, priv = utility_bound(BASE, "convex")
        r, L = BASE.radius, BASE.grad_bound
        assert opt == pytest.approx(r * L / math.sqrt(BASE.s * BASE.horizon))
        root = math.sqrt(
            BASE.dim * math.log(1 / BASE.delta) * math.log(BASE.n_clients)
            / (BASE.s * BASE.n_clients)
        )
        assert priv == pytest.approx(r * (L / BASE.eps) * BASE.p * root)

    def test_optimization_term_vanishes_with_s(self):
        import dataclasses

        for cls in ("convex", "strongly-convex", "smooth-nonconvex"):
            big = dataclasses.replace(BASE, s=10**9)
            opt, _ = utility_bound(big, cls)
            assert opt < 1e-3

    def test_convex_linear_in_radius(self):
        import dataclasses

        o1, p1 = utility_bound(BASE, "convex")
        o2, p2 = utility_bound(dataclasses.replace(BASE, radius=20.0), "convex")
        assert o2 == pytest.approx(2 * o1) and p2 == pytest.approx(2 * p1)

    def test_quadrupling_s_halves_convex_terms(self):
        import dataclasses

        o1, p1 = utility_bound(BASE, "convex")
        o4, p4 = utility_bound(dataclasses.replace(BASE, s=4), "convex")
        assert o4 == pytest.approx(o1 / 2) and p4 == pytest.approx(p1 / 2)

    def test_strongly_convex_needs_mu(self):
        import dataclasses

        with pytest.raises(ValueError):
            utility_bound(dataclasses.replace(BASE, mu=0.0), "strongly-convex")


class TestNonbiasTerm:
    def test_limits(self):
        import dataclasses

        tiny = dataclasses.replace(BASE, horizon=10**12, p=0.0)
        assert nonbias_term(tiny) < 1e-4

    def test_golden_value(self):
        import dataclasses

        inputs = dataclasses.replace(
            BASE, radius=1.0, grad_bound=1.0, s=4, horizon=100, eps=1.0,
            p=0.1, dim=10, n_clients=10, delta=1e-5,
        )
        # c1 R L / sqrt(s Tu) + c2 R (L/eps) p sqrt(d ln(1/delta) ln N/(s N))
        expected = 1.0 / math.sqrt(400) + 0.1 * math.sqrt(
            10 * math.log(1e5) * math.log(10) / 40
        )
        assert nonbias_term(inputs) == pytest.approx(expected, abs=1e-15)

    def test_independent_of_forget_size(self):
        import dataclasses

        a = nonbias_term(dataclasses.replace(BASE, local_size=1))
        b = nonbias_term(dataclasses.replace(BASE, local_size=1000))
        assert a == b


class TestCapacitySweepCsv:
    def test_rows_and_file(self, tmp_path):
        import csv
        import dataclasses

        from walkforget import capacity_sweep_rows, write_capacity_csv

        points = [dataclasses.replace(BASE, gamma=g) for g in (0.05, 0.3, 1.0)]
        rows = capacity_sweep_rows(points)
        assert len(rows) == 3
        for row, point in zip(rows, points):
            opt, priv = utility_bound(point, "convex")
            assert row["nonbias"] == pytest.approx(opt + priv)
            assert row["m_star"] == unlearning_capacity(
                point.gamma, opt + priv, point.local_size, point.grad_bound,
                point.bias_constant,
            )
        path = tmp_path / "caps.csv"
        write_capacity_csv(rows, path)
        with open(path) as fh:
            reader = csv.DictReader(fh)
            parsed = list(reader)
        assert len(parsed) == 3
        assert parsed[0]["gamma"] == "0.05"
        assert {"nonbias", "opt_term", "priv_term", "m_star"} <= set(parsed[0])

    def test_cut_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        import os

        from walkforget import capacity, capacity_sweep_rows, write_capacity_csv

        path = tmp_path / "caps.csv"
        path.write_text("old\n")
        fmt, cells = capacity._fmt, []

        def failing(value):
            cells.append(value)
            if len(cells) == 20:
                raise OSError("disk full")
            return fmt(value)

        monkeypatch.setattr(capacity, "_fmt", failing)
        with pytest.raises(OSError):
            write_capacity_csv(capacity_sweep_rows([BASE, BASE]), path)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["caps.csv"]


class TestUnlearningCapacity:
    def test_regime_boundary_zero(self):
        assert unlearning_capacity(0.5, 0.5, 200, 1.0) == 0
        assert unlearning_capacity(0.4, 0.5, 200, 1.0) == 0

    def test_smallest_positive_capacity(self):
        A = 0.3
        bias_c = 2.0
        gamma = A + bias_c * 1.0 / 200
        assert unlearning_capacity(gamma, A, 200, 1.0, bias_c) == 1

    def test_linear_in_local_size(self):
        a = unlearning_capacity(0.6, 0.1, 200, 1.0)
        b = unlearning_capacity(0.6, 0.1, 400, 1.0)
        assert b == 2 * a

    def test_clamped_to_local_size(self):
        assert unlearning_capacity(100.0, 0.0, 50, 1.0) == 50

    def test_monotonicity(self):
        caps_gamma = [unlearning_capacity(g, 0.2, 300, 1.0) for g in (0.25, 0.5, 1.0, 2.0)]
        assert all(a <= b for a, b in zip(caps_gamma, caps_gamma[1:]))
        caps_A = [unlearning_capacity(1.0, A, 300, 1.0) for A in (0.0, 0.3, 0.6, 0.99)]
        assert all(a >= b for a, b in zip(caps_A, caps_A[1:]))
        caps_L = [unlearning_capacity(1.0, 0.2, 300, L) for L in (0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(caps_L, caps_L[1:]))
