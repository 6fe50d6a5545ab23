"""Renyi-DP accountant: closed forms, composition, calibration, monotonicity.

Golden values were frozen from an independent evaluation of the closed
forms (see the inline arithmetic next to each constant).
"""

import math

import pytest

from walkforget import (
    DEFAULT_ALPHA_GRID,
    CalibrationError,
    RdpCurve,
    baseline_group_sigma,
    calibrate_baseline_sigma,
    calibrate_unlearning_sigma,
    group_privacy,
    rdp_to_dp,
    sensitive_visit_bound,
    token_view_rdp,
    unlearning_view_guarantee,
)


class TestTokenViewRdp:
    def test_worked_example(self):
        # 1 * 2 * 1 * 10 * ln 10 / (1 * 10) = 2 ln 10
        val = token_view_rdp(2.0, 1.0, 1.0, 10, 10)
        assert val == pytest.approx(2 * math.log(10))

    def test_no_visits(self):
        assert token_view_rdp(2.0, 1.0, 1.0, 0, 10) == 0.0

    def test_linear_in_visits_and_alpha(self):
        base = token_view_rdp(2.0, 1.0, 1.0, 5, 10)
        assert token_view_rdp(2.0, 1.0, 1.0, 10, 10) == pytest.approx(2 * base)
        assert token_view_rdp(4.0, 1.0, 1.0, 5, 10) == pytest.approx(2 * base)

    def test_sigma_zero(self):
        assert math.isinf(token_view_rdp(2.0, 1.0, 0.0, 5, 10))


class TestRdpToDp:
    def test_singleton_exact(self):
        # 0.5 + ln(1e5) / (2 - 1) = 12.012925464970229
        guarantee, alpha = rdp_to_dp(RdpCurve({2.0: 0.5}), 1e-5)
        assert alpha == 2.0
        assert guarantee.eps == pytest.approx(0.5 + math.log(1e5), abs=1e-12)

    def test_second_worked_example(self):
        # 1.0 + 100 / 100 = 2.0
        guarantee, _ = rdp_to_dp(RdpCurve({101.0: 1.0}), math.exp(-100))
        assert guarantee.eps == pytest.approx(2.0, abs=1e-12)

    def test_delta_near_one_vanishing_log(self):
        curve = RdpCurve({2.0: 0.5, 4.0: 1.0})
        guarantee, alpha = rdp_to_dp(curve, 1 - 1e-12)
        assert guarantee.eps == pytest.approx(0.5, abs=1e-9)
        assert alpha == 2.0

    def test_grid_minimization(self):
        curve = RdpCurve({a: 0.01 * a for a in DEFAULT_ALPHA_GRID})
        guarantee, alpha = rdp_to_dp(curve, 1e-5)
        manual = min(0.01 * a + math.log(1e5) / (a - 1) for a in DEFAULT_ALPHA_GRID)
        assert guarantee.eps == pytest.approx(manual, abs=1e-12)
        assert alpha in DEFAULT_ALPHA_GRID

    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            rdp_to_dp(RdpCurve({2.0: math.inf, 4.0: math.inf}), 1e-5)


class TestSensitiveVisitBound:
    def test_worked_example(self):
        # beta = sqrt(3 ln(4e5) / 10) = 1.96717...; ceil(10 * 2.96717) = 30
        out = sensitive_visit_bound(100, 0.1, 2.5e-6)
        assert out.bound == 30
        beta = math.sqrt(3 * math.log(4e5) / 10)
        assert beta == pytest.approx(1.9672, abs=1e-4)

    def test_slack_near_one(self):
        # beta -> 0, so the bound collapses to ceil(p * T_u)
        out = sensitive_visit_bound(99, 0.13, 1 - 1e-12)
        assert out.bound == math.ceil(0.13 * 99)

    def test_bound_never_below_mean(self):
        for p in (0.05, 0.3, 0.9):
            for t in (10, 100, 1000):
                out = sensitive_visit_bound(t, p, 1e-6)
                assert out.bound >= math.ceil(p * t)

    def test_capped_at_horizon(self):
        assert sensitive_visit_bound(50, 1.0, 1e-8).bound == 50

    def test_beta_decreases_with_horizon(self):
        def beta(t):
            out = sensitive_visit_bound(t, 0.1, 1e-6)
            return out.bound / (0.1 * t) - 1

        assert beta(2000) < beta(1000) < beta(500)


# independent re-implementation of the composed view guarantee, used to
# freeze the golden value below
def _independent_view_eps(L, sigma, p, horizon, n, delta, amp=1.0):
    mean = p * horizon
    beta = math.sqrt(3 * math.log(1 / (delta / 4)) / mean)
    visits = min(math.ceil((1 + beta) * mean), horizon)
    per_visit = lambda a: amp * a * L * L * math.log(n) / (sigma * sigma * n)
    return min(
        visits * per_visit(a) + math.log(1 / (delta / 2)) / (a - 1)
        for a in DEFAULT_ALPHA_GRID
    )


class TestUnlearningViewGuarantee:
    GOLDEN = _independent_view_eps(1.0, 10.0, 0.1, 100, 10, 1e-5)

    def test_no_sensitive_visits(self):
        report = unlearning_view_guarantee(1.0, 5.0, 0.0, 100, 10, 1e-5)
        assert report.eps == 0.0

    def test_noise_dominates(self):
        report = unlearning_view_guarantee(1.0, 1e9, 0.1, 100, 10, 1e-5)
        floor = math.log(2e5) / (max(DEFAULT_ALPHA_GRID) - 1)
        assert report.eps <= floor + 1e-9

    def test_golden_regression(self):
        report = unlearning_view_guarantee(1.0, 10.0, 0.1, 100, 10, 1e-5)
        assert report.eps == pytest.approx(self.GOLDEN, abs=1e-12)
        assert report.delta == 1e-5
        assert report.delta_split["chernoff"] == pytest.approx(2.5e-6)
        assert report.delta_split["conversion"] == pytest.approx(5e-6)

    def test_p_one_matches_direct_composition(self):
        # at p=1 every hop is sensitive; the accountant must agree with a
        # direct T_u-fold composition within 5 percent on eps
        L, sigma, t, n, delta = 1.0, 20.0, 100, 10, 1e-5
        report = unlearning_view_guarantee(L, sigma, 1.0, t, n, delta)
        direct = min(
            t * token_view_rdp(a, L, sigma, 1.0, n) + math.log(1 / delta) / (a - 1)
            for a in DEFAULT_ALPHA_GRID
        )
        assert abs(report.eps - direct) / direct < 0.05

    def test_sigma_zero_vacuous(self):
        report = unlearning_view_guarantee(1.0, 0.0, 0.1, 100, 10, 1e-5)
        assert math.isinf(report.eps)

    def test_huge_sigma_still_converts(self):
        # sigma^2 overflows, so every per-order RDP underflows to 0; the
        # walk still has sensitive hops and the conversion term remains
        report = unlearning_view_guarantee(1, 1e200, 0.1, 100, 10, 1e-5)
        assert set(report.per_alpha.values()) == {0.0}
        assert report.chosen_alpha == 256.0
        assert report.eps == pytest.approx(math.log(2e5) / 255.0, rel=1e-15)

    def test_serializable(self):
        import json

        report = unlearning_view_guarantee(1.0, 10.0, 0.1, 100, 10, 1e-5)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert "alpha_grid" in blob and "delta_split" in blob


class TestCalibrateBaselineSigma:
    def test_worked_example(self):
        # sqrt(8 ln 125000) = 9.689610525...
        assert calibrate_baseline_sigma(1.0, 1e-5, 1.0) == pytest.approx(
            math.sqrt(8 * math.log(125000.0)), abs=1e-12
        )

    def test_eps_scaling(self):
        assert calibrate_baseline_sigma(2.0, 1e-5, 1.0) == pytest.approx(
            calibrate_baseline_sigma(1.0, 1e-5, 1.0) / 2
        )

    def test_l_zero(self):
        assert calibrate_baseline_sigma(1.0, 1e-5, 0.0) == 0.0

    def test_group_simple_split_exactly_linear(self):
        s1 = baseline_group_sigma(1.0, 1e-5, 1.0, 1)
        s2 = baseline_group_sigma(1.0, 1e-5, 1.0, 2)
        assert abs(s2 / s1 - 2.0) < 1e-9


class TestCalibrateUnlearningSigma:
    def test_base_scale(self):
        # sqrt(0.1 * 100 * ln(1e5) * ln(10) / 10) = 5.14874...
        expected = math.sqrt(10 * math.log(1e5) * math.log(10) / 10)
        result = calibrate_unlearning_sigma(1.0, 1e-5, 1.0, 0.1, 100, 10)
        assert result.sigma >= expected  # verification may escalate
        assert result.sigma / expected in (1.0, 2.0, 4.0, 8.0)
        assert expected == pytest.approx(5.1487, abs=1e-4)

    def test_verified_guarantee(self):
        result = calibrate_unlearning_sigma(1.0, 1e-5, 1.0, 0.1, 100, 10)
        assert result.achieved_eps <= 1.0
        report = unlearning_view_guarantee(1.0, result.sigma, 0.1, 100, 10, 1e-5)
        assert report.eps == pytest.approx(result.achieved_eps)

    def test_p_zero(self):
        result = calibrate_unlearning_sigma(1.0, 1e-5, 1.0, 0.0, 100, 10)
        assert result.sigma == 0.0 and result.achieved_eps == 0.0

    def test_base_decreases_with_n(self):
        # ln(N)/N is decreasing for N >= 3
        def base(n):
            return math.sqrt(0.1 * 100 * math.log(1e5) * math.log(n) / n)

        vals = [base(n) for n in range(3, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_forget_size_never_enters(self):
        import inspect

        sig = inspect.signature(calibrate_unlearning_sigma)
        assert all("m" != name and "forget" not in name for name in sig.parameters)

    def test_escalation_failure_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_unlearning_sigma(1e-9, 1e-5, 1.0, 0.1, 100, 10, cal_constant=1e-12)


class TestGroupPrivacy:
    def test_single_change_direct(self):
        out = group_privacy(0.7, 1e-6, 1, 1e-9)
        assert out.eps == 0.7 and out.delta == 1e-6

    def test_worked_example(self):
        # sqrt(8 ln(1e5)) * 0.1 = 0.9597051828...
        out = group_privacy(0.1, 1e-6, 4, 1e-5)
        assert out.eps == pytest.approx(0.9597, abs=1e-4)
        assert out.delta == pytest.approx(4e-6 + 1e-5)

    def test_sqrt_m_scaling(self):
        e4 = group_privacy(0.1, 1e-6, 4, 1e-5).eps
        e16 = group_privacy(0.1, 1e-6, 16, 1e-5).eps
        assert e16 == pytest.approx(2 * e4)


class TestMonotonicity:
    def test_eps_nonincreasing_in_sigma(self):
        vals = [
            unlearning_view_guarantee(1.0, s, 0.1, 100, 10, 1e-5).eps
            for s in (2.0, 4.0, 8.0, 16.0, 32.0)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_eps_nondecreasing_in_horizon_p_l(self):
        base = unlearning_view_guarantee(1.0, 10.0, 0.1, 100, 10, 1e-5).eps
        assert unlearning_view_guarantee(1.0, 10.0, 0.1, 400, 10, 1e-5).eps >= base
        assert unlearning_view_guarantee(1.0, 10.0, 0.4, 100, 10, 1e-5).eps >= base
        assert unlearning_view_guarantee(2.0, 10.0, 0.1, 100, 10, 1e-5).eps >= base

    def test_eps_nonincreasing_in_n(self):
        vals = [
            unlearning_view_guarantee(1.0, 10.0, 0.1, 100, n, 1e-5).eps
            for n in (3, 5, 10, 30, 100)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_curve_nondecreasing_in_alpha(self):
        report = unlearning_view_guarantee(1.0, 10.0, 0.1, 100, 10, 1e-5)
        eps_by_alpha = [report.per_alpha[a] for a in sorted(report.per_alpha)]
        assert all(a <= b for a, b in zip(eps_by_alpha, eps_by_alpha[1:]))
