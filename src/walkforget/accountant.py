"""Renyi-DP accounting for token protocols on complete graphs.

Building blocks: the view-level RDP bound for token SGD (amplification by
decentralization), a Chernoff bound on the number of sensitive visits,
conversion to (eps, delta), group privacy, and noise calibrators for the
every-hop-noise baseline and the localized-noise unlearning walk. The view
reports of both noisy walks come from one builder, ``_view_report``.

A view is what one client sees under ``network``'s observation model: the
models it receives and the models it makes. Both walks share one
neighbouring relation: replace one record of the unlearning client u. Each
step u takes has a gradient of norm at most L (the baseline's clipped
minibatch gradient, the unlearning walk's corrective step), so one
replaced record moves a released step by at most Delta = 2L. The
baseline's calibrator, sqrt(8 L^2 ln(1.25/delta)) / eps, is the Gaussian
mechanism at this Delta, and criterion 05's group noise counts edits in
the same unit.

All accounting is exact arithmetic over a finite grid of Renyi orders. The
view-level bound assumes amplification by decentralization with constant
``_AMP_CONSTANT = 1``, and that constant is refuted: ``tests/test_audit.py``
computes, from a closed-form attack, a lower bound on the baseline's view
eps that exceeds its report at N = 2. The calibrator for the unlearning
walk verifies its output post hoc against this same bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DEFAULT_ALPHA_GRID",
    "RdpCurve",
    "DpGuarantee",
    "SensitiveVisitCount",
    "AccountantReport",
    "CalibrationResult",
    "CalibrationError",
    "token_view_rdp",
    "rdp_to_dp",
    "sensitive_visit_bound",
    "unlearning_view_guarantee",
    "baseline_view_guarantee",
    "calibrate_baseline_sigma",
    "baseline_group_sigma",
    "calibrate_unlearning_sigma",
    "group_privacy",
]

# Standard accounting grid of Renyi orders; the optimum over alpha is taken
# on this grid.
DEFAULT_ALPHA_GRID = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

# Constant of the view-level bound's ln(N) / N amplification factor. Each
# report records it among its inputs.
_AMP_CONSTANT = 1.0


@dataclass(frozen=True)
class RdpCurve:
    """Map from Renyi order alpha > 1 to a divergence bound."""

    values: dict

    def __post_init__(self):
        if not self.values:
            raise ValueError("curve must be nonempty")
        items = sorted(self.values.items())
        for alpha, epsilon in items:
            if alpha <= 1.0:
                raise ValueError("orders must exceed 1")
            if epsilon < 0:
                raise ValueError("divergence bounds must be >= 0")
        finite = [(a, e) for a, e in items if math.isfinite(e)]
        for (a0, e0), (a1, e1) in zip(finite, finite[1:]):
            if e1 < e0 - 1e-12:
                raise ValueError("divergence bound must be nondecreasing in alpha")
        object.__setattr__(self, "values", dict(items))


@dataclass(frozen=True)
class DpGuarantee:
    eps: float
    delta: float

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0,1)")


@dataclass(frozen=True)
class SensitiveVisitCount:
    """High-probability bound on the number of visits to the unlearning client."""

    horizon: int
    p: float
    bound: int
    slack: float  # delta portion consumed by the Chernoff tail


def token_view_rdp(
    alpha: float,
    L: float,
    sigma: float,
    visits: float,
    n_clients: int,
) -> float:
    """View-level RDP of noisy token SGD on a complete graph.

    Bound _AMP_CONSTANT * alpha * L^2 * visits * ln(N) / (sigma^2 * N) on the
    divergence between any other client's views, where ``visits`` counts
    token visits to the client whose data changed.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    if visits < 0:
        raise ValueError("visit count must be >= 0")
    if visits == 0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    return _AMP_CONSTANT * alpha * L * L * visits * math.log(n_clients) / (sigma * sigma * n_clients)


def rdp_to_dp(curve: RdpCurve, delta: float):
    """Best (eps, delta) conversion over the curve's grid of orders.

    Returns (DpGuarantee, chosen_alpha); eps = min over alpha of
    eps(alpha) + ln(1/delta)/(alpha - 1).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    best_eps = math.inf
    best_alpha = None
    for alpha, eps_alpha in curve.values.items():
        if not math.isfinite(eps_alpha):
            continue
        candidate = eps_alpha + math.log(1.0 / delta) / (alpha - 1.0)
        if candidate < best_eps:
            best_eps = candidate
            best_alpha = alpha
    if best_alpha is None:
        raise ValueError("all orders are infinite; cannot convert")
    return DpGuarantee(eps=best_eps, delta=delta), best_alpha


def sensitive_visit_bound(horizon: int, p: float, delta_slack: float) -> SensitiveVisitCount:
    """Chernoff bound on Binomial(T_u, p) visits, valid except with delta_slack.

    beta = sqrt(3 ln(1/delta_slack) / (p T_u)) makes
    P[M >= (1+beta) p T_u] <= exp(-beta^2 p T_u / 3) <= delta_slack.
    The bound is capped at the horizon, which is an almost-sure bound; in
    particular p = 1 yields exactly T_u with no slack actually consumed.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0,1]")
    if not 0.0 < delta_slack < 1.0:
        raise ValueError("delta_slack must lie in (0,1)")
    mean = p * horizon
    beta = math.sqrt(3.0 * math.log(1.0 / delta_slack) / mean)
    bound = min(math.ceil((1.0 + beta) * mean), horizon)
    return SensitiveVisitCount(horizon=horizon, p=p, bound=int(bound), slack=delta_slack)


@dataclass(frozen=True)
class AccountantReport:
    """Serializable record of one view-level accounting computation."""

    inputs: dict
    alpha_grid: tuple
    per_alpha: dict
    chosen_alpha: float | None
    eps: float
    delta: float
    delta_split: dict

    def to_dict(self) -> dict:
        return {
            "inputs": dict(self.inputs),
            "alpha_grid": list(self.alpha_grid),
            "per_alpha": {str(a): v for a, v in self.per_alpha.items()},
            "chosen_alpha": self.chosen_alpha,
            "eps": self.eps,
            "delta": self.delta,
            "delta_split": dict(self.delta_split),
        }


def _view_report(inputs: dict, split: dict, per_alpha) -> AccountantReport:
    """The view report of either noisy walk; ``per_alpha()`` maps each grid order to its RDP.

    The regime is read from the inputs, never from the RDP values (which
    underflow to 0 once sigma^2 overflows): with no sensitive hop (horizon
    0, or p = 0) eps is 0 and ``per_alpha`` is not called; with sigma = 0
    eps is inf; otherwise eps is the best conversion at delta
    ``split["conversion"]``.
    """
    if not 0.0 < inputs["delta"] < 1.0:
        raise ValueError("delta must lie in (0,1)")
    chosen, eps = None, 0.0
    if inputs["horizon"] == 0 or inputs.get("p") == 0.0:
        rdp = dict.fromkeys(DEFAULT_ALPHA_GRID, 0.0)
    else:
        rdp = per_alpha()
        if inputs["sigma"] == 0.0:
            eps = math.inf
        else:
            guarantee, chosen = rdp_to_dp(RdpCurve(rdp), split["conversion"])
            eps = guarantee.eps
    return AccountantReport(
        inputs=inputs,
        alpha_grid=DEFAULT_ALPHA_GRID,
        per_alpha=rdp,
        chosen_alpha=chosen,
        eps=eps,
        delta=inputs["delta"],
        delta_split=split,
    )


def unlearning_view_guarantee(
    L: float,
    sigma: float,
    p: float,
    horizon: int,
    n_clients: int,
    delta: float,
) -> AccountantReport:
    """(eps, delta) on any other client's view for the localized-noise walk.

    Only visits to the unlearning client are sensitive. Of delta, a quarter
    is spent on the Chernoff bound on those visits and a half on the
    RDP-to-DP conversion; the remaining quarter (``gaussian_tail``) is
    reserved and never spent. The per-visit view-level RDP is composed over
    the high-probability visit bound and converted on the alpha grid.
    """
    inputs = {"L": L, "sigma": sigma, "p": p, "horizon": horizon, "n_clients": n_clients,
              "delta": delta, "amp_constant": _AMP_CONSTANT}
    split = {"chernoff": 0.25 * delta, "gaussian_tail": 0.25 * delta, "conversion": 0.5 * delta}

    def per_alpha():
        visits = sensitive_visit_bound(horizon, p, split["chernoff"])
        return {
            alpha: visits.bound
            * token_view_rdp(alpha, L, sigma, 1.0, n_clients)
            for alpha in DEFAULT_ALPHA_GRID
        }

    return _view_report(inputs, split, per_alpha)


def baseline_view_guarantee(
    L: float,
    sigma: float,
    horizon: int,
    n_clients: int,
    delta: float,
) -> AccountantReport:
    """(eps, delta) on any other client's view for the every-hop-noise baseline.

    Every hop is noisy and each client is credited with its expected share
    ``horizon / n_clients`` of the hops; all of delta goes to the conversion.
    """
    visits = horizon / n_clients
    inputs = {"L": L, "sigma": sigma, "horizon": horizon, "n_clients": n_clients,
              "delta": delta, "amp_constant": _AMP_CONSTANT, "expected_visits": visits}

    def per_alpha():
        return {
            alpha: token_view_rdp(alpha, L, sigma, visits, n_clients)
            for alpha in DEFAULT_ALPHA_GRID
        }

    return _view_report(inputs, {"conversion": delta}, per_alpha)


def calibrate_baseline_sigma(eps: float, delta: float, L: float) -> float:
    """Gaussian scale of the every-hop-noise baseline: sqrt(8 L^2 ln(1.25/delta)) / eps."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if L < 0:
        raise ValueError("L must be >= 0")
    return math.sqrt(8.0 * L * L * math.log(1.25 / delta)) / eps


def baseline_group_sigma(eps: float, delta: float, L: float, edit: int) -> float:
    """Baseline noise certifying deletions at edit distance ``edit``.

    Simple split of the target: the per-change budget is eps/edit, so the
    scale grows exactly linearly in the edit distance (delta enters only
    through its logarithm and is kept at the target value).
    """
    if edit < 1:
        raise ValueError("edit distance must be >= 1")
    return calibrate_baseline_sigma(eps / edit, delta, L)


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CalibrationResult:
    sigma: float
    achieved_eps: float
    delta: float
    attempts: int
    report: AccountantReport | None


def calibrate_unlearning_sigma(
    eps: float,
    delta: float,
    L: float,
    p: float,
    horizon: int,
    n_clients: int,
    cal_constant: float = 1.0,
) -> CalibrationResult:
    """Noise scale for the localized-noise walk, certified post hoc.

    Base scale cal_constant * (L/eps) * sqrt(p T_u ln(1/delta) ln(N) / N);
    the achieved view-level eps is then verified via the accountant and the
    scale doubled (up to 8x) until the target is met, so the reported pair
    is a guarantee rather than a scaling. Independent of the forget-set
    size by construction.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    if p == 0.0 or horizon == 0:
        report = unlearning_view_guarantee(L, 0.0, p, horizon, n_clients, delta)
        return CalibrationResult(sigma=0.0, achieved_eps=0.0, delta=delta, attempts=0, report=report)
    base = (
        cal_constant
        * (L / eps)
        * math.sqrt(p * horizon * math.log(1.0 / delta) * math.log(n_clients) / n_clients)
    )
    for k in range(4):  # factors 1, 2, 4, 8
        sigma = base * (2.0**k)
        report = unlearning_view_guarantee(L, sigma, p, horizon, n_clients, delta)
        if report.eps <= eps:
            return CalibrationResult(
                sigma=sigma,
                achieved_eps=report.eps,
                delta=delta,
                attempts=k + 1,
                report=report,
            )
    raise CalibrationError(
        f"verification failed after 8x escalation (target eps={eps}, last achieved={report.eps:.6g})"
    )


def group_privacy(eps0: float, delta0: float, m: int, delta_tilde: float) -> DpGuarantee:
    """Guarantee under m simultaneous changes via advanced composition.

    eps_m = sqrt(2 m ln(1/delta_tilde)) * eps0 and delta_m = m delta0 +
    delta_tilde; the single-change case returns the direct guarantee.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return DpGuarantee(eps=eps0, delta=delta0)
    if not 0.0 < delta_tilde < 1.0:
        raise ValueError("delta_tilde must lie in (0,1)")
    eps_m = math.sqrt(2.0 * m * math.log(1.0 / delta_tilde)) * eps0
    return DpGuarantee(eps=eps_m, delta=m * delta0 + delta_tilde)
