"""Deletion-capacity calculators and utility-bound evaluators.

Outputs are scaling values: the unknown absolute constants of the
underlying bounds are taken as 1, so only monotonicity and exact ratio
properties are meaningful. Natural logarithms throughout. The privacy terms
assume the ln N / N amplification by decentralization of the view-level
accountant, whose constant a closed-form attack refutes at N = 2
(``tests/test_audit.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _fmt, _write_csv

__all__ = [
    "CapacityInputs",
    "baseline_capacity",
    "utility_bound",
    "nonbias_term",
    "unlearning_capacity",
    "capacity_sweep_rows",
    "write_capacity_csv",
]


@dataclass(frozen=True)
class CapacityInputs:
    eps: float = 1.0
    delta: float = 1e-5
    n_clients: int = 10
    dim: int = 10
    horizon: int = 100  # T for the baseline, T_u for the unlearning walk
    radius: float = 10.0  # R or R_cert depending on the bound
    grad_bound: float = 1.0
    mu: float = 0.0
    s: int = 1
    p: float = 0.1
    local_size: int = 200
    gamma: float = 0.1
    bias_constant: float = 2.0  # envelope constant on the alignment bias


def baseline_capacity(inputs: CapacityInputs) -> float:
    """Deletion-capacity scaling of the every-hop-noise baseline.

    (eps / (R L (2 + ln T))) * sqrt(s N / (d ln(1/delta) ln N));
    local averaging s contributes the extra sqrt(s) factor.
    """
    if inputs.n_clients < 3:
        raise ValueError("capacity scaling needs at least 3 clients")
    if inputs.horizon < 1:
        raise ValueError("horizon must be >= 1")
    lead = inputs.eps / (
        inputs.radius * inputs.grad_bound * (2.0 + math.log(inputs.horizon))
    )
    root = math.sqrt(
        inputs.s
        * inputs.n_clients
        / (inputs.dim * math.log(1.0 / inputs.delta) * math.log(inputs.n_clients))
    )
    return lead * root


def _privacy_root(inputs: CapacityInputs) -> float:
    return math.sqrt(
        inputs.dim
        * math.log(1.0 / inputs.delta)
        * math.log(inputs.n_clients)
        / (inputs.s * inputs.n_clients)
    )


def utility_bound(inputs: CapacityInputs, objective_class: str):
    """(optimization term, privacy term) for the localized-noise walk.

    The two terms combine additively. Classes: convex (bounded domain),
    strongly-convex (needs mu > 0), smooth-nonconvex (bounds the average
    squared gradient norm instead of excess risk).
    """
    L = inputs.grad_bound
    sT = inputs.s * inputs.horizon
    if sT <= 0:
        raise ValueError("horizon and s must be positive")
    root = _privacy_root(inputs)
    if objective_class == "convex":
        opt = inputs.radius * L / math.sqrt(sT)
        priv = inputs.radius * (L / inputs.eps) * inputs.p * root
    elif objective_class == "strongly-convex":
        if inputs.mu <= 0:
            raise ValueError("strongly-convex bound needs mu > 0")
        opt = L * L / (inputs.mu * sT)
        priv = (L * L / inputs.mu) * (1.0 / inputs.eps) * inputs.p * root
    elif objective_class == "smooth-nonconvex":
        opt = L * L / math.sqrt(sT)
        priv = (L * L / inputs.eps) * inputs.p * root
    else:
        raise ValueError(f"unknown objective class {objective_class!r}")
    return opt, priv


def nonbias_term(inputs: CapacityInputs) -> float:
    """The forget-size-independent part of the convex excess-risk bound.

    A = R_cert L / sqrt(s T_u) + R_cert (L/eps) p
    sqrt(d ln(1/delta) ln N / (s N)).
    """
    opt, priv = utility_bound(inputs, "convex")
    return opt + priv


def unlearning_capacity(
    gamma: float,
    nonbias: float,
    local_size: int,
    grad_bound: float,
    bias_constant: float = 2.0,
) -> int:
    """Two-regime deletion capacity of the localized-noise walk.

    Zero in the variance-limited regime (gamma <= A); otherwise the largest
    m with A + bias_constant * L * m / n_u <= gamma, clamped to [0, n_u].
    Capacity is linear in the local data size.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if local_size < 1:
        raise ValueError("local_size must be >= 1")
    if grad_bound <= 0:
        raise ValueError("grad_bound must be > 0")
    if bias_constant <= 0:
        raise ValueError("bias_constant must be > 0")
    if gamma <= nonbias:
        return 0
    raw = (gamma - nonbias) * local_size / (bias_constant * grad_bound)
    # guard the floor against float noise at exact regime boundaries
    m_star = int(math.floor(raw + 1e-9))
    return max(0, min(m_star, local_size))


_SWEEP_COLUMNS = (
    "eps", "delta", "n_clients", "dim", "horizon", "radius", "grad_bound",
    "mu", "s", "p", "local_size", "gamma", "nonbias", "opt_term", "priv_term",
    "m_star",
)


def capacity_sweep_rows(points) -> list:
    """One row per CapacityInputs point: all inputs, the terms, and m*."""
    rows = []
    for inputs in points:
        opt, priv = utility_bound(inputs, "convex")
        nonbias = opt + priv
        m_star = unlearning_capacity(
            inputs.gamma, nonbias, inputs.local_size, inputs.grad_bound,
            inputs.bias_constant,
        )
        row = {name: getattr(inputs, name) for name in _SWEEP_COLUMNS[:12]}
        row.update(nonbias=nonbias, opt_term=opt, priv_term=priv, m_star=m_star)
        rows.append(row)
    return rows


def write_capacity_csv(rows, path) -> None:
    """Write the sweep rows to ``path`` whole or not at all (``core._write_csv``)."""
    _write_csv(path, _SWEEP_COLUMNS, ([_fmt(row[c]) for c in _SWEEP_COLUMNS] for row in rows))
