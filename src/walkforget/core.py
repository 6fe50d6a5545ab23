"""Shared domain types, run configuration, and the seeded randomness contract.

Every source of randomness in a run is a labeled substream of a single
64-bit seed, so routing, minibatch sampling, and Gaussian noise can be
replayed independently and bit-exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "ModelState",
    "FeasibleRegion",
    "ClientDataset",
    "CorrectionMode",
    "RunConfig",
    "ConfigError",
    "substream",
    "params_hash",
    "config_violations",
    "validate_config",
    "config_to_text",
    "config_from_text",
]


def substream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Return the generator for one labeled subsystem of a run.

    Streams for distinct (seed, label, index) triples are statistically
    independent and bit-reproducible: the triple is hashed with SHA-256
    into the generator entropy, so e.g. routing draws do not perturb the
    noise stream when a config knob changes.
    """
    digest = hashlib.sha256(f"{seed}|{label}|{index}".encode()).digest()
    entropy = int.from_bytes(digest[:16], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _bounded_get(store, key, capacity: int, make):
    """``store[key]``, made by ``make()`` on a miss and kept in ``store``.

    ``store`` is an OrderedDict holding at most ``capacity`` entries: before
    a new value is made, the oldest ones are dropped to make room.
    """
    if key in store:
        return store[key]
    while store and len(store) >= capacity:
        store.popitem(last=False)
    value = store[key] = make()
    return value


def params_hash(params: np.ndarray) -> str:
    """Hex digest of a parameter vector (little-endian float64 bytes)."""
    buf = np.ascontiguousarray(params, dtype="<f8").tobytes()
    return hashlib.sha256(buf).hexdigest()[:16]


@dataclass(frozen=True)
class Graph:
    """Complete communication graph over clients 1..num_clients.

    Every pair of distinct clients is an edge, so the graph is its client
    count; edges and degrees are derived on request, never stored.
    """

    num_clients: int

    @staticmethod
    def complete(num_clients: int) -> "Graph":
        if num_clients < 2:
            raise ValueError("complete graph needs at least 2 clients")
        return Graph(num_clients=num_clients)

    @property
    def edges(self) -> frozenset:
        """All pairs (i, j) with i < j; O(N^2), built on each request."""
        n = self.num_clients
        return frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))

    def degree(self, client: int) -> int:
        return self.num_clients - 1


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelState:
    """Immutable parameter vector of fixed dimension."""

    params: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.params)
        if arr.ndim != 1:
            raise ValueError("params must be a 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("params must be finite")
        object.__setattr__(self, "params", arr)

    @property
    def dim(self) -> int:
        return self.params.shape[0]


@dataclass(frozen=True)
class FeasibleRegion:
    """Feasible parameter set: full space, a ball, or a ball cut by a trust ball.

    When ``trust_center`` is set the region is the intersection of the base
    region with the ball of radius ``trust_radius`` around ``trust_center``.
    """

    kind: str = "full"
    center: np.ndarray | None = None
    radius: float = math.inf
    trust_center: np.ndarray | None = None
    trust_radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("full", "ball"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind == "ball":
            if self.center is None:
                raise ValueError("ball region needs a center")
            object.__setattr__(self, "center", _frozen_array(self.center))
            if not (self.radius >= 0 and math.isfinite(self.radius)):
                raise ValueError("ball radius must be finite and >= 0")
        if self.trust_center is not None:
            object.__setattr__(self, "trust_center", _frozen_array(self.trust_center))
            if self.trust_radius is None or self.trust_radius < 0:
                raise ValueError("trust radius must be >= 0")

    @staticmethod
    def full() -> "FeasibleRegion":
        return FeasibleRegion(kind="full")

    @staticmethod
    def ball(center, radius: float) -> "FeasibleRegion":
        return FeasibleRegion(kind="ball", center=center, radius=radius)

    def with_trust(self, center, radius: float) -> "FeasibleRegion":
        return FeasibleRegion(
            kind=self.kind,
            center=self.center,
            radius=self.radius,
            trust_center=center,
            trust_radius=radius,
        )

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        ok = True
        if self.kind == "ball":
            ok = ok and np.linalg.norm(x - self.center) <= self.radius + tol
        if self.trust_center is not None:
            ok = ok and np.linalg.norm(x - self.trust_center) <= self.trust_radius + tol
        return bool(ok)


@dataclass(frozen=True)
class ClientDataset:
    """One client's local examples with a designated forget subset."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    forget_indices: tuple = ()

    def __post_init__(self):
        feats = _frozen_array(self.features)
        labs = _frozen_array(self.labels)
        if feats.ndim != 2:
            raise ValueError("features must be a (n, d) array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must align with features")
        idx = tuple(sorted(int(i) for i in self.forget_indices))
        if len(set(idx)) != len(idx):
            raise ValueError("forget indices must be unique")
        if idx and (idx[0] < 0 or idx[-1] >= feats.shape[0]):
            raise ValueError("forget indices out of range")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "forget_indices", idx)

    @property
    def n_u(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return len(self.forget_indices)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def digest(self) -> str:
        """sha256 of the shape, features, labels and forget indices.

        The arrays are read-only, so each dataset object is hashed once.
        """
        h = hashlib.sha256(repr((self.features.shape, self.forget_indices)).encode())
        h.update(self.features.tobytes())
        h.update(self.labels.tobytes())
        return h.hexdigest()

    def retained_indices(self) -> np.ndarray:
        mask = np.ones(self.n_u, dtype=bool)
        mask[list(self.forget_indices)] = False
        return np.nonzero(mask)[0]

    def without_forget(self) -> "ClientDataset":
        """The dataset after deleting the forget subset."""
        keep = self.retained_indices()
        return ClientDataset(self.features[keep], self.labels[keep], ())

    def with_forget(self, indices) -> "ClientDataset":
        return ClientDataset(self.features, self.labels, tuple(indices))


class CorrectionMode(Enum):
    EXACT = "exact"
    LIGHTWEIGHT = "lightweight"


@dataclass(frozen=True)
class RunConfig:
    """Flat configuration for one protocol run.

    Conventions: client indices are 1-based; ``sigma=None`` means the noise
    scale is calibrated from (eps, delta) instead of given explicitly;
    ``batch_size=0`` means full-batch gradients.
    """

    n_clients: int = 10
    dim: int = 10
    train_hops: int = 100
    unlearn_hops: int = 100
    p: float = 0.1
    s: int = 1
    eta: float = 0.1
    stepsize_rule: str = "constant"  # "constant" or "decreasing"
    sigma: float | None = None
    eps: float = 1.0
    delta: float = 1e-5
    grad_bound: float = 1.0
    mu: float = 0.0
    gamma: float = 0.1
    unlearn_client: int = 1
    mode: CorrectionMode = CorrectionMode.EXACT
    seed: int = 0
    domain: str = "ball"  # "full" or "ball"
    domain_radius: float = 10.0
    trust_radius: float = 1.0
    objective: str = "logistic"  # "quadratic" or "logistic"
    local_size: int = 200
    forget_size: int = 20
    batch_size: int = 0
    test_size: int = 500
    amp_constant: float = 1.0
    cal_constant: float = 1.0
    clip: float = 0.0
    group_edit: int = 1
    trace: bool = False

    def replace(self, **kw) -> "RunConfig":
        return replace(self, **kw)


class ConfigError(ValueError):
    """Raised when a RunConfig or config file violates its constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def config_violations(cfg: RunConfig) -> list:
    """Full list of violated constraints, one message per offending field."""
    bad = []
    if not (isinstance(cfg.n_clients, int) and cfg.n_clients >= 2):
        bad.append("n_clients must be an integer >= 2")
    if not (isinstance(cfg.dim, int) and cfg.dim >= 1):
        bad.append("dim must be an integer >= 1")
    if not (isinstance(cfg.train_hops, int) and cfg.train_hops >= 0):
        bad.append("train_hops must be an integer >= 0")
    if not (isinstance(cfg.unlearn_hops, int) and cfg.unlearn_hops >= 0):
        bad.append("unlearn_hops must be an integer >= 0")
    if not (_finite(cfg.p) and 0.0 <= cfg.p <= 1.0):
        bad.append("p must lie in [0,1]")
    if not (isinstance(cfg.s, int) and cfg.s >= 1):
        bad.append("s must be an integer >= 1")
    if not (_finite(cfg.eta) and cfg.eta > 0):
        bad.append("eta must be a finite positive real")
    if cfg.stepsize_rule not in ("constant", "decreasing"):
        bad.append("stepsize_rule must be 'constant' or 'decreasing'")
    if cfg.sigma is not None and not (_finite(cfg.sigma) and cfg.sigma >= 0):
        bad.append("sigma must be >= 0 (or auto)")
    if not (_finite(cfg.eps) and cfg.eps > 0):
        bad.append("eps must be > 0")
    if not (_finite(cfg.delta) and 0.0 < cfg.delta < 1.0):
        bad.append("delta must lie in (0,1)")
    if not (_finite(cfg.grad_bound) and cfg.grad_bound > 0):
        bad.append("grad_bound must be > 0")
    if not (_finite(cfg.mu) and cfg.mu >= 0):
        bad.append("mu must be >= 0")
    if not (_finite(cfg.gamma) and cfg.gamma > 0):
        bad.append("gamma must be > 0")
    if not (
        isinstance(cfg.unlearn_client, int)
        and 1 <= cfg.unlearn_client <= cfg.n_clients
    ):
        bad.append("unlearn_client must lie in [1..n_clients]")
    if not isinstance(cfg.mode, CorrectionMode):
        bad.append("mode must be 'exact' or 'lightweight'")
    if not (isinstance(cfg.seed, int) and 0 <= cfg.seed < 2**64):
        bad.append("seed must be a 64-bit unsigned integer")
    if cfg.domain not in ("full", "ball"):
        bad.append("domain must be 'full' or 'ball'")
    if cfg.domain == "ball" and not (_finite(cfg.domain_radius) and cfg.domain_radius > 0):
        bad.append("domain_radius must be > 0 for a ball domain")
    if not (_finite(cfg.trust_radius) and cfg.trust_radius >= 0):
        bad.append("trust_radius must be >= 0")
    if cfg.objective not in ("quadratic", "logistic"):
        bad.append("objective must be 'quadratic' or 'logistic'")
    if not (isinstance(cfg.local_size, int) and cfg.local_size >= 1):
        bad.append("local_size must be an integer >= 1")
    if not (isinstance(cfg.forget_size, int) and 0 <= cfg.forget_size <= cfg.local_size):
        bad.append("forget_size must lie in [0..local_size]")
    elif cfg.forget_size == cfg.local_size and cfg.mode is CorrectionMode.EXACT:
        bad.append("retained set empty")
    if not (isinstance(cfg.batch_size, int) and cfg.batch_size >= 0):
        bad.append("batch_size must be an integer >= 0")
    if not (isinstance(cfg.test_size, int) and cfg.test_size >= 1):
        bad.append("test_size must be an integer >= 1")
    if not (_finite(cfg.amp_constant) and cfg.amp_constant > 0):
        bad.append("amp_constant must be > 0")
    if not (_finite(cfg.cal_constant) and cfg.cal_constant > 0):
        bad.append("cal_constant must be > 0")
    if not (_finite(cfg.clip) and cfg.clip >= 0):
        bad.append("clip must be >= 0")
    if not (isinstance(cfg.group_edit, int) and cfg.group_edit >= 1):
        bad.append("group_edit must be an integer >= 1")
    return bad


def validate_config(cfg: RunConfig) -> RunConfig:
    """Return cfg unchanged if valid, else raise ConfigError listing everything."""
    bad = config_violations(cfg)
    if bad:
        raise ConfigError(bad)
    return cfg


# Config file format: one "key=value" per line, '#' comments, all RunConfig
# fields addressable, unknown keys rejected (fail-closed).

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False}


def _format_value(val) -> str:
    if isinstance(val, CorrectionMode):
        return val.value
    if isinstance(val, bool):
        return "true" if val else "false"
    if val is None:
        return "auto"
    if isinstance(val, float):
        return f"{val:.17g}"
    return str(val)


def config_to_text(cfg: RunConfig) -> str:
    lines = [f"{f.name}={_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def _parse_value(name: str, text: str, typ):
    if typ == "sigma":
        if text.lower() in ("auto", "none"):
            return None
        return float(text)
    if typ is bool:
        if text.lower() not in _BOOL_WORDS:
            raise ConfigError([f"{name} must be true or false"])
        return _BOOL_WORDS[text.lower()]
    if typ is int:
        return int(text)
    if typ is float:
        return float(text)
    if typ is CorrectionMode:
        try:
            return CorrectionMode(text.lower())
        except ValueError:
            raise ConfigError([f"{name} must be 'exact' or 'lightweight'"]) from None
    return text


def _field_types() -> dict:
    types = {}
    for f in fields(RunConfig):
        if f.name == "sigma":
            types[f.name] = "sigma"
        else:
            types[f.name] = type(getattr(RunConfig(), f.name))
    return types


def config_from_text(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse a key=value config file; unknown keys are an error (fail-closed)."""
    types = _field_types()
    kw = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key=value")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            problems.append(f"unknown key '{key}'")
            continue
        try:
            kw[key] = _parse_value(key, val, types[key])
        except ConfigError as exc:
            problems.extend(exc.violations)
        except ValueError:
            problems.append(f"{key}: cannot parse value {val!r}")
    if problems:
        raise ConfigError(problems)
    cfg = RunConfig(**kw)
    if overrides:
        unknown = set(overrides) - set(types)
        if unknown:
            raise ConfigError([f"unknown key '{k}'" for k in sorted(unknown)])
        cfg = cfg.replace(**overrides)
    return validate_config(cfg)


def config_from_file(path, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read(), overrides)
