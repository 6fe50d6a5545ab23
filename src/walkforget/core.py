"""Shared domain types, run configuration, the seeded randomness contract,
and the whole-or-nothing writer every output file goes through.

Every source of randomness in a run is a labeled substream of a single
64-bit seed, so routing, minibatch sampling, and Gaussian noise can be
replayed independently and bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import FrozenInstanceError, dataclass
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
    "config_from_file",
]


def substream(seed: int, label: str) -> np.random.Generator:
    """Return the generator for one labeled subsystem of a run.

    Streams for distinct (seed, label) pairs are statistically independent
    and bit-reproducible: ``seed|label|0`` is hashed with SHA-256 into the
    generator entropy, so e.g. routing draws do not perturb the noise
    stream when a config knob changes.
    """
    digest = hashlib.sha256(f"{seed}|{label}|0".encode()).digest()
    entropy = int.from_bytes(digest[:16], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


# The most values drawn ahead at once (but at least one unit's worth): a
# walk's schedule block (protocols._schedule) and a chunk of a logistic
# task's clients (objectives.make_logistic_task) each hold at most this many.
_BLOCK_VALUES = 1 << 13


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
    """Hex digest of a parameter vector (little-endian float64 bytes).

    sha256 reads the contiguous array's buffer; no bytes copy is made.
    """
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8")).hexdigest()[:16]


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, bit for bit ``np.linalg.norm``'s.

    That is ``sqrt(x.dot(x))``, less numpy's dispatch: ``x.dot(x)`` is the
    ``cblas_ddot`` that norm calls, without matmul's gufunc (``x @ x``
    rounds differently on reversed views). Norm first copies a view that is
    not contiguous with ``ravel(order="K")``, and so does this: BLAS's
    strided ddot sums in another order. ``x.dot(x)`` overflows to inf once
    entries pass about 1e154; only then is x rescaled by its largest entry,
    so every finite squared sum keeps its bits.
    """
    if not x.flags.c_contiguous:
        x = x.ravel(order="K")
    sq = x.dot(x)
    if math.isfinite(sq):
        return math.sqrt(sq)
    top = float(np.max(np.abs(x)))
    if not 0.0 < top < math.inf:  # an inf or NaN entry: the norm is inf or NaN
        return math.sqrt(sq)
    y = x / top
    return top * math.sqrt(y.dot(y))


class _Record:
    """Base of walkforget's frozen value records, bound at call time.

    A subclass's annotated class attributes are its fields, in order, and a
    value given there is that field's default; an unannotated class
    attribute stays a class constant. Instances behave as
    ``@dataclass(frozen=True)`` ones do: positional or keyword fields, a
    ``TypeError`` for a missing, unknown or repeated field,
    ``__post_init__`` (which may set fields with ``object.__setattr__``),
    ``FrozenInstanceError`` on assignment or deletion, ``==`` within one
    class, the hash of the field tuple, the same ``repr``, and copy and
    pickle; ``replace`` and ``_fields`` stand in for ``dataclasses.replace``
    and ``dataclasses.fields``. ``@dataclass`` writes each class's methods
    as source and compiles them with ``exec`` when the class is made, in
    every process, which was most of the package's import time (README,
    "Start-up cost"); these methods are written once, here.
    """

    __slots__ = ()
    _fields = ()  # field names, in order
    _defaults = {}  # field name -> default value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        required = [n for n in cls._fields if n not in cls._defaults]
        if required and cls._fields.index(required[-1]) >= len(required):
            raise TypeError(f"non-default field {required[-1]!r} follows a default field")

    def __init__(self, *args, **kwargs):
        name = type(self).__qualname__
        names, defaults = self._fields, self._defaults
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        given = dict(zip(names, args))
        for key, value in kwargs.items():
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        values, missing = [], []
        for key in names:
            if key in given:
                values.append(given.pop(key))
            elif key in defaults:
                values.append(defaults[key])
            else:
                missing.append(key)
        if given:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(given))!r}")
        if missing:
            raise TypeError(f"{name}() missing required argument(s): {', '.join(map(repr, missing))}")
        # one object.__setattr__ per field, as a frozen dataclass's __init__
        # does: filling __dict__ directly makes every later field read about
        # 1 ns slower, since the instance loses its inline attribute values
        for key, value in zip(names, values):
            object.__setattr__(self, key, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def replace(self, **changes):
        """A new record with ``changes`` applied, made (and checked) by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Graph(_Record):
    """Complete communication graph over clients 1..num_clients.

    Every pair of distinct clients is an edge, so the graph is its client
    count and stores nothing else.
    """

    num_clients: int

    def __post_init__(self):
        if self.num_clients < 2:
            raise ValueError("complete graph needs at least 2 clients")

    @staticmethod
    def complete(num_clients: int) -> "Graph":
        return Graph(num_clients=num_clients)


_FLOAT64 = np.dtype(np.float64)  # compared with, not rebuilt from np.float64 each time


def _frozen_array(values) -> np.ndarray:
    """``values`` as a read-only C-ordered float64 array, so that equal values give equal runs.

    An input that is already frozen is kept: a C-ordered float64 ndarray
    whose memory numpy owns and which, like every array up its base chain,
    is read-only. Anything else is copied, so no later write to the source
    can reach the result.
    """
    if type(values) is np.ndarray and values.dtype == _FLOAT64:
        arr, flags = values, values.flags  # each .flags read builds an object
        if flags.c_contiguous:
            while not flags.writeable:
                if arr.base is None:
                    if flags.owndata:
                        return values
                    break
                arr = arr.base
                if not isinstance(arr, np.ndarray):
                    break
                flags = arr.flags
    arr = np.array(values, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


class ModelState(_Record):
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


class FeasibleRegion(_Record):
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
        if self.kind == "ball" and not _norm(x - self.center) <= self.radius + tol:
            return False
        return self.trust_center is None or (
            _norm(x - self.trust_center) <= self.trust_radius + tol
        )


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """One client's local examples with a designated forget subset.

    A generated task keeps every client's rows in one ``(N, n, d)`` features
    stack and one ``(N, n)`` labels stack, and each of its datasets is a
    view of its row of both. ``_stack_row`` is that row, which
    ``_stacked_datasets`` records and ``with_forget`` carries over; it is
    None for any other dataset. ``loss_panel`` reads such rows in place.

    It stays a dataclass, not a ``_Record``: ``_stacked_datasets`` builds
    one per client (2,000 for a 2,000-client task), and the generated
    ``__init__`` binds its three fields faster than ``_Record``'s call-time
    binding does.
    """

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    forget_indices: tuple = ()
    _stack_row = None  # unannotated, so not a dataclass field

    def __post_init__(self):
        feats = _frozen_array(self.features)
        labs = _frozen_array(self.labels)
        if feats.ndim != 2:
            raise ValueError("features must be a (n, d) array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must align with features")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        idx = self.forget_indices
        if type(idx) is tuple and not idx:
            return  # no forget rows, the usual case: nothing to sort or check
        idx = tuple(sorted(int(i) for i in idx))
        if len(set(idx)) != len(idx):
            raise ValueError("forget indices must be unique")
        if idx and (idx[0] < 0 or idx[-1] >= feats.shape[0]):
            raise ValueError("forget indices out of range")
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

    def retained_indices(self) -> np.ndarray:
        mask = np.ones(self.n_u, dtype=bool)
        mask[list(self.forget_indices)] = False
        return np.nonzero(mask)[0]

    @cached_property
    def retained_rows(self) -> tuple:
        """Read-only ``(features, labels)`` of the unflagged rows, taken once.

        With nothing flagged they are the dataset's own arrays. A dataset
        with no unflagged row (every row flagged, or none at all) raises.
        """
        if self.m == self.n_u:
            raise ValueError("retained set empty")
        if not self.m:
            return self.features, self.labels
        return _taken_rows(self, self.retained_indices())

    @cached_property
    def forget_rows(self) -> tuple | None:
        """Read-only ``(features, labels)`` of the flagged rows, taken once; None if none."""
        return _taken_rows(self, self.forget_indices) if self.m else None

    @cached_property
    def _without_forget(self) -> "ClientDataset":
        return ClientDataset(*self.retained_rows, ())

    def without_forget(self) -> "ClientDataset":
        """The dataset after deleting the forget subset, made once; it shares ``retained_rows``."""
        return self._without_forget

    def with_forget(self, indices) -> "ClientDataset":
        """The same rows with another forget subset; a stack row stays one."""
        data = ClientDataset(self.features, self.labels, tuple(indices))
        object.__setattr__(data, "_stack_row", self._stack_row)
        return data


def _taken_rows(data: ClientDataset, indices) -> tuple:
    """``data``'s rows ``indices`` as frozen copies, which ``ClientDataset`` keeps uncopied."""
    rows = data.features.take(indices, axis=0), data.labels.take(indices)
    for arr in rows:
        arr.setflags(write=False)
    return rows


def _stacked_datasets(features: np.ndarray, labels: np.ndarray, forgets) -> tuple:
    """Freeze a task's two stacks and make client ``c``'s dataset a view of row ``c - 1``.

    ``ClientDataset`` keeps a frozen input, so the rows are held once. Each
    dataset records its row as ``_stack_row``.
    """
    features.setflags(write=False)
    labels.setflags(write=False)
    datasets = []
    for i, forget in enumerate(forgets):
        data = ClientDataset(features[i], labels[i], forget)
        object.__setattr__(data, "_stack_row", i)
        datasets.append(data)
    return tuple(datasets)


class CorrectionMode(Enum):
    EXACT = "exact"
    LIGHTWEIGHT = "lightweight"


class RunConfig(_Record):
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
    cal_constant: float = 1.0
    clip: float = 0.0
    group_edit: int = 1
    trace: bool = False


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
    elif cfg.forget_size == cfg.local_size:
        bad.append("retained set empty")
    if not (isinstance(cfg.batch_size, int) and cfg.batch_size >= 0):
        bad.append("batch_size must be an integer >= 0")
    if not (isinstance(cfg.test_size, int) and cfg.test_size >= 1):
        bad.append("test_size must be an integer >= 1")
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
    lines = [f"{name}={_format_value(getattr(cfg, name))}" for name in cfg._fields]
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
    defaults = RunConfig()
    return {name: "sigma" if name == "sigma" else type(getattr(defaults, name))
            for name in RunConfig._fields}


def config_from_text(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse a key=value config file; an unknown or repeated key is an error (fail-closed)."""
    types = _field_types()
    kw, seen = {}, set()
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
        if key in seen:
            problems.append(f"line {lineno}: key '{key}' given twice")
            continue
        seen.add(key)
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


def _fmt(value) -> str:
    """One CSV cell: empty for None, floats to 10 significant digits."""
    if value is None:
        return ""
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _check_outdir(path, force: bool, hint: str = "force") -> None:
    """Make directory ``path``; unless ``force``, refuse one holding a visible file."""
    os.makedirs(path, exist_ok=True)
    if not force and any(not f.startswith(".") for f in os.listdir(path)):
        raise FileExistsError(f"output directory {path} is not empty (use {hint})")


def _write_file(path, data) -> None:
    """Write ``data`` (bytes, or text as UTF-8) to ``path`` whole or not at all.

    It goes to a hidden temporary file in the same directory, which then
    replaces ``path``; a write cut short leaves no partial ``path`` behind.
    Every file walkforget writes goes through here.
    """
    folder, name = os.path.split(os.fspath(path))
    tmp = os.path.join(folder, f".{name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data if isinstance(data, bytes) else data.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and the cell lists in ``rows`` to ``path`` by ``_write_file``."""
    buf = io.StringIO()  # keeps the csv module's \r\n line ends
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_file(path, buf.getvalue())
