"""Command-line entry point.

Subcommands: gen-data, train, unlearn, certify, capacity, sweep, calibrate.
Every subcommand is pure with respect to (config, seed): re-running
reproduces artifacts byte-exactly. Exit codes: 0 success, 1 runtime
failure, 2 usage error, 3 config validation failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections import Counter

import numpy as np

from . import __version__
from .accountant import (
    CalibrationError,
    baseline_group_sigma,
    calibrate_unlearning_sigma,
)
from .capacity import (
    CapacityInputs,
    baseline_capacity,
    capacity_sweep_rows,
    unlearning_capacity,
    write_capacity_csv,
)
from .core import (
    ClientDataset,
    ConfigError,
    RunConfig,
    _check_outdir,
    _field_types,
    _fmt,
    _parse_value,
    _write_file,
    config_from_file,
)
from .evaluation import (
    _PHASE_ORDER,
    EXPERIMENT_CSV_HEADER,
    _run_sweep,
    _sort_rows,
    _sweep_points,
    make_task,
    rows_to_csv,
)
from .objectives import _TASK_OBJECTIVES, SyntheticTask, dataset_from_lines, dataset_to_lines
from .protocols import (
    _unlearning_sigma,
    load_params,
    run_certifier,
    run_token_training,
    run_unlearning,
    save_params,
    save_result,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3


def _fail(code: int, kind: str, message: str) -> int:
    print(f"error: {kind}: {message}".replace("\n", " "), file=sys.stderr)
    return code


def _load_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return config_from_file(args.config, overrides)


def _data_files(n_clients: int) -> list:
    """A data directory's file names: one per client, then the test set."""
    return [f"client_{i:02d}.txt" for i in range(1, n_clients + 1)] + ["test.txt"]


def _write_data_dir(task: SyntheticTask, outdir: str) -> None:
    test = ClientDataset(task.test_features, task.test_labels)
    for name, data in zip(_data_files(len(task.datasets)), (*task.datasets, test)):
        _write_file(os.path.join(outdir, name), "\n".join(dataset_to_lines(data)) + "\n")


def _read_data_dir(cfg: RunConfig, path: str) -> SyntheticTask:
    """The task in directory ``path``; a file that disagrees with ``cfg`` is a ``ConfigError``.

    Only the unlearning client's file may flag rows, exactly ``cfg.forget_size``,
    and a logistic task's labels are -1 or +1.
    """
    datasets, bad = [], []
    for i, name in enumerate(_data_files(cfg.n_clients), start=1):
        with open(os.path.join(path, name), "r", encoding="utf-8") as fh:
            try:
                data = dataset_from_lines(fh)
            except ValueError as exc:
                bad.append(f"{name}: {exc}")
                continue
        if cfg.objective == "logistic" and np.any(np.abs(data.labels) != 1.0):
            bad.append(f"{name} has labels other than -1 and +1, which objective=logistic needs")
        if i <= cfg.n_clients and data.n_u != cfg.local_size:
            bad.append(f"{name} has {data.n_u} rows, not local_size={cfg.local_size}")
        if data.dim != cfg.dim:
            bad.append(f"{name} has {data.dim} features, not dim={cfg.dim}")
        if i == cfg.unlearn_client and data.m != cfg.forget_size:
            bad.append(f"{name} flags {data.m} rows, not forget_size={cfg.forget_size}")
        elif i != cfg.unlearn_client and data.m:
            bad.append(f"{name} flags {data.m} rows; only the unlearning client's file may")
        datasets.append(data)
    if bad:
        raise ConfigError(bad)
    test = datasets.pop()
    objective = _TASK_OBJECTIVES[cfg.objective]
    return SyntheticTask(objective, tuple(datasets), test.features, test.labels)


def _run_inputs(args) -> tuple:
    """A run command's config, task (``--data``, else generated) and ``--init`` params.

    The params are None without ``--init``. Inputs that disagree with the
    config are a ``ConfigError`` raised before ``--out`` is made.
    """
    cfg = _load_config(args)
    data, init = getattr(args, "data", None), getattr(args, "init", None)
    task = _read_data_dir(cfg, data) if data else make_task(cfg)
    theta0 = load_params(init) if init else None
    if theta0 is not None and theta0.shape[0] != cfg.dim:
        raise ConfigError([f"{init} holds {theta0.shape[0]} values, not dim={cfg.dim}"])
    if theta0 is not None and not np.isfinite(theta0).all():
        raise ConfigError([f"{init} holds a value that is not finite"])
    _check_outdir(args.out, args.force, "--force")
    return cfg, task, theta0


def _cmd_gen_data(args) -> int:
    cfg, task, _ = _run_inputs(args)
    _write_data_dir(task, args.out)
    print(f"wrote {cfg.n_clients} client files and test.txt to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg, task, _ = _run_inputs(args)
    result = run_token_training(cfg, task.objective, list(task.datasets))
    save_result(result, args.out, force=True)
    print(f"trained {cfg.train_hops} hops; artifacts in {args.out}")
    return EXIT_OK


def _cmd_unlearn(args) -> int:
    cfg, task, theta0 = _run_inputs(args)
    datasets = list(task.datasets)
    _unlearning_sigma(cfg)  # an unverifiable calibration costs no walk
    if theta0 is None:
        trained = run_token_training(cfg, task.objective, datasets)
        theta0 = trained.final.params
        save_params(theta0, os.path.join(args.out, "pre_params.bin"))
    result = run_unlearning(cfg, task.objective, datasets, theta0)
    save_result(result, args.out, force=True)
    eps = result.report.view.eps
    eps_text = f"{eps:.10g}" if math.isfinite(eps) else "inf (noiseless run)"
    print(
        f"unlearned {cfg.unlearn_hops} hops; sigma = {result.report.sigma:.10g}; "
        f"achieved eps = {eps_text}"
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    cfg, task, _ = _run_inputs(args)
    result = run_certifier(cfg, task.objective, list(task.datasets))
    save_result(result, args.out, force=True)
    print(f"certifier run complete; artifacts in {args.out}")
    return EXIT_OK


def _cmd_capacity(args) -> int:
    if args.mode == "ddp" and args.csv:
        return _fail(EXIT_USAGE, "usage", "--csv needs --mode restart")
    if args.gammas and not args.csv:
        return _fail(EXIT_USAGE, "usage", "--gammas needs --csv")
    inputs = CapacityInputs(
        eps=args.eps, delta=args.delta, n_clients=args.n, dim=args.d, horizon=args.t,
        radius=args.radius, grad_bound=args.l, s=args.s, p=args.p, local_size=args.n_u,
        gamma=args.gamma, bias_constant=args.bias_constant,
    )
    if args.mode == "ddp":
        print(f"capacity_scaling = {baseline_capacity(inputs):.10g}")
        return EXIT_OK
    if args.csv:
        gammas = args.gammas or [args.gamma]
        rows = capacity_sweep_rows([inputs.replace(gamma=g) for g in gammas])
        write_capacity_csv(rows, args.csv)
        print(f"wrote {len(rows)} capacity rows to {args.csv}")
        return EXIT_OK
    m_star = unlearning_capacity(
        args.gamma, args.nonbias, args.n_u, args.l, args.bias_constant
    )
    regime = "variance-limited" if args.gamma <= args.nonbias else "bias-limited"
    print(f"m_star = {m_star}")
    print(f"regime = {regime}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    if args.mode == "ddp":
        sigma = baseline_group_sigma(args.eps, args.delta, args.l, args.edit)
        print(f"sigma = {sigma:.10g}")
        print("formula = sqrt(8 L^2 ln(1.25/delta)) * edit / eps")
        return EXIT_OK
    result = calibrate_unlearning_sigma(
        args.eps,
        args.delta,
        args.l,
        args.p,
        args.t_u,
        args.n,
        args.cal_constant,
    )
    print(f"sigma = {result.sigma:.10g}")
    print(f"achieved_eps = {result.achieved_eps:.10g}")
    print(f"attempts = {result.attempts}")
    print("formula = c * (L/eps) * sqrt(p T_u ln(1/delta) ln(N) / N), verified post hoc")
    return EXIT_OK


def _parse_sweep(items) -> dict:
    """``field=v1,v2`` specs to {field: values}, typed like config files.

    Only numeric fields can be swept (fail-closed); seeds come from --seeds.
    """
    types = _field_types()
    sweep = {}
    for item in items:
        if "=" not in item:
            raise ConfigError([f"bad sweep spec {item!r}, expected key=v1,v2"])
        key, _, text = item.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError([f"unknown key '{key}'"])
        if key == "seed":
            raise ConfigError(["seed cannot be swept; list seeds with --seeds"])
        if key in sweep:
            raise ConfigError([f"{key} is swept twice; list its values in one --sweep"])
        typ = float if key == "sigma" else types[key]
        if typ not in (int, float):
            raise ConfigError([f"{key} is not numeric and cannot be swept"])
        try:
            sweep[key] = tuple(_parse_value(key, v.strip(), typ) for v in text.split(","))
        except ValueError:
            raise ConfigError([f"{key}: cannot parse sweep values {text!r}"]) from None
    return sweep


def _point_filename(keys, point) -> str:
    parts = [f"{k}={_fmt(point[k])}" for k in keys]
    return "point_" + "_".join(parts).replace("/", "_") + ".csv"


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sweep = _parse_sweep(args.sweep)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ConfigError([f"--seeds must list integers, got {args.seeds!r}"]) from None
    keys = sorted(sweep)
    points = list(_sweep_points(sweep))

    def path(point):
        return os.path.join(args.out, _point_filename(keys, point))

    files = [path(point) for point in points]
    repeated = sorted(os.path.basename(f) for f, n in Counter(files).items() if n > 1)
    if repeated:
        raise ConfigError([f"sweep values repeat a point: {', '.join(repeated)}"])
    # one result file per sweep point, each written as soon as its point
    # finishes (rows in --seeds order); an existing file is read once, and
    # kept only if it holds exactly this point's rows for these seeds
    kept = [_kept_rows(f, keys, point, seeds) for point, f in zip(points, files)]
    todo = [point for point, rows in zip(points, kept) if rows is None]
    made = []

    def write_point(point, rows):
        # --out appears only once the driver has validated every config
        os.makedirs(args.out, exist_ok=True)
        rows_to_csv(rows, keys, path(point))
        made.extend(rows)

    _run_sweep(cfg, keys, todo, seeds, on_point=write_point)
    all_rows = [row for rows in kept if rows is not None for row in rows] + made
    rows_to_csv(_sort_rows(all_rows, keys), keys, os.path.join(args.out, "sweep.csv"))
    print(f"sweep complete: {len(points)} points, {len(all_rows)} rows")
    return EXIT_OK


def _kept_rows(path, keys, point, seeds):
    """The rows of point file ``path``, if they are exactly ``point``'s for ``seeds``; else None.

    Exactly means the sweep's columns, one row per seed (in ``seeds`` order)
    and phase (pre, post, certifier), and ``point``'s value in every sweep
    column. A missing or unreadable file is None too, so the point is run.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = _read_point_csv(fh)
    except (FileNotFoundError, ValueError, TypeError, csv.Error):
        return None
    header = tuple(keys) + EXPERIMENT_CSV_HEADER
    expected = [(seed, phase) for seed in seeds for phase in _PHASE_ORDER]
    if [(row.get("seed"), row.get("phase")) for row in rows] != expected or any(
        tuple(row) != header or any(_fmt(row[k]) != _fmt(point[k]) for k in keys)
        for row in rows
    ):
        return None
    return rows


def _read_point_csv(fh):
    types = _field_types()
    rows = []
    for raw in csv.DictReader(fh):
        row = {}
        for k, v in raw.items():
            if v == "":
                row[k] = None
            elif k == "phase":
                row[k] = v
            else:
                row[k] = _parse_value(k, v, types.get(k, float))
        rows.append(row)
    return rows


def _finite_float(text: str) -> float:
    """A float option's value; nan and inf are refused, as is anything not a number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _finite_floats(text: str) -> list:
    """A comma-separated list of ``_finite_float`` values."""
    return [_finite_float(item) for item in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error: usage:`` line (exit 2)."""

    def error(self, message):
        sys.exit(_fail(EXIT_USAGE, "usage", f"{self.prog}: {message}"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="walkforget",
        description="Certified unlearning on decentralized networks, token-walk simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p, with_data=True, with_init=False):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if with_data:
            p.add_argument("--data", default=None, help="data directory from gen-data")
        if with_init:
            p.add_argument("--init", default=None, help="initial params.bin to unlearn from")

    p = sub.add_parser("gen-data", help="generate the synthetic task files")
    add_run_args(p, with_data=False)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="token-walk training run")
    add_run_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("unlearn", help="unlearning walk from a trained model")
    add_run_args(p, with_init=True)
    p.set_defaults(func=_cmd_unlearn)

    p = sub.add_parser("certify", help="retrain-and-no-op-unlearn reference run")
    add_run_args(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("capacity", help="deletion-capacity calculators")
    p.add_argument("--mode", choices=("ddp", "restart"), required=True)
    p.add_argument("--eps", type=_finite_float, default=1.0)
    p.add_argument("--delta", type=_finite_float, default=1e-5)
    p.add_argument("--n", type=int, default=10, help="number of clients")
    p.add_argument("--d", type=int, default=10, help="model dimension")
    p.add_argument("--t", type=int, default=100, help="horizon")
    p.add_argument("--radius", type=_finite_float, default=10.0)
    p.add_argument("--l", type=_finite_float, default=1.0, help="gradient bound")
    p.add_argument("--s", type=int, default=1, help="local averaging factor")
    p.add_argument("--gamma", type=_finite_float, default=0.1)
    p.add_argument("--nonbias", "--A", dest="nonbias", type=_finite_float, default=0.0,
                   help="forget-size-independent excess-risk term")
    p.add_argument("--n-u", dest="n_u", type=int, default=200, help="local data size")
    p.add_argument("--bias-constant", type=_finite_float, default=2.0)
    p.add_argument("--p", type=_finite_float, default=0.1, help="routing probability")
    p.add_argument("--gammas", type=_finite_floats, default=None,
                   help="comma-separated gamma sweep")
    p.add_argument("--csv", default=None, help="write a capacity sweep CSV here")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("calibrate", help="noise-scale calibrators")
    p.add_argument("--mode", choices=("ddp", "restart"), required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, required=True)
    p.add_argument("--l", "--L", dest="l", type=_finite_float, required=True)
    p.add_argument("--edit", type=int, default=1, help="group edit distance (ddp)")
    p.add_argument("--p", type=_finite_float, default=0.1)
    p.add_argument("--t-u", dest="t_u", type=int, default=100)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--cal-constant", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_calibrate)

    # no abbreviations: "--seed" would silently stand for "--seeds"
    p = sub.add_parser("sweep", help="experiment sweep with resumable points",
                       allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sweep", action="append", default=[],
                   help="field=v1,v2,... (repeatable)")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except CalibrationError as exc:
        return _fail(EXIT_RUNTIME, "calibration", str(exc))
    except FileExistsError as exc:
        return _fail(EXIT_RUNTIME, "exists", str(exc))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_RUNTIME, "runtime", str(exc))


if __name__ == "__main__":
    sys.exit(main())
