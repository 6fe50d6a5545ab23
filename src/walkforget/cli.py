"""Command-line entry point.

Subcommands: gen-data, train, unlearn, certify, capacity, sweep, calibrate.
Every subcommand is pure with respect to (config, seed): re-running
reproduces artifacts byte-exactly. Exit codes: 0 success, 1 runtime
failure, 2 usage error, 3 config validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

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
from .core import ConfigError, RunConfig, _field_types, _parse_value, config_from_file
from .evaluation import (
    ExperimentSpec,
    _run_sweep,
    _sort_rows,
    _sweep_points,
    make_task,
    rows_to_csv,
)
from .objectives import SyntheticTask, dataset_from_lines, dataset_to_lines
from .protocols import (
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


def _prepare_outdir(path: str, force: bool) -> None:
    os.makedirs(path, exist_ok=True)
    existing = [f for f in os.listdir(path) if not f.startswith(".")]
    if existing and not force:
        raise FileExistsError(f"output directory {path} is not empty (use --force)")


def _load_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return config_from_file(args.config, overrides)


def _write_data_dir(task: SyntheticTask, outdir: str) -> None:
    for i, data in enumerate(task.datasets, start=1):
        path = os.path.join(outdir, f"client_{i:02d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(dataset_to_lines(data)) + "\n")
    test_lines = []
    for x, y in zip(task.test_features, task.test_labels):
        cols = [f"{v:.17g}" for v in x] + [f"{y:.17g}", "0"]
        test_lines.append(" ".join(cols))
    with open(os.path.join(outdir, "test.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(test_lines) + "\n")


def _read_data_dir(cfg: RunConfig, path: str) -> SyntheticTask:
    from .objectives import LogisticObjective, QuadraticObjective

    datasets = []
    for i in range(1, cfg.n_clients + 1):
        fname = os.path.join(path, f"client_{i:02d}.txt")
        with open(fname, "r", encoding="utf-8") as fh:
            datasets.append(dataset_from_lines(fh.readlines()))
    with open(os.path.join(path, "test.txt"), "r", encoding="utf-8") as fh:
        test = dataset_from_lines(fh.readlines())
    objective = (
        QuadraticObjective(grad_bound=cfg.grad_bound)
        if cfg.objective == "quadratic"
        else LogisticObjective()
    )
    return SyntheticTask(objective, tuple(datasets), test.features, test.labels)


def _obtain_task(cfg: RunConfig, args) -> SyntheticTask:
    if getattr(args, "data", None):
        return _read_data_dir(cfg, args.data)
    return make_task(cfg)


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    _prepare_outdir(args.out, args.force)
    task = make_task(cfg)
    _write_data_dir(task, args.out)
    print(f"wrote {cfg.n_clients} client files and test.txt to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    _prepare_outdir(args.out, args.force)
    task = _obtain_task(cfg, args)
    result = run_token_training(cfg, task.objective, list(task.datasets))
    save_result(result, args.out, force=True)
    print(f"trained {cfg.train_hops} hops; artifacts in {args.out}")
    return EXIT_OK


def _cmd_unlearn(args) -> int:
    cfg = _load_config(args)
    _prepare_outdir(args.out, args.force)
    task = _obtain_task(cfg, args)
    datasets = list(task.datasets)
    if args.init:
        from .protocols import load_params

        theta0 = load_params(args.init)
    else:
        trained = run_token_training(cfg, task.objective, datasets)
        theta0 = trained.final.params
        save_params(theta0, os.path.join(args.out, "pre_params.bin"))
    result = run_unlearning(cfg, task.objective, datasets, theta0, theta_ref=theta0)
    save_result(result, args.out, force=True)
    eps = result.report.view.eps
    eps_text = f"{eps:.10g}" if math.isfinite(eps) else "inf (noiseless run)"
    print(
        f"unlearned {cfg.unlearn_hops} hops; sigma = {result.report.sigma:.10g}; "
        f"achieved eps = {eps_text}"
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    cfg = _load_config(args)
    _prepare_outdir(args.out, args.force)
    task = _obtain_task(cfg, args)
    result = run_certifier(cfg, task.objective, list(task.datasets))
    save_result(result, args.out, force=True)
    print(f"certifier run complete; artifacts in {args.out}")
    return EXIT_OK


def _cmd_capacity(args) -> int:
    if args.mode == "ddp":
        inputs = CapacityInputs(
            eps=args.eps,
            delta=args.delta,
            n_clients=args.n,
            dim=args.d,
            horizon=args.t,
            radius=args.radius,
            grad_bound=args.l,
            s=args.s,
        )
        value = baseline_capacity(inputs)
        print(f"capacity_scaling = {value:.10g}")
        return EXIT_OK
    if args.csv:
        gammas = [float(g) for g in args.gammas.split(",")] if args.gammas else [args.gamma]
        points = [
            CapacityInputs(
                eps=args.eps, delta=args.delta, n_clients=args.n, dim=args.d,
                horizon=args.t, radius=args.radius, grad_bound=args.l,
                s=args.s, p=args.p, local_size=args.n_u, gamma=g,
                bias_constant=args.bias_constant,
            )
            for g in gammas
        ]
        rows = capacity_sweep_rows(points)
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
        args.amp_constant,
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
        typ = float if key == "sigma" else types[key]
        if typ not in (int, float):
            raise ConfigError([f"{key} is not numeric and cannot be swept"])
        try:
            sweep[key] = tuple(_parse_value(key, v.strip(), typ) for v in text.split(","))
        except ValueError:
            raise ConfigError([f"{key}: cannot parse sweep values {text!r}"]) from None
    return sweep


def _point_filename(keys, point) -> str:
    parts = [f"{k}={point[k]:.10g}" if isinstance(point[k], float) else f"{k}={point[k]}"
             for k in keys]
    return "point_" + "_".join(parts).replace("/", "_") + ".csv"


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    sweep = _parse_sweep(args.sweep)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ConfigError([f"--seeds must list integers, got {args.seeds!r}"]) from None
    if len(set(seeds)) < len(seeds):
        raise ConfigError([f"--seeds lists a seed more than once: {args.seeds!r}"])
    keys = sorted(sweep)
    points = list(_sweep_points(ExperimentSpec(cfg, sweep, seeds)))

    def path(point):
        return os.path.join(args.out, _point_filename(keys, point))

    files = [path(point) for point in points]
    repeated = sorted(os.path.basename(f) for f, n in Counter(files).items() if n > 1)
    if repeated:
        raise ConfigError([f"sweep values repeat a point: {', '.join(repeated)}"])
    # one result file per sweep point, each written as soon as its point
    # finishes (rows in --seeds order); existing files are trusted and skipped
    todo = [point for point, f in zip(points, files) if not os.path.exists(f)]
    _run_sweep(cfg, keys, todo, seeds,
               on_point=lambda point, rows: rows_to_csv(rows, keys, path(point)))
    all_rows = []
    for f in files:
        with open(f, "r", encoding="utf-8") as fh:
            all_rows.extend(_read_point_csv(fh))
    rows_to_csv(_sort_rows(all_rows, keys), keys, os.path.join(args.out, "sweep.csv"))
    print(f"sweep complete: {len(points)} points, {len(all_rows)} rows")
    return EXIT_OK


def _read_point_csv(fh):
    import csv as _csv

    types = _field_types()
    rows = []
    for raw in _csv.DictReader(fh):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--n", type=int, default=10, help="number of clients")
    p.add_argument("--d", type=int, default=10, help="model dimension")
    p.add_argument("--t", type=int, default=100, help="horizon")
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--l", type=float, default=1.0, help="gradient bound")
    p.add_argument("--s", type=int, default=1, help="local averaging factor")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--nonbias", "--A", dest="nonbias", type=float, default=0.0,
                   help="forget-size-independent excess-risk term")
    p.add_argument("--n-u", dest="n_u", type=int, default=200, help="local data size")
    p.add_argument("--bias-constant", type=float, default=2.0)
    p.add_argument("--p", type=float, default=0.1, help="routing probability")
    p.add_argument("--gammas", default=None, help="comma-separated gamma sweep")
    p.add_argument("--csv", default=None, help="write a capacity sweep CSV here")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("calibrate", help="noise-scale calibrators")
    p.add_argument("--mode", choices=("ddp", "restart"), required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--l", "--L", dest="l", type=float, required=True)
    p.add_argument("--edit", type=int, default=1, help="group edit distance (ddp)")
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--t-u", dest="t_u", type=int, default=100)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--cal-constant", type=float, default=1.0)
    p.add_argument("--amp-constant", type=float, default=1.0)
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
