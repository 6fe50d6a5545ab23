"""walkforget benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload point-boundary --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root. Each measured execution of the workload body
is a fresh Python process (perfbench/worker.py), started one after another
(closed loop, one caller) until ``--seconds`` is used up, at least three
times. Untraced runs (``--trace 0``) report the end-to-end metrics over
those processes: the body's wall time estimated for a fast core from
clock readings and speed probes (clock.py), and the median set-up and
memory.
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics of the traced ones.

Every operation (a protocol walk or a sweep point) is checked and digested;
a failed check, or a digest that differs between processes, from an earlier
run of the same workload, seed and code, or between traced and untraced
processes, counts as a failed operation. The last line of stdout is one
JSON object: correct, attempted, failed, metrics. Working files, results
with the environment record, and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from clock import steady_sum

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point-boundary", "sweep-p", "wide-traced")
MIN_RUNS = 3
RUN_LIMIT_S = 170.0  # the whole invocation ends well inside 180 s

# (name, unit, statistic over the run's processes). wall_s and hops_per_s
# come from clock.steady_sum.
END_TO_END = (
    ("setup_s", "s", "median"),
    ("wall_s", "s", "steady estimate"),
    ("hops_per_s", "hops/s", "steady estimate"),
    ("peak_rss_mb", "MiB", "median"),
)

UNCONTROLLED = (
    "shared machine: other tenants' load varies and is not measured",
    "no CPU governor, frequency or turbo control",
    "no page-cache control (files are read warm after the first run)",
    "BLAS threads left at the library default",
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    last = name.rsplit(".", 1)[-1]
    if name.startswith("share.") or name.endswith("_ratio"):
        return "1"
    if last in ("s", "two_ball_s"):
        return "s"
    if last in ("us", "self_us"):
        return "us"
    return {"ms": "ms", "us_per_hop": "us/hop", "self_us_per_hop": "us/hop",
            "mb_computed": "MB", "kb": "KiB"}.get(last, "count")


def code_digest() -> str:
    h = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "walkforget"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()


def environment(seed: int, debug) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(np),
        "assertions_on": debug,
        "git_commit": commit,
        "code_digest": code_digest(),
        "workload_seed": seed,
        "not_controlled": list(UNCONTROLLED),
    }


def blas_threads(np):
    """OpenBLAS thread count as the library reports it, when it exposes one."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


class Digests:
    """Reference digests per (workload, seed, code), kept across runs."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.table = json.load(fh)
        except (OSError, ValueError):
            self.table = {}

    def get(self, key):
        return self.table.get(key)

    def put(self, key, value) -> None:
        self.table[key] = value
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.table, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def stretches_path(workload, index):
    return os.path.join(OUT, "stretches", f"{workload}-{index}.f8")


def run_child(workload, seed, mode, index, deadline):
    workdir = os.path.join(OUT, "work", f"{workload}-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, workdir]
    if mode == "1":
        cmd.append(os.path.join(OUT, "spans", f"{workload}-seed{seed}-{index}.tsv"))
    elif mode == "0":
        cmd.append(stretches_path(workload, index))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=os.path.join(OUT, "tmp"))
    env.pop("PYTHONOPTIMIZE", None)  # assertions stay on
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 5.0))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, (done.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(lines[-1]), None


def measure(workload, seed, seconds, trace):
    """Run fresh worker processes until the time is used.

    Returns the body runs and the errors of runs that failed.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    pattern = ("0", "1") if trace else ("0",)
    runs, crashes = [], []
    rounds = 0
    while True:
        for mode in pattern:
            index = len(runs) + len(crashes)
            result, error = run_child(workload, seed, mode, index, deadline)
            if result is None:
                crashes.append(error)
            else:
                result["traced"] = mode == "1"
                result["index"] = index
                runs.append(result)
        rounds += 1
        elapsed = time.monotonic() - start
        step = elapsed / rounds
        enough = rounds >= (1 if trace else MIN_RUNS)
        if (enough and elapsed + step > seconds) or elapsed + step > RUN_LIMIT_S - 5 or crashes:
            return runs, crashes


def count_failures(workload, seed, runs, crashes):
    """(attempted, failed, problems) over every run, digests compared to a reference."""
    store = Digests(os.path.join(OUT, "digests.json"))
    key = f"{workload}|{seed}|{code_digest()}"
    stored = store.get(key)
    reference = stored or ([op[1] for op in runs[0]["ops"]], runs[0]["files_digest"]) if runs else None
    attempted = failed = 0
    problems = [f"worker failed: {c}" for c in crashes]
    for run in runs:
        ref_ops, ref_files = reference
        files_differ = run["files_digest"] != ref_files
        if files_differ:
            problems.append("written files differ from the reference run")
        for i, (kind, digest, op_problems) in enumerate(run["ops"]):
            attempted += 1
            differs = files_differ or i >= len(ref_ops) or digest != ref_ops[i]
            if differs and not files_differ:
                problems.append(f"{kind} #{i}: output digest differs from the reference run")
            problems.extend(op_problems)
            failed += bool(op_problems or differs)
    per_run = len(runs[0]["ops"]) if runs else 1
    attempted += per_run * len(crashes)
    failed += per_run * len(crashes)
    if runs and not failed and stored is None:
        store.put(key, reference)
    return attempted, failed, problems


def run_workload(workload, seed, seconds, trace):
    runs, crashes = measure(workload, seed, seconds, trace)
    attempted, failed, problems = count_failures(workload, seed, runs, crashes)
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not plain or (trace and not traced):
        for p in problems:
            print(f"  problem: {p}", file=sys.stderr)
        raise SystemExit(f"{workload}: no run of the workload completed")
    print(f"{workload} seed={seed}: {len(plain)} untraced and {len(traced)} traced runs, "
          f"each a fresh process")
    clock_details = {}
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace_overhead_ratio"] = (min(r["wall_s"] for r in traced)
                                          / min(r["wall_s"] for r in plain))
        metrics = {}
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            print(f"  {name:40s} {value:>14.6g} {layer_unit(name)}")
        print("  self time, share of the traced body (first traced run):")
        for name, share in traced[0]["self_time_ranking"]:
            print(f"    {share:7.1%}  {name}")
    else:
        steady = steady_sum([stretches_path(workload, r["index"]) for r in plain])
        if steady is None:
            problems.append("bodies cut into different stretches; wall_s is the fastest body")
            steady = (min(r["wall_s"] for r in plain), {})
        wall_s, clock_details = steady
        setup = [r["setup_s"] for r in plain]
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (wall_s, len(plain)),
            "hops_per_s": (plain[0]["hops"] / wall_s, len(plain)),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), len(plain)),
        }
        metrics = {}
        for name, unit, statistic in END_TO_END:
            value, n = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:14s} {value:>14.6g} {unit:7s} {statistic} of {n} processes")
        print(f"  (fastest single body {min(r['wall_s'] for r in plain):.6g} s, "
              f"{plain[0].get('stretches', 0)} stretches per body, "
              + ", ".join(f"{k} {v:.4g}" for k, v in clock_details.items()) + ")")
    print(f"  failed_ratio   {failed / attempted:>14.6g} 1       {failed} of {attempted} operations")
    for p in problems[:20]:
        print(f"  problem: {p}")
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed, all(r["debug"] for r in runs)),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "clock": clock_details,
        "runs": [{k: v for k, v in r.items() if k != "ops"} for r in runs],
    }
    with open(os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "walkforget", "__init__.py")):
        print("error: src/walkforget not found; run from the repository root", file=sys.stderr)
        return 2
    for sub in ("work", "results", "spans", "stretches", "tmp"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")

if __name__ == "__main__":
    sys.exit(main())
