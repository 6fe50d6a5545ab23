"""One measured execution of a workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <mode> <workdir> [<out file>]

Modes: ``0`` untraced, ``1`` traced. An untraced process writes the
body's clock stretches to the out file and its speed probes next to it
(clock.py); a traced one writes its spans. Run by run.py with ``src`` on
PYTHONPATH. Set-up time starts before walkforget is imported. Prints one
JSON object as its last line.
"""

import json
import os
import resource
import sys
import time

_t0 = time.perf_counter()
import walkforget  # noqa: E402  (set-up time includes the package import)
import walkforget.cli  # noqa: E402,F401
_import_s = time.perf_counter() - _t0

from walkforget import (  # noqa: E402
    accountant, cli, core, evaluation, network, objectives, optimizer, protocols,
)

import clock  # noqa: E402
import gate  # noqa: E402
import patches  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = {
    "core": core, "network": network, "optimizer": optimizer, "objectives": objectives,
    "accountant": accountant, "protocols": protocols, "evaluation": evaluation, "cli": cli,
}


def main(argv) -> int:
    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    workload = workloads.WORKLOADS[name](seed, workdir)
    traced = mode == "1"
    swaps = patches.Patches()
    spans = tracer.Tracer() if traced else None
    stamps = None if traced else clock.Clock()
    if spans is not None:
        spans.install(swaps, MODULES)
    else:
        stamps.install(swaps, MODULES)
    checker = gate.Gate()
    checker.install(swaps, MODULES)
    try:
        t = time.perf_counter()
        workload.setup()
        setup_s = _import_s + time.perf_counter() - t
        t = time.perf_counter()
        if spans is not None:
            with spans.span("bench.body"):
                workload.body()
        else:
            stamps.start()
            workload.body()
            stamps.stop()
        wall_s = time.perf_counter() - t
    finally:
        swaps.restore()
    ops = checker.operations()
    files_digest = workload.check_files(ops)
    ops += workloads.check_counts(workload, ops)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "hops": workload.hops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [[op.kind, op.digest, op.problems] for op in ops],
        "files_digest": files_digest,
        "debug": __debug__,
    }
    if stamps is not None and len(argv) > 4:
        out["stretches"] = stamps.write(argv[4])
    if spans is not None:
        layers, ranking = spans.layer_metrics(workload.cli_points_requested, workload.cli_seeds)
        out["layers"] = layers
        out["self_time_ranking"] = ranking
        if len(argv) > 4:
            spans.write_spans(argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the task only delays the next process.
    os._exit(code)
