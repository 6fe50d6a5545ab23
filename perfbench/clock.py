"""Body wall time that resists the host's speed swings.

The host's cores run either at full speed or at about half of it. A state
lasts long against a hop (a reading of the speed agrees with the work done
300 µs later 99% of the time), and the share of slow time changes from
minute to minute, from under half to over 90% (README: "Run length,
bounds and noise"). A body's plain time follows that share.

So each untraced process reads the clock when the body starts, when it
ends, and on entry to every call of a few functions that run at least once
per hop: ``params_hash`` (once per hop, in every walk), ``batch_grad`` and
``batch_loss`` of both objectives, and ``optimizer._project_ball`` (twice
per Dykstra iteration). It also reads it on every call of ``range`` made
from walkforget's own code, which cuts nested loops such as the one in
``Graph.complete`` into one stretch per outer step. At most every
``PROBE_EVERY_S``, a marker also times ``reference_step``, a fixed piece
of work; that reading tells whether the core is fast or slow just then.
The probe's own time is taken out of the stretch it ran in.

The body is deterministic for a workload and seed, so every process of a
run cuts it into the same stretches. ``steady_sum`` then estimates each
stretch's time on a fast core (see its docstring) and adds them up. Every
stretch is counted once, so the sum covers the whole body; the markers set
only how finely it is cut. A change that drops markers (say, by inlining
``params_hash``) leaves their time in longer stretches, which are
estimated less well; give the benchmark a new marker then.
"""

from __future__ import annotations

import builtins
import time
import warnings
from array import array

import numpy as np

from patches import walkforget_modules

MARKED_FUNCTIONS = (("core", "params_hash"), ("optimizer", "_project_ball"))
MARKED_METHODS = (
    ("objectives", "LogisticObjective", "batch_grad"),
    ("objectives", "QuadraticObjective", "batch_grad"),
    ("objectives", "LogisticObjective", "batch_loss"),
    ("objectives", "QuadraticObjective", "batch_loss"),
)
PROBE_EVERY_S = 5e-4
SLOW = 1.3  # a reading this much above the fast one is a slow core
LONG_S = 2e-3  # stretches this long span both states; see steady_sum

_REFERENCE = np.linspace(-1.0, 1.0, 10)


def reference_step() -> float:
    """Fixed work of a few microseconds, like a Dykstra half-step."""
    total = 0.0
    for i in range(2):
        total += float(np.linalg.norm(_REFERENCE + i))
    return total


class Clock:
    def __init__(self):
        self.stamps = array("d")
        self.probe_at = array("d")  # index of the stretch a probe ran in
        self.probe_s = array("d")
        self._next_probe = [0.0]

    def _probe(self, now) -> None:
        reference_step()
        end = time.perf_counter()
        self.probe_at.append(len(self.stamps) - 1)
        self.probe_s.append(end - now)
        self._next_probe[0] = end + PROBE_EVERY_S

    def _marked(self, fn):
        stamp, clock, next_probe, probe = (
            self.stamps.append, time.perf_counter, self._next_probe, self._probe)

        def marked(*args, **kwargs):
            now = clock()
            stamp(now)
            if now >= next_probe[0]:
                probe(now)
            return fn(*args, **kwargs)

        return marked

    def install(self, patches, wf_modules) -> None:
        marked_range = self._marked(builtins.range)
        for module in walkforget_modules():
            patches.shadow(module, "range", marked_range)
        for module, name in MARKED_FUNCTIONS:
            fn = getattr(wf_modules[module], name)
            patches.replace(fn, self._marked(fn))
        for module, cls_name, attr in MARKED_METHODS:
            cls = getattr(wf_modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                patches.replace_attr(cls, attr, staticmethod(self._marked(raw.__func__)))
            else:
                patches.replace_attr(cls, attr, self._marked(raw))

    def start(self) -> None:
        """Forget the reads made so far (set-up), read the clock and probe."""
        del self.stamps[:], self.probe_at[:], self.probe_s[:]
        now = time.perf_counter()
        self.stamps.append(now)
        self._probe(now)

    def stop(self) -> None:
        self.stamps.append(time.perf_counter())

    def stretches(self) -> np.ndarray:
        """Seconds between consecutive clock reads, probes taken out."""
        out = np.diff(np.frombuffer(self.stamps, dtype=np.float64))
        at = np.frombuffer(self.probe_at, dtype=np.float64).astype(np.int64)
        np.subtract.at(out, at, np.frombuffer(self.probe_s, dtype=np.float64))
        return out

    def write(self, path) -> int:
        """Write the stretches to ``path`` and the probes to ``path.probes``."""
        stretches = self.stretches()
        stretches.astype("<f8").tofile(path)
        probes = np.column_stack([np.frombuffer(self.probe_at), np.frombuffer(self.probe_s)])
        probes.astype("<f8").tofile(path + ".probes")
        return stretches.size


def steady_sum(paths):
    """Estimate of the body's time on a fast core, from every process's files.

    The probes only sort time into fast and slow: the fast reading is the
    median of the readings near the lowest of the run, and a reading more
    than ``SLOW`` times it is slow. A stretch of a process is fast when the
    process's readings just before and just after it are both fast, slow
    when both are slow, and mixed otherwise. How much slower the
    workload's own code runs on a slow core (``ratio``) comes from the
    short stretches that some processes ran fast and others slow: the sum
    of their slow medians over the sum of their fast medians.

    A short stretch is charged at the median of its fast samples, or else
    at the median of its slow samples divided by ``ratio``. A stretch
    longer than ``LONG_S`` spans both states, and so does a short one with
    only mixed samples: each process's time for it is divided by that
    process's mean slowdown, 1 + (ratio - 1) * its share of slow readings,
    and the stretch is charged at the median of those.

    Returns (seconds, details), or None when the processes cut the body
    into different numbers of stretches, which happens only if the body is
    not deterministic.
    """
    times, states = [], []
    for path in paths:
        stretches = np.fromfile(path, dtype="<f8")
        probes = np.fromfile(path + ".probes", dtype="<f8").reshape(-1, 2)
        if times and stretches.size != times[0].size:
            return None
        times.append(stretches)
        states.append(probes)
    if not times:
        return None
    every = np.concatenate([probes[:, 1] for probes in states])
    fast = float(np.median(every[every <= SLOW * np.percentile(every, 0.5)]))
    D = np.vstack(times)
    quiet = np.empty(D.shape, dtype=bool)
    slow = np.empty(D.shape, dtype=bool)
    index = np.arange(D.shape[1])
    for k, probes in enumerate(states):
        fast_reading = probes[:, 1] <= SLOW * fast
        after = np.searchsorted(probes[:, 0], index, side="right")
        before = np.maximum(after - 1, 0)
        after = np.minimum(after, len(probes) - 1)
        quiet[k] = fast_reading[before] & fast_reading[after]
        slow[k] = ~fast_reading[before] & ~fast_reading[after]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        fast_median = np.nanmedian(np.where(quiet, D, np.nan), axis=0)
        slow_median = np.nanmedian(np.where(slow, D, np.nan), axis=0)
    short = D.min(axis=0) <= LONG_S
    both = short & np.isfinite(fast_median) & np.isfinite(slow_median)
    ratio = float(slow_median[both].sum() / fast_median[both].sum()) if both.any() else 1.0
    slow_share = np.array([np.mean(probes[:, 1] > SLOW * fast) for probes in states])
    long_estimate = np.median(D / (1.0 + (ratio - 1.0) * slow_share)[:, None], axis=0)
    short_estimate = np.where(np.isfinite(fast_median), fast_median,
                              np.where(np.isfinite(slow_median), slow_median / ratio, long_estimate))
    estimate = np.where(short, short_estimate, long_estimate)
    details = {
        "fast_share": float(1.0 - np.mean(every > SLOW * fast)),
        "slow_ratio": ratio,
        "stretches_without_fast_process": float(np.mean(~np.isfinite(fast_median))),
        "long_share": float(estimate[~short].sum() / estimate.sum()),
        "fastest_sum": float(D.min(axis=0).sum()),
    }
    return float(estimate.sum()), details
