"""One workload in one fresh process: set-up, the timed closed loop, checks.

Started by run.py with the thread variables already in its environment, so
they are in force before numpy is imported.  Prints one JSON line.

    python3 perfbench/worker.py --workload pack1d --seed 0 --seconds 20 \
        --trace 0 --spawn-ts <time.monotonic() at spawn> --workdir DIR [--probe]

With --probe the process stops after set-up and reports only its set-up
time, so run.py can take the median over several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL = 16  # input sets per run; passes cycle through them


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return threading.active_count()


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ts", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


def setup(args):
    """Imports, input pool, CSV writes and the first HiGHS call."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                    os.path.dirname(os.path.abspath(__file__))]
    import scipy.optimize

    import workloads

    wl = workloads.Workload(args.workload, args.seed, args.workdir, POOL)
    scipy.optimize.linprog([1.0], bounds=[(0.0, 1.0)], method="highs")
    return wl


class Loop:
    """Closed loop over whole passes; one op is issued after the previous
    returns.  Latencies and CPU cover the op calls only."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list = []
        self.cpu = 0.0
        self.failed: set = set()  # indices into latencies
        self.attempted = 0
        self.reasons: dict = {}
        self.digests: dict = {}
        self.groups: dict = {}  # op group -> op instances run
        self.threads_max = os_threads()

    def run_pass(self, k: int, tracer=None) -> float:
        """Run one pass over input set k; return its timed wall seconds."""
        outputs, failures, index = {}, {}, {}
        wall = 0.0
        ops = self.wl.ops(k)
        if tracer is not None:
            tracer.install()
        try:
            for name, group, fn in ops:
                if tracer is not None:
                    tracer.op_id += 1
                    root = tracer.open("bench.op", "bench")
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    outputs[name] = fn()
                except Exception as exc:  # an op that raises is a failed op
                    failures[name] = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                self.cpu += time.process_time() - c0
                if tracer is not None:
                    tracer.close(root)
                    if name in outputs and name.startswith("kprofile."):
                        tracer.counts["io.bytes_written"] += os.path.getsize(
                            outputs[name])
                wall += dt
                index[name] = len(self.latencies)
                self.latencies.append(dt)
                self.groups.setdefault(group, []).append((name, index[name]))
        finally:
            if tracer is not None:
                tracer.uninstall()
        for name, reason in self.wl.check_pass(k, outputs).items():
            failures.setdefault(name, reason)
        for name, out in outputs.items():
            digest = self.wl.digest(name, out)
            if digest is None:
                continue
            key = f"{k}/{name}"
            prev = self.digests.setdefault(key, digest)
            if prev != digest:
                failures.setdefault(name, "output differs from an earlier pass "
                                          "over the same input set")
        self.attempted += len(ops)
        for name, reason in failures.items():
            self.failed.add(index[name])
            self.reasons.setdefault(name, reason)
        self.threads_max = max(self.threads_max, os_threads())
        return wall

    def run_oracles(self) -> None:
        """Fail every op of a group whose function disagrees with the oracle."""
        for group, reason in self.wl.oracle_check().items():
            for name, i in self.groups.get(group, []):
                self.reasons.setdefault(name, "oracle: " + reason)
                self.failed.add(i)


MIN_PASSES = 2


def timed_passes(loop: Loop, seconds: float) -> list:
    """Whole passes until `seconds` of timed op wall time, and at least
    MIN_PASSES: a workload whose pass takes about `seconds` (suites) then
    runs the same number of passes on a slightly faster or slower host."""
    walls: list = []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        walls.append(loop.run_pass(loop.wl.set_for_pass(len(walls))))
    return walls


def paired_passes(loop: Loop, seconds: float, tracer) -> tuple:
    """Each input set once untraced and once traced, back to back, with the
    traced pass first in every other pair; pairs until `seconds` of timed op
    wall time, at least one.  Returns (untraced walls, traced walls)."""
    untraced: list = []
    traced: list = []
    while not traced or sum(untraced) + sum(traced) < seconds:
        k = loop.wl.set_for_pass(len(traced))
        if len(traced) % 2:
            traced.append(loop.run_pass(k, tracer))
            untraced.append(loop.run_pass(k))
        else:
            untraced.append(loop.run_pass(k))
            traced.append(loop.run_pass(k, tracer))
    return untraced, traced


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with >= 10 samples beyond it;
    (value, percentile, samples beyond).  With fewer than 21 samples that
    percentile would sit at or below the median, so the maximum is given."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = setup(args)
    setup_s = time.monotonic() - args.spawn_ts
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(wl)
    result = {"setup_s": setup_s}
    if args.trace == 0:
        walls = timed_passes(loop, args.seconds)
    else:
        from spans import Tracer

        tracer = Tracer()
        untraced, traced = paired_passes(loop, args.seconds, tracer)
        result["trace"] = tracer.summary(len(traced))
        result["trace"]["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced, untraced)) - 1.0
        tracer.write(os.path.join(
            os.path.dirname(args.workdir),
            f"spans-{args.workload}-seed{args.seed}.jsonl"))
        walls = untraced + traced
    loop.run_oracles()

    value, pct, beyond = tail(loop.latencies)
    n = len(loop.latencies)
    result.update({
        "passes": len(walls),
        "attempted": loop.attempted,
        "failed": len(loop.failed),
        "reasons": dict(sorted(loop.reasons.items())[:20]),
        "ops_per_s": n / sum(walls),
        # the lower median is the latency of one op; the midpoint of the two
        # middle samples falls in the gap between two op kinds on suites
        "op_p50_s": statistics.median_low(loop.latencies),
        "op_tail_s": value,
        "op_tail_pct": pct,
        "op_tail_beyond": beyond,
        "samples": n,
        "cpu_per_op_s": loop.cpu / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads_max": loop.threads_max,
        "digests": loop.digests,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
