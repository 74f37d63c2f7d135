"""oscilab benchmark: four closed-loop workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload pack1d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; oscilab is imported from `src/` and
the oracles from `tests/oracles.py`, so nothing needs installing.  Each run
starts fresh worker processes (worker.py) with one BLAS/OpenMP thread and
`OSCILAB_THREADS=1`: two that stop after set-up and one that also runs the
timed loop; `setup_s` is the median of their three set-up times.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  The line before it records the
environment, the failure fraction, the tail percentile and the output
digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pack1d", "pack2d", "operators", "suites")
SETUP_PROBES = 2

# set before the workers import numpy; no workload may exceed nproc threads
THREAD_ENV = {
    "OSCILAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

class RunError(Exception):
    pass


def spawn(args, workdir: str, probe: bool) -> dict:
    """Run one fresh worker process to completion; return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, **THREAD_ENV)
    cmd += ["--spawn-ts", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def environment() -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": THREAD_ENV,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("BENCHMARK.json", "src/oscilab/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from an oscilab "
                  "source checkout", file=sys.stderr)
            return 2

    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [spawn(args, workdir, True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = spawn(args, workdir, False)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    env = environment()
    if res["threads_max"] > env["nproc"]:
        print(f"error: worker ran {res['threads_max']} threads on "
              f"{env['nproc']} cores", file=sys.stderr)
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        wanted, values = spec["per_layer"], res["trace"]
    else:
        wanted, values = spec["end_to_end"], dict(res, setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    digests = res["digests"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "setup_samples_s": setups,
        "passes": res["passes"],
        "samples": res["samples"],
        "fail_frac": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
        "op_tail": {"percentile": res["op_tail_pct"],
                    "samples_beyond": res["op_tail_beyond"]},
        "threads_max": res["threads_max"],
        "failures": res["reasons"],
        "digest_all": _digest_all(digests),
        "digests": digests,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _digest_all(digests: dict) -> str | None:
    if not digests:
        return None
    blob = json.dumps(digests, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
