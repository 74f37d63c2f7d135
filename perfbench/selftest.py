"""Self-test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks that every metric is printed with its unit for every workload, that
a corrupted output counts as a failed op, that traced per-layer self times
sum to the traced op wall time, and that two runs with one seed give the
same output digests.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def fail(message: str) -> None:
    print(f"selftest FAIL: {message}")
    sys.exit(1)


def run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_metrics(spec: dict) -> dict:
    """Every workload prints every metric with its unit; returns digests."""
    digests = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            info, res = run(name, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{name} trace={trace}: failures {info['failures']}")
            got = res["metrics"]
            for m in wanted:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    fail(f"{name} trace={trace}: metric {m['name']} missing "
                         f"or not in {m['unit']}")
            if set(got) != {m["name"] for m in wanted}:
                fail(f"{name} trace={trace}: extra metrics "
                     f"{sorted(set(got) - {m['name'] for m in wanted})}")
            if info["fail_frac"] != {"value": 0.0, "unit": "ratio"}:
                fail(f"{name}: fail_frac {info['fail_frac']}")
            if trace:
                selfs = sum(v["value"] for k, v in got.items()
                            if k.endswith(".self_s"))
                wall = got["trace.op_wall_s"]["value"]
                if abs(selfs - wall) > 1e-9 * max(wall, 1.0):
                    fail(f"{name}: layer self times {selfs} != op wall {wall}")
            digests.setdefault(name, []).append(info["digests"])
        print(f"selftest ok: {name} metrics, units, self-time sum")
    return digests


def check_determinism(digests: dict) -> None:
    for name in ("pack1d", "suites"):
        first, second = digests[name]
        common = set(first) & set(second)
        if not common or any(first[k] != second[k] for k in common):
            fail(f"{name}: digests differ between two runs of seed {SEED}")
        print(f"selftest ok: {name} digests repeat ({len(common)} outputs)")


def check_corruption() -> None:
    """A doubled K value and a suite report flipped to failed both fail."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import worker
    import workloads

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        wl = workloads.Workload("pack1d", SEED, tmp, pool=1)
        plain_ops = wl.ops

        def double_a_k_value(fn):
            def run():
                path = fn()
                with open(path) as fh:
                    lines = fh.read().splitlines()
                i = len(lines) // 2
                t, v, method = lines[i].split(",")
                lines[i] = f"{t},{2 * float(v)!r},{method}"
                with open(path, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                return path
            return run

        target = next(n for n, g, _ in plain_ops(0) if g == "kprofile.PACK")
        wl.ops = lambda k: [(n, g, double_a_k_value(fn) if n == target else fn)
                            for n, g, fn in plain_ops(k)]
        loop = worker.Loop(wl)
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's "wrote" lines
            loop.run_pass(0)
        if target not in loop.reasons or len(loop.failed) != 1:
            fail(f"doubled K value not caught: {loop.reasons}")
        print(f"selftest ok: doubled K value fails {target}: {loop.reasons[target]}")

        suites = workloads.Workload("suites", SEED, tmp, pool=1)
        report = suites.ops(0)[4][2]()  # morrey, the cheapest suite
        name = f"suite.{report['suite']}"
        if suites.check_pass(0, {name: report}):
            fail("a passing suite report was rejected")
        flipped = dict(report, passed=False)
        if name not in suites.check_pass(0, {name: flipped}):
            fail("a suite report flipped to failed was accepted")
        print(f"selftest ok: flipped {name} report fails")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_corruption()
    check_determinism(check_metrics(spec))
    print("selftest PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
