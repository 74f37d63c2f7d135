"""Repeat the benchmark over seeds and record medians and spreads.

    python3 perfbench/steady.py --seeds 1-10 [--note "..."] --out perfbench/baseline.json

For every workload in BENCHMARK.json, runs `run.py --trace 0` once per seed
and reports, per end-to-end metric, the median and the spread (third minus
first quartile of `statistics.quantiles(values, n=4)`, as a share of the
median) next to the metric's bound, then one traced run at the first seed
for the per-layer breakdown.  The record also holds the workload
definitions, the environment and the output digests of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="range, as 1-10")
    ap.add_argument("--note", default=None, help="free text kept in the record")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import workloads

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "run_seconds": spec["run_seconds"],
        "params": workloads.PARAMS,
        "seeds": args.seeds,
        "note": args.note,
        "units": {m["name"]: m["unit"]
                  for m in spec["end_to_end"] + spec["per_layer"]},
        "workloads": {},
    }
    steady = True
    for name in names:
        values: dict = {}
        runs = []
        for seed in args.seeds:
            info, res = bench(name, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "passes": info["passes"], "op_tail": info["op_tail"],
                         "digest_all": info["digest_all"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            record["env"] = info["env"]
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for k, xs in values.items():
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med
            summary[k] = {"median": med, "q1": q[0], "q3": q[2],
                          "spread": spread, "bound": bounds[k]}
            ok = spread < bounds[k] / 3
            steady &= ok or k == "setup_s"
            print(f"  {name:10s} {k:14s} median {med:.6g}  spread {spread:.4f}  "
                  f"bound {bounds[k]}  {'ok' if ok else 'WIDE'}", flush=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            definition = dict(workloads.describe(name, tmp), why=whys[name])
        info, res = bench(name, args.seeds[0], spec["run_seconds"], 1)
        record["workloads"][name] = {
            "definition": definition, "end_to_end": summary, "runs": runs,
            "traced": {"seed": args.seeds[0],
                       "metrics": {k: v["value"] for k, v in res["metrics"].items()}}}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "not steady: a spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
