"""Run the benchmark over several seeds and report each metric's median and quartiles.

    python3 bench/spread.py --seeds 1-10 [--workloads matern_eta,field_chi] \\
        [--trace] [--log bench/_work/spread.jsonl]

Runs ``bench/run.py`` once per workload and seed, one after another,
appends every result to ``--log`` and prints, per workload and metric,
the median, the first and third quartile (``statistics.quantiles(n=4)``)
and the quartile distance as a share of the median.  With ``--trace`` it
runs the traced variant and prints the median of every per-layer metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--log", default=os.path.join(BENCH, "_work", "spread.jsonl"))
    args = p.parse_args(argv)
    os.makedirs(os.path.dirname(os.path.abspath(args.log)), exist_ok=True)

    values = {}
    with open(args.log, "a") as log:
        for workload in args.workloads.split(","):
            for seed in args.seeds:
                t0 = time.time()
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", str(int(args.trace))],
                    cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 else None
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "exit": proc.returncode,
                                      "elapsed_s": time.time() - t0,
                                      "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                                      "result": result}) + "\n")
                log.flush()
                if result is None:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                for name, m in result["metrics"].items():
                    values.setdefault((workload, name), []).append(m["value"])
                share = result["failed"] / result["attempted"]
                values.setdefault((workload, "failed_share"), []).append(share)

    print(f"{'workload':18} {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for (workload, name), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:18} {name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
