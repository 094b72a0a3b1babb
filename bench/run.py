"""exdep benchmark: one workload, measured in fresh single-threaded processes.

    python3 bench/run.py --workload matern_eta --seed 1 --seconds 30 --trace 0

Run from the root of the repository (or of a source checkout).  With
``--trace 0`` it starts ``SETUP_SAMPLES - 1`` processes that only set up,
then one process that sets up and runs whole rounds of the workload for
``--seconds``; it reports the median set-up time, the median round wall
time and the peak RSS of the measured process.  With ``--trace 1`` it runs
one plain round and one traced round, each in its own process, and
reports the per-layer metrics plus the tracing overhead.  Every run checks
the artifacts (``checks.py``).  The last line of standard output is one
JSON object; the exit code is 0 only when every operation succeeded and
every check passed.  Metric names and units come from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("matern_eta", "field_chi", "tail_coefficients")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    """A process of the benchmark failed; no result is printed."""


def spawn(mode, args, directory, deadline, seconds):
    """Run bench/workloads.py in a fresh interpreter; returns its JSON record."""
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--dir", directory,
           "--spawned", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} process did not finish before the deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    for line in lines[:-1]:  # the program's own prints
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def measure(args, work, deadline):
    """End-to-end metrics, from untraced processes."""
    setups = [spawn("setup", args, os.path.join(work, f"setup{k}"), deadline,
                    args.seconds)["setup_s"]
              for k in range(SETUP_SAMPLES - 1)]
    run = spawn("plain", args, os.path.join(work, "plain"), deadline, args.seconds)
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["walls"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, [run]


def measure_traced(args, work, deadline):
    """Per-layer metrics from one traced round, against one plain round."""
    # --seconds 0: exactly one round each, so the counts do not depend on speed
    plain = spawn("plain", args, os.path.join(work, "plain"), deadline, 0)
    traced = spawn("traced", args, os.path.join(work, "traced"), deadline, 0)
    if plain["digest"] != traced["digest"]:
        traced["check_errors"].append("artifacts differ between the plain and traced rounds")
    metrics = dict(traced["layers"])
    metrics["cli.artifact_bytes"] = traced["artifact_bytes"]
    metrics["trace.overhead_s"] = traced["walls"][0] - plain["walls"][0]
    return metrics, [plain, traced]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "exdep", "cli.py")):
        print(f"error: no exdep sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(BENCH, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics, runs = (measure_traced if args.trace else measure)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in runs for f in r["failures"]]
    check_errors = [e for r in runs for e in r["check_errors"]]
    for line in failures + check_errors:
        print(line, file=sys.stderr)
    print(f"environment: {json.dumps(runs[0]['environment'])}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not check_errors,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
