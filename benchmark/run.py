#!/usr/bin/env python3
"""Runs ccbench workloads and collects their results (see README.md).

Called by run.sh after the build; not meant to be run directly. Two modes:

  --workload W [--seed S] [--seconds N] [--trace 0|1]
      One run of one workload. ccbench's metric lines pass through, and the
      last stdout line is the JSON result: {"correct", "attempted", "failed",
      "metrics"} with the end_to_end metrics of BENCHMARK.json, or its
      per_layer metrics with --trace 1.

  [--trace] [--smoke] [--sets N] [--seed S] [--seconds N] [--out FILE]
  [--append]
      Every workload, each in a fresh process, N sets of runs. Prints each
      metric with its unit, writes FILE (default benchmark/out/results.json;
      --append adds the sets to it), and with --trace also the traced runs,
      the thread-scaling probe and the tracing overhead. A run that fails its
      output checks or prints no result is kept in FILE with "correct":
      false, so the runs of two files still pair up in start order.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join("benchmark", "out")
WORKLOADS = ["matrix", "multiflow", "durable", "triage"]
SCALING_THREADS = [1, 2, 4]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def ccbench(binary, workload, seed, seconds, trace=False, smoke=False):
    """Runs ccbench once; returns (record, stdout lines).

    The record is marked incorrect when ccbench exits non-zero. A run that
    printed no result gets a stand-in record with no metrics."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", OUT_DIR]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
        lines = lines[:-1]
    except (IndexError, json.JSONDecodeError):
        record = {"workload": workload, "seed": seed, "trace": trace,
                  "correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    record["correct"] = record["correct"] and proc.returncode == 0
    record["started"] = started
    record["wall_s"] = time.time() - started
    return record, lines


def scaling(binary, workload, seed, smoke):
    """pool.speedup_k: batch time on 1 thread / batch time on k threads."""
    times = {}
    for threads in SCALING_THREADS:
        env = dict(os.environ, CCFUZZ_THREADS=str(threads))
        proc = subprocess.run(
            [binary, workload, "--scaling", "--seed", str(seed)] +
            (["--smoke"] if smoke else []),
            capture_output=True, text=True, env=env, check=True)
        times[threads] = json.loads(proc.stdout.splitlines()[-1])["batch_s"]
    return {f"pool.speedup_{k}": {"value": times[1] / times[k], "unit": "x"}
            for k in SCALING_THREADS if k > 1}


def traced_run(args, workload, seed):
    record, lines = ccbench(args.binary, workload, seed, args.seconds,
                            trace=True, smoke=args.smoke)
    if record["correct"]:
        record["metrics"].update(scaling(args.binary, workload, seed,
                                         args.smoke))
    return record, lines


def host_context(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    version = subprocess.run([args.compiler, "--version"],
                             capture_output=True, text=True).stdout
    compiler = version.splitlines()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler[0] if compiler else args.compiler,
        "threads": int(os.environ.get("CCFUZZ_THREADS", "0")),
        "build_type": "Release",
    }


def single(args, spec):
    """The BENCHMARK.json contract: one run, JSON result as the last line."""
    if args.trace:
        record, lines = traced_run(args, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        record, lines = ccbench(args.binary, args.workload, args.seed,
                                args.seconds, smoke=args.smoke)
        wanted = spec["end_to_end"]
    for line in lines:
        print(line)
    if not record["metrics"]:
        print(f"run.py: ccbench {args.workload} produced no result",
              file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            print(f"run.py: {args.workload} did not report {m['name']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def print_table(title, runs):
    """One row per metric: the median over `runs` (all of one workload)."""
    print(f"\n== {title}")
    names = list(runs[0]["metrics"])
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs
                if r["metrics"].get(name, {}).get("value") is not None]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(vals) if vals else None
        extra = ""
        if len(vals) > 1:
            extra = (f"  (min {fmt(min(vals))}, max {fmt(max(vals))}, "
                     f"n={len(vals)})")
        print(f"  {name:28s} {fmt(med):>14s} {unit}{extra}")


def sets_mode(args):
    path = args.out or os.path.join(OUT_DIR, "results.json")
    results = {"seconds": args.seconds, "smoke": args.smoke, "sets": []}
    if args.append and os.path.exists(path):
        with open(path) as f:
            results = json.load(f)
    ok = True
    new_sets = []
    for _ in range(args.sets):
        s = {"host": host_context(args),
             "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
             "runs": []}
        for w in WORKLOADS:
            record, _ = ccbench(args.binary, w, args.seed, args.seconds,
                                smoke=args.smoke)
            if not record["correct"]:
                print(f"run.py: {w}: output checks failed", file=sys.stderr)
                ok = False
            s["runs"].append(record)
        new_sets.append(s)
    if args.trace:
        for w in WORKLOADS:
            record, _ = traced_run(args, w, args.seed)
            if not record["correct"]:
                print(f"run.py: {w} (traced): output checks failed",
                      file=sys.stderr)
                ok = False
            new_sets[-1]["runs"].append(record)
    results["sets"].extend(new_sets)

    for w in WORKLOADS:
        plain = [r for s in new_sets for r in s["runs"]
                 if r["workload"] == w and not r["trace"] and r["correct"]]
        traced = [r for s in new_sets for r in s["runs"]
                  if r["workload"] == w and r["trace"] and r["correct"]]
        if plain:
            print_table(f"{w}: end to end, {len(plain)} run(s), "
                        f"fingerprint {plain[0]['fingerprint']}", plain)
        if traced:
            print_table(f"{w}: traced", traced)
        if traced and plain:
            base = statistics.median(
                r["metrics"]["sims_per_s"]["value"] for r in plain)
            overhead = 1 - traced[0]["metrics"]["sims_per_s"]["value"] / base
            print(f"  tracing overhead on sims_per_s: {overhead * 100:+.2f} % "
                  f"(traced run vs untraced median)")
        prints = {r["fingerprint"] for r in plain + traced}
        if len(prints) > 1:
            print(f"run.py: {w}: the same seed gave different fingerprints "
                  f"{sorted(prints)}", file=sys.stderr)
            ok = False

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"\nwrote {path}; checks {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--binary", required=True)
    p.add_argument("--compiler", default="c++")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--append", action="store_true")
    args = p.parse_args()
    if args.smoke:
        args.seconds = 0  # one body per run
    return single(args, spec) if args.workload else sets_mode(args)


if __name__ == "__main__":
    sys.exit(main())
