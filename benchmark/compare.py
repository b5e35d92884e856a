#!/usr/bin/env python3
"""Compares two results files of benchmark/run.sh: PARENT.json CHANGE.json.

Applies one gain/regression rule to every (workload, end-to-end metric)
pair, one row each, with the bounds of BENCHMARK.json:

- the runs pair up in start order, and there must be at least 10 pairs per
  workload whose order alternates (parent first, then change first, ...);
- REGRESSION: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: either side's spread (quartile distance / median) is wider
  than the bound, unless every change run beats every parent run;
- gain: the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
- loss within bound: the same rule the other way round, for a change that
  is measurably worse but by less than the bound (not a regression, but
  not "no change" either);
- FAIL: the change's failed/attempted ratio is larger than the parent's;
  a workload with more failures claims no gain;
- FAIL: a change run failed its output checks or printed no result (run.sh
  keeps such runs with "correct": false); its workload is not compared;
- the timings are scaled by host.slowdown, the time of a reference kernel
  that the benchmark runs between lockstep generations. When the change
  moves host.slowdown by the gain rule above, in either direction, the
  kernel measured the change and not the host: the workload's row reads
  MOVED and its timings are judged on their unscaled ".raw" twins.

Exit status: 0 when nothing regressed, 1 on a regression, a larger fail
ratio or a failed change run, 2 when the files cannot be compared: a
workload of PARENT is missing from CHANGE or has another number of runs,
there are too few or unalternated pairs, or a parent run failed.
"""
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """Untraced runs by workload, in start order."""
    with open(path) as f:
        data = json.load(f)
    runs = {}
    for s in data["sets"]:
        for r in s["runs"]:
            if not r["trace"]:
                runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["started"])
    return runs


def fail_ratio(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"

    def better(c, p):
        return c < p if lower else c > p

    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    widest = max(spread(parent) / pm, spread(change) / cm)
    all_better = all(better(c, p) for c in change for p in parent)
    resolved = abs(cm - pm) > spread(parent)
    if worse_by > metric["bound"]:
        v = "REGRESSION"
    elif widest > metric["bound"] and not all_better:
        v = "unresolved"
    elif wins >= WIN_SHARE * len(parent) and better(cm, pm) and resolved:
        v = "gain"
    elif losses >= WIN_SHARE * len(parent) and better(pm, cm) and resolved:
        v = "loss within bound"
    else:
        v = "no change"
    return v, pm, cm, wins, widest


def normalizer_moved(p_runs, c_runs):
    """True when the change moved host.slowdown by the gain rule, in either
    direction: the reference kernel then measured the change, not the host,
    and the scaled timings are biased."""
    p = [r["metrics"]["host.slowdown"]["value"] for r in p_runs]
    c = [r["metrics"]["host.slowdown"]["value"] for r in c_runs]
    up = sum(ci > pi for pi, ci in zip(p, c))
    down = sum(ci < pi for pi, ci in zip(p, c))
    return (max(up, down) >= WIN_SHARE * len(p) and
            abs(statistics.median(c) - statistics.median(p)) > spread(p))


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    status = 0
    print(f"{'workload':10s} {'metric':20s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'wins':>6s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in sorted(set(change) - set(parent)):
        print(f"{w}: only in CHANGE, not compared", file=sys.stderr)
    for w in sorted(parent):
        p_runs, c_runs = parent[w], change.get(w, [])
        n = len(p_runs)
        if len(c_runs) != n:
            print(f"{w}: {n} parent runs but {len(c_runs)} change runs",
                  file=sys.stderr)
            status = max(status, 2)
            continue
        if n < MIN_PAIRS:
            print(f"{w}: only {n} pairs, need {MIN_PAIRS}", file=sys.stderr)
            status = max(status, 2)
            continue
        firsts = [p["started"] < c["started"] for p, c in zip(p_runs, c_runs)]
        if any(a == b for a, b in zip(firsts, firsts[1:])):
            print(f"{w}: pairs do not alternate which side runs first",
                  file=sys.stderr)
            status = max(status, 2)
            continue
        p_bad = sum(not r["correct"] for r in p_runs)
        c_bad = sum(not r["correct"] for r in c_runs)
        if c_bad:
            print(f"{w:10s} {'checks':20s} {c_bad} of {n} change runs failed "
                  f"their output checks  FAIL")
            status = max(status, 1)
        if p_bad:
            print(f"{w}: {p_bad} of {n} parent runs failed their output "
                  f"checks", file=sys.stderr)
            status = max(status, 2)
        if c_bad or p_bad:
            continue
        p_fail, c_fail = fail_ratio(p_runs), fail_ratio(c_runs)
        more_failures = c_fail > p_fail
        moved = normalizer_moved(p_runs, c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            if moved and name + ".raw" in p_runs[0]["metrics"]:
                name += ".raw"
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v, pm, cm, wins, widest = verdict(m, p, c)
            if v == "gain" and more_failures:
                v = "no gain (more failures)"
            if v == "REGRESSION":
                status = max(status, 1)
            print(f"{w:10s} {name:20s} {pm:12.6g} {cm:12.6g} "
                  f"{(cm - pm) / pm * 100:+7.2f}% {wins:3d}/{n:<2d} "
                  f"{widest * 100:6.2f}% {m['bound'] * 100:5.1f}%  {v}")
        p = [r["metrics"]["host.slowdown"]["value"] for r in p_runs]
        c = [r["metrics"]["host.slowdown"]["value"] for r in c_runs]
        print(f"{w:10s} {'host.slowdown':20s} {statistics.median(p):12.6g} "
              f"{statistics.median(c):12.6g} {'':8s} {'':6s} {'':7s} "
              f"{'':6s}  "
              f"{'MOVED: timings judged unscaled' if moved else 'steady'}")
        print(f"{w:10s} {'fail_ratio':20s} {p_fail:12.6g} {c_fail:12.6g} "
              f"{'':8s} {'':6s} {'':7s} {'0':>6s}  "
              f"{'FAIL' if more_failures else 'ok'}")
        if more_failures:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
