#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, per workload and end-to-end metric.

    python3 e2ebench/compare_runs.py BASE_DIR/ CHANGE_DIR/

Each directory holds the saved standard output of bench_e2e runs, one run
per file (trace 0, one workload per run). For every workload x end-to-end
metric of BENCHMARK.json it prints each set's median and quartiles and a
verdict:

  ok          the change's median is no worse than the base's by more than
              the metric's bound;
  regressed   it is worse by more than the bound, and both sets' spreads
              (quartile distance over median) are within the bound;
  unresolved  a spread is wider than the bound, so the sets cannot tell,
              unless every change run reads better than every base run.

Refuses to compare runs stamped with different build types. Exits 1 when
any metric regressed, 2 on unusable input, 0 otherwise.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: {metric: [values]}} and the set of build types seen."""
    runs, build_types = {}, set()
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        lines = [l for l in open(path).read().splitlines() if l.strip()]
        if len(lines) < 2 or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        stamp = next((l for l in lines if l.startswith("# bench_e2e ")), "")
        for field in stamp.split():
            if field.startswith("build_type="):
                build_types.add(field.split("=", 1)[1])
        workload = lines[-2].split()[0]
        metrics = runs.setdefault(workload, {})
        for metric, v in result["metrics"].items():
            metrics.setdefault(metric, []).append(v["value"])
    return runs, build_types


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    base, base_types = load_runs(argv[1])
    change, change_types = load_runs(argv[2])
    if not base or not change:
        print("no bench_e2e runs found", file=sys.stderr)
        return 2
    if base_types != change_types or len(base_types) > 1:
        print("refusing to compare build types %s with %s"
              % (sorted(base_types), sorted(change_types)), file=sys.stderr)
        return 2

    regressed = False
    print("%-15s %-22s %-30s %-30s %s" % ("workload", "metric", "base median [q1, q3]",
                                         "change median [q1, q3]", "verdict"))
    for workload in sorted(set(base) & set(change)):
        for m in spec["end_to_end"]:
            a = base[workload].get(m["name"])
            b = change[workload].get(m["name"])
            if not a or not b:
                continue
            a_med, a_q1, a_q3, a_spread = summary(a)
            b_med, b_q1, b_q3, b_spread = summary(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
            if max(a_spread, b_spread) > m["bound"]:
                all_better = (max(b) < min(a)) if sign > 0 else (min(b) > max(a))
                verdict = "ok" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            print("%-15s %-22s %-30s %-30s %s (worse by %+.1f%%, bound %.0f%%)" % (
                workload, m["name"],
                "%.4g [%.4g, %.4g]" % (a_med, a_q1, a_q3),
                "%.4g [%.4g, %.4g]" % (b_med, b_q1, b_q3),
                verdict, 100.0 * worse, 100.0 * m["bound"]))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
