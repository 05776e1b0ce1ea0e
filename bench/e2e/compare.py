#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs.

    bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds the <workload>.<i>.json files of
`bench/e2e/run.sh DIR --repeat N`; run i of both sets used the same seed,
so run i of BASE and run i of NEW form a pair. Per workload and metric it
prints each side's median and quartiles, the share of pairs NEW won, and
a verdict against the bound BENCHMARK.json fixes:

  gain        NEW won at least 9 of 10 pairs and the medians differ by
              more than BASE's interquartile distance
  REGRESSION  NEW's median is worse than BASE's by more than the bound
  unresolved  a side's spread (interquartile distance over median)
              exceeds the bound, and not every NEW run beats every BASE
              run
  ok          within the bound

The end-to-end metrics come first; the rest have no bound and get no
verdict. Also reports failed gates, unsteady windows, and whether the
simulated metrics of each pair are identical. Exits 1 on a regression or
a failed gate.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
# Metrics that read the host (everything else is simulated and repeats
# exactly for a given seed).
HOST_METRICS = {"setup_s", "peak_rss_mb", "host_s_per_sim_s",
                "trace.overhead_pct"}


def load_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        name = os.path.basename(path)
        if name.endswith(".trace.json"):
            continue
        workload, index, _ = name.rsplit(".", 2)
        with open(path) as f:
            runs.setdefault(workload, {})[int(index)] = json.load(f)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def is_host_metric(name):
    return name in HOST_METRICS or "host" in name


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    won = wins / len(pairs)
    if bound is None:
        return won, "-"
    worse = -sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return won, "unresolved"
    if worse > bound:
        return won, "REGRESSION"
    if won >= 0.9 and abs(nm - bm) > (b3 - b1):
        return won, "gain" if sign * (nm - bm) > 0 else "ok"
    return won, "ok"


def main(argv):
    args = argv[1:]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_runs, new_runs = load_runs(args[0]), load_runs(args[1])
    failed = False
    for workload in sorted(set(base_runs) & set(new_runs)):
        indices = sorted(set(base_runs[workload]) & set(new_runs[workload]))
        base = [base_runs[workload][i] for i in indices]
        new = [new_runs[workload][i] for i in indices]
        print(f"== {workload}: {len(indices)} pairs")
        for label, runs in (("BASE", base), ("NEW", new)):
            for i, r in zip(indices, runs):
                if not r["correct"]:
                    failed = True
                    print(f"  {label} run {i} failed gates: {r['violations']}")
                if r["unsteady"]:
                    flagged = ", ".join(r["unsteady"])
                    print(f"  {label} run {i} unsteady: {flagged}")
        differ = sorted({name for b, n in zip(base, new)
                         for name in b["metrics"]
                         if not is_host_metric(name)
                         and n["metrics"].get(name, {}).get("value")
                         != b["metrics"][name]["value"]})
        print("  simulated metrics identical per pair: " +
              ("yes" if not differ else "no (" + ", ".join(differ) + ")"))
        print(f"  {'metric':42s} {'unit':>6s} {'base q1/med/q3':>32s} "
              f"{'new q1/med/q3':>32s} {'change':>8s} {'won':>5s}  verdict")
        names = [m["name"] for m in bench["end_to_end"]]
        names += sorted(set(base[0]["metrics"]) - set(names))
        for name in names:
            if name not in base[0]["metrics"] or name not in new[0]["metrics"]:
                continue
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            m = spec.get(name, {})
            won, v = verdict(b, n, m.get("better", "lower"), m.get("bound"))
            failed |= v == "REGRESSION"
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            change = f"{100 * (nm / bm - 1):+.1f}%" if bm else "-"
            # Metrics BENCHMARK.json does not list have no direction.
            won_pct = f"{won:5.0%}" if m else "    -"
            print(f"  {name:42s} {base[0]['metrics'][name]['unit']:>6s} "
                  f"{b1:10.4g} {bm:10.4g} {b3:10.4g} {n1:10.4g} {nm:10.4g} "
                  f"{n3:10.4g} {change:>8s} {won_pct}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
