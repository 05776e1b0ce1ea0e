#!/usr/bin/env python3
"""Compare two BENCH_smoke.json files and flag metric regressions.

Usage: bench/diff_bench.py BASELINE.json CURRENT.json [--threshold 0.10]
                           [--include-micro]

Walks both documents, pairs up numeric leaf metrics by their structural
path (list elements are keyed by their identifying fields, e.g.
``config=async_10x`` or ``consensus=linear_vote``, so reordering or
adding points never misaligns the comparison), and classifies each
metric's direction by its name:

  higher-is-better:  *tps*, *throughput*, *completed*, *ops*
  lower-is-better:   *latency*, *_ms, *_us, *_ns, *msgs*, *rounds*,
                     *aborted*, *failures*

A metric that moved in the bad direction by more than ``--threshold``
(relative) is a regression: the script prints a table of every compared
metric and exits 1 if any regressed. Metrics present in only one file
are reported but never fail the run (benches come and go). The "micro"
subtree is host-time (machine-dependent) and is skipped unless
--include-micro is given; everything else is simulated time and
deterministic for a given seed, so cross-machine comparison is exact.
"""

import argparse
import json
import sys

HIGHER_BETTER = ("tps", "throughput", "completed", "ops")
LOWER_BETTER = ("latency", "_ms", "_us", "_ns", "msgs", "rounds", "aborted",
                "failures")

# Keys whose string/int values identify a data point rather than measure
# it; they become part of the path when flattening list elements.
def is_identifier(key, value):
    return isinstance(value, (str, bool)) or (
        isinstance(value, int) and direction_of(key) is None)


def direction_of(key):
    k = key.lower()
    if any(tag in k for tag in HIGHER_BETTER):
        return "higher"
    if any(tag in k for tag in LOWER_BETTER):
        return "lower"
    return None


def flatten(node, path, out, include_micro):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "micro" and not include_micro and not path:
                continue
            flatten(value, path + (key,), out, include_micro)
    elif isinstance(node, list):
        for index, element in enumerate(node):
            if isinstance(element, dict):
                ident = tuple(
                    f"{k}={v}" for k, v in sorted(element.items())
                    if is_identifier(k, v))
                flatten(element, path + (ident or (f"[{index}]",)), out,
                        include_micro)
            else:
                flatten(element, path + (f"[{index}]",), out, include_micro)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        key = path[-1] if path else ""
        if direction_of(key) is not None:
            out["/".join(str(p) for p in path)] = float(node)


def main():
    parser = argparse.ArgumentParser(
        description="Diff two smoke-bench JSON files for regressions.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold (default 0.10)")
    parser.add_argument("--include-micro", action="store_true",
                        help="also compare the host-time micro benches")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    base_metrics, cur_metrics = {}, {}
    flatten(baseline, (), base_metrics, args.include_micro)
    flatten(current, (), cur_metrics, args.include_micro)

    rows = []
    regressions = []
    for path in sorted(set(base_metrics) | set(cur_metrics)):
        old = base_metrics.get(path)
        new = cur_metrics.get(path)
        if old is None or new is None:
            rows.append((path, old, new, None, "only-one-side"))
            continue
        direction = direction_of(path.rsplit("/", 1)[-1])
        if old == 0:
            delta = 0.0 if new == 0 else float("inf")
        else:
            delta = (new - old) / abs(old)
        bad = (direction == "higher" and delta < -args.threshold) or (
            direction == "lower" and delta > args.threshold)
        rows.append((path, old, new, delta, "REGRESSED" if bad else "ok"))
        if bad:
            regressions.append(path)

    width = max((len(r[0]) for r in rows), default=20)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'delta':>8}  status")
    for path, old, new, delta, status in rows:
        old_s = f"{old:.1f}" if old is not None else "-"
        new_s = f"{new:.1f}" if new is not None else "-"
        delta_s = f"{delta:+.1%}" if delta is not None else "-"
        print(f"{path:<{width}}  {old_s:>12}  {new_s:>12}  {delta_s:>8}  "
              f"{status}")

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for path in regressions:
            print(f"  {path}", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%} "
          f"({sum(1 for r in rows if r[4] == 'ok')} metrics compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
