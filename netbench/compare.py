#!/usr/bin/env python3
"""Compares two sets of netbench results (parent and change).

    python3 netbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are results.jsonl files written by netbench/run.py
(or directories holding one). For every workload and every end-to-end
metric of BENCHMARK.json (untraced runs only) the tool prints each
side's median and quartiles, the share of seed-matched pairs the
change wins (ties count for neither side), and a verdict under the claim rules of the choosing-metrics method:

  improved    the change wins at least 9 in 10 pairs and the medians
              differ, in the better direction, by more than the
              parent's own interquartile spread;
  unresolved  the parent's spread is wider than the metric's bound and
              not every change run beats every parent run;
  worse       the change's median is worse than the parent's by more
              than the bound;
  unchanged   otherwise.

Informational only: it gates nothing.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path: Path):
    if path.is_dir():
        path = path / "results.jsonl"
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if str(rec.get("trace", "0")) != "0":
                continue  # traced runs carry per-layer metrics only
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, pairs, direction, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    win_share = wins / len(pairs) if pairs else float("nan")
    spread = p3 - p1
    moved_better = better(cm, pm, direction) and abs(cm - pm) > spread
    if pairs and win_share >= 0.9 and moved_better:
        return "improved", win_share
    rel_spread = spread / abs(pm) if pm else float("inf")
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if rel_spread > bound and not all_better:
        return "unresolved", win_share
    worse_by = (cm - pm) if direction == "lower" else (pm - cm)
    if pm and worse_by / abs(pm) > bound:
        return "worse", win_share
    return "unchanged", win_share


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--benchmark", type=Path,
                    default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads(args.benchmark.read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':<18} {'metric':<36} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
    for w in [w["name"] for w in bench["workloads"]]:
        pr = parent.get(w, [])
        cr = change.get(w, [])
        if not pr or not cr:
            print(f"{w:<18} (no runs on {'parent' if not pr else 'change'} side)")
            continue
        for name, spec in specs.items():
            pv = [r["result"]["metrics"][name]["value"] for r in pr
                  if name in r["result"]["metrics"]]
            cv = [r["result"]["metrics"][name]["value"] for r in cr
                  if name in r["result"]["metrics"]]
            if not pv or not cv:
                continue
            by_seed_p = {r["seed"]: r["result"]["metrics"][name]["value"]
                         for r in pr if name in r["result"]["metrics"]}
            pairs = [(by_seed_p[r["seed"]], r["result"]["metrics"][name]["value"])
                     for r in cr
                     if r["seed"] in by_seed_p and name in r["result"]["metrics"]]
            v, share = verdict(pv, cv, pairs, spec["better"], spec["bound"])
            pq = "/".join(f"{x:.4g}" for x in quartiles(pv))
            cq = "/".join(f"{x:.4g}" for x in quartiles(cv))
            wins = f"{share:.2f}" if pairs else "n/a"
            print(f"{w:<18} {name:<36} {pq:>32} {cq:>32} {wins:>6}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
