"""Compare two result sets written by ``run.py --out``.

One row per (workload, trace mode, metric): each side's median and
quartiles over its runs, the delta of the medians as a percentage of the
base median, and a verdict.  A metric with a bound in ``BENCHMARK.json`` is
``same``, ``better`` or ``worse`` against that bound; when either side's
run-to-run spread (interquartile range over median) exceeds the bound the
delta is ``unresolved``, unless every new run reads better than every base
run.  Metrics without a bound get no verdict; ``exact`` marks counts that
did not vary within either side.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> dict:
    """``{(workload, trace, metric): [values...]}`` from a JSONL result set."""
    values: dict[tuple, list] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        key = (record["workload"], record["trace"])
        for name, entry in record["result"]["metrics"].items():
            values[key + (name,)].append(entry["value"])
        for name, value in record.get("extras", {}).items():
            values[key + (name,)].append(value)
    return values


def summary(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else (0.0 if q1 == q3 else float("inf"))


def verdict(base: list, new: list, bound, higher_is_better: bool) -> str:
    if bound is None:
        return "exact" if len(set(base)) == 1 and len(set(new)) == 1 else "-"
    better = (lambda a, b: a > b) if higher_is_better else (lambda a, b: a < b)
    if max(spread(base), spread(new)) > bound:
        if all(better(n, b) for n in new for b in base):
            return "better"
        return "unresolved"
    base_median, new_median = summary(base)[1], summary(new)[1]
    if base_median == 0:
        return "same" if new_median == 0 else "-"
    change = (new_median - base_median) / abs(base_median)
    if abs(change) <= bound:
        return "same"
    return "better" if (change > 0) == higher_is_better else "worse"


def compare(base_path, new_path, spec_path) -> int:
    spec = json.loads(Path(spec_path).read_text()) if Path(spec_path).is_file() else {}
    bounds = {m["name"]: (m["bound"], m["better"] == "higher")
              for m in spec.get("end_to_end", [])}
    base, new = load(base_path), load(new_path)
    header = (f"{'workload':20s} {'t':1s} {'metric':30s} {'base median':>14s} "
              f"{'base q1..q3':>25s} {'new median':>14s} {'new q1..q3':>25s} "
              f"{'delta':>9s}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, trace, name = key
        bound, higher = bounds.get(name, (None, False))
        b_q1, b_med, b_q3 = summary(base[key])
        n_q1, n_med, n_q3 = summary(new[key])
        delta = f"{100 * (n_med - b_med) / abs(b_med):+.1f}%" if b_med else "n/a"
        print(f"{workload:20s} {trace:1d} {name:30s} {b_med:14.6g} "
              f"{f'{b_q1:.4g}..{b_q3:.4g}':>25s} {n_med:14.6g} "
              f"{f'{n_q1:.4g}..{n_q3:.4g}':>25s} {delta:>9s}  "
              f"{verdict(base[key], new[key], bound, higher)}")
    print(f"\nbase: {base_path}  ({sum(len(v) for v in base.values())} values); "
          f"delta is relative to the base median")
    return 0
