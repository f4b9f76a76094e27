"""Benchmark of the FireLedger reproduction: four workloads, end to end and per layer.

One workload, as the benchmark contract runs it (the last stdout line is
the JSON result)::

    python3 fireperf/run.py --workload fig10-n200 --seed 7 --seconds 20 --trace 0

``--trace 0`` repeats passes over the workload's cells for ``--seconds``
(at least three passes) with no instrumentation beyond a set-up clock and
a sampler of the machine's speed, and reports the end-to-end metrics as
medians over passes; times are quoted at a reference machine speed (see
:class:`speed.MachineSpeed`).  ``--trace 1`` runs
one plain pass, one pass under the counting wrappers, then passes under the
counting wrappers plus cProfile for the rest of ``--seconds`` (at least
one), and reports the per-layer metrics: exact counts from the counted
pass, which every profiled pass must repeat, and median self times.

Every workload, both modes, with a combined table::

    python3 fireperf/run.py --all --seed 7 --seconds 20 [--out FILE.jsonl]

Two result sets written with ``--out``, compared metric by metric::

    python3 fireperf/run.py --compare BASE.jsonl NEW.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Passes a --trace 0 run makes even when --seconds has already elapsed.
MIN_PASSES = 3
#: A run stops starting passes after this many seconds, whatever --seconds says.
MAX_RUN_S = 120.0
#: Fresh interpreters timed importing the program, for setup_s.
IMPORT_SAMPLES = 7
IMPORTED_MODULES = ("repro", "repro.experiments.registry", "repro.scenarios.runner",
                    "repro.protocols", "repro.adversary", "repro.ledger.state",
                    "repro.runtime")

#: The metrics each mode reports, with their units, as BENCHMARK.json lists
#: them.  Figures a run computes beyond these are printed as extras.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Units of extras that are not plain counts or in seconds.
UNITS.update({"live_tps": "tx/s", "live_p50_ms": "ms", "live_p95_ms": "ms",
              "error_rate": "ratio", "slowdown": "ratio"})


def listed(section: str, values: dict) -> dict:
    """The metrics of one BENCHMARK.json section, in its order."""
    return {metric["name"]: values[metric["name"]] for metric in SPEC[section]}


def load_program():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


# --------------------------------------------------------------- measuring
def import_seconds() -> float:
    """Median seconds a fresh interpreter takes to import the program.

    Each import is quoted at the reference speed, like ``wall_s``.  Imports
    use a bytecode cache under ``.bench_build/`` that an untimed first
    import fills, as an installed program's would be, whatever the
    environment says about writing bytecode.
    """
    code = ("import time; from speed import MachineSpeed; speed = MachineSpeed(); "
            "first = speed.start(); t = time.perf_counter(); import "
            + ", ".join(IMPORTED_MODULES) + "; elapsed = time.perf_counter() - t; "
            "print(elapsed / speed.slowdown(first, speed.stop()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))),
               PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(1 + IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples[1:])


def result_counts(result, workloads) -> dict[str, float]:
    """Exact counts read off a ClusterResult and its client workloads."""
    net = result.network
    breakdown = result.breakdown
    return {
        "net.sent": net.messages_sent,
        "net.delivered": net.messages_delivered,
        "net.dropped": net.messages_dropped,
        "net.bytes_sent": net.bytes_sent,
        "ledger.tx_applied": result.transactions_applied,
        "ledger.tx_stale": result.transactions_stale,
        "consensus.fast_rounds": result.fast_path_rounds,
        "consensus.rounds": (result.fast_path_rounds + result.fallback_rounds
                             + result.failed_rounds),
        "consensus.recoveries": result.recoveries,
        "baselines.timeouts": round(breakdown.get("instances_timed_out", 0)
                                    + breakdown.get("views_timed_out", 0)),
        "adversary.intercepted": sum(round(value) for key, value in breakdown.items()
                                     if key.startswith("adversary_")),
        "workload.submitted": sum(w.total_submitted for w in workloads),
        "workload.rejected": sum(w.total_rejected for w in workloads),
        "blocks_committed": result.blocks_committed,
    }


#: Counts :func:`result_counts` reads; exact for a (config, seed) on sim cells.
RESULT_COUNTS = ("net.sent", "net.delivered", "net.dropped", "net.bytes_sent",
                 "ledger.tx_applied", "ledger.tx_stale", "consensus.fast_rounds",
                 "consensus.rounds", "consensus.recoveries", "baselines.timeouts",
                 "adversary.intercepted", "workload.submitted", "workload.rejected",
                 "blocks_committed")


def run_pass(cells, seed: int, counting: bool = False, profile=None,
             speed=None) -> dict:
    """Run every cell once; time, count and check each.

    With ``speed`` (a :class:`speed.MachineSpeed`), the machine's speed is
    sampled while each cell runs.
    """
    from instrument import Probe
    from workloads import LIVE_WORK_TX, canonical, check_cell

    outcome = {"wall_s": 0.0, "work_s": 0.0, "cells": []}
    with Probe(counting=counting) as probe:
        for cell in cells:
            probe.start_cell()
            rows, problems = None, []
            started = time.perf_counter()
            if profile is not None:
                profile.enable()
            first_sample = speed.start() if speed is not None else 0
            try:
                rows = cell.run(seed)
            except Exception as exc:  # a failed cell must not stop the others
                traceback.print_exc()
                problems.append(f"raised {type(exc).__name__}: {exc}")
            finally:
                end_sample = speed.stop() if speed is not None else 0
                if profile is not None:
                    profile.disable()
            wall = time.perf_counter() - started
            counts = Counter(probe.counts)
            latency = None
            if not problems:
                results = list(probe.results)
                for result in results[:1]:
                    counts.update(result_counts(result, probe.workloads))
                    latency = result.latency
                problems = check_cell(cell, rows, results, seed)
            outcome["wall_s"] += wall
            # A live cell runs for fixed real time; its work time is the real
            # time the measured commit rate needs for a fixed transaction count.
            live_tps = rows[0]["tps"] if cell.live and rows else 0
            work = LIVE_WORK_TX / live_tps if live_tps > 0 else wall
            outcome["work_s"] += work
            outcome["cells"].append({"label": cell.label, "live": cell.live,
                                     "rows": canonical(rows) if rows else None,
                                     "counts": counts, "latency": latency,
                                     "work_s": work, "setup_s": probe.setup_s,
                                     "speed_span": (first_sample, end_sample),
                                     "problems": problems})
    outcome["counts"] = sum((cell["counts"] for cell in outcome["cells"]), Counter())
    return outcome


def mark_disagreements(reference: dict, other: dict, what: str, keys) -> None:
    """Fail cells of ``other`` whose rows or ``keys`` counts differ from ``reference``.

    Only deterministic (simulated) cells are compared.
    """
    for ref, cell in zip(reference["cells"], other["cells"]):
        if cell["live"] or ref["problems"] or cell["problems"]:
            continue
        if cell["rows"] != ref["rows"]:
            cell["problems"].append(f"rows differ from the {what} pass")
        changed = [key for key in keys
                   if cell["counts"].get(key, 0) != ref["counts"].get(key, 0)]
        if changed:
            cell["problems"].append(f"counts differ from the {what} pass: {changed}")


def measure_end_to_end(cells, seed: int, seconds: float) -> tuple[dict, list, dict]:
    from compare import summary
    from speed import MachineSpeed

    imports = import_seconds()
    speed = MachineSpeed()
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(cells, seed, speed=speed))
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and len(passes) >= MIN_PASSES) or elapsed >= MAX_RUN_S:
            break
    for later in passes[1:]:
        mark_disagreements(passes[0], later, "first", RESULT_COUNTS)
    walls = [p["wall_s"] for p in passes]

    def at_reference(p: dict, key: str) -> float:
        return sum(cell[key] / speed.slowdown(*cell["speed_span"]) for cell in p["cells"])

    work = [at_reference(p, "work_s") for p in passes]
    metrics = listed("end_to_end", {
        "wall_s": statistics.median(work),
        "setup_s": imports + statistics.median(at_reference(p, "setup_s") for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    q1, median, q3 = summary(walls)
    extras = {"passes": len(passes), "import_s": imports, "pass_wall_s": median,
              "pass_wall_q1_s": q1, "pass_wall_q3_s": q3,
              "raw_work_s": statistics.median(p["work_s"] for p in passes),
              "slowdown": statistics.median(p["work_s"] / reference
                                            for p, reference in zip(passes, work)),
              "speed_samples": len(speed.samples)}
    extras.update(live_figures(passes))
    return metrics, passes, extras


def live_figures(passes) -> dict:
    """Live tps and latency (medians over passes) for nondeterministic cells."""
    live = [cell for p in passes for cell in p["cells"]
            if cell["live"] and cell["latency"] is not None]
    if not live:
        return {}
    return {
        "live_tps": statistics.median(cell["rows"][0]["tps"] for cell in live),
        "live_p50_ms": statistics.median(cell["latency"].p50 * 1000 for cell in live),
        "live_p95_ms": statistics.median(cell["latency"].p95 * 1000 for cell in live),
        "live_latency_samples": sum(cell["latency"].samples for cell in live),
    }


def measure_per_layer(cells, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """One plain pass, one counted pass, then profiled passes for ``seconds``."""
    import cProfile

    from instrument import WRAPPER_COUNTS, layer_self_time

    started = time.perf_counter()
    plain = run_pass(cells, seed)
    counted = run_pass(cells, seed, counting=True)
    mark_disagreements(plain, counted, "plain", RESULT_COUNTS)
    traced, self_times = [], []
    while not traced or (time.perf_counter() - started < seconds
                         and time.perf_counter() - started < MAX_RUN_S):
        profile = cProfile.Profile()
        traced.append(run_pass(cells, seed, counting=True, profile=profile))
        mark_disagreements(counted, traced[-1], "counted", RESULT_COUNTS + WRAPPER_COUNTS)
        self_times.append(layer_self_time(profile))

    counts = counted["counts"]
    delivered = counts["net.delivered"] or 1
    metrics: dict[str, float] = {key: counts.get(key, 0)
                                 for key in RESULT_COUNTS + WRAPPER_COUNTS}
    metrics["sim.resumes_per_delivery"] = counts["sim.resumes"] / delivered
    metrics["core.waits_per_delivery"] = counts["core.waits"] / delivered
    metrics["crypto.digests_per_delivery"] = counts["crypto.digests"] / delivered
    metrics["consensus.fast_path_share"] = (
        counts["consensus.fast_rounds"] / counts["consensus.rounds"]
        if counts["consensus.rounds"] else 0.0)
    metrics["runtime.frames_per_block"] = (
        counts["runtime.frames"] / counts["blocks_committed"]
        if counts["blocks_committed"] else 0.0)
    layers = sorted({layer for times in self_times for layer in times})
    self_time = {layer: statistics.median(times.get(layer, 0.0) for times in self_times)
                 for layer in layers}
    metrics.update({f"{layer}.self_s": spent for layer, spent in self_time.items()})
    # Work time, not pass wall time: a live cell runs for fixed real time, so
    # the profiler's cost shows as a lower commit rate, not a longer pass.
    traced_work = statistics.median(p["work_s"] for p in traced)
    metrics["trace.overhead"] = traced_work / plain["work_s"]
    extras = {"layer_self_s": self_time, "profiled_passes": len(traced),
              "plain_wall_s": plain["wall_s"],
              "traced_wall_s": statistics.median(p["wall_s"] for p in traced)}
    reported = listed("per_layer", metrics)
    extras.update({name: value for name, value in metrics.items()
                   if name.endswith(".self_s") and name not in reported})
    return reported, [plain, counted, *traced], extras


# --------------------------------------------------------------- reporting
def unit_of(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def print_human(workload: str, trace: int, metrics: dict, extras: dict,
                passes: list) -> None:
    print(f"== {workload}  ({'traced' if trace else 'untraced'}, "
          f"{len(passes)} pass{'es' if len(passes) != 1 else ''})")
    for cell in passes[-1]["cells"]:
        print(f"   cell {cell['label']}")
    for name, value in metrics.items():
        print(f"   {name:32s} {value:>16.6g} {unit_of(name)}")
    for name, value in extras.items():
        if isinstance(value, (int, float)):
            print(f"   {name:32s} {value:>16.6g} {unit_of(name)}   (extra)")
    if trace and "layer_self_s" in extras:
        total = sum(extras["layer_self_s"].values()) or 1.0
        print("   self time by layer (profiled pass):")
        for layer, seconds in sorted(extras["layer_self_s"].items(),
                                     key=lambda item: -item[1]):
            print(f"     {layer:12s} {seconds:9.3f} s  {100 * seconds / total:5.1f}%")
    for p in passes:
        for cell in p["cells"]:
            for problem in cell["problems"]:
                print(f"   FAILED {cell['label']}: {problem[:400]}")


def run_one(args) -> int:
    from workloads import WORKLOADS

    cells = WORKLOADS[args.workload]
    if args.trace:
        metrics, passes, extras = measure_per_layer(cells, args.seed, args.seconds)
    else:
        metrics, passes, extras = measure_end_to_end(cells, args.seed, args.seconds)
    attempted = sum(len(p["cells"]) for p in passes)
    failed = sum(1 for p in passes for cell in p["cells"] if cell["problems"])
    extras["error_rate"] = failed / attempted
    print_human(args.workload, args.trace, metrics, extras, passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "result": result,
                  "extras": {k: v for k, v in extras.items() if isinstance(v, (int, float))}}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    from workloads import WORKLOADS

    table: dict[tuple[str, int], dict] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.out:
                command += ["--out", str(Path(args.out).resolve())]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            print(done.stdout.rstrip())
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            table[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(WORKLOADS)
    for trace, title in ((0, "end to end (untraced)"), (1, "per layer (traced)")):
        print(f"\n== {title}")
        print(f"{'metric':32s} {'unit':6s}" + "".join(f"{n:>20s}" for n in names))
        metrics = table[names[0], trace]["metrics"]
        for name, entry in metrics.items():
            cells = "".join(f"{table[n, trace]['metrics'][name]['value']:>20.6g}"
                            for n in names)
            print(f"{name:32s} {entry['unit']:6s}{cells}")
    bad = [(w, t) for (w, t), result in table.items() if not result["correct"]]
    print(f"\ncorrect on every workload: {not bad}" + (f"  failed: {bad}" if bad else ""))
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON record of the run to this file")
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    load_program()
    from workloads import WORKLOADS  # importable only once load_program ran

    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} "
                     f"(or use --all or --compare)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
