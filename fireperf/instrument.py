"""Wrappers the benchmark installs around ``repro`` from its own process.

Nothing in ``src/`` knows about the benchmark.  A :class:`Probe` patches
the program for the length of one pass over a workload's cells:

* always: ``run_cluster`` (to keep each cell's :class:`ClusterResult` and
  start the set-up clock), ``Environment.run`` on both backends (to stop
  it: set-up is everything from entering ``run_cluster`` to the first
  ``Environment.run``), and ``ClientWorkload.start`` (to read the client
  counters after the cell);
* with ``counting=True``: one counter per hooked call, see
  :data:`WRAPPER_COUNTS`.  The wrappers add a dictionary increment per
  call and never change arguments or results, so rows stay identical.

:func:`layer_self_time` groups a cProfile run's self time by ``repro``
package.
"""

from __future__ import annotations

import collections
import os
import pstats
import sys
import time

import repro
from repro.consensus.obbc import OptimisticBinaryConsensus
from repro.core import cluster, context
from repro.crypto import hashing
from repro.ledger.state import LedgerExecutor
from repro.metrics.recorder import MetricsRecorder
from repro.runtime.environment import RealtimeEnvironment
from repro.runtime.transport import Link
from repro.sim.environment import Environment
from repro.sim.process import Process
from repro.workload.clients import ClientWorkload

#: Exact work counts taken by the counting wrappers (one increment per call
#: unless stated).
WRAPPER_COUNTS = (
    "sim.resumes",             # Process._resume calls
    "sim.timers",              # call_later calls, either backend
    "sim.trains",              # schedule_batch calls (delivery trains), either backend
    "consensus.obbc_resumes",  # resumptions whose generator chain is in OBBC.propose
    "core.waits",              # ProtocolContext.wait_message calls
    "crypto.digests",          # hash_fields + hash_bytes calls
    "ledger.executed_deliveries",  # LedgerExecutor.on_delivery calls
    "metrics.events",          # MetricsRecorder.record_event calls
    "runtime.frames",          # Link.enqueue calls (one TCP frame each)
    "runtime.frame_bytes",     # bytes passed to Link.enqueue
)

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Probe:
    """Patch ``repro`` for one pass; read per-cell results and counts."""

    def __init__(self, counting: bool = False) -> None:
        self.counting = counting
        self.counts: collections.Counter = collections.Counter()
        self.results: list = []
        self.workloads: list = []
        self.setup_s = 0.0
        self._cell_started: float | None = None
        self._undo: list = []

    # ------------------------------------------------------------- per cell
    def start_cell(self) -> None:
        self.counts.clear()  # cleared in place: the wrappers hold this Counter
        self.results.clear()
        self.workloads.clear()
        self.setup_s = 0.0
        self._cell_started = None

    # ------------------------------------------------------------- patching
    def __enter__(self) -> "Probe":
        self._patch_everywhere(cluster, "run_cluster", self._wrap_run_cluster)
        for env_class in (Environment, RealtimeEnvironment):
            self._patch(env_class, "run", self._wrap_env_run)
        self._patch(ClientWorkload, "start", self._wrap_workload_start)
        if self.counting:
            self._patch(Process, "_resume", self._wrap_resume)
            for env_class in (Environment, RealtimeEnvironment):
                self._patch(env_class, "call_later", self._counter("sim.timers"))
                self._patch(env_class, "schedule_batch", self._counter("sim.trains"))
            self._patch(context.ProtocolContext, "wait_message",
                        self._counter("core.waits"))
            for name in ("hash_fields", "hash_bytes"):
                self._patch_everywhere(hashing, name, self._counter("crypto.digests"))
            self._patch(LedgerExecutor, "on_delivery",
                        self._counter("ledger.executed_deliveries"))
            self._patch(MetricsRecorder, "record_event", self._counter("metrics.events"))
            self._patch(Link, "enqueue", self._wrap_enqueue)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name: str, make_wrapper) -> None:
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def _patch_everywhere(self, module, name: str, make_wrapper) -> None:
        """Patch ``module.name`` and every ``repro`` module that imported it."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(mod, name, None) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapper)

    # ------------------------------------------------------------- wrappers
    def _counter(self, key: str):
        def make(original):
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _wrap_run_cluster(self, original):
        def run_cluster(*args, **kwargs):
            self._cell_started = time.perf_counter()
            result = original(*args, **kwargs)
            self.results.append(result)
            return result
        return run_cluster

    def _wrap_env_run(self, original):
        def run(env, *args, **kwargs):
            if self._cell_started is not None:
                self.setup_s += time.perf_counter() - self._cell_started
                self._cell_started = None
            return original(env, *args, **kwargs)
        return run

    def _wrap_workload_start(self, original):
        def start(workload, *args, **kwargs):
            self.workloads.append(workload)
            return original(workload, *args, **kwargs)
        return start

    def _wrap_resume(self, original):
        propose_code = OptimisticBinaryConsensus.propose.__code__
        counts = self.counts

        def _resume(process, event):
            counts["sim.resumes"] += 1
            generator = process._generator
            while generator is not None:
                if getattr(generator, "gi_code", None) is propose_code:
                    counts["consensus.obbc_resumes"] += 1
                    break
                generator = getattr(generator, "gi_yieldfrom", None)
            return original(process, event)
        return _resume

    def _wrap_enqueue(self, original):
        counts = self.counts

        def enqueue(link, frame):
            counts["runtime.frames"] += 1
            counts["runtime.frame_bytes"] += len(frame)
            return original(link, frame)
        return enqueue


def layer_of(filename: str) -> str:
    """``repro`` subpackage a source file belongs to; ``other`` outside it."""
    path = os.path.abspath(filename)
    if path.startswith(REPRO_DIR + os.sep):
        parts = os.path.relpath(path, REPRO_DIR).split(os.sep)
        return parts[0] if len(parts) > 1 else "repro"
    if path.startswith(BENCH_DIR + os.sep):
        return "bench"
    return "other"


def layer_self_time(profile) -> dict[str, float]:
    """Self seconds per layer from a finished ``cProfile.Profile``."""
    totals: dict[str, float] = collections.defaultdict(float)
    for (filename, _line, _func), (_cc, _nc, self_s, _cum, _callers) in \
            pstats.Stats(profile).stats.items():
        totals[layer_of(filename)] += self_s
    return dict(totals)
