"""Failure injection: one fault timeline per run.

A :class:`FaultSchedule` is the single fault input of
:func:`repro.core.cluster.run_cluster` — timed crashes and recoveries,
partition / loss / slow-link windows and Byzantine membership windows.
How Byzantine nodes misbehave lives in :mod:`repro.adversary`, a registry
of pluggable strategies that compose with any registered protocol.
"""

from repro.faults.schedule import (
    FaultPhase,
    FaultSchedule,
    byzantine,
    crash,
    loss,
    partition,
    recover,
    slow,
)

__all__ = [
    "FaultPhase",
    "FaultSchedule",
    "byzantine",
    "crash",
    "loss",
    "partition",
    "recover",
    "slow",
]
