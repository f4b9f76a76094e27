"""Declarative scenarios: topology x workload x faults as one spec.

This layer turns "add a new evaluation scenario" from a code-writing task
into a spec-writing task: a :class:`~repro.scenarios.spec.ScenarioSpec`
(buildable from a dict or TOML) composes a WAN topology, a workload shape
and a fault timeline, :func:`~repro.scenarios.runner.run_scenario` executes
it, and the shipped library registers each named scenario with the
experiment registry as ``scenario:<name>``.  See ARCHITECTURE.md and the
"Writing a scenario" section of README.md.
"""

from repro.faults import (
    FaultPhase,
    FaultSchedule,
    byzantine,
    crash,
    loss,
    partition,
    recover,
    slow,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    LinkSpec,
    PoolSpec,
    RegionSpec,
    RetentionSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenarios import library

__all__ = [
    "ScenarioSpec",
    "TopologySpec",
    "RegionSpec",
    "LinkSpec",
    "WorkloadSpec",
    "RetentionSpec",
    "PoolSpec",
    "FaultSchedule",
    "FaultPhase",
    "crash",
    "recover",
    "partition",
    "loss",
    "slow",
    "byzantine",
    "run_scenario",
    "library",
]
