"""Tests for the pluggable adversary layer.

The tentpole claim: any registered strategy composes with any registered
protocol (including multiplexed lanes) through the three contract seams —
outbound traffic shaping, proposal construction, process liveness — with
zero protocol-code changes, and honest nodes always keep state-root
agreement.  Plus the compatibility guarantees: ``scenario:byzantine-minority``
reproduces its committed metric rows, and the ``--adversary`` axis
canonicalises so committed records resume unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import FireLedgerConfig, run_cluster
from repro import adversary
from repro.adversary import (
    AdversaryStrategy,
    EquivocatingWorker,
    TargetedEquivocatingWorker,
)
from repro.experiments import registry, sweep
from repro.experiments.harness import ExperimentScale
from repro.scenarios import FaultSchedule, byzantine, library, run_scenario

RESULTS = Path(__file__).resolve().parent.parent / "results"

STRATEGY_COUNTERS = {
    "equivocate": "adversary_equivocations",
    "targeted-equivocate": "adversary_equivocations",
    "silent": "adversary_silenced_nodes",
    "delayed-release": "adversary_delayed_msgs",
    "selective-omission": "adversary_withheld_msgs",
    "churn": "adversary_departures",
}


def _run(strategy, protocol: str = "fireledger", lanes: int = 1,
         seed: int = 7, faults: FaultSchedule = FaultSchedule((byzantine(3),)),
         **kwargs):
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10,
                              tx_size=512, execute_transactions=True,
                              lanes=lanes)
    if protocol == "hotstuff":
        # Stock 1.0s view timeout would eat the whole run waiting out the
        # Byzantine leader's views; shorten it so progress fits the test.
        from repro.protocols.hotstuff import HotStuffProtocol
        protocol = HotStuffProtocol(view_timeout=0.15)
    return run_cluster(config, protocol=protocol, duration=1.0, warmup=0.1,
                       seed=seed, faults=faults, adversary=strategy, **kwargs)


class _Keep:
    """An adversary spec that keeps the strategy ``run_cluster`` binds with
    it, so a test can inspect the bound instance after the run."""

    def __init__(self, strategy_class) -> None:
        self.strategy_class = strategy_class
        self.strategy = None

    def build(self, nodes, windows=None):
        self.strategy = self.strategy_class(nodes, windows)
        return self.strategy


# ------------------------------------------------------------------ registry
def test_registry_names_all_strategies():
    assert set(adversary.names()) == set(STRATEGY_COUNTERS)


def test_unknown_strategy_raises_with_known_names():
    with pytest.raises(KeyError, match="equivocate"):
        adversary.get("meteor")


def test_build_binds_membership_and_windows():
    strategy = adversary.build("silent", nodes=frozenset({1}),
                               windows={1: ((0.2, 0.6),)})
    assert strategy.nodes == frozenset({1})
    assert not strategy.active(1, 0.1)
    assert strategy.active(1, 0.3)
    assert not strategy.active(1, 0.6)
    assert strategy.span_of(1) == (0.2, 0.6)
    assert strategy.span_of(2) == (0.0, float("inf"))


def test_default_strategy_is_equivocate():
    assert adversary.DEFAULT_STRATEGY == "equivocate"


# ------------------------------------------- strategy x protocol gauntlet
@pytest.mark.parametrize("strategy", sorted(STRATEGY_COUNTERS))
@pytest.mark.parametrize("protocol,lanes", [
    ("fireledger", 1),
    ("hotstuff", 1),
    ("bftsmart", 1),
    ("fireledger", 2),
])
def test_every_strategy_composes_with_every_protocol(strategy, protocol,
                                                     lanes):
    """The acceptance matrix: every strategy runs under every protocol and
    the honest nodes pass the cross-node state-agreement oracle (run_cluster
    raises from ``verify_state_agreement`` on any divergence)."""
    result = _run(strategy, protocol=protocol, lanes=lanes)
    assert result.state_root
    if (strategy, protocol) == ("selective-omission", "hotstuff"):
        # The starved victim never executes (the simplified HotStuff has no
        # state-sync to catch it up), so the agreed common prefix is empty —
        # liveness degrades but safety holds and the cluster still commits.
        assert result.breakdown["blocks_committed"] > 0
    else:
        assert result.state_deliveries > 0
    counter = STRATEGY_COUNTERS[strategy]
    assert counter in result.breakdown
    # Every strategy counter carries the reserved prefix.
    for key in adversary.build(strategy, nodes=frozenset({3})).counters():
        assert key.startswith("adversary_")


def test_equivocation_substitutes_workers_on_fireledger_only():
    result = _run("equivocate")
    assert isinstance(result.nodes[3].workers[0], EquivocatingWorker)
    assert result.breakdown["adversary_equivocations"] > 0

    baseline = _run("equivocate", protocol="hotstuff")
    # No proposer-equivocation seam on the baselines: degrade to fail-stop.
    assert baseline.breakdown["adversary_equivocations"] == 0
    assert not any(replica.node_id == 3 and not replica.silent
                   for replica in baseline.nodes)


def test_targeted_equivocator_aims_at_next_proposers():
    result = _run("targeted-equivocate")
    worker = result.nodes[3].workers[0]
    assert isinstance(worker, TargetedEquivocatingWorker)
    assert worker.equivocations > 0
    # The poisoned half is exactly the next f proposers (f=1 at n=4).
    assert len(worker.group_b) == 1
    assert 3 in worker.group_a


def test_silent_strategy_silences_fireledger_node():
    result = _run("silent")
    assert result.breakdown["adversary_silenced_nodes"] == 1
    assert result.nodes[3].silent
    assert result.tps > 0  # the other three nodes keep committing


def test_delayed_release_slows_but_preserves_safety():
    result = _run("delayed-release")
    assert result.breakdown["adversary_delayed_msgs"] > 0
    assert result.state_root


def test_selective_omission_defaults_to_lowest_honest_victim():
    spec = _Keep(adversary.get("selective-omission"))
    result = _run(spec)
    assert spec.strategy.nodes == frozenset({3})
    assert spec.strategy.victims == frozenset({0})
    assert result.breakdown["adversary_withheld_msgs"] > 0


def test_churn_cycles_departures_and_rejoins():
    result = _run("churn")
    assert result.breakdown["adversary_departures"] >= 1
    assert result.breakdown["adversary_rejoins"] >= 1
    assert result.state_root


def test_churn_respects_timed_windows():
    """A window starting mid-run delays the first departure past ``at``."""
    spec = _Keep(adversary.get("churn"))
    result = _run(spec, faults=FaultSchedule((byzantine(3, at=0.3, until=0.45),)))
    assert spec.strategy.windows == {3: ((0.3, 0.45),)}
    assert result.breakdown["adversary_departures"] >= 1


def test_adversary_instance_passthrough():
    class Probe(AdversaryStrategy):
        name = "probe-instance"

        def counters(self):
            return {"adversary_probe": 1.0}

    result = _run(_Keep(Probe))
    assert result.breakdown["adversary_probe"] == 1.0


# ------------------------------------------------------- scenario plumbing
def test_scenario_spec_rejects_unknown_adversary():
    from repro.scenarios.spec import AdversarySpec
    with pytest.raises(ValueError, match="unknown adversary strategy"):
        AdversarySpec(strategy="meteor")


def test_gauntlet_scenario_sweeps_strategies():
    spec = library.get("adversary-gauntlet")
    assert spec.faults.byzantine_nodes == frozenset({5, 6})
    (row,) = run_scenario(spec, adversary="silent",
                          scale=ExperimentScale())
    assert row["adversary"] == "silent"
    assert row["silenced_nodes"] == 2
    assert row["state_root"]


def test_implicit_adversary_keeps_row_shape():
    """Without --adversary the row has no adversary columns: committed
    Byzantine rows predate the layer and must keep their exact shape."""
    spec = library.get("byzantine-minority")
    (row,) = run_scenario(spec, scale=ExperimentScale())
    assert "adversary" not in row
    assert not any(key.startswith("adversary") for key in row)


def _committed_records(experiment: str) -> dict:
    """The committed records of ``experiment`` by ``config_id`` (the last
    record of a configuration wins, as on resume)."""
    records = {}
    with open(sweep.results_path(RESULTS, experiment)) as handle:
        for line in handle:
            record = json.loads(line)
            records[record["config_id"]] = record
    assert records
    return records


def _assert_field_identical(fresh_rows: list, record: dict) -> None:
    """Every committed field must match a fresh run exactly (fresh rows may
    add columns that postdate the record, e.g. ``lanes``)."""
    fresh_rows = json.loads(json.dumps(fresh_rows))  # as a record reads back
    assert len(fresh_rows) == len(record["rows"])
    for index, (fresh, committed) in enumerate(zip(fresh_rows, record["rows"])):
        for key, value in committed.items():
            assert fresh[key] == value, (
                f"drift on row {index} {key!r} for config {record['config_id']}: "
                f"fresh={fresh[key]!r} committed={value!r}")


def test_byzantine_minority_reproduces_committed_rows():
    for record in _committed_records("scenario:byzantine-minority").values():
        lanes = record["params"].get("lanes")
        fresh = run_scenario(library.get("byzantine-minority"),
                             scale=ExperimentScale(), lanes=lanes,
                             seed=record["seed"])
        _assert_field_identical(fresh, record)


@pytest.mark.parametrize("experiment", ["table1", "fig11", "fig12", "fig13"])
def test_fault_and_geo_drivers_reproduce_committed_rows(experiment):
    """The crash, Byzantine and geo inputs of these drivers go through the
    one fault schedule and an explicit latency model; their default-scale
    rows must still match the committed record field for field."""
    spec = registry.get(experiment)
    scale = ExperimentScale()
    wanted = sweep.config_id(spec.name, scale, {}, spec.axis_defaults)
    _assert_field_identical(spec.run(scale),
                            _committed_records(experiment)[wanted])


def test_adversary_axis_canonicalises_to_committed_config_id():
    """``--adversary equivocate`` is the scenario default, so its config_id
    must collapse onto the committed record's id (resume skips the run);
    a non-default strategy must get a distinct id."""
    spec = registry.get("scenario:byzantine-minority")
    scale = ExperimentScale()
    base = sweep.config_id(spec.name, scale, {}, spec.axis_defaults)
    explicit = sweep.config_id(spec.name, scale, {"adversary": "equivocate"},
                               spec.axis_defaults)
    churned = sweep.config_id(spec.name, scale, {"adversary": "churn"},
                              spec.axis_defaults)
    assert base == explicit == "ff16b43c81e7f0bc"
    assert churned != base


def test_registry_exposes_adversary_axis():
    spec = registry.get("scenario:adversary-gauntlet")
    assert registry.AXIS_ADVERSARY in spec.axes
    assert spec.axis_defaults[registry.AXIS_ADVERSARY] == "equivocate"


# ------------------------------------------------------------ live backend
def test_delayed_release_live_reaches_state_agreement():
    """One strategy on the realtime backend: traffic shaping composes with
    the asyncio/TCP network and honest nodes still agree."""
    (row,) = run_scenario(library.get("adversary-gauntlet"),
                          adversary="delayed-release", backend="realtime")
    assert row["backend"] == "realtime"
    assert row["adversary"] == "delayed-release"
    assert row["delayed_msgs"] > 0
    assert row["state_root"]
