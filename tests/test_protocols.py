"""Tests of the protocol-pluggable cluster API (`repro.protocols`).

Covers the `ConsensusProtocol` registry, the generalized `run_cluster`
wiring, cross-protocol determinism, the HotStuff view-timeout regression,
the protocol sweep axis, and the head-to-head report table.
"""

import random

import pytest

from repro import FireLedgerConfig, run_cluster
from repro import protocols
from repro.crypto.cost_model import C5_4XLARGE
from repro.experiments import registry
from repro.experiments.harness import ExperimentScale
from repro.experiments.sweep import config_id
from repro.faults import FaultSchedule, byzantine, crash
from repro.metrics import report
from repro.protocols.hotstuff import COMMIT_DEPTH
from repro.scenarios import library
from repro.scenarios.runner import run_scenario

PROTOCOLS = ("fireledger", "hotstuff", "bftsmart")


# ------------------------------------------------------------------ registry
def test_registry_ships_all_three_protocols():
    assert list(protocols.names()) == list(PROTOCOLS)
    for name in PROTOCOLS:
        impl = protocols.get(name)
        assert impl.name == name
        assert protocols.resolve(name) is impl
        assert protocols.resolve(impl) is impl


def test_registry_rejects_unknown_protocol():
    with pytest.raises(KeyError, match="unknown protocol"):
        protocols.get("tendermint")
    config = FireLedgerConfig(n_nodes=4)
    with pytest.raises(KeyError, match="unknown protocol"):
        run_cluster(config, protocol="tendermint", duration=0.2, warmup=0.0)


# ------------------------------------------------------- unified run_cluster
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_cluster_commits_under_every_protocol(protocol, cluster_result):
    result = cluster_result(batch_size=100, protocol=protocol, duration=1.0,
                            warmup=0.2, seed=2)
    assert result.protocol == protocol
    assert result.tps > 0
    assert result.bps > 0
    assert result.latency.mean > 0
    assert result.breakdown["signatures"] > 0
    if protocol == "fireledger":
        assert result.fast_path_rounds > 0
    else:
        assert result.blocks_committed > 10
        assert result.transactions_committed == pytest.approx(
            result.blocks_committed * 100, rel=0.01)


def test_deprecated_cluster_aliases_are_gone():
    """The pre-protocol-API entry points were removed; run_cluster is the
    single front door for every protocol."""
    import repro
    import repro.core.cluster
    import repro.protocols.bftsmart
    import repro.protocols.hotstuff

    for module in (repro, repro.core, repro.core.cluster):
        assert not hasattr(module, "run_fireledger_cluster")
    for module in (repro.protocols, repro.protocols.hotstuff):
        assert not hasattr(module, "run_hotstuff_cluster")
    for module in (repro.protocols, repro.protocols.bftsmart):
        assert not hasattr(module, "run_bftsmart_cluster")


def test_run_cluster_enforces_minimum_cluster():
    config = FireLedgerConfig(n_nodes=4, batch_size=10, tx_size=512)
    for protocol in ("hotstuff", "bftsmart"):
        impl = protocols.get(protocol)
        assert impl.min_nodes >= 4
        with pytest.raises(ValueError):
            run_cluster(config.with_overrides(n_nodes=impl.min_nodes - 1),
                        protocol=protocol, duration=0.2, warmup=0.0)


def test_client_batches_are_charged_at_their_actual_size(cluster_result):
    """fill_blocks=False: an idle cluster commits empty batches but must not
    pay full-batch crypto cost for them, so its block cadence beats the
    saturated one."""
    idle = cluster_result(batch_size=1000, fill_blocks=False,
                          protocol="hotstuff", duration=1.0, warmup=0.2,
                          seed=1)
    saturated = cluster_result(batch_size=1000, protocol="hotstuff",
                               duration=1.0, warmup=0.2, seed=1)
    assert idle.tps == 0
    assert idle.bps > saturated.bps * 2


# ------------------------------------------- HotStuff view-timeout regression
def test_hotstuff_skips_crashed_leaders_views_and_stays_live():
    """A crashed leader's views time out; the chain keeps committing.

    Regression test for the NEW-VIEW model: without it, the first timed-out
    view starves every later leader of votes and the chain halts forever.
    """
    from repro.protocols import HotStuffProtocol

    n_nodes, crash_at, duration = 4, 1.0, 3.0
    victim = n_nodes - 1
    config = FireLedgerConfig(n_nodes=n_nodes, batch_size=10, tx_size=256)
    # A protocol *instance* plugs in too — here with a tighter view timeout
    # so the crashed leader's rotations cost 0.1s, not the 1s default.
    result = run_cluster(config, protocol=HotStuffProtocol(view_timeout=0.1),
                         duration=duration, warmup=0.2, seed=3,
                         faults=FaultSchedule((crash(victim, at=crash_at),)))

    survivor = result.nodes[0]
    committed_after = [block for block in survivor.committed
                      if block.proposed_at > crash_at + 0.1]
    assert committed_after, "chain must stay live after the leader crash"
    # The victim's views never produce a proposal after the crash...
    assert all(block.view % n_nodes != victim for block in committed_after)
    # ...and every survivor observed at least one view timeout.
    assert result.breakdown["views_timed_out"] >= 1
    # Commits continue until the end of the run, not just once.
    last_commit = max(block.committed_at for block in survivor.committed)
    assert last_commit > duration - 1.0


def test_hotstuff_silent_byzantine_node_exercises_view_skip(cluster_result):
    result = cluster_result(batch_size=10, tx_size=256, protocol="hotstuff",
                            duration=3.0, warmup=0.2, seed=3,
                            faults=FaultSchedule((byzantine(2),)))
    assert result.blocks_committed > 0
    assert result.breakdown["views_timed_out"] >= 1
    # The silent node never runs, so it commits nothing.
    assert result.nodes[2].committed == []
    committed_views = {block.view for block in result.nodes[0].committed}
    assert committed_views and all(view % 4 != 2 for view in committed_views)


def test_hotstuff_three_chain_depth_still_holds():
    config = FireLedgerConfig(n_nodes=4, batch_size=100, tx_size=512,
                              machine=C5_4XLARGE)
    result = run_cluster(config, protocol="hotstuff", duration=1.0,
                         warmup=0.2, seed=2)
    view_duration = 1.0 / max(result.blocks_committed, 1)
    assert result.latency.mean > (COMMIT_DEPTH - 1) * view_duration


# -------------------------------------------------- cross-protocol determinism
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_same_seed_same_scenario_is_deterministic(protocol):
    spec = library.get("paper-lan").with_overrides(
        protocol=protocol, duration=0.4, warmup=0.1)
    first = run_scenario(spec, seed=11)[0]
    second = run_scenario(spec, seed=11)[0]
    assert first == second


def test_config_id_stable_across_protocol_sweep_reruns():
    scale = ExperimentScale.quick()
    ids = {config_id("scenario:paper-lan", scale, {"protocol": name})
           for name in PROTOCOLS}
    assert len(ids) == 3  # one grid point per protocol
    for name in PROTOCOLS:
        assert (config_id("scenario:paper-lan", scale, {"protocol": name})
                == config_id("scenario:paper-lan", scale, {"protocol": name}))


# ----------------------------------------------------- workloads on baselines
@pytest.mark.parametrize("protocol", ("hotstuff", "bftsmart"))
def test_open_loop_clients_drive_baseline_protocols(protocol):
    """fill_blocks=False + clients: baselines order only submitted traffic."""
    from repro.workload import ClientWorkload

    config = FireLedgerConfig(n_nodes=4, batch_size=50, tx_size=512,
                              fill_blocks=False)
    box = []

    def _setup(env, network, nodes):
        workload = ClientWorkload(env, nodes, n_clients=8,
                                  rate_per_client=400, tx_size=512, seed=1)
        workload.start()
        box.append(workload)

    result = run_cluster(config, protocol=protocol, duration=2.0,
                         warmup=0.2, seed=1, setup=_setup)
    submitted = box[0].total_submitted
    assert submitted > 100
    delivered = max(node.delivered_transactions for node in result.nodes)
    assert 0 < delivered <= submitted


def test_closed_loop_clients_avoid_silent_byzantine_replicas():
    """Scenario workloads target only non-Byzantine nodes: a closed-loop
    client pointed at a silent baseline replica would spin forever."""
    from repro.scenarios.spec import WorkloadSpec

    spec = library.get("paper-lan").with_overrides(
        protocol="bftsmart", duration=1.0, warmup=0.2, batch_size=50,
        workload=WorkloadSpec(shape="closed-loop", n_clients=4,
                              think_time=0.001),
        faults=FaultSchedule((byzantine(3),)))
    row = run_scenario(spec, seed=2)[0]
    assert row["completed_req"] >= 4  # every client makes progress


# ------------------------------------------------------- protocol sweep axis
def test_protocol_axis_runs_scenario_under_each_protocol():
    spec = registry.get("scenario:paper-lan")
    rows = spec.run(ExperimentScale.quick(),
                    axis_values={"protocol": ("fireledger", "hotstuff")})
    assert [row["protocol"] for row in rows] == ["fireledger", "hotstuff"]
    assert all(row["tps"] > 0 for row in rows)


def test_protocol_axis_rejected_for_non_scenario_drivers():
    with pytest.raises(ValueError, match="no 'protocol' axis"):
        registry.get("fig07").normalize_axis_values({"protocol": ("hotstuff",)})


def test_bare_string_axis_value_is_one_value_not_characters():
    spec = registry.get("scenario:paper-lan")
    normalized = spec.normalize_axis_values({"protocol": "hotstuff"})
    assert normalized == {"protocol": ("hotstuff",)}


# ------------------------------------------------------ report head-to-head
def test_report_renders_head_to_head_comparison_table():
    rows_by_protocol = {
        "fireledger": {"tps": 200000.0, "latency_p50_ms": 30.0},
        "hotstuff": {"tps": 40000.0, "latency_p50_ms": 90.0},
        "bftsmart": {"tps": 50000.0, "latency_p50_ms": 20.0},
    }
    records = [
        {"config_id": f"id-{name}", "scale": "quick", "seed": 7,
         "params": {"protocol": name},
         "rows": [{"scenario": "paper-lan", "protocol": name, "n": 4,
                   "workers": 4, "batch": 1000, "tx_size": 512,
                   "workload": "saturated", **metrics}]}
        for name, metrics in rows_by_protocol.items()
    ]
    section = report.render_experiment_section("scenario:paper-lan", records)
    assert "Head-to-head protocol comparison" in section
    assert "tps_fireledger" in section and "tps_hotstuff" in section
    assert "fireledger_over_hotstuff" in section
    comparison = report.protocol_comparison_rows(
        report.merged_rows(records))
    assert len(comparison) == 1
    assert comparison[0]["fireledger_over_hotstuff"] == 5.0
    assert comparison[0]["fireledger_over_bftsmart"] == 4.0


def test_comparison_keeps_different_seeds_apart():
    """Runs recorded at different seeds must not collapse into one
    'same configuration, protocol swapped' comparison row."""
    records = [
        {"config_id": "a", "scale": "quick", "seed": 7,
         "params": {},
         "rows": [{"scenario": "paper-lan", "protocol": "fireledger",
                   "n": 4, "tps": 200000.0}]},
        {"config_id": "b", "scale": "quick", "seed": 9,
         "params": {"protocol": "hotstuff"},
         "rows": [{"scenario": "paper-lan", "protocol": "hotstuff",
                   "n": 4, "tps": 40000.0}]},
    ]
    merged = report.merged_rows(records)
    assert {row["seed"] for row in merged} == {7, 9}
    assert report.protocol_comparison_rows(merged) == []


def test_comparison_needs_two_protocols():
    rows = [{"protocol": "fireledger", "tps": 1.0, "n": 4}]
    assert report.protocol_comparison_rows(rows) == []
    assert report.protocol_comparison_rows([{"tps": 1.0, "n": 4}]) == []


# ---------------------------------------------- fig16/fig17 number regression
def test_fig16_fig17_reproduce_pre_refactor_numbers():
    """The rewired comparison figures stay within tolerance of the numbers
    the retired HotStuffCluster/BFTSmartCluster wiring produced (captured at
    quick scale before the protocol-API refactor)."""
    from repro.experiments.figures import (
        figure16_vs_hotstuff,
        figure17_vs_bftsmart,
    )

    scale = ExperimentScale.quick()
    expected_hotstuff = {4: 51250, 10: 28000}
    expected_bftsmart = {4: 55000, 10: 31000}
    expected_flo = {4: 370000, 10: 98000}

    for row in figure16_vs_hotstuff(scale, cluster_sizes=(4, 10),
                                    tx_sizes=(512,)):
        assert row["hotstuff_tps"] == pytest.approx(
            expected_hotstuff[row["n"]], rel=0.2)
        assert row["flo_tps"] == pytest.approx(expected_flo[row["n"]], rel=0.2)
        assert row["flo_over_hotstuff"] > 1.0
    for row in figure17_vs_bftsmart(scale, cluster_sizes=(4, 10),
                                    tx_sizes=(512,)):
        assert row["bftsmart_tps"] == pytest.approx(
            expected_bftsmart[row["n"]], rel=0.2)
        assert row["flo_over_bftsmart"] > 1.0


# ----------------------------------------------------------- scenario column
def test_scenario_rows_carry_protocol_counters():
    spec = library.get("paper-lan").with_overrides(duration=0.4, warmup=0.1)
    fire = run_scenario(spec, seed=3)[0]
    assert fire["protocol"] == "fireledger"
    assert "fast_rounds" in fire and "recoveries" in fire
    hot = run_scenario(spec.with_overrides(protocol="hotstuff"), seed=3)[0]
    assert hot["protocol"] == "hotstuff"
    assert "blocks_committed" in hot and "views_timed_out" in hot
    assert "fast_rounds" not in hot
