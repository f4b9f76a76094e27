"""End-to-end tests of the execution layer.

Covers the account state machine applied at delivery, the cross-node
state-root oracle (all three protocols, under crashes / recovery /
Byzantine minorities, with retention on and off), the structured-transfer
workload plumbing, per-client payload seeding, and the fairness metrics
and their EXPERIMENTS.md section.
"""

import random as global_random

import pytest

from repro import protocols
from repro.core.config import FireLedgerConfig
from repro.ledger import Transaction
from repro.ledger.state import (
    LedgerExecutor,
    StateDivergenceError,
    verify_state_agreement,
)
from repro.metrics import report
from repro.protocols.base import SharedTxPool
from repro.scenarios import library
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ExecutionSpec, ScenarioSpec

PROTOCOLS = ("fireledger", "hotstuff", "bftsmart")


# ----------------------------------------------------- cross-node state oracle
@pytest.mark.parametrize("scenario", ("byzantine-minority", "rolling-crash"))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_state_root_agrees_across_honest_nodes(scenario, protocol):
    """run_cluster's oracle raises StateDivergenceError on any disagreement,
    so a faulted scenario completing with a root *is* the agreement check —
    for every protocol, including crashed-and-recovered and Byzantine runs."""
    spec = library.get(scenario).with_overrides(protocol=protocol)
    assert spec.execution.enabled  # shipped scenarios all execute
    (row,) = run_scenario(spec, seed=5)
    assert row["state_root"]
    assert row["state_deliveries"] >= 0


def test_recovered_node_replays_to_the_identical_root(cluster_result):
    """A node that crashes and recovers freezes its executor mid-run; the
    oracle still finds its whole executed prefix identical to the others'."""
    from repro.faults import FaultSchedule, crash, recover

    result = cluster_result(
        batch_size=50, execute_transactions=True,
        duration=0.8, warmup=0.1, seed=7,
        faults=FaultSchedule((crash(3, at=0.2), recover(3, at=0.4))))
    impl = protocols.get("fireledger")
    executors = [impl.executor_of(node) for node in result.nodes]
    assert all(executor is not None for executor in executors)
    deliveries, root = verify_state_agreement(executors)
    # The crashed node's frozen history bounds the common prefix, which must
    # be non-trivial and must match what run_cluster reported.
    assert deliveries > 0
    assert root == result.state_root
    assert result.state_deliveries == deliveries


def test_state_root_identical_with_retention_on_and_off(cluster_result):
    off = cluster_result(batch_size=50, execute_transactions=True,
                         duration=0.8, warmup=0.1, seed=9)
    on = cluster_result(batch_size=50, execute_transactions=True,
                        retention_rounds=16, metrics_horizon_rounds=16,
                        duration=0.8, warmup=0.1, seed=9)
    assert off.state_root is not None
    assert on.state_root == off.state_root
    assert on.state_deliveries == off.state_deliveries


def test_execution_disabled_by_default(cluster_result):
    assert FireLedgerConfig(n_nodes=4).execute_transactions is False
    result = cluster_result(seed=3)  # the shared fault-free run
    assert result.state_root is None
    assert result.state_deliveries == 0


def test_oracle_raises_on_divergent_roots_and_tolerates_skipped_tags():
    left = LedgerExecutor(4, 100, n_nodes=4)
    right = LedgerExecutor(4, 100, n_nodes=4)
    tx = Transaction.create(client_id=0, size_bytes=8, payload_seed=1,
                            sender=0, recipient=1, amount=5, nonce=0)
    other = Transaction.create(client_id=0, size_bytes=8, payload_seed=2,
                               sender=0, recipient=2, amount=5, nonce=0)
    left.apply_delivery(tag="b0", transactions=[tx], tx_count=1)
    # Same tag, different executed content -> an execution bug, loudly.
    right.apply_delivery(tag="b0", transactions=[other], tx_count=1)
    with pytest.raises(StateDivergenceError, match="diverged at delivery 1"):
        verify_state_agreement([left, right])
    # Different tags at the same index -> legitimately different deliveries
    # (a skipped view): comparison stops, the agreed prefix is what matched.
    fresh = LedgerExecutor(4, 100, n_nodes=4)
    fresh.apply_delivery(tag="b1", transactions=[tx], tx_count=1)
    deliveries, root = verify_state_agreement([left, fresh])
    assert deliveries == 0
    assert root == left.genesis_root
    # Mixed account spaces can never agree and are rejected outright.
    with pytest.raises(StateDivergenceError, match="account spaces"):
        verify_state_agreement([left, LedgerExecutor(8, 100, n_nodes=4)])


def test_oracle_reports_nothing_when_histories_no_longer_overlap():
    ahead = LedgerExecutor(4, 100, n_nodes=4, history_limit=2)
    behind = LedgerExecutor(4, 100, n_nodes=4, history_limit=2)
    for index in range(6):
        ahead.apply_delivery(tag=("b", index), transactions=[], tx_count=0)
    behind.apply_delivery(tag=("b", 0), transactions=[], tx_count=0)
    assert verify_state_agreement([ahead, behind]) == (0, None)


# -------------------------------------------------------- transfer workloads
def test_hotspot_transfers_scenario_reports_contention_and_fairness():
    (row,) = run_scenario(library.get("hotspot-transfers"), seed=4)
    assert row["state_root"]
    assert row["tx_applied"] > 0
    assert row["tx_stale"] > 0       # shared senders collide on nonces
    assert row["tx_conflicts"] > 0   # Zipf recipients pile onto hot accounts
    assert "sender_p50_spread_ms" in row and "sender_p99_spread_ms" in row
    assert row["proposer_bias"] == pytest.approx(1.0, abs=0.25)  # rotation


def test_static_leader_shows_maximal_proposer_bias():
    spec = library.get("hotspot-transfers").with_overrides(protocol="bftsmart")
    (row,) = run_scenario(spec, seed=4)
    assert row["proposer_bias"] == pytest.approx(spec.n_nodes)


def test_execution_spec_round_trips_and_validates():
    spec = ScenarioSpec.from_dict({
        "name": "mini-exec",
        "duration": 0.4,
        "warmup": 0.1,
        "execution": {"enabled": True, "n_accounts": 8,
                      "recipient_skew": 1.0},
        "workload": {"shape": "open-loop", "n_clients": 4,
                     "rate_per_client": 500.0},
    })
    assert spec.execution.enabled
    assert spec.execution.n_accounts == 8
    assert "execution" in spec.summary()
    with pytest.raises(ValueError):
        ExecutionSpec(n_accounts=0)
    with pytest.raises(ValueError):
        ExecutionSpec(recipient_skew=-1.0)
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict({"name": "x", "execution": {"bogus": 1}})


def test_shared_pool_carries_transactions_only_when_asked():
    carrying = SharedTxPool(carry_transactions=True)
    tx = Transaction.create(client_id=1, size_bytes=64)
    assert carrying.submit(tx)
    assert carrying.submit(Transaction.create(client_id=2, size_bytes=64))
    count, transactions = carrying.take_transactions(5)
    assert count == 2
    assert transactions[0] is tx
    # take() keeps its historical int contract on a carrying pool too.
    assert carrying.submit(tx)
    assert carrying.take(5) == 1
    plain = SharedTxPool()
    assert plain.submit(tx)
    count, transactions = plain.take_transactions(5)
    assert count == 1 and transactions == ()


# ------------------------------------------------------------ payload seeding
def test_payload_identities_are_seeded_not_global(env):
    """A client's payload stream derives from its seeded RNG: rebuilding the
    client reproduces it exactly, regardless of global `random` usage."""
    from repro.workload.clients import OpenLoopClient, _submission_fields

    def payload_stream():
        client = OpenLoopClient(env, 0, [object()], 100.0,
                                rng=global_random.Random(42))
        return [_submission_fields(client)["payload_seed"] for _ in range(5)]

    first = payload_stream()
    global_random.random()  # perturb the process-global stream
    assert payload_stream() == first


def test_same_payload_seed_same_digest_despite_fresh_tx_ids():
    a = Transaction.create(client_id=1, size_bytes=64, payload_seed=99)
    b = Transaction.create(client_id=1, size_bytes=64, payload_seed=99)
    assert a.tx_id != b.tx_id
    assert a.digest == b.digest
    unseeded = Transaction.create(client_id=1, size_bytes=64)
    repeat = Transaction.create(client_id=1, size_bytes=64)
    assert unseeded.digest != repeat.digest  # fallback: unique per tx_id


# ----------------------------------------------------------- report rendering
def _execution_records():
    return [{
        "config_id": "id-1", "scale": "quick", "seed": 7, "params": {},
        "rows": [{"scenario": "hotspot-transfers", "protocol": "fireledger",
                  "n": 4, "workers": 2, "workload": "open-loop",
                  "tps": 1000.0, "latency_p50_ms": 5.0,
                  "state_root": "abcdef123456", "state_deliveries": 100,
                  "tx_applied": 50, "tx_stale": 10, "tx_invalid": 1,
                  "tx_conflicts": 30, "proposer_bias": 1.01,
                  "sender_p50_spread_ms": 0.5,
                  "sender_p99_spread_ms": 1.5}],
    }]


def test_report_renders_dedicated_fairness_section():
    results = {"scenario:hotspot-transfers": _execution_records()}
    section = report.render_fairness_section(results)
    assert "## Fairness & execution" in section
    assert "abcdef123456" in section
    assert "proposer_bias" in section
    # The per-experiment table leaves the execution columns to that section.
    experiment = report.render_experiment_section(
        "scenario:hotspot-transfers", _execution_records())
    assert "abcdef123456" not in experiment
    document = report.render_experiments_md(results)
    assert "[Fairness & execution](#fairness--execution)" in document
    assert document.count("## Fairness & execution") == 1


def test_fairness_section_absent_without_execution_rows():
    records = [{"config_id": "id-2", "scale": "quick", "seed": 7, "params": {},
                "rows": [{"scenario": "paper-lan", "protocol": "fireledger",
                          "n": 4, "tps": 1.0}]}]
    assert report.render_fairness_section({"scenario:paper-lan": records}) == ""
