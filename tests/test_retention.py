"""Tests of the bounded-memory machinery: chain pruning, streaming metrics,
pool caps, the soak scenario and the memfootprint accounting."""

import random

import pytest

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.crypto.keys import KeyStore
from repro.faults import FaultSchedule, byzantine
from repro.ledger import Batch, Blockchain, ChainVersion, Transaction, TxPool, build_block
from repro.ledger.chain import PRUNE_SLACK
from repro.metrics import LatencyHistogram, LatencySummary, MetricsRecorder
from repro.metrics.recorder import (
    EVENT_BLOCK_PROPOSAL,
    EVENT_DEFINITE_DECISION,
    EVENT_FLO_DELIVERY,
    EVENT_HEADER_PROPOSAL,
    EVENT_TENTATIVE_DECISION,
)
from repro.protocols.base import SharedTxPool
from repro.scenarios.spec import PoolSpec, RetentionSpec, ScenarioSpec


def build_chain(count, finality_depth=2, retention_rounds=None, keystore=None):
    """A live chain with ``count`` appended blocks (signed, contiguous)."""
    keystore = keystore or KeyStore(4)
    chain = Blockchain(finality_depth=finality_depth,
                       retention_rounds=retention_rounds)
    previous = chain.head
    blocks = []
    for round_number in range(count):
        proposer = round_number % 4
        batch = Batch(filler_count=3, filler_tx_size=512,
                      filler_nonce=round_number + 1)
        block = build_block(round_number, proposer, previous.digest, batch=batch)
        block = block.with_signature(keystore.key_for(proposer).sign(block.digest))
        chain.append(block)
        blocks.append(block)
        previous = block
    return chain, blocks, keystore


# ------------------------------------------------------------- chain pruning
def test_pruned_chain_stays_bounded_and_summary_accounts_for_prefix():
    chain, blocks, _ = build_chain(200, finality_depth=2, retention_rounds=16)
    assert len(chain) <= 16 + 1  # retained window (genesis long pruned)
    assert chain.height == 199
    assert chain.total_blocks == 200
    summary = chain.summary
    assert summary.blocks == 200 - (len(chain))
    assert summary.transactions == summary.blocks * 3
    assert summary.newest_round == chain.pruned_through
    assert summary.rolling_digest  # commitment over the pruned prefix
    # The unbounded twin decides the identical chain.
    unbounded, _, _ = build_chain(200, finality_depth=2)
    assert unbounded.head.digest == chain.head.digest


def test_retention_floor_never_prunes_near_the_tentative_suffix():
    # retention_rounds=1 is clamped to finality_depth + PRUNE_SLACK.
    chain, _, _ = build_chain(50, finality_depth=3, retention_rounds=1)
    assert chain.effective_retention == 3 + PRUNE_SLACK
    assert chain.pruned_through < chain.definite_height
    assert len(chain.tentative_blocks) == 4  # f + 1 suffix intact


def test_block_at_round_and_depth_on_pruned_rounds():
    chain, blocks, _ = build_chain(100, finality_depth=2, retention_rounds=16)
    pruned_round = chain.pruned_through
    assert pruned_round >= 0
    assert chain.is_pruned(pruned_round)
    assert chain.block_at_round(pruned_round) is None
    assert chain.block_at_round(chain.height).round_number == chain.height
    # Round arithmetic stays exact over the pruned prefix.
    assert chain.depth_of(pruned_round) == chain.height - pruned_round
    assert chain.is_definite(pruned_round)
    oldest_live = chain.blocks[0].round_number
    assert oldest_live == pruned_round + 1
    assert chain.block_at_round(oldest_live).round_number == oldest_live


def test_version_for_recovery_clamps_to_live_prefix():
    chain, _, _ = build_chain(100, finality_depth=2, retention_rounds=16)
    version = chain.version_for_recovery(recovery_round=chain.height)
    assert not version.is_empty
    assert version.blocks[0].round_number > chain.pruned_through
    assert version.blocks[-1].round_number == chain.height
    # A recovery window that is fully live is untouched by the clamp.
    full = chain.version_for_recovery(recovery_round=chain.height + 1)
    assert full.blocks[0].round_number == chain.height + 1 - 2


def test_adopt_version_anchored_at_the_pruned_boundary():
    keystore = KeyStore(4)
    chain, blocks, _ = build_chain(60, finality_depth=2, retention_rounds=16,
                                   keystore=keystore)
    # Anchoring on the oldest *live* block works.
    anchor = chain.blocks[-3]
    replacement = []
    previous = anchor
    for round_number in range(anchor.round_number + 1, chain.height + 1):
        proposer = (round_number + 1) % 4
        block = build_block(round_number, proposer, previous.digest,
                            batch=Batch(filler_count=1, filler_tx_size=64,
                                        filler_nonce=1000 + round_number))
        block = block.with_signature(
            keystore.key_for(proposer).sign(block.digest))
        replacement.append(block)
        previous = block
    removed = chain.adopt_version(ChainVersion(sender=1,
                                               blocks=tuple(replacement)))
    assert [b.round_number for b in removed] == [b.round_number
                                                for b in replacement]
    assert chain.head.digest == replacement[-1].digest
    # Anchoring *inside* the pruned prefix is rejected like a definite rewrite.
    stale = build_block(chain.pruned_through, 0, "whatever",
                        batch=Batch(filler_count=1, filler_tx_size=64,
                                    filler_nonce=9))
    with pytest.raises(ValueError, match="pruned"):
        chain.adopt_version(ChainVersion(sender=0, blocks=(stale,)))


def test_adopt_version_anchored_at_genesis_on_unpruned_chain():
    """Regression: a version whose first block is round 0 (genesis anchor)
    must adopt fine on a chain that has never pruned (early-round recovery)."""
    keystore = KeyStore(4)
    chain = Blockchain(finality_depth=2)
    previous = chain.head
    replacement = []
    for round_number in range(3):
        proposer = round_number % 4
        block = build_block(round_number, proposer, previous.digest,
                            batch=Batch(filler_count=1, filler_tx_size=64,
                                        filler_nonce=round_number + 1))
        block = block.with_signature(
            keystore.key_for(proposer).sign(block.digest))
        replacement.append(block)
        previous = block
    removed = chain.adopt_version(ChainVersion(sender=1,
                                               blocks=tuple(replacement)))
    assert removed == []
    assert chain.height == 2


def test_metrics_horizon_floored_at_finality_depth():
    config = FireLedgerConfig(n_nodes=4, metrics_horizon_rounds=0)
    assert config.effective_metrics_horizon == config.finality_depth + 1
    deep = FireLedgerConfig(n_nodes=4, metrics_horizon_rounds=64)
    assert deep.effective_metrics_horizon == 64
    assert FireLedgerConfig(n_nodes=4).effective_metrics_horizon is None


def test_release_gating_holds_back_pruning_until_delivery():
    chain, _, _ = build_chain(5, finality_depth=2, retention_rounds=8)
    chain.released_through = -1  # FLO-style gating: nothing released yet
    keystore = KeyStore(4)
    previous = chain.head
    for round_number in range(5, 60):
        proposer = round_number % 4
        block = build_block(round_number, proposer, previous.digest,
                            batch=Batch(filler_count=1, filler_tx_size=64,
                                        filler_nonce=round_number + 1))
        block = block.with_signature(
            keystore.key_for(proposer).sign(block.digest))
        chain.append(block)
        previous = block
    assert chain.pruned_through == -1  # head-of-line blocked: nothing pruned
    chain.mark_released(40)
    assert 0 <= chain.pruned_through <= 40
    assert chain.block_at_round(41) is not None


def test_chain_snapshot_cache_invalidation():
    chain, blocks, _ = build_chain(5)
    first = chain.blocks
    assert chain.blocks is first  # cached tuple, no per-access copy
    chain2, more, _ = build_chain(6)
    assert chain.blocks is first
    assert isinstance(chain.definite_blocks, tuple)
    assert isinstance(chain.tentative_blocks, tuple)


# -------------------------------------------------------- streaming recorder
def fill_recorder(recorder, rounds, tx_count=10):
    for round_number in range(rounds):
        base = 0.01 * round_number
        recorder.record_event(0, round_number, EVENT_BLOCK_PROPOSAL, base,
                              tx_count=tx_count)
        recorder.record_event(0, round_number, EVENT_HEADER_PROPOSAL, base + 0.001)
        recorder.record_event(0, round_number, EVENT_TENTATIVE_DECISION, base + 0.002)
        recorder.record_event(0, round_number, EVENT_DEFINITE_DECISION, base + 0.005)
        recorder.record_event(0, round_number, EVENT_FLO_DELIVERY, base + 0.006)


def test_streaming_recorder_matches_exact_mode():
    exact = MetricsRecorder(0)
    streamed = MetricsRecorder(0, horizon_rounds=8)
    fill_recorder(exact, 100)
    fill_recorder(streamed, 100)
    assert streamed.live_records == 0  # every record folded on its E event
    assert streamed.records_folded == 100
    end = 1.0
    assert streamed.throughput_tps(end) == pytest.approx(exact.throughput_tps(end))
    assert streamed.throughput_bps(end) == pytest.approx(exact.throughput_bps(end))
    for key, value in exact.breakdown().items():
        assert streamed.breakdown()[key] == pytest.approx(value)
    histogram = streamed.latency_histogram
    assert histogram is not None and histogram.count == 100
    assert histogram.mean == pytest.approx(0.006)


def test_streaming_recorder_folds_stale_records_without_delivery():
    recorder = MetricsRecorder(0, horizon_rounds=4)
    for round_number in range(60):
        recorder.record_event(0, round_number, EVENT_TENTATIVE_DECISION,
                              0.01 * round_number, tx_count=5)
    # Undelivered (C-only) records get the head-of-line grace window of
    # max(4 * horizon, horizon + 16) rounds, then fold anyway.
    grace = max(4 * 4, 4 + 16)
    assert recorder.live_records <= grace + 1
    assert recorder.records_folded >= 60 - grace - 1
    # Folded C events still count toward bps.
    assert recorder.count_with_event(EVENT_TENTATIVE_DECISION, 1.0) == 60
    # Records that never saw C at all (failed rounds) use the plain horizon.
    bare = MetricsRecorder(1, horizon_rounds=4)
    for round_number in range(30):
        bare.record_event(0, round_number, EVENT_BLOCK_PROPOSAL,
                          0.01 * round_number, tx_count=5)
    assert bare.live_records <= 4 + 1


def test_recorder_window_boundary_measure_start_equals_event_time():
    recorder = MetricsRecorder(0, horizon_rounds=0)
    recorder.measure_start = 0.5
    # One event exactly at the window edge: inclusive, exactly like exact mode.
    recorder.record_event(0, 0, EVENT_FLO_DELIVERY, 0.5, tx_count=7)
    recorder.record_event(0, 1, EVENT_FLO_DELIVERY, 0.499, tx_count=7)
    assert recorder.tx_with_event(EVENT_FLO_DELIVERY, 1.0) == 7
    assert recorder.count_with_event(EVENT_FLO_DELIVERY, 1.0) == 1


def test_streaming_keeps_head_of_line_blocked_records_past_horizon():
    """A decided-but-undelivered record gets grace (its E is still coming);
    only far past the horizon does the bounded-memory escape hatch fold it,
    and a late E then never double-counts."""
    recorder = MetricsRecorder(0, horizon_rounds=4)
    recorder.record_event(0, 0, EVENT_BLOCK_PROPOSAL, 0.0, tx_count=5)
    recorder.record_event(0, 0, EVENT_TENTATIVE_DECISION, 0.01)
    for round_number in range(1, 15):  # lag 14 <= max(16, 20): still live
        recorder.record_event(0, round_number, EVENT_TENTATIVE_DECISION,
                              0.01 * round_number, tx_count=5)
        recorder.record_event(0, round_number, EVENT_FLO_DELIVERY,
                              0.01 * round_number + 0.005)
    assert any(r.round_number == 0 for r in recorder.blocks)
    for round_number in range(15, 30):  # lag > 20: escape hatch folds it
        recorder.record_event(0, round_number, EVENT_TENTATIVE_DECISION,
                              0.01 * round_number, tx_count=5)
        recorder.record_event(0, round_number, EVENT_FLO_DELIVERY,
                              0.01 * round_number + 0.005)
    assert not any(r.round_number == 0 for r in recorder.blocks)
    folded_before = recorder.records_folded
    recorder.record_event(0, 0, EVENT_FLO_DELIVERY, 0.5, tx_count=5)  # late E
    assert recorder.late_deliveries == 1
    assert recorder.records_folded == folded_before  # not counted twice
    assert recorder.count_with_event(EVENT_FLO_DELIVERY, 1.0) == 30


def test_delivery_of_still_live_blocked_record_is_not_late():
    """An E for a record the grace window kept alive is a normal fold, even
    when other (never-decided) rounds behind it were stale-folded."""
    recorder = MetricsRecorder(0, horizon_rounds=2)
    recorder.record_event(0, 0, EVENT_BLOCK_PROPOSAL, 0.0, tx_count=5)
    recorder.record_event(0, 0, EVENT_TENTATIVE_DECISION, 0.001)
    for round_number in range(1, 6):  # A-only rounds: stale-fold at lag > 2
        recorder.record_event(0, round_number, EVENT_BLOCK_PROPOSAL,
                              0.01 * round_number, tx_count=5)
    assert recorder._stale_folded_through.get(0, -1) >= 1
    assert any(r.round_number == 0 for r in recorder.blocks)  # grace held it
    folded_before = recorder.records_folded
    recorder.record_event(0, 0, EVENT_FLO_DELIVERY, 0.5)
    assert recorder.late_deliveries == 0
    assert recorder.records_folded == folded_before + 1
    histogram = recorder.latency_histogram
    assert histogram is not None and histogram.count == 1  # A->E survived


def test_refolded_record_counts_once_even_via_late_c_then_e():
    """A stale-folded round re-created by a late C and then delivered must
    not inflate records_folded, and its lost A->E sample is flagged."""
    recorder = MetricsRecorder(0, horizon_rounds=2)
    recorder.record_event(0, 0, EVENT_BLOCK_PROPOSAL, 0.0, tx_count=5)
    for round_number in range(1, 25):  # push round 0 past the grace window
        recorder.record_event(0, round_number, EVENT_BLOCK_PROPOSAL,
                              0.01 * round_number, tx_count=5)
        recorder.record_event(0, round_number, EVENT_FLO_DELIVERY,
                              0.01 * round_number + 0.005)
    assert not any(r.round_number == 0 for r in recorder.blocks)
    folded_before = recorder.records_folded
    recorder.record_event(0, 0, EVENT_TENTATIVE_DECISION, 0.5)  # late C
    recorder.record_event(0, 0, EVENT_FLO_DELIVERY, 0.6)        # then E
    assert recorder.records_folded == folded_before  # no double count
    assert recorder.late_deliveries == 1
    assert recorder.count_with_event(EVENT_FLO_DELIVERY, 1.0) == 25


def test_record_event_tx_count_is_sticky_first():
    recorder = MetricsRecorder(0)
    recorder.record_event(0, 3, EVENT_TENTATIVE_DECISION, 0.1, tx_count=50)
    recorder.record_event(0, 3, EVENT_FLO_DELIVERY, 0.2, tx_count=999)
    (record,) = recorder.blocks
    assert record.tx_count == 50  # first writer wins, like the timestamps
    # tx_count=0 is a legitimate first value (empty flow-control blocks).
    recorder.record_event(0, 4, EVENT_TENTATIVE_DECISION, 0.3, tx_count=0)
    recorder.record_event(0, 4, EVENT_FLO_DELIVERY, 0.4, tx_count=123)
    record4 = next(r for r in recorder.blocks if r.round_number == 4)
    assert record4.tx_count == 0


def test_recovery_log_bounded_but_exact_count():
    recorder = MetricsRecorder(0)
    for index in range(500):
        recorder.record_recovery(0.001 * index)
    assert len(recorder.recoveries) == 500
    assert len(recorder.recoveries.recent) <= 64
    assert recorder.recoveries_per_second(end_time=1.0) == pytest.approx(500.0)


# ----------------------------------------------------- histogram summaries
def test_latency_summary_from_histogram_matches_samples():
    rng = random.Random(3)
    samples = [rng.uniform(0.001, 0.2) for _ in range(5000)]
    histogram = LatencyHistogram()
    histogram.extend(samples)
    exact = LatencySummary.from_samples(samples)
    approx = LatencySummary.from_histogram(histogram)
    assert approx.samples == exact.samples == 5000
    assert approx.mean == pytest.approx(exact.mean)
    for q in ("p50", "p95", "p99"):
        assert getattr(approx, q) == pytest.approx(getattr(exact, q),
                                                   abs=2 * histogram.bin_width)


def test_latency_summary_reports_trimmed_count():
    samples = [0.01] * 95 + [10.0] * 5
    trimmed = LatencySummary.from_samples(samples, trim_extreme_fraction=0.05)
    assert trimmed.samples == 95
    assert trimmed.trimmed == 5
    untrimmed = LatencySummary.from_samples(samples)
    assert untrimmed.trimmed == 0
    histogram = LatencyHistogram()
    histogram.extend(samples)
    streamed = LatencySummary.from_histogram(histogram,
                                             trim_extreme_fraction=0.05)
    assert streamed.samples == 95 and streamed.trimmed == 5
    assert streamed.p99 < 1.0  # the 10 s outliers were trimmed
    # The trimmed mean really excludes the dropped tail (not min(mean, max)).
    assert streamed.mean == pytest.approx(trimmed.mean,
                                          abs=2 * histogram.bin_width)


def test_from_histogram_trimmed_mean_matches_samples():
    rng = random.Random(9)
    samples = [rng.uniform(0.001, 0.05) for _ in range(2000)]
    samples += [rng.uniform(1.0, 3.0) for _ in range(100)]  # slow WAN tail
    histogram = LatencyHistogram()
    histogram.extend(samples)
    exact = LatencySummary.from_samples(samples, trim_extreme_fraction=0.05)
    approx = LatencySummary.from_histogram(histogram,
                                           trim_extreme_fraction=0.05)
    assert approx.mean == pytest.approx(exact.mean, rel=0.02)
    assert approx.samples == exact.samples


def test_histogram_merge_and_overflow_bin():
    left = LatencyHistogram(bin_width=0.001, max_bins=10)
    right = LatencyHistogram(bin_width=0.001, max_bins=10)
    left.extend([0.0005, 0.0015])
    right.extend([5.0])  # clamped into the overflow bin
    left.merge(right)
    assert left.count == 3
    assert left.max_value == 5.0
    assert left.percentile(100) == 5.0
    with pytest.raises(ValueError):
        left.merge(LatencyHistogram(bin_width=0.002))


# ------------------------------------------------------------- pool capping
def test_txpool_max_pending_rejects_and_counts():
    pool = TxPool(default_tx_size=512, max_pending=2)
    first = Transaction.create(client_id=1, size_bytes=512)
    assert pool.submit(first)
    assert pool.submit(Transaction.create(client_id=1, size_bytes=512))
    assert not pool.submit(Transaction.create(client_id=1, size_bytes=512))
    assert pool.rejected == 1
    assert pool.pending == 2
    pool.take_batch(2, fill_random=False)
    assert pool.submit(Transaction.create(client_id=1, size_bytes=512))


def test_txpool_requeue_respects_cap():
    pool = TxPool(default_tx_size=512, max_pending=1)
    kept = Transaction.create(client_id=1, size_bytes=512)
    dropped = Transaction.create(client_id=2, size_bytes=512)
    pool.requeue([dropped, kept])  # reversed insertion: kept lands first
    assert pool.pending == 1
    assert pool.requeue_dropped == 1


def test_shared_pool_max_pending():
    pool = SharedTxPool(max_pending=3)
    assert all(pool.submit() for _ in range(3))
    assert not pool.submit()
    assert pool.rejected == 1
    assert pool.take(10) == 3
    assert pool.submit()


# ------------------------------------------------------- cluster equivalence
BASE = dict(n_nodes=4, workers=1, batch_size=100, tx_size=512)


def test_pruned_cluster_reproduces_unbounded_results(cluster_result):
    """Retention must change memory, not any protocol decision or rate."""
    off = cluster_result(**BASE, duration=1.0, warmup=0.2, seed=7)
    on = cluster_result(**BASE, retention_rounds=32,
                        metrics_horizon_rounds=32,
                        duration=1.0, warmup=0.2, seed=7)
    assert on.tps == pytest.approx(off.tps)
    assert on.bps == pytest.approx(off.bps)
    assert on.latency.mean == pytest.approx(off.latency.mean)
    assert on.latency.p50 == pytest.approx(off.latency.p50, rel=0.1)
    assert on.blocks_committed == off.blocks_committed
    assert on.transactions_committed == off.transactions_committed
    heads_off = sorted(w.chain.head.digest for n in off.nodes for w in n.workers)
    heads_on = sorted(w.chain.head.digest for n in on.nodes for w in n.workers)
    assert heads_on == heads_off


def test_long_run_live_state_is_flat_in_duration(cluster_result):
    """Doubling the run must not grow live blocks/records (O(window) memory)."""
    live = {}
    for duration in (1.0, 2.0):
        result = cluster_result(**BASE, retention_rounds=32,
                                metrics_horizon_rounds=32,
                                duration=duration, warmup=0.2, seed=7)
        live[duration] = (
            max(len(w.chain) for n in result.nodes for w in n.workers),
            max(n.recorder.live_records for n in result.nodes),
        )
        total = max(w.chain.total_blocks for n in result.nodes
                    for w in n.workers)
        assert total > live[duration][0]  # the ledger kept growing
    bound = 32 + result.config.finality_depth + PRUNE_SLACK + 1
    assert live[2.0][0] <= bound
    assert live[2.0][0] <= live[1.0][0] + 2  # flat, not linear
    assert live[2.0][1] <= live[1.0][1] + 2 * 32


def test_small_retention_rounds_do_not_stall_the_cluster(cluster_result):
    """Regression: a tiny retention window must never evict a body a round
    still needs (pre-disseminated bodies run ahead of their rounds)."""
    off = cluster_result(duration=1.0, warmup=0.2, seed=7)
    on = cluster_result(retention_rounds=4, duration=1.0, warmup=0.2, seed=7)
    assert on.tps == pytest.approx(off.tps)
    assert on.bps == pytest.approx(off.bps)


def test_schedule_permutation_survives_small_retention(cluster_result):
    """Regression: the permutation seed looks back 2*(f+2) rounds; retention
    is clamped so the seed block is always still live."""
    off = cluster_result(permute_every=8, duration=1.0, warmup=0.2, seed=7)
    on = cluster_result(permute_every=8, retention_rounds=4,
                        duration=1.0, warmup=0.2, seed=7)
    schedules_off = [w.schedule for n in off.nodes for w in n.workers]
    schedules_on = [w.schedule for n in on.nodes for w in n.workers]
    assert schedules_on == schedules_off
    assert schedules_off[0] != list(range(4))  # the permutation really moved
    assert on.tps == pytest.approx(off.tps)


def test_byzantine_recovery_still_works_with_retention(cluster_result):
    """Recovery adoption must stay correct over pruned chains, and the
    streamed breakdown must keep its C->D / D->E spans through the
    multi-round definite advances a recovery causes (D before E)."""
    result = cluster_result(**BASE, retention_rounds=32,
                            metrics_horizon_rounds=32,
                            duration=1.0, warmup=0.2, seed=7,
                            faults=FaultSchedule((byzantine(3),)))
    assert result.recoveries > 0
    assert result.tps > 0
    exact = cluster_result(**BASE, duration=1.0, warmup=0.2, seed=7,
                           faults=FaultSchedule((byzantine(3),)))
    span_keys = {k for k in exact.breakdown if "->" in k}
    assert {"C->D", "D->E"} <= span_keys
    assert {k for k in result.breakdown if "->" in k} == span_keys
    for key in span_keys:
        assert result.breakdown[key] == pytest.approx(exact.breakdown[key])


# ----------------------------------------------------------- scenario layer
def test_retention_and_pool_specs_validate_and_round_trip():
    spec = ScenarioSpec.from_dict({
        "name": "mini-soak",
        "duration": 0.4,
        "warmup": 0.1,
        "retention": {"chain_rounds": 16, "metrics_horizon_rounds": 16},
        "pool": {"max_pending": 50},
        "workload": {"shape": "open-loop", "n_clients": 4,
                     "rate_per_client": 2000.0},
    })
    assert spec.retention.chain_rounds == 16
    assert spec.pool.max_pending == 50
    assert spec.retention.bounded
    assert "retention" in spec.summary()
    with pytest.raises(ValueError):
        RetentionSpec(chain_rounds=0)
    with pytest.raises(ValueError):
        PoolSpec(max_pending=0)
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict({"name": "x", "retention": {"bogus": 1}})


def test_mini_soak_scenario_bounds_state_and_counts_rejections():
    from repro.scenarios.runner import run_scenario

    spec = ScenarioSpec.from_dict({
        "name": "mini-soak",
        "duration": 0.6,
        "warmup": 0.1,
        "workers": 1,
        "batch_size": 50,
        "retention": {"chain_rounds": 16, "metrics_horizon_rounds": 16},
        "pool": {"max_pending": 20},
        "workload": {"shape": "bursty", "n_clients": 8,
                     "rate_per_client": 3000.0, "burst_factor": 4.0,
                     "burst_period": 0.2, "burst_duty": 0.5},
    })
    (row,) = run_scenario(spec, seed=3)
    assert row["live_blocks"] <= 16 + 2 + PRUNE_SLACK + 1
    # Horizon floors at finality_depth + 1 and undelivered records get the
    # head-of-line grace window, so bound live records accordingly.
    grace = max(4 * 16, 16 + 16)
    assert row["live_records"] <= grace + 2
    assert row["pruned_blocks"] > 0
    assert row["tx_rejected"] > 0  # the overload really hit the cap
    assert row["tps"] > 0


def test_config_overrides_cannot_shadow_first_class_fields():
    from repro.scenarios.runner import run_scenario

    spec = ScenarioSpec.from_dict({
        "name": "shadowed",
        "duration": 0.3,
        "warmup": 0.05,
        "config_overrides": {"n_nodes": 7},
    })
    with pytest.raises(ValueError, match="first-class"):
        run_scenario(spec)
    # Retuning the memory knobs through overrides stays allowed.
    tuned = ScenarioSpec.from_dict({
        "name": "tuned",
        "duration": 0.3,
        "warmup": 0.05,
        "retention": {"chain_rounds": 16},
        "config_overrides": {"retention_rounds": 32},
    })
    (row,) = run_scenario(tuned)
    assert row["tps"] > 0


def test_soak_scenario_is_shipped_and_registered():
    from repro.experiments import registry
    from repro.scenarios import library

    spec = library.get("soak")
    assert spec.retention.bounded
    assert spec.pool.max_pending is not None
    assert "scenario:soak" in registry.names()


def test_memfootprint_driver_contrast():
    from repro.experiments import memory

    # Run a reduced inline version (the full driver sweeps 4 durations x 2).
    short = memory._run_point(4, 0.5, seed=7, bounded=False)
    long = memory._run_point(4, 1.5, seed=7, bounded=False)
    short_b = memory._run_point(4, 0.5, seed=7, bounded=True)
    long_b = memory._run_point(4, 1.5, seed=7, bounded=True)
    assert long["live_blocks"] > short["live_blocks"]  # linear when off
    assert long_b["live_blocks"] <= long_b["retention_bound"]  # flat when on
    assert long_b["live_blocks"] <= short_b["live_blocks"] + 2
    assert long_b["total_blocks"] == long["total_blocks"]  # same ledger
