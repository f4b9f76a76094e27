"""Tests of Byzantine fault injection, the recovery procedure and the FD."""

import pytest

from repro import FireLedgerConfig, run_cluster
from repro.adversary import EquivocatingWorker
from repro.core.failure_detector import BenignFailureDetector
from repro.experiments.figures import _crash_f
from repro.experiments.harness import ExperimentScale
from repro.faults import FaultSchedule, byzantine, crash, partition


@pytest.fixture(scope="module")
def byzantine_result():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    return run_cluster(config, duration=1.5, warmup=0.2, seed=13,
                       faults=FaultSchedule((byzantine(3),)))


def test_equivocation_triggers_recoveries(byzantine_result):
    assert byzantine_result.recoveries > 0
    assert byzantine_result.recoveries_per_second > 0


def test_correct_nodes_agree_despite_equivocation(byzantine_result):
    correct = [node for node in byzantine_result.nodes if node.node_id != 3]
    chains = [node.workers[0].chain for node in correct]
    common = min(chain.definite_height for chain in chains)
    assert common > 0
    reference = chains[0]
    for chain in chains[1:]:
        for round_number in range(common + 1):
            assert (chain.block_at_round(round_number).digest
                    == reference.block_at_round(round_number).digest)


def test_progress_continues_despite_equivocation():
    """Figure 12 shape: with an equivocator the cluster still delivers
    thousands of transactions per second (measured at n=10 where the
    Byzantine node proposes 10% of the rounds, as in the paper's setup)."""
    config = FireLedgerConfig(n_nodes=10, workers=1, batch_size=100, tx_size=512)
    result = run_cluster(config, duration=1.0, warmup=0.2, seed=5,
                         faults=FaultSchedule((byzantine(9),)))
    assert result.tps > 1000
    assert result.recoveries > 0


def test_byzantine_worker_splits_cluster_into_two_groups():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    result = run_cluster(config, duration=0.4, warmup=0.1, seed=3,
                         faults=FaultSchedule((byzantine(0),)))
    byzantine_node = result.nodes[0]
    worker = byzantine_node.workers[0]
    assert isinstance(worker, EquivocatingWorker)
    assert worker.group_a | worker.group_b == set(range(4))
    assert not (worker.group_a & worker.group_b)
    assert worker.equivocations > 0


def test_adversary_strategy_only_affects_listed_nodes():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    result = run_cluster(config, duration=0.3, warmup=0.1, seed=3,
                         faults=FaultSchedule((byzantine(2),)),
                         adversary="equivocate")
    for node in result.nodes:
        is_byz = isinstance(node.workers[0], EquivocatingWorker)
        assert is_byz == (node.node_id == 2)
    assert result.breakdown["adversary_equivocations"] > 0


def test_rescinded_blocks_are_replaced_not_duplicated(byzantine_result):
    for node in byzantine_result.nodes:
        if node.node_id == 3:
            continue
        chain = node.workers[0].chain
        rounds = [b.round_number for b in chain.blocks]
        assert rounds == sorted(rounds)
        assert len(rounds) == len(set(rounds))


# ----------------------------------------------------------- crash schedules
def test_crash_schedule_builder():
    """The figure drivers crash the last f nodes half-way through warmup."""
    config = FireLedgerConfig(n_nodes=10)
    schedule = _crash_f(config, ExperimentScale(warmup=1.0))
    assert schedule == FaultSchedule((crash(range(7, 10), at=0.5),))
    assert schedule.excluded_nodes() == frozenset({7, 8, 9})


@pytest.mark.parametrize("phase", [
    crash(7, at=0.1),
    byzantine(9),
    partition(((0, 1), (2, 4)), start=0.1, end=0.2),
], ids=["crash", "byzantine", "partition"])
def test_out_of_range_fault_nodes_are_rejected_before_the_run(phase):
    """A node id outside the cluster fails up front; it must neither run a
    silently fault-free cluster nor fail part-way through the run."""
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    with pytest.raises(ValueError, match="outside a 4-node cluster"):
        run_cluster(config, duration=0.2, warmup=0.0,
                    faults=FaultSchedule((phase,)))


# --------------------------------------------------------- failure detector
def test_failure_detector_suspects_after_threshold():
    detector = BenignFailureDetector(n_nodes=4, f=1, suspect_after=2)
    detector.record_timeout(3)
    assert not detector.is_suspected(3)
    detector.record_timeout(3)
    assert detector.is_suspected(3)


def test_failure_detector_never_suspects_more_than_f():
    detector = BenignFailureDetector(n_nodes=7, f=2, suspect_after=1)
    for node in (1, 2, 3, 4):
        detector.record_timeout(node)
    assert len(detector.suspected) <= 2


def test_failure_detector_clears_on_delivery_and_invalidation():
    detector = BenignFailureDetector(n_nodes=4, f=1, suspect_after=1)
    detector.record_timeout(2)
    assert detector.is_suspected(2)
    detector.record_delivery(2)
    assert not detector.is_suspected(2)
    detector.record_timeout(1)
    detector.invalidate()
    assert not detector.suspected
    assert detector.invalidations == 1


def test_failure_detector_disabled():
    detector = BenignFailureDetector(n_nodes=4, f=1, suspect_after=1, enabled=False)
    detector.record_timeout(2)
    detector.record_timeout(2)
    assert not detector.is_suspected(2)
