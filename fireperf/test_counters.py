"""Self-tests of the benchmark's counters, checks and compare mode.

    python3 -m pytest fireperf -q

The counter self-test injects one extra, trivial process resumption per
delivered message from this test process and asserts that ``sim.resumes``
rises by exactly ``net.delivered`` while the run's outputs stay the same.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from repro.core import cluster  # noqa: E402
from repro.core.config import FireLedgerConfig  # noqa: E402

import run  # noqa: E402
from compare import verdict  # noqa: E402
from instrument import WRAPPER_COUNTS, Probe, layer_of  # noqa: E402
from speed import REFERENCE_S, MachineSpeed  # noqa: E402
from workloads import Cell, chain_disagreements, record_drift  # noqa: E402


def _noop():
    return
    yield


def _with_extra_resume(env, router):
    def route(message):
        router(message)
        env.process(_noop())  # resumed exactly once, then finishes
    return route


def _run(inject: bool):
    """A small fault-free FireLedger cluster under the counting wrappers."""
    def setup(env, network, nodes):
        if inject:
            for endpoint in network.endpoints:
                assert endpoint.router is not None, "every delivery must reach a router"
                endpoint.router = _with_extra_resume(env, endpoint.router)

    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=100, tx_size=512)
    with Probe(counting=True) as probe:
        probe.start_cell()
        result = cluster.run_cluster(config, duration=0.3, warmup=0.1, seed=3,
                                     setup=setup)
        counts = dict(probe.counts)
    outputs = (result.tps, result.bps, result.latency, result.per_node_tps,
               result.breakdown, result.network.messages_sent,
               result.network.messages_delivered, result.network.bytes_sent)
    return counts, outputs, result.network.messages_delivered


def test_injected_resumption_per_delivery_is_counted_exactly():
    base_counts, base_outputs, delivered = _run(inject=False)
    counts, outputs, _ = _run(inject=True)
    assert delivered > 1000
    assert outputs == base_outputs
    assert counts["sim.resumes"] - base_counts["sim.resumes"] == delivered
    for key in WRAPPER_COUNTS:
        if key != "sim.resumes":
            assert counts.get(key, 0) == base_counts.get(key, 0), key


def test_counts_repeat_exactly_and_patches_are_undone():
    from repro.sim.process import Process

    original = Process.__dict__["_resume"]
    first, outputs, _ = _run(inject=False)
    second, again, _ = _run(inject=False)
    assert first == second and outputs == again
    assert first["sim.resumes"] > 0 and first["core.waits"] > 0
    assert first["consensus.obbc_resumes"] > 0 and first["crypto.digests"] > 0
    assert Process.__dict__["_resume"] is original
    assert cluster.run_cluster.__module__ == "repro.core.cluster"


def test_record_drift_reports_changed_fields_and_allows_new_columns():
    committed = [{"tps": 10.0, "bps": 1.0}]
    assert record_drift([{"tps": 10.0, "bps": 1.0, "lanes": 1}], committed) == []
    assert record_drift([{"tps": 10.5, "bps": 1.0}], committed) == [
        "row 0 field 'tps': 10.5 != committed 10.0"]
    assert record_drift([{"bps": 1.0}], committed)
    assert record_drift([], committed)


def test_compare_marks_wide_spread_unresolved():
    assert verdict([10, 10.1, 9.9, 10], [10.05, 10, 9.95, 10], 0.1, False) == "same"
    assert verdict([10, 10.1, 9.9, 10], [13, 13.1, 12.9, 13], 0.1, False) == "worse"
    assert verdict([10, 10.1, 9.9, 10], [13, 13.1, 12.9, 13], 0.1, True) == "better"
    assert verdict([5, 10, 15, 20], [6, 11, 14, 21], 0.1, False) == "unresolved"
    assert verdict([7, 7, 7], [7, 7, 7], None, False) == "exact"


def test_layer_of_groups_by_repro_package():
    from repro.sim import environment

    assert layer_of(environment.__file__) == "sim"
    assert layer_of(cluster.__file__) == "core"
    assert layer_of("~") == "other"
    assert layer_of(__file__) == "bench"


def _tiny_cell(forge_round=None) -> Cell:
    """A small fault-free cluster; ``forge_round`` makes node 1 report a
    different block at that round once the run is over."""
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=100, tx_size=512)

    def runner(seed):
        result = cluster.run_cluster(config, duration=0.2, warmup=0.05, seed=seed)
        if forge_round is not None:
            chain = result.nodes[1].workers[0].chain
            genuine = chain.block_at_round
            block = genuine(forge_round)
            forged = replace(block, header=replace(block.header, previous_digest="0" * 64))
            chain.block_at_round = lambda r: forged if r == forge_round else genuine(r)
        return [{"tps": result.tps, "bps": result.bps}]
    return Cell("tiny", runner=runner)


def test_both_modes_pass_a_correct_cell_and_report_every_listed_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end, passes, _ = run.measure_end_to_end([_tiny_cell()], seed=5, seconds=0)
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
    assert len(passes) == run.MIN_PASSES
    assert not any(cell["problems"] for p in passes for cell in p["cells"])
    per_layer, passes, _ = run.measure_per_layer([_tiny_cell()], seed=5, seconds=0)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert not any(cell["problems"] for p in passes for cell in p["cells"])


def test_chain_check_fails_a_real_cluster_with_a_forged_block():
    [cell] = run.run_pass([_tiny_cell(forge_round=2)], seed=5)["cells"]
    assert cell["problems"] == [
        "worker 0 round 2: node 1 decided a block conflicting with node 0"]


def test_chain_check_fails_when_no_round_is_compared():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=100, tx_size=512)
    nodes = cluster.run_cluster(config, duration=0.2, warmup=0.05, seed=5).nodes
    assert chain_disagreements(nodes, tentative=True) == []
    assert chain_disagreements(nodes, tentative=False) == []
    assert chain_disagreements([], tentative=True) == []  # no FLO node: nothing to check
    # Too short for any block to become definite.
    nodes = cluster.run_cluster(config, duration=0.005, warmup=0.0, seed=5).nodes
    assert max(node.workers[0].chain.definite_height for node in nodes) < 0
    assert chain_disagreements(nodes, tentative=False) == [
        "no decided round is held by every honest node: the chains were not compared"]


def test_slowdown_is_the_trimmed_mean_over_the_reference_time():
    speed = MachineSpeed()
    speed.samples = [REFERENCE_S] * 20 + [2 * REFERENCE_S] * 4
    assert speed.slowdown(0, 20) == 1.0
    assert speed.slowdown(20, 24) == 2.0  # a neighbour halved the speed
    speed.samples[19] = 100 * REFERENCE_S
    assert speed.slowdown(0, 20) == 1.0  # the slowest 5% were preempted


def test_machine_speed_samples_while_started_only():
    speed = MachineSpeed()
    first = speed.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    end = speed.stop()
    time.sleep(0.05)
    assert end - first >= 5 and len(speed.samples) == end
    assert 0 < speed.slowdown(first, end) < 20
