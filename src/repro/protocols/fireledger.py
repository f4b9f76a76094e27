"""FireLedger under the pluggable-protocol contract.

The node factory builds the classic :class:`~repro.core.flo.FLONode`
deployment (consulting the run's adversary strategy for misbehaving worker
substitution and silenced nodes); the metric hook reads the node's
:class:`~repro.metrics.recorder.MetricsRecorder` exactly as the old
FireLedger-only aggregation loop did, so results are unchanged — they just
flow through the protocol-agnostic :class:`~repro.protocols.base.NodeMetrics`
shape now.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.flo import FLONode
from repro.metrics.recorder import (
    EVENT_BLOCK_PROPOSAL,
    EVENT_FLO_DELIVERY,
    EVENT_TENTATIVE_DECISION,
)
from repro.protocols.base import ConsensusProtocol, NodeMetrics


class FireLedgerProtocol(ConsensusProtocol):
    """The paper's protocol: FLO nodes running FireLedger worker instances."""

    name = "fireledger"

    def build_nodes(self, env, network, keystore, config, rng,
                    adversary=None) -> list[FLONode]:
        worker_factory = None
        if adversary is not None:
            worker_factory = adversary.worker_factory(self.name)
        return [
            FLONode(env, network, node_id, config, keystore,
                    rng=random.Random(rng.randrange(2 ** 62)),
                    worker_factory=worker_factory,
                    silent=(adversary is not None
                            and adversary.is_silent(node_id, self.name)))
            for node_id in range(config.n_nodes)
        ]

    def start(self, nodes: Sequence[FLONode]) -> None:
        for node in nodes:
            node.start()

    def node_metrics(self, node: FLONode, duration: float) -> NodeMetrics:
        recorder = node.recorder
        totals = {
            "fast_path_rounds": recorder.fast_path_rounds,
            "fallback_rounds": recorder.fallback_rounds,
            "failed_rounds": recorder.failed_rounds,
            "recoveries": len(recorder.recoveries),
            "signatures": sum(worker.signatures_created
                              for worker in node.workers),
        }
        rejected = sum(worker.txpool.rejected for worker in node.workers)
        requeue_dropped = sum(worker.txpool.requeue_dropped
                              for worker in node.workers)
        if node.config.pool_max_pending is not None:
            totals["tx_rejected"] = rejected
            totals["tx_requeue_dropped"] = requeue_dropped
        return NodeMetrics(
            tps=recorder.throughput_tps(duration, event=EVENT_FLO_DELIVERY),
            bps=recorder.throughput_bps(duration, event=EVENT_TENTATIVE_DECISION),
            recoveries_per_second=recorder.recoveries_per_second(duration),
            latency_samples=recorder.latency_samples(
                EVENT_BLOCK_PROPOSAL, EVENT_FLO_DELIVERY),
            latency_histogram=recorder.latency_histogram,
            stage_breakdown=recorder.breakdown(),
            totals=totals,
            means={
                "blocks_committed": recorder.count_with_event(
                    EVENT_TENTATIVE_DECISION, duration),
                "transactions_committed": recorder.tx_with_event(
                    EVENT_FLO_DELIVERY, duration),
            },
        )
