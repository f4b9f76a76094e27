"""Multiplexed consensus lanes: M instances of one protocol, one total order.

FireLedger's FLO already multiplexes *workers* of its own protocol; this
module lifts the same idea to the protocol layer.  ``multiplexed(P, lanes=M)``
runs M completely unmodified instances of any registered
:class:`~repro.protocols.base.ConsensusProtocol` over the **one** shared
simulated network — the lanes contend for the same NICs, CPUs and links, so
lane parallelism buys pipelining, not free hardware — and merges their
delivery streams back into a single total order that feeds execution.

Three pieces make that composition safe:

* **Channel namespacing** (:class:`LaneNetwork`).  Each lane sees a proxy
  network that prefixes every channel with ``l<lane>!`` on send/broadcast and
  a per-lane endpoint view whose ``router`` assignment lands in a shared
  per-node :class:`_LaneDispatcher` (the real endpoint's router), which strips
  the prefix and routes to the owning lane.  NIC serialisation, ingress
  queues, CPU and crash state stay per *node* — a crashed node is crashed in
  every lane, and a busy lane's bulk traffic delays the others' exactly as M
  co-located processes would.

* **Deterministic workload slicing**.  A client write is assigned to lane
  ``hash(sender) % M`` (Knuth multiplicative hash; ``client_id`` when no
  sender), so one sender's nonce stream stays lane-local and the relaxed
  nonce rule of :mod:`repro.ledger.state` keeps its per-sender ordering
  guarantees unchanged.

* **Watermark round-robin merge**.  Per node, a cursor walks the lanes and
  releases the head of the current lane's delivery buffer only when present,
  else the merge *waits* (head-of-line blocking, exactly like FLO's worker
  merge — skipping a slow lane deterministically would itself require
  consensus).  The merged order is therefore a pure monotone function of the
  per-lane delivery sequences, which agree at every correct node; arrival
  interleaving across lanes cannot leak into it.  Merged deliveries are
  re-tagged ``(lane, tag)`` so the execution state root is defensibly
  different between lane counts but byte-identical across nodes and runs.

``pool_max_pending`` is interpreted as a **cluster-global budget** split as
evenly as possible across the lanes' pools; per-lane rejection counts are
surfaced as ``lane<i>_tx_rejected`` in the cluster breakdown next to the
summed ``tx_rejected``, and a ``lane_skew`` fairness metric (the busiest
lane's share of committed transactions times M; 1.0 = perfectly even) makes
hot-sender imbalance visible.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional, Sequence

from repro.ledger.delivery import Delivery, DeliveryStream
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.protocols.base import ConsensusProtocol, NodeMetrics

#: Knuth's multiplicative hash constant (2^32 / phi); spreads consecutive
#: sender ids evenly across lanes instead of striping them modulo M.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 2 ** 32 - 1


def lane_of(sender: Optional[int], client_id: int, lanes: int) -> int:
    """The lane a transaction belongs to: a pure function of its sender.

    Keyed on ``sender`` so one account's nonce stream is ordered by a single
    lane; opaque (senderless) payloads key on ``client_id`` instead.
    """
    key = client_id if sender is None else sender
    return ((key * _HASH_MULTIPLIER) & _HASH_MASK) % lanes


class _LaneDispatcher:
    """The real endpoint router of a multiplexed node.

    Strips the ``l<lane>!`` channel prefix and hands the message to the
    owning lane's registered router; unprefixed traffic falls through to the
    endpoint's default mailbox (nothing else shares the node).
    """

    def __init__(self, endpoint) -> None:
        self.endpoint = endpoint
        self.lane_routers: dict[int, object] = {}

    def __call__(self, message: Message) -> None:
        prefix, sep, channel = message.channel.partition("!")
        if sep and prefix.startswith("l") and prefix[1:].isdigit():
            # Restore the lane-local channel name the inner protocol expects.
            message.channel = channel
            router = self.lane_routers.get(int(prefix[1:]))
            if router is not None:
                router(message)
                return
        self.endpoint.mailbox.put(message)


class _LaneEndpoint:
    """One lane's view of a node's endpoint.

    ``router`` assignments register with the node's shared
    :class:`_LaneDispatcher` instead of clobbering the other lanes; every
    other attribute (mailbox, cpu, crashed, NIC reservations, backlogs) is
    the real endpoint's — the lanes genuinely share the hardware model.
    """

    def __init__(self, dispatcher: _LaneDispatcher, lane: int) -> None:
        self._dispatcher = dispatcher
        self._lane = lane

    @property
    def router(self):
        return self._dispatcher.lane_routers.get(self._lane)

    @router.setter
    def router(self, value) -> None:
        self._dispatcher.lane_routers[self._lane] = value

    def __getattr__(self, name):
        return getattr(self._dispatcher.endpoint, name)


class LaneNetwork:
    """One lane's view of the shared :class:`~repro.net.network.Network`.

    Send/broadcast prefix the channel with ``l<lane>!``; ``endpoint`` returns
    the lane's endpoint view.  Everything else — crash state, stats, latency
    model, fault controller, ``n_nodes`` — is delegated to the real network,
    so protocol code runs byte-for-byte unchanged inside a lane.
    """

    def __init__(self, network, lane: int,
                 dispatchers: Sequence[_LaneDispatcher]) -> None:
        self._network = network
        self._lane = lane
        self._prefix = f"l{lane}!"
        self._endpoints = [_LaneEndpoint(dispatcher, lane)
                           for dispatcher in dispatchers]

    def endpoint(self, node_id: int) -> _LaneEndpoint:
        return self._endpoints[node_id]

    def send(self, sender: int, receiver: int, channel: str, kind: str,
             payload, size_bytes: int = MESSAGE_OVERHEAD_BYTES):
        return self._network.send(sender, receiver, self._prefix + channel,
                                  kind, payload, size_bytes)

    def broadcast(self, sender: int, channel: str, kind: str, payload,
                  size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                  include_self: bool = False):
        return self._network.broadcast(sender, self._prefix + channel, kind,
                                       payload, size_bytes,
                                       include_self=include_self)

    def __getattr__(self, name):
        return getattr(self._network, name)


class MultiplexedNode:
    """One node of a multiplexed cluster: M inner nodes plus the lane merge."""

    def __init__(self, node_id: int, lanes: list) -> None:
        self.node_id = node_id
        self.lanes = lanes
        #: The node's merged delivery stream — the one execution consumes.
        self.delivery_stream = DeliveryStream()
        #: Execution layer, attached by the cluster runner (None otherwise).
        self.executor = None
        self.measure_start = 0.0
        self.submitted_transactions = 0
        self._buffers = [deque() for _ in lanes]
        self._cursor = 0
        self._merged_sequence = 0
        for lane, inner in enumerate(lanes):
            inner.delivery_stream.subscribe(
                lambda delivery, lane=lane: self._on_lane_delivery(lane, delivery))

    # --------------------------------------------------------------- merging
    def _on_lane_delivery(self, lane: int, delivery: Delivery) -> None:
        self._buffers[lane].append(delivery)
        self._drain()

    def _drain(self) -> None:
        """Watermark round-robin: release the cursor lane's head or wait.

        The merged order depends only on the per-lane delivery sequences —
        never on cross-lane arrival interleaving — so every correct node
        computes the same merge.  A stalled lane head-of-line blocks the
        merge (other lanes keep buffering); skipping it deterministically
        would require agreeing on the skip, i.e. another consensus.
        """
        buffers = self._buffers
        while buffers[self._cursor]:
            lane = self._cursor
            delivery = buffers[lane].popleft()
            self._merged_sequence += 1
            self.delivery_stream.deliver(Delivery(
                tag=(lane, delivery.tag),
                transactions=delivery.transactions,
                tx_count=delivery.tx_count,
                proposer=delivery.proposer,
                proposed_at=delivery.proposed_at,
                time=delivery.time,
                source=lane,
                sequence=self._merged_sequence))
            self._cursor = (self._cursor + 1) % len(buffers)

    # ---------------------------------------------------------------- client
    def submit_transaction(self, size_bytes: Optional[int] = None,
                           client_id: int = 0,
                           payload_seed: Optional[int] = None,
                           sender: Optional[int] = None,
                           recipient: Optional[int] = None,
                           amount: int = 0,
                           nonce: int = 0):
        """Route a client write to its sender's lane (see :func:`lane_of`)."""
        lane = lane_of(sender, client_id, len(self.lanes))
        transaction = self.lanes[lane].submit_transaction(
            size_bytes=size_bytes, client_id=client_id,
            payload_seed=payload_seed, sender=sender, recipient=recipient,
            amount=amount, nonce=nonce)
        if transaction is not None:
            self.submitted_transactions += 1
        return transaction

    # ------------------------------------------------------------ inspection
    @property
    def delivered_blocks(self) -> int:
        return self.delivery_stream.deliveries

    @property
    def delivered_transactions(self) -> int:
        return self.delivery_stream.transactions

    @property
    def pending_merge(self) -> int:
        """Deliveries buffered behind the watermark (stalled-lane backlog)."""
        return sum(len(buffer) for buffer in self._buffers)


class MultiplexedProtocol(ConsensusProtocol):
    """``multiplexed(P, lanes=M)``: M lanes of protocol P, merged."""

    min_nodes = 4

    def __init__(self, base: ConsensusProtocol, lanes: int) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if isinstance(base, MultiplexedProtocol):
            raise ValueError("multiplexed lanes do not nest")
        self.base = base
        self.lanes = lanes
        self.name = f"multiplexed({base.name}, lanes={lanes})"
        self.min_nodes = base.min_nodes

    def _lane_configs(self, config) -> list:
        """Per-lane configs: ``lanes=1`` plus the split pool budget.

        ``pool_max_pending`` is a cluster-global budget: each lane gets an
        equal share (the first ``budget % M`` lanes absorb the remainder),
        so adding lanes never adds aggregate pool capacity.
        """
        budget = config.pool_max_pending
        if budget is None:
            shares = [None] * self.lanes
        else:
            base_share, remainder = divmod(budget, self.lanes)
            shares = [base_share + (1 if lane < remainder else 0)
                      for lane in range(self.lanes)]
        return [config.with_overrides(lanes=1, pool_max_pending=share)
                for share in shares]

    def build_nodes(self, env, network, keystore, config, rng,
                    adversary=None) -> list[MultiplexedNode]:
        dispatchers = []
        for node_id in range(config.n_nodes):
            endpoint = network.endpoint(node_id)
            dispatcher = _LaneDispatcher(endpoint)
            endpoint.router = dispatcher
            dispatchers.append(dispatcher)
        per_lane_nodes = []
        for lane, lane_config in enumerate(self._lane_configs(config)):
            lane_network = LaneNetwork(network, lane, dispatchers)
            lane_rng = random.Random(rng.randrange(2 ** 62))
            per_lane_nodes.append(self.base.build_nodes(
                env, lane_network, keystore, lane_config, lane_rng,
                adversary=adversary))
        return [MultiplexedNode(node_id,
                                [lane[node_id] for lane in per_lane_nodes])
                for node_id in range(config.n_nodes)]

    def start(self, nodes: Sequence[MultiplexedNode]) -> None:
        for lane in range(self.lanes):
            self.base.start([node.lanes[lane] for node in nodes])

    def set_measurement_window(self, nodes: Sequence[MultiplexedNode],
                               warmup: float) -> None:
        for node in nodes:
            node.measure_start = warmup
        for lane in range(self.lanes):
            self.base.set_measurement_window(
                [node.lanes[lane] for node in nodes], warmup)

    def node_metrics(self, node: MultiplexedNode, duration: float) -> NodeMetrics:
        """Sum the lanes' rates and counters; expose per-lane rejections.

        Rates (tps/bps/recoveries) add across lanes — they are parallel
        pipelines on one node.  ``stage_breakdown`` spans average (they
        describe one protocol round, whichever lane ran it); ``totals`` and
        ``means`` sum, keeping each key in the dict the base protocol chose
        so cross-node aggregation (sum vs average) stays correct.
        """
        per_lane = [self.base.node_metrics(inner, duration)
                    for inner in node.lanes]
        merged = NodeMetrics()
        stage_totals: dict[str, float] = {}
        stage_counts: dict[str, int] = {}
        histograms = []
        for lane, metrics in enumerate(per_lane):
            merged.tps += metrics.tps
            merged.bps += metrics.bps
            merged.recoveries_per_second += metrics.recoveries_per_second
            merged.latency_samples.extend(metrics.latency_samples)
            if metrics.latency_histogram is not None:
                histograms.append(metrics.latency_histogram)
            for key, value in metrics.stage_breakdown.items():
                stage_totals[key] = stage_totals.get(key, 0.0) + value
                stage_counts[key] = stage_counts.get(key, 0) + 1
            for key, value in metrics.totals.items():
                merged.totals[key] = merged.totals.get(key, 0.0) + value
                if key == "tx_rejected":
                    merged.totals[f"lane{lane}_tx_rejected"] = value
            for key, value in metrics.means.items():
                merged.means[key] = merged.means.get(key, 0.0) + value
                if key == "tx_rejected":
                    merged.means[f"lane{lane}_tx_rejected"] = value
        merged.stage_breakdown = {key: stage_totals[key] / stage_counts[key]
                                  for key in stage_totals}
        if histograms:
            from repro.metrics.summary import LatencyHistogram

            combined = LatencyHistogram(bin_width=histograms[0].bin_width)
            for histogram in histograms:
                combined.merge(histogram)
            merged.latency_histogram = combined
        lane_tx = [metrics.means.get("transactions_committed", 0.0)
                   for metrics in per_lane]
        total_tx = sum(lane_tx)
        if total_tx > 0:
            merged.means["lane_skew"] = max(lane_tx) / total_tx * self.lanes
        return merged

    def recorder_of(self, node: MultiplexedNode) -> Optional[object]:
        """Lane 0's recorder (the merged node keeps none of its own)."""
        return self.base.recorder_of(node.lanes[0])
