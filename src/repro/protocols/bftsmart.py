"""BFT-SMaRt-style ordering service: replica and protocol adapter.

This models the protocol the paper uses both as the previous state of the art
comparator (Figure 17) and as FireLedger's own recovery-layer consensus:

* a stable leader batches requests and broadcasts a ``PROPOSE`` carrying the
  full batch body;
* all replicas exchange ``WRITE`` acknowledgements all-to-all (quadratic
  message complexity — the scalability limit the paper attributes to
  traditional BFT);
* ``2f + 1`` writes trigger an ``ACCEPT`` round, and ``2f + 1`` accepts commit
  the batch;
* consecutive consensus instances are pipelined up to a small window.

Replica authentication uses MAC vectors (cheap) plus one leader signature per
batch, which matches BFT-SMaRt's cost profile.

Like the HotStuff baseline, replicas expose the duck-typed workload surface
(``submit_transaction`` / ``delivered_transactions``) backed by a
:class:`~repro.protocols.base.SharedTxPool`; the stable leader drains the
pool when saturated blocks are disabled.  Leader re-election is not modelled
— a crashed or silent node 0 halts the ordering service, which is the
documented behaviour of the comparison figures (the paper's fault figures
exercise FireLedger, not the baselines).  Cluster wiring lives in
:func:`repro.core.cluster.run_cluster`, which drives the replicas through
:class:`BFTSmartProtocol`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.context import ProtocolContext
from repro.crypto.cost_model import CryptoCostModel
from repro.crypto.keys import KeyStore
from repro.ledger.delivery import Delivery, DeliveryStream
from repro.net.network import Network
from repro.protocols.base import PooledReplicaMixin, PooledReplicaProtocol
from repro.sim import Environment, Store

PROPOSE = "SMART_PROPOSE"
WRITE = "SMART_WRITE"
ACCEPT = "SMART_ACCEPT"

_ACK_SIZE = 148
_HEADER_OVERHEAD = 224
#: Consensus instances the leader keeps in flight.  Mod-SMaRt runs its
#: consensus instances sequentially, so the window is 1.
PIPELINE_WINDOW = 1


@dataclass
class _CommittedBatch:
    seq: int
    tx_count: int
    proposed_at: float
    committed_at: float


class BFTSmartReplica(PooledReplicaMixin):
    """One replica of the BFT-SMaRt-style ordering service."""

    HEADER_OVERHEAD = _HEADER_OVERHEAD

    def __init__(self, env: Environment, network: Network, node_id: int,
                 keystore: KeyStore, f: int, batch_size: int, tx_size: int,
                 cost: CryptoCostModel, instance_timeout: float = 1.0,
                 channel: str = "bftsmart", pool=None,
                 fill_blocks: bool = True) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.keystore = keystore
        self.keys = keystore.key_for(node_id)
        self.f = f
        self.batch_size = batch_size
        self.tx_size = tx_size
        self.cost = cost
        self.instance_timeout = instance_timeout
        self.channel = channel
        self.pool = pool
        self.fill_blocks = fill_blocks
        self.context = ProtocolContext(env, network, node_id, channel,
                                       inbox=Store(env))
        network.endpoint(node_id).router = self.context.inbox.put
        self.committed: list[_CommittedBatch] = []
        self.leader = 0
        #: Delivery seam: one Delivery per committed instance, in sequence
        #: order.  The cluster runner subscribes the execution layer here.
        self.delivery_stream = DeliveryStream()
        #: Execution layer, attached by the cluster runner (None otherwise).
        self.executor = None
        self.instances_timed_out = 0
        self.signatures = 0
        self.measure_start = 0.0

    # ---------------------------------------------------------------- leader
    def run_leader(self):
        """Leader process: keep up to ``PIPELINE_WINDOW`` instances in flight."""
        seq = 0
        inflight: dict[int, float] = {}
        while True:
            while len(inflight) < PIPELINE_WINDOW:
                tx_count, transactions = self._next_batch()
                yield from self.context.use_cpu(
                    self.cost.block_sign_time(tx_count, self.tx_size))
                self.signatures += 1
                payload = {"seq": seq, "tx_count": tx_count,
                           "transactions": transactions,
                           "proposed_at": self.env.now}
                self.context.broadcast(PROPOSE, payload,
                                       size_bytes=self._batch_bytes(tx_count),
                                       include_self=True)
                inflight[seq] = self.env.now
                seq += 1
            # Wait for the oldest in-flight instance to commit locally before
            # opening a new slot (the commit is observed by the replica loop).
            oldest = min(inflight)
            committed_seqs = {batch.seq for batch in self.committed}
            if oldest in committed_seqs:
                del inflight[oldest]
                continue
            yield self.env.timeout(0.0005)

    # --------------------------------------------------------------- replica
    def run_replica(self):
        """Replica process: sequential agreement on each sequence number."""
        quorum = 2 * self.f + 1
        next_seq = 0
        while True:
            proposal = yield from self.context.wait_message(
                lambda m, s=next_seq: (m.kind == PROPOSE and m.payload["seq"] == s
                                       and m.sender == self.leader),
                timeout=self.instance_timeout)
            if proposal is None:
                self.instances_timed_out += 1
                continue
            # Verify the leader's signature over the batch (hashes the body).
            yield from self.context.use_cpu(
                self.cost.block_verify_time(proposal.payload["tx_count"],
                                            self.tx_size))
            self.context.broadcast(WRITE, {"seq": next_seq}, size_bytes=_ACK_SIZE,
                                   include_self=True)
            writes = yield from self.context.collect_messages(
                lambda m, s=next_seq: m.kind == WRITE and m.payload["seq"] == s,
                count=quorum, timeout=self.instance_timeout)
            if len(writes) < quorum:
                continue
            self.context.broadcast(ACCEPT, {"seq": next_seq}, size_bytes=_ACK_SIZE,
                                   include_self=True)
            accepts = yield from self.context.collect_messages(
                lambda m, s=next_seq: m.kind == ACCEPT and m.payload["seq"] == s,
                count=quorum, timeout=self.instance_timeout)
            if len(accepts) < quorum:
                continue
            self.committed.append(_CommittedBatch(
                seq=next_seq,
                tx_count=proposal.payload["tx_count"],
                proposed_at=proposal.payload["proposed_at"],
                committed_at=self.env.now))
            self.delivery_stream.deliver(Delivery(
                tag=("smart", next_seq, proposal.payload["tx_count"]),
                transactions=proposal.payload.get("transactions", ()),
                tx_count=proposal.payload["tx_count"],
                proposer=self.leader,
                proposed_at=proposal.payload["proposed_at"],
                time=self.env.now,
                sequence=next_seq))
            next_seq += 1


class BFTSmartProtocol(PooledReplicaProtocol):
    """Stable-leader PBFT-family ordering under the pluggable-protocol contract.

    The run's adversary strategy decides which replicas stay silent (the
    equivocation strategies degrade to fail-stop here); a silent node 0
    halts the service because leader re-election is not modelled.
    """

    name = "bftsmart"
    replica_class = BFTSmartReplica
    timeout_counter = "instances_timed_out"

    def __init__(self, instance_timeout: float = 1.0) -> None:
        if instance_timeout <= 0:
            raise ValueError("instance_timeout must be positive")
        self.instance_timeout = instance_timeout

    def replica_options(self) -> dict:
        return {"instance_timeout": self.instance_timeout}

    def start(self, nodes: Sequence[BFTSmartReplica]) -> None:
        for replica in nodes:
            if replica.silent:
                continue
            replica.env.process(replica.run_replica())
            if replica.node_id == replica.leader:
                replica.env.process(replica.run_leader())
