"""Chained HotStuff (Yin et al., 2019): replica and protocol adapter.

The model reproduces the properties that matter for the Section 7.6
comparison against FireLedger:

* a rotating leader proposes one block per view and ships the **full block
  body** through the consensus path (no header/body separation);
* every replica verifies the proposal and produces **one asymmetric signature
  per block** (its vote) — versus a single proposer signature per block in
  FireLedger, which is the CPU-side advantage the paper highlights;
* votes are sent to the next leader which aggregates them into a quorum
  certificate (linear communication);
* a block becomes final after the three-chain rule, i.e. roughly three view
  durations (the "3 rounds finality" the paper quotes).

A view whose leader never proposes (crashed, partitioned or silent) times out
at every replica; the next leader then proposes immediately with the highest
QC it has, without waiting a further vote round — the model's equivalent of
HotStuff's NEW-VIEW interrupt, which keeps the chain live across skipped
views instead of cascading timeouts forever.

The replica implements the duck-typed workload surface
(``submit_transaction`` / ``delivered_transactions``), feeding a
:class:`~repro.protocols.base.SharedTxPool` that the proposing leader drains
when the config disables saturated blocks, so client-driven scenarios run
unchanged against HotStuff.  Cluster wiring (environment, network, keystore,
faults, workloads, metrics) lives in :func:`repro.core.cluster.run_cluster`,
which drives the replicas through :class:`HotStuffProtocol`.
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

PROPOSAL = "HS_PROPOSAL"
VOTE = "HS_VOTE"

_VOTE_SIZE = 180
_HEADER_OVERHEAD = 256
#: Number of chained QCs required before a block is final (three-chain rule).
COMMIT_DEPTH = 3


@dataclass
class _CommittedBlock:
    view: int
    tx_count: int
    proposed_at: float
    committed_at: float


class HotStuffReplica(PooledReplicaMixin):
    """One HotStuff replica."""

    HEADER_OVERHEAD = _HEADER_OVERHEAD

    def __init__(self, env: Environment, network: Network, node_id: int,
                 keystore: KeyStore, f: int, batch_size: int, tx_size: int,
                 cost: CryptoCostModel, view_timeout: float = 1.0,
                 channel: str = "hotstuff", pool=None,
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
        self.view_timeout = view_timeout
        self.channel = channel
        self.pool = pool
        self.fill_blocks = fill_blocks
        self.context = ProtocolContext(env, network, node_id, channel,
                                       inbox=Store(env))
        network.endpoint(node_id).router = self.context.inbox.put
        self.committed: list[_CommittedBlock] = []
        self._proposals: dict[int, tuple[float, int, tuple]] = {}
        self._seen_proposal_view = -1
        #: Delivery seam: one Delivery per three-chain commit, in view order.
        #: The cluster runner subscribes the execution layer here.
        self.delivery_stream = DeliveryStream()
        #: Execution layer, attached by the cluster runner (None otherwise).
        self.executor = None
        self.view = 0
        self.views_timed_out = 0
        self.signatures = 0
        self.measure_start = 0.0

    # ----------------------------------------------------------------- roles
    def _leader_of(self, view: int) -> int:
        return view % self.network.n_nodes

    def run(self):
        """Main replica process: one iteration per view."""
        n = self.network.n_nodes
        quorum = n - self.f
        while True:
            view = self.view
            leader = self._leader_of(view)

            if leader == self.node_id:
                # Wait for the QC of the previous view (the votes addressed to
                # us as the incoming leader) — but only if that view actually
                # produced a proposal; after a timed-out view nobody voted, so
                # the leader proposes immediately (the NEW-VIEW path).
                if view > 0 and self._seen_proposal_view == view - 1:
                    votes = yield from self.context.collect_messages(
                        lambda m, v=view: m.kind == VOTE and m.payload["view"] == v - 1,
                        count=quorum, timeout=self.view_timeout)
                    if len(votes) >= quorum:
                        # Aggregate-signature verification of the QC.
                        yield from self.context.use_cpu(self.cost.verify_time(0))
                tx_count, transactions = self._next_batch()
                yield from self.context.use_cpu(
                    self.cost.block_sign_time(tx_count, self.tx_size))
                self.signatures += 1
                payload = {"view": view, "tx_count": tx_count,
                           "transactions": transactions,
                           "proposed_at": self.env.now}
                self.context.broadcast(PROPOSAL, payload,
                                       size_bytes=self._batch_bytes(tx_count),
                                       include_self=True)

            proposal = yield from self.context.wait_message(
                lambda m, v=view: (m.kind == PROPOSAL and m.payload["view"] == v
                                   and m.sender == self._leader_of(v)),
                timeout=self.view_timeout)
            if proposal is None:
                self.views_timed_out += 1
                self.view += 1
                continue
            self._seen_proposal_view = view

            # Verify the proposal (hash the body, check the leader signature
            # and the embedded QC) and vote.
            yield from self.context.use_cpu(
                self.cost.block_verify_time(proposal.payload["tx_count"],
                                            self.tx_size))
            yield from self.context.use_cpu(self.cost.sign_time(0))
            self.signatures += 1
            self._proposals[view] = (proposal.payload["proposed_at"],
                                     proposal.payload["tx_count"],
                                     proposal.payload.get("transactions", ()))
            next_leader = self._leader_of(view + 1)
            self.context.send(next_leader, VOTE, {"view": view}, size_bytes=_VOTE_SIZE)

            # Three-chain commit: the proposal for view v carries the QC chain
            # that finalises the block proposed COMMIT_DEPTH views earlier.
            commit_view = view - COMMIT_DEPTH
            if commit_view in self._proposals:
                proposed_at, tx_count, transactions = self._proposals.pop(commit_view)
                self.committed.append(_CommittedBlock(
                    view=commit_view,
                    tx_count=tx_count,
                    proposed_at=proposed_at,
                    committed_at=self.env.now))
                self.delivery_stream.deliver(Delivery(
                    tag=("hs", commit_view, tx_count),
                    transactions=transactions,
                    tx_count=tx_count,
                    proposer=self._leader_of(commit_view),
                    proposed_at=proposed_at,
                    time=self.env.now,
                    sequence=commit_view))
            self.view += 1


class HotStuffProtocol(PooledReplicaProtocol):
    """Rotating-leader chained HotStuff under the pluggable-protocol contract.

    The run's adversary strategy decides which replicas stay silent (the
    equivocation strategies degrade to fail-stop here — a silent leader's
    views time out and exercise the NEW-VIEW skip path); traffic-shaping
    strategies act at the network seam without touching this adapter.
    """

    name = "hotstuff"
    replica_class = HotStuffReplica
    timeout_counter = "views_timed_out"

    def __init__(self, view_timeout: float = 1.0) -> None:
        if view_timeout <= 0:
            raise ValueError("view_timeout must be positive")
        self.view_timeout = view_timeout

    def replica_options(self) -> dict:
        return {"view_timeout": self.view_timeout}

    def start(self, nodes: Sequence[HotStuffReplica]) -> None:
        for replica in nodes:
            if not replica.silent:
                replica.env.process(replica.run())
