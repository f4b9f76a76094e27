"""The protocol-pluggable cluster contract.

A :class:`ConsensusProtocol` is everything :func:`repro.core.cluster.run_cluster`
needs to evaluate one BFT ordering protocol on the shared simulated substrate:

* a **node factory** (:meth:`ConsensusProtocol.build_nodes`) turning the
  already-wired environment / network / keystore into protocol nodes;
* a **launcher** (:meth:`ConsensusProtocol.start`) and a measurement-window
  hook (:meth:`ConsensusProtocol.set_measurement_window`);
* **metric hooks** (:meth:`ConsensusProtocol.node_metrics`) mapping one node's
  commit events, signature counts and round outcomes onto the protocol-agnostic
  :class:`NodeMetrics` shape the runner aggregates into a
  :class:`~repro.core.cluster.ClusterResult`.

The runner owns *all* the wiring that used to be copy-pasted between the
retired per-protocol cluster helpers: seeding, latency model selection, the
:class:`~repro.net.network.Network`, the :class:`~repro.crypto.keys.KeyStore`,
crash/recover schedules, network fault controllers, workload attachment and
metric aggregation.  A new protocol is therefore a ~200-line module
implementing this contract plus a :func:`register` call — it immediately
gains WAN topologies, fault timelines, client workloads, ``--jobs`` sweeps
and the EXPERIMENTS.md report.

Delivery flows through an explicit seam: every node exposes a
:class:`DeliveryStream` (via :meth:`ConsensusProtocol.delivery_stream`) onto
which it pushes one :class:`Delivery` per committed block, in its local total
order.  Consumers — the per-node :class:`~repro.ledger.state.LedgerExecutor`,
metric counters, and the lane merge of :mod:`repro.protocols.multiplexed` —
subscribe to the stream instead of being hand-called from inside each
protocol's commit callback.  Single-lane protocols are the trivial one-stream
case; ``multiplexed(P, lanes=M)`` merges M of them.

Nodes that should carry client workloads (``fill_blocks=False`` configs)
additionally expose the small duck-typed surface the workload clients in
:mod:`repro.workload.clients` rely on: ``submit_transaction(size_bytes=...,
client_id=...)`` and a ``delivered_transactions`` counter.
"""

from __future__ import annotations

import abc
import random
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.crypto.cost_model import CryptoCostModel
from repro.ledger.delivery import Delivery, DeliveryStream
from repro.ledger.transaction import Transaction

if TYPE_CHECKING:
    from repro.core.config import FireLedgerConfig
    from repro.crypto.keys import KeyStore
    from repro.net.network import Network
    from repro.sim import Environment

__all__ = [
    "ConsensusProtocol", "Delivery", "DeliveryStream", "NodeMetrics",
    "PooledReplicaMixin", "PooledReplicaProtocol", "SharedTxPool",
    "committed_node_metrics", "get", "names", "register", "resolve",
]


@dataclass
class NodeMetrics:
    """One node's contribution to the aggregated cluster result.

    ``tps``/``bps``/``recoveries_per_second`` are rates over the node's
    measurement window.  ``latency_samples`` are per-block commit latencies in
    seconds.  The three dicts all end up in ``ClusterResult.breakdown`` but
    aggregate differently across correct nodes:

    * ``stage_breakdown`` — per-round stage timings (FireLedger's ``A->B`` ...
      ``D->E`` spans), averaged per key;
    * ``totals`` — cluster-wide counters (round outcomes, recoveries, skipped
      views, signature counts), summed per key;
    * ``means`` — per-node quantities that every correct node observes
      identically (a baseline's committed block/transaction counts), averaged
      per key.
    """

    tps: float = 0.0
    bps: float = 0.0
    recoveries_per_second: float = 0.0
    latency_samples: list[float] = field(default_factory=list)
    #: Folded share of the latency distribution when the node's recorder ran
    #: in streaming (bounded-memory) mode; merged with every node's raw
    #: samples into one histogram-backed cluster summary.
    latency_histogram: Optional[object] = None
    stage_breakdown: dict[str, float] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)


class ConsensusProtocol(abc.ABC):
    """Contract one BFT protocol implements to run under ``run_cluster``.

    Implementations are stateless: all per-run state lives on the node
    objects returned by :meth:`build_nodes`, so one registered instance can
    serve any number of concurrent runs.
    """

    #: Registry name (``protocol=`` value on the CLI and in scenario specs).
    name: str = ""
    #: Smallest cluster the protocol is defined for.
    min_nodes: int = 4

    @abc.abstractmethod
    def build_nodes(self, env: "Environment", network: "Network",
                    keystore: "KeyStore", config: "FireLedgerConfig",
                    rng: random.Random, adversary=None) -> list:
        """Create one node object per ``config.n_nodes``.

        ``rng`` is the run's root random source — draw per-node seeds from it
        (``rng.randrange(2 ** 62)``) so runs stay deterministic per seed.
        ``adversary`` is the run's bound
        :class:`~repro.adversary.base.AdversaryStrategy` (None without
        Byzantine nodes); its ``nodes`` are the Byzantine membership.
        Implementations consult its ``worker_factory(self.name)`` for
        misbehaving worker substitution and ``is_silent(node_id, self.name)``
        for nodes whose process must never start.
        """

    @abc.abstractmethod
    def start(self, nodes: Sequence) -> None:
        """Launch every node's simulation process(es)."""

    def set_measurement_window(self, nodes: Sequence, warmup: float) -> None:
        """Exclude ``[0, warmup)`` from every node's measured metrics."""
        for node in nodes:
            if hasattr(node, "recorder"):
                node.recorder.measure_start = warmup
            else:
                node.measure_start = warmup

    @abc.abstractmethod
    def node_metrics(self, node, duration: float) -> NodeMetrics:
        """Summarise one node's run over its measurement window."""

    def recorder_of(self, node) -> Optional[object]:
        """The node's :class:`~repro.metrics.recorder.MetricsRecorder`, if any."""
        return getattr(node, "recorder", None)

    def delivery_stream(self, node) -> Optional[DeliveryStream]:
        """The node's :class:`DeliveryStream`, if it exposes one.

        The cluster runner subscribes the per-node execution layer here
        (uniformly, for every protocol) and the ``multiplexed`` meta-protocol
        merges the lanes' streams through it.  None means the node does not
        publish deliveries (no execution, no lane composition).
        """
        return getattr(node, "delivery_stream", None)

    def executor_of(self, node) -> Optional[object]:
        """The node's :class:`~repro.ledger.state.LedgerExecutor`, if any.

        The cluster runner compares the executors of all correct nodes after
        a run (the cross-node state-root oracle); None means the node did not
        execute (execution disabled, or a protocol without the hook).
        """
        return getattr(node, "executor", None)


class SharedTxPool:
    """Cluster-wide pending pool for leader-driven baseline protocols.

    FireLedger routes a client write to one node's least-loaded worker; the
    leader-driven baselines instead model clients submitting to the ordering
    service as a whole (requests reach whichever replica currently batches).
    Every replica's ``submit_transaction`` feeds this shared pool and the
    proposing leader drains up to a batch at a time, so open-loop /
    closed-loop / bursty scenario workloads drive all protocols comparably.
    """

    def __init__(self, max_pending: Optional[int] = None,
                 carry_transactions: bool = False) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        self.max_pending = max_pending
        self.pending = 0
        self.submitted = 0
        self.rejected = 0
        #: Execution-layer mode: keep the actual Transaction objects so the
        #: leader can ship them in its proposals.  Off by default — the
        #: throughput benchmarks only need counts.
        self._transactions = [] if carry_transactions else None

    def submit(self, transaction=None) -> bool:
        """Queue one transaction; returns False (and counts) when full."""
        if self.max_pending is not None and self.pending >= self.max_pending:
            self.rejected += 1
            return False
        self.pending += 1
        self.submitted += 1
        if self._transactions is not None and transaction is not None:
            self._transactions.append(transaction)
        return True

    def take(self, max_count: int) -> int:
        """Drain up to ``max_count`` pending transactions; returns the count."""
        count, _ = self.take_transactions(max_count)
        return count

    def take_transactions(self, max_count: int) -> "tuple[int, tuple]":
        """Drain up to ``max_count``; returns ``(count, transactions)``.

        The transactions tuple is empty unless the pool was built with
        ``carry_transactions=True`` (execution-enabled runs).
        """
        taken = min(self.pending, max_count)
        self.pending -= taken
        if self._transactions is None:
            return taken, ()
        batch = tuple(self._transactions[:taken])
        del self._transactions[:taken]
        return taken, batch


def committed_node_metrics(node, duration: float,
                           totals: Optional[dict] = None) -> NodeMetrics:
    """Build :class:`NodeMetrics` from a replica's ``committed`` record list.

    Shared by the leader-driven protocols: filters the records (anything with
    ``tx_count`` / ``proposed_at`` / ``committed_at`` fields) to the node's
    measurement window and derives rates, latency samples and the
    ``blocks_committed`` / ``transactions_committed`` means.
    """
    window = max(duration - node.measure_start, 1e-9)
    committed = [record for record in node.committed
                 if record.committed_at >= node.measure_start]
    transactions = sum(record.tx_count for record in committed)
    means = {"blocks_committed": len(committed),
             "transactions_committed": transactions}
    pool = getattr(node, "pool", None)
    if pool is not None and getattr(pool, "max_pending", None) is not None:
        # The pool is cluster-wide shared state: every replica reports the
        # same figure, so it averages (not sums) across correct nodes.
        means["tx_rejected"] = pool.rejected
    return NodeMetrics(
        tps=transactions / window,
        bps=len(committed) / window,
        latency_samples=[record.committed_at - record.proposed_at
                         for record in committed],
        totals=dict(totals or {}),
        means=means,
    )


class PooledReplicaMixin:
    """Replica surface shared by the leader-driven protocols.

    HotStuff and BFT-SMaRt replicas expose the same duck-typed workload
    surface the clients in :mod:`repro.workload.clients` drive — a
    ``submit_transaction`` feeding the cluster-wide :class:`SharedTxPool`
    plus delivered-work counters — and the same batch-draining rule for
    ``fill_blocks=False`` configs.  A concrete replica provides ``env``,
    ``tx_size``, ``batch_size``, ``fill_blocks``, ``pool``, a
    ``delivery_stream`` (whose counters back the delivered-work
    properties), and sets ``HEADER_OVERHEAD`` to its wire format's
    per-batch framing bytes.
    """

    #: Per-batch framing bytes of the concrete protocol's wire format.
    HEADER_OVERHEAD = 0

    #: Fail-stop adversary model: a silent replica never runs its process.
    #: Set by :meth:`silence`; the protocol adapters skip silent replicas
    #: in ``start()``.
    silent = False

    def silence(self, network) -> None:
        """Turn this replica into a fail-stop (silent) node.

        A silent replica drops traffic at the network layer (like a crashed
        node would); buffering a whole run's broadcasts in a never-drained
        inbox would only grow memory.
        """
        self.silent = True
        network.endpoint(self.node_id).router = lambda message: None

    def submit_transaction(self, size_bytes: Optional[int] = None,
                           client_id: int = 0,
                           payload_seed: Optional[int] = None,
                           sender: Optional[int] = None,
                           recipient: Optional[int] = None,
                           amount: int = 0,
                           nonce: int = 0) -> Optional[Transaction]:
        """Client write request, queued on the cluster-wide pending pool.

        Returns None when the pool is at its ``max_pending`` cap, mirroring
        FLO's backpressure so capped scenarios drive all protocols alike.
        The optional transfer fields feed the execution layer when the pool
        carries transactions (execution-enabled runs).
        """
        transaction = Transaction.create(client_id=client_id,
                                         size_bytes=size_bytes or self.tx_size,
                                         now=self.env.now,
                                         payload_seed=payload_seed,
                                         sender=sender, recipient=recipient,
                                         amount=amount, nonce=nonce)
        if self.pool is not None and not self.pool.submit(transaction):
            return None
        return transaction

    @property
    def delivered_blocks(self) -> int:
        return self.delivery_stream.deliveries

    @property
    def delivered_transactions(self) -> int:
        return self.delivery_stream.transactions

    def _next_batch(self) -> "tuple[int, tuple]":
        """``(tx_count, transactions)`` for the next proposal: a full batch
        of synthetic transactions when saturated, otherwise whatever the
        client pool has pending (possibly zero — an empty batch keeps the
        pipeline's cadence observable, exactly like FireLedger's empty
        blocks).  The transactions tuple is non-empty only when the shared
        pool carries them (execution-enabled runs)."""
        if self.fill_blocks or self.pool is None:
            return self.batch_size, ()
        return self.pool.take_transactions(self.batch_size)

    def _batch_bytes(self, tx_count: int) -> int:
        return tx_count * self.tx_size + self.HEADER_OVERHEAD


class PooledReplicaProtocol(ConsensusProtocol):
    """Adapter shared by the leader-driven protocols.

    Every replica of a run shares one :class:`SharedTxPool` and one
    :class:`~repro.crypto.cost_model.CryptoCostModel`; replicas the run's
    adversary marks silent are fail-stop (:meth:`PooledReplicaMixin.silence`).
    A subclass sets ``replica_class`` and ``timeout_counter`` (the replica
    attribute counting timed-out views or instances, reported in the
    breakdown), returns its constructor options from :meth:`replica_options`
    and implements :meth:`start`.
    """

    replica_class: type
    timeout_counter: str

    def replica_options(self) -> dict:
        """Extra keyword arguments for every replica (timeouts)."""
        return {}

    def build_nodes(self, env, network, keystore, config, rng,
                    adversary=None) -> list:
        cost = CryptoCostModel(config.machine)
        pool = SharedTxPool(max_pending=config.pool_max_pending,
                            carry_transactions=config.execute_transactions)
        replicas = [
            self.replica_class(env, network, node_id, keystore, config.f,
                               config.batch_size, config.tx_size, cost,
                               pool=pool, fill_blocks=config.fill_blocks,
                               **self.replica_options())
            for node_id in range(config.n_nodes)
        ]
        if adversary is not None:
            for replica in replicas:
                if adversary.is_silent(replica.node_id, self.name):
                    replica.silence(network)
        return replicas

    def node_metrics(self, node, duration: float) -> NodeMetrics:
        return committed_node_metrics(
            node, duration,
            totals={self.timeout_counter: getattr(node, self.timeout_counter),
                    "signatures": node.signatures})


_PROTOCOLS: dict[str, ConsensusProtocol] = {}


def register(protocol: ConsensusProtocol) -> ConsensusProtocol:
    """Register a protocol instance under its ``name``."""
    if not protocol.name:
        raise ValueError("a ConsensusProtocol needs a non-empty name")
    if protocol.name in _PROTOCOLS:
        raise ValueError(f"protocol {protocol.name!r} already registered")
    _PROTOCOLS[protocol.name] = protocol
    return protocol


def names() -> list[str]:
    """Registered protocol names, in registration order."""
    return list(_PROTOCOLS)


#: Dynamic protocol spelling: ``multiplexed(<base>, lanes=<M>)``.
_MULTIPLEXED_NAME = re.compile(
    r"^multiplexed\(\s*(?P<base>[a-z0-9_-]+)\s*,\s*lanes\s*=\s*(?P<lanes>\d+)\s*\)$")


def get(name: str) -> ConsensusProtocol:
    """Look up a registered protocol by name.

    Besides the registered names, the dynamic spelling
    ``multiplexed(<base>, lanes=<M>)`` resolves to a
    :class:`~repro.protocols.multiplexed.MultiplexedProtocol` over the
    registered base protocol.
    """
    try:
        return _PROTOCOLS[name]
    except KeyError:
        match = _MULTIPLEXED_NAME.match(name.strip())
        if match is not None:
            # Local import: the multiplexed module builds on this one.
            from repro.protocols.multiplexed import MultiplexedProtocol

            return MultiplexedProtocol(get(match.group("base")),
                                       lanes=int(match.group("lanes")))
        raise KeyError(f"unknown protocol {name!r}; "
                       f"known: {', '.join(names())}") from None


def resolve(protocol: "str | ConsensusProtocol") -> ConsensusProtocol:
    """Accept a registry name or a :class:`ConsensusProtocol` instance."""
    if isinstance(protocol, ConsensusProtocol):
        return protocol
    return get(protocol)
